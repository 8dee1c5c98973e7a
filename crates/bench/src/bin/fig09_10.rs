//! Figs. 9 and 10 — cumulative cell movement and total density overflow
//! against diffusion time, DIFF(G) vs DIFF(L), on ckt1. Emits CSV series
//! into `results/`.
//!
//! The input is ckt1 with a centred hotspot (the `diffl-hotspot`
//! benchmark's inflation: 5% of the movable area added within 20% of
//! the die centre). The paper's distributed ckt1 inflation leaves no
//! window overfull at the default scale, so DIFF(L) would take no step
//! and the comparison would hold trivially.
//!
//! The x-axis is FTCS sweeps, the unit of diffusion time both runners
//! share: DIFF(G) advects once per doubling stride of sweeps, DIFF(L)
//! once per sweep. Each CSV row is one sweep; a series that has no step
//! ending at that sweep repeats its last value. Row 0 is the input.
//!
//! The overflow is *measured*: an observer splats the placement after
//! every step and takes `DensityMap::total_overflow(d_max)` over the whole
//! grid, so both series say what each run leaves for the legalizer. The
//! engines' own `StepRecord::computed_overflow` would not compare: it sums
//! only live bins, which in local diffusion are just the round's windows.

use dpm_bench::suite::diffusion_cfg;
use dpm_bench::{scale_from_env, write_result_file, CKT_DEFAULT_SCALE};
use dpm_diffusion::{DiffusionObserver, GlobalDiffusion, LocalDiffusion, StepEvent};
use dpm_gen::suites::ckt_suite;
use dpm_gen::InflationSpec;
use dpm_place::{BinGrid, DensityMap};
use std::fmt::Write as _;

/// Splats the placement after every step: each step's sweeps, movement
/// and measured whole-grid overflow.
struct MeasuredOverflow {
    map: DensityMap,
    d_max: f64,
    steps: Vec<(usize, f64, f64)>,
}

impl DiffusionObserver for MeasuredOverflow {
    fn on_step(&mut self, event: &StepEvent<'_>) {
        self.map.recompute(event.netlist, event.placement);
        self.steps.push((
            event.record.sweeps,
            event.record.movement,
            self.map.total_overflow(self.d_max),
        ));
    }
}

/// One run's series sampled at every sweep `0..=sweeps`: (cumulative
/// movement, measured overflow) after the last step ending at or before
/// that sweep, starting from the input's overflow `start`.
fn per_sweep(steps: &[(usize, f64, f64)], start: f64, sweeps: usize) -> Vec<(f64, f64)> {
    let (mut at, mut moved, mut overflow) = (0, 0.0, start);
    let mut steps = steps.iter().peekable();
    (0..=sweeps)
        .map(|s| {
            while let Some(&(n, m, o)) = steps.next_if(|st| at + st.0 <= s) {
                at += n;
                moved += m;
                overflow = o;
            }
            (moved, overflow)
        })
        .collect()
}

fn main() {
    let scale = scale_from_env(CKT_DEFAULT_SCALE);
    println!("Reproducing Figs. 9-10 at scale {scale} (ckt1, centred 5% hotspot).");
    let entry = &ckt_suite(scale)[0];
    let mut bench = entry.spec.generate();
    bench.inflate(&InflationSpec::centered(
        0.05,
        0.2,
        entry.spec.seed ^ 0x5eed,
    ));
    let cfg = diffusion_cfg(&bench);
    let grid = BinGrid::new(bench.die.outline(), cfg.bin_size);
    let input = DensityMap::from_placement(&bench.netlist, &bench.placement, grid);
    let start = input.total_overflow(cfg.d_max);
    let observer = || MeasuredOverflow {
        map: input.clone(),
        d_max: cfg.d_max,
        steps: Vec::new(),
    };

    let (mut pg, mut og) = (bench.placement.clone(), observer());
    let rg = GlobalDiffusion::new(cfg.clone()).run_observed(
        &bench.netlist,
        &bench.die,
        &mut pg,
        &|| false,
        &mut og,
    );
    let (mut pl, mut ol) = (bench.placement.clone(), observer());
    let rl = LocalDiffusion::new(cfg.clone()).run_observed(
        &bench.netlist,
        &bench.die,
        &mut pl,
        &|| false,
        &mut ol,
    );

    let sweeps = |o: &MeasuredOverflow| o.steps.iter().map(|s| s.0).sum::<usize>();
    let (gs, ls) = (sweeps(&og), sweeps(&ol));
    let g = per_sweep(&og.steps, start, gs.max(ls));
    let l = per_sweep(&ol.steps, start, gs.max(ls));
    let mut csv = String::from(
        "sweeps,global_cum_movement,global_overflow,local_cum_movement,local_overflow\n",
    );
    for (s, ((gm, go), (lm, lo))) in g.iter().zip(&l).enumerate() {
        let _ = writeln!(csv, "{s},{gm},{go},{lm},{lo}");
    }
    let path = write_result_file("fig09_10_ckt1.csv", &csv);
    println!("wrote {}", path.display());

    let (gm, lm) = (rg.telemetry.total_movement(), rl.telemetry.total_movement());
    println!(
        "Fig. 9 shape check — total movement: DIFF(G) {gm:.1} vs DIFF(L) {lm:.1}, \
         G/L {} (paper: local ~7x lower on ckt1)",
        if lm > 0.0 {
            format!("{:.2}x", gm / lm)
        } else {
            "n/a".into()
        }
    );
    println!(
        "Fig. 10 shape check — sweeps: DIFF(G) {gs} in {} strides vs DIFF(L) {ls} in {} rounds; \
         measured overflow {start:.2} -> DIFF(G) {:.2} vs DIFF(L) {:.2} (whole grid)",
        rg.steps,
        rl.rounds,
        g.last().map_or(start, |p| p.1),
        l.last().map_or(start, |p| p.1),
    );
}
