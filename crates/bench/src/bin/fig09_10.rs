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
//! ending at that sweep repeats its last value.

use dpm_bench::suite::diffusion_cfg;
use dpm_bench::{scale_from_env, write_result_file, CKT_DEFAULT_SCALE};
use dpm_diffusion::{GlobalDiffusion, LocalDiffusion, Telemetry};
use dpm_gen::suites::ckt_suite;
use dpm_gen::InflationSpec;
use std::fmt::Write as _;

/// One run's series sampled at every sweep `1..=sweeps`: (cumulative
/// movement, computed overflow) after the last step ending at or before
/// that sweep. Both runners' first step is one sweep, so only a run that
/// took no step at all reads `(0, 0)`.
fn per_sweep(t: &Telemetry, sweeps: usize) -> Vec<(f64, f64)> {
    let (mut at, mut moved, mut overflow) = (0, 0.0, 0.0);
    let mut records = t.records().iter().peekable();
    (1..=sweeps)
        .map(|s| {
            while let Some(r) = records.next_if(|r| at + r.sweeps <= s) {
                at += r.sweeps;
                moved += r.movement;
                overflow = r.computed_overflow;
            }
            (moved, overflow)
        })
        .collect()
}

fn total_sweeps(t: &Telemetry) -> usize {
    t.records().iter().map(|r| r.sweeps).sum()
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

    let mut pg = bench.placement.clone();
    let rg = GlobalDiffusion::new(cfg.clone()).run(&bench.netlist, &bench.die, &mut pg);
    let mut pl = bench.placement.clone();
    let rl = LocalDiffusion::new(cfg).run(&bench.netlist, &bench.die, &mut pl);

    let (gs, ls) = (total_sweeps(&rg.telemetry), total_sweeps(&rl.telemetry));
    let g = per_sweep(&rg.telemetry, gs.max(ls));
    let l = per_sweep(&rl.telemetry, gs.max(ls));
    let mut csv = String::from(
        "sweeps,global_cum_movement,global_overflow,local_cum_movement,local_overflow\n",
    );
    for (s, ((gm, go), (lm, lo))) in g.iter().zip(&l).enumerate() {
        let _ = writeln!(csv, "{},{gm},{go},{lm},{lo}", s + 1);
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
         final overflow DIFF(G) {:.2} vs DIFF(L) {:.2}",
        rg.steps,
        rl.rounds,
        g.last().map_or(0.0, |p| p.1),
        l.last().map_or(0.0, |p| p.1),
    );
}
