//! Golden placement checksums: the paper's Algorithms 1 and 3 (FTCS,
//! Eqs. 4–7), their spectral and volumetric variants, windowed DIFF(L)
//! and field migration, pinned bit for bit.
//!
//! Each leg runs on fixed generated circuits and hashes (FNV-1a) the
//! exact IEEE-754 bit patterns of every final position plus its
//! step/round counts. The `dpm-par` decomposition is independent of the
//! worker count, so every leg must reproduce its literal at 1, 2 and 4
//! threads under both solvers. The literals are part of the contract: a
//! kernel change that shifts a single output bit fails here instead of
//! being silently re-baselined. Local diffusion and field migration
//! always step FTCS, so their literals are the same under both solvers.
//! The field is always f64, so these six literals are the whole
//! contract.
//!
//! The spectral legs run on 7×7 and 6×6×3 grids, so they pin the
//! generic-length DCT down to its summation order: the fold by even/odd
//! symmetry (`x[j] ± x[n−1−j]` rounded before the multiply) and the
//! order of every output's adds fix their last bits.

use dpm_diffusion::{
    DiffusionConfig, DiffusionResult, FieldMigration, GlobalDiffusion, LocalDiffusion, SolverKind,
    VolumetricDiffusion,
};
use dpm_gen::{CircuitSpec, InflationSpec, VolCircuitSpec};
use dpm_geom::Point;
use dpm_place::{BinGrid, Placement};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn absorb(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Hashes a planar run's step and round counts and every final position.
fn absorb_run(hash: &mut u64, result: &DiffusionResult, placement: &Placement) {
    absorb(hash, &(result.steps as u64).to_le_bytes());
    absorb(hash, &(result.rounds as u64).to_le_bytes());
    for p in placement.as_slice() {
        absorb(hash, &p.x.to_bits().to_le_bytes());
        absorb(hash, &p.y.to_bits().to_le_bytes());
    }
}

/// The planar leg: one global run on 400 cells, then one local run on
/// 600, each with a centred inflation, hashed in that order.
fn planar_checksum(cfg: &DiffusionConfig) -> u64 {
    let mut hash = FNV_OFFSET;
    for (global, cells, seed) in [(true, 400usize, 11u64), (false, 600, 23)] {
        let mut bench = CircuitSpec::with_size("golden", cells, seed).generate();
        bench.inflate(&InflationSpec::centered(0.25, 0.3, seed ^ 0x901D));
        let result = if global {
            GlobalDiffusion::new(cfg.clone()).run(&bench.netlist, &bench.die, &mut bench.placement)
        } else {
            LocalDiffusion::new(cfg.clone()).run(&bench.netlist, &bench.die, &mut bench.placement)
        };
        absorb_run(&mut hash, &result, &bench.placement);
    }
    hash
}

/// The volumetric leg: a 3-tier stack with a hotspot in the middle
/// tier, no macros (so the spectral stack solver also has a dense grid
/// to run on). Hashes positions, depths, and the evolved density field
/// bit for bit.
fn vol_checksum(cfg: &DiffusionConfig) -> u64 {
    let bench = VolCircuitSpec::with_size("golden3d", 3, 250, 31)
        .with_hotspot(1)
        .generate();
    let mut vp = bench.placement.clone();
    let result = VolumetricDiffusion::new(cfg.clone(), bench.layers()).run(
        &bench.netlist,
        &bench.die,
        &mut vp,
    );
    let mut hash = FNV_OFFSET;
    absorb(&mut hash, &(result.steps as u64).to_le_bytes());
    absorb(&mut hash, &[u8::from(result.converged)]);
    for p in vp.xy.as_slice() {
        absorb(&mut hash, &p.x.to_bits().to_le_bytes());
        absorb(&mut hash, &p.y.to_bits().to_le_bytes());
    }
    for z in &vp.z {
        absorb(&mut hash, &z.to_bits().to_le_bytes());
    }
    for d in &result.field {
        absorb(&mut hash, &d.to_bits().to_le_bytes());
    }
    hash
}

/// The windowed local leg: 3,000 cells shaped like the paper's
/// industrial suite (55% utilization, 97% locally dense clusters,
/// whitespace every 6 clusters), 10% of the area inflated within 15% of
/// the die centre, DIFF(L) with W1/W2 = 1/2 on 2.5-row bins. It runs two
/// rounds, in which 793 and 1,007 of the 3,032 cells are live, so it
/// pins the live-cell advect list where the list actually skips cells.
/// In the planar leg's local run nearly every cell is live.
fn local_checksum(cfg: &DiffusionConfig) -> u64 {
    let seed = 1;
    let mut bench = CircuitSpec::with_size("golden_local", 3_000, seed)
        .with_utilization(0.55)
        .with_local_utilization(0.97)
        .with_clusters_per_gap(6)
        .generate();
    bench.inflate(&InflationSpec::centered(0.10, 0.15, seed ^ 0x5EED));
    let cfg = cfg
        .clone()
        .with_bin_size(2.5 * bench.die.row_height())
        .with_windows(1, 2)
        .with_update_period(10);
    let result = LocalDiffusion::new(cfg).run(&bench.netlist, &bench.die, &mut bench.placement);
    let mut hash = FNV_OFFSET;
    absorb_run(&mut hash, &result, &bench.placement);
    hash
}

/// The field leg: 1,500 cells around two macros, 40 steps of
/// [`FieldMigration`] at weight 0.8 on 2.5-row bins, with a field that
/// peaks at a point off the die centre and falls linearly to zero.
/// Field migration never tests convergence, so it never takes the
/// spectral jump. Hashes each step's movement, overflow and peak
/// density, the step and round counts, and every final position.
fn field_checksum(cfg: &DiffusionConfig) -> u64 {
    let bench = CircuitSpec::with_size("golden_field", 1_500, 17)
        .with_macros(2)
        .generate();
    let cfg = cfg.clone().with_bin_size(2.5 * bench.die.row_height());
    let grid = BinGrid::new(bench.die.outline(), cfg.bin_size);
    let o = bench.die.outline();
    let hot = Point::new(o.llx + 0.4 * o.width(), o.lly + 0.6 * o.height());
    let reach = 0.35 * (o.width() + o.height());
    let field: Vec<f64> = grid
        .iter()
        .map(|idx| (1.0 - grid.bin_center(idx).distance(hot) / reach).max(0.0))
        .collect();
    let mut placement = bench.placement.clone();
    let result = FieldMigration::new(cfg)
        .with_weight(0.8)
        .with_steps(40)
        .run(&bench.netlist, &bench.die, &mut placement, &field);
    let mut hash = FNV_OFFSET;
    for r in result.telemetry.records() {
        absorb(&mut hash, &r.movement.to_bits().to_le_bytes());
        absorb(&mut hash, &r.computed_overflow.to_bits().to_le_bytes());
        absorb(&mut hash, &r.max_density.to_bits().to_le_bytes());
    }
    absorb_run(&mut hash, &result, &placement);
    hash
}

#[test]
fn golden_checksums_hold_for_every_solver_and_thread_count() {
    type Leg = fn(&DiffusionConfig) -> u64;
    // Each leg with its pinned literal under FTCS and under the spectral
    // solver.
    let legs: [(&str, Leg, [u64; 2]); 4] = [
        (
            "planar",
            planar_checksum,
            [0x17e4_ee4d_823b_c613, 0x14f7_0731_4613_0e25],
        ),
        (
            "vol",
            vol_checksum,
            [0xdcc9_14ce_61fc_b375, 0x286a_7ae9_98eb_a842],
        ),
        ("local", local_checksum, [0x633c_88d3_edb0_ecf4; 2]),
        ("field", field_checksum, [0xb049_aa5d_3cfb_ed5c; 2]),
    ];
    let mut mismatches = Vec::new();
    for (s, solver) in [SolverKind::Ftcs, SolverKind::Spectral]
        .into_iter()
        .enumerate()
    {
        for threads in [1, 2, 4] {
            let cfg = DiffusionConfig::default()
                .with_solver(solver)
                .with_threads(threads);
            for (leg, checksum, literals) in legs {
                let (got, want) = (checksum(&cfg), literals[s]);
                if got != want {
                    mismatches.push(format!(
                        "{leg} {} threads={threads}: {got:016x} != {want:016x}",
                        solver.as_str()
                    ));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden checksums broke:\n  {}",
        mismatches.join("\n  ")
    );
}
