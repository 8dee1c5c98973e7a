//! Golden placement checksum for the CI determinism matrix.
//!
//! Runs one global and one local diffusion migration on fixed generated
//! circuits with [`DiffusionConfig::default`] — which honors the
//! `DPM_THREADS` environment variable — and prints an FNV-1a hash over
//! the exact IEEE-754 bit patterns of every final cell position plus
//! the step/round counts. Because the `dpm-par` decomposition is
//! independent of the worker count, the printed checksum must be
//! identical at any `DPM_THREADS` value; `scripts/ci.sh` runs this
//! binary at 1, 2 and 4 threads and diffs the outputs.
//!
//! With the `vol` argument it instead runs one volumetric (3-tier)
//! migration on a generated stack with an overfull middle tier and
//! hashes the planar position bits, the depth bits, and the final
//! density field bits — the 3D leg of the same determinism matrix. The
//! default (planar) output is byte-identical to what it was before the
//! volumetric mode existed.
//!
//! With the `local` argument it runs one windowed DIFF(L) migration: a
//! ckt-shaped circuit with a centred hotspot, on which several rounds
//! run and each round's windows leave most cells frozen. It hashes the
//! step/round counts and every final position. Local diffusion always
//! steps FTCS, so this literal is the same under either solver.
//!
//! With the `field` argument it runs one [`FieldMigration`]: a circuit
//! with macros pushed off a hot spot by an external field for a fixed
//! number of steps. It hashes the step count, every step's telemetry
//! and every final position. Field migration always steps FTCS, so
//! this literal is the same under either solver.
//!
//! Any other argument is an error (exit 2): the field is always f64, so
//! these checksums per solver are the whole contract.
//!
//! Usage: `cargo run --release --bin golden_checksum [-- vol|local|field]`

use dpm_diffusion::{
    DiffusionConfig, DiffusionResult, FieldMigration, GlobalDiffusion, LocalDiffusion,
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

/// The volumetric leg: a 3-tier stack with a hotspot in the middle
/// tier, no macros (so the spectral stack solver also has a dense grid
/// to run on under `DPM_SOLVER=spectral`). Hashes positions, depths,
/// and the evolved density field bit-for-bit.
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
/// rounds, in which 793 and 1,007 of the 3,032 cells are live. In the
/// planar leg's local run nearly every cell is live.
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
    eprintln!(
        "golden_checksum: local leg ran {} round(s), {} step(s)",
        result.rounds, result.steps
    );
    let mut hash = FNV_OFFSET;
    absorb_run(&mut hash, &result, &bench.placement);
    hash
}

/// The field leg: 1,500 cells around two macros, 40 steps of
/// [`FieldMigration`] at weight 0.8 on 2.5-row bins, with a field that
/// peaks at a point off the die centre and falls linearly to zero.
/// Hashes the step and round counts, each step's movement, overflow and
/// peak density, and every final position.
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
    eprintln!(
        "golden_checksum: field leg ran {} step(s), total movement {:.1}",
        result.steps,
        result.telemetry.total_movement()
    );
    let mut hash = FNV_OFFSET;
    for r in result.telemetry.records() {
        absorb(&mut hash, &r.movement.to_bits().to_le_bytes());
        absorb(&mut hash, &r.computed_overflow.to_bits().to_le_bytes());
        absorb(&mut hash, &r.max_density.to_bits().to_le_bytes());
    }
    absorb_run(&mut hash, &result, &placement);
    hash
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

fn main() {
    let cfg = DiffusionConfig::default();
    eprintln!("golden_checksum: {} worker thread(s)", cfg.threads);

    match std::env::args().nth(1).as_deref() {
        None => {}
        Some("vol") => {
            println!("{:016x}", vol_checksum(&cfg));
            return;
        }
        Some("local") => {
            println!("{:016x}", local_checksum(&cfg));
            return;
        }
        Some("field") => {
            println!("{:016x}", field_checksum(&cfg));
            return;
        }
        Some(other) => {
            eprintln!(
                "golden_checksum: unknown mode {other:?} (usage: golden_checksum [vol|local|field])"
            );
            std::process::exit(2);
        }
    }
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
    println!("{hash:016x}");
}
