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
//! Any other argument is an error (exit 2): the field is always f64, so
//! these two checksums per solver are the whole contract.
//!
//! Usage: `cargo run --release --bin golden_checksum [-- vol]`

use dpm_diffusion::{DiffusionConfig, GlobalDiffusion, LocalDiffusion, VolumetricDiffusion};
use dpm_gen::{CircuitSpec, InflationSpec, VolCircuitSpec};

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

fn main() {
    let cfg = DiffusionConfig::default();
    eprintln!("golden_checksum: {} worker thread(s)", cfg.threads);

    match std::env::args().nth(1).as_deref() {
        None => {}
        Some("vol") => {
            println!("{:016x}", vol_checksum(&cfg));
            return;
        }
        Some(other) => {
            eprintln!("golden_checksum: unknown mode {other:?} (usage: golden_checksum [vol])");
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
        absorb(&mut hash, &(result.steps as u64).to_le_bytes());
        absorb(&mut hash, &(result.rounds as u64).to_le_bytes());
        for p in bench.placement.as_slice() {
            absorb(&mut hash, &p.x.to_bits().to_le_bytes());
            absorb(&mut hash, &p.y.to_bits().to_le_bytes());
        }
    }
    println!("{hash:016x}");
}
