//! Criterion-free throughput harness for the four diffusion hot kernels
//! (FTCS step, velocity field, cell advection, density splat) at 1/2/4/8
//! worker threads on 256×256 and 1024×1024 bin grids, plus a
//! spectral-vs-FTCS race: the closed-form DCT solver against the stepped
//! sweeps, both as a bare field jump and end-to-end through
//! [`GlobalDiffusion`], with an explicit FLOP model for the field-update
//! work of each solver. A `spectral_generic` section times the same
//! round trip on a 113×113 grid, where the prime length takes the
//! cosine-matrix DCT path instead of the FFT. A separate `stencil3d`
//! section times the volumetric 7-point FTCS sweep on a 192×192×8 tier
//! stack at the same thread counts. An `advect_windowed` section times
//! the advects of local diffusion on a 256×256 grid whose windows leave
//! about 2% of the cells live, so a local path that walks every cell
//! again shows up against its ceiling in `scripts/ci.sh`. A
//! `splat_shuffled` section times the density splat of the 512×512
//! clustered design with its cell order permuted, as `bench_e2e`'s
//! `diffl-hotspot` does, so the netlist walk no longer follows the bin
//! rows; a splat that rebuilds per-call cell lists or stripe buckets
//! shows up against its ceiling there.
//!
//! Every sample line carries `lanes` and `precision` keys, always
//! `wide` and `f64`: the kernels have one lane path and one field
//! width, and the keys stay so committed samples and the CI bench
//! guard's sample table keep lining up. A `calibration` section times a fixed serial FP loop so
//! `scripts/ci.sh` can scale its smoke-test ns/call ceilings to the
//! speed of whatever container it runs on. `cpu_model` records the
//! `/proc/cpuinfo` model name (`"unknown"` where there is none), so the
//! CI regression rule can tell a different processor from a slower
//! build.
//!
//! Writes `BENCH_kernels.json` at the repository root (or the current
//! directory when not run from the workspace). All workloads are
//! deterministic, so the per-thread runs do identical arithmetic — the
//! timings differ only in scheduling.
//!
//! Usage: `cargo run --release --bin perf_kernels [-- [--smoke] <output-path>]`
//!
//! `--smoke` shrinks everything to a 64×64 grid with a short step budget
//! so CI can assert the output shape (every key, including the
//! `spectral_vs_ftcs` section) in a couple of seconds.

use dpm_diffusion::{
    DiffusionConfig, DiffusionEngine, DiffusionObserver, GlobalDiffusion, LocalDiffusion,
    RoundEvent, SolverKind, SpectralSolver,
};
use dpm_geom::Point;
use dpm_netlist::{CellKind, Netlist, NetlistBuilder};
use dpm_par::ThreadPool;
use dpm_place::{BinGrid, DensityMap, Die, Placement};
use std::fmt::Write as _;
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One measured kernel configuration.
struct Sample {
    kernel: &'static str,
    threads: usize,
    calls: u64,
    ns_per_call: f64,
}

impl Sample {
    /// One JSON object line (no trailing separator or newline).
    fn json(&self) -> String {
        format!(
            "{{\"kernel\": \"{}\", \"threads\": {}, \"lanes\": \"wide\", \"precision\": \"f64\", \"calls\": {}, \"ns_per_call\": {:.1}}}",
            self.kernel, self.threads, self.calls, self.ns_per_call
        )
    }
}

/// Deterministic bumpy density field with a wall block, mirroring the
/// bit-identity tests: enough structure that no kernel short-circuits.
fn bumpy_field(n: usize) -> (Vec<f64>, Vec<bool>) {
    let mut density = vec![0.0; n * n];
    for (i, d) in density.iter_mut().enumerate() {
        *d = 0.25 + ((i as u64).wrapping_mul(2654435761) % 997) as f64 / 997.0;
    }
    let mut wall = vec![false; n * n];
    for k in n / 4..n / 4 + n / 8 {
        for j in n / 2..n / 2 + n / 8 {
            wall[k * n + j] = true;
            density[k * n + j] = 0.0;
        }
    }
    (density, wall)
}

/// Synthetic overfull design on an n×n bin grid: cells clustered into the
/// central quarter of the die so the splat, velocity and advection
/// kernels all see real work.
fn clustered_design(n: usize, num_cells: usize) -> (Netlist, Placement, Die) {
    let mut b = NetlistBuilder::new();
    for i in 0..num_cells {
        b.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::Movable);
    }
    let nl = b.build().expect("valid synthetic netlist");
    let side = n as f64;
    let die = Die::new(side, side, 1.0);
    let mut p = Placement::new(nl.num_cells());
    let span = side / 2.0 - 2.0;
    for (i, c) in nl.cell_ids().enumerate() {
        // Deterministic low-discrepancy scatter over the central quarter.
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let fx = (h >> 32) as f64 / 4294967296.0;
        let fy = (h & 0xFFFF_FFFF) as f64 / 4294967296.0;
        p.set(
            c,
            Point::new(side / 4.0 + fx * span, side / 4.0 + fy * span),
        );
    }
    (nl, p, die)
}

/// The planar bumpy field extruded into `nz` tiers with a per-tier
/// amplitude ramp, so the z-leg of the 3D stencil sees real gradients
/// instead of copying identical planes.
fn bumpy_field_3d(n: usize, nz: usize) -> (Vec<f64>, Vec<bool>) {
    let (plane, wall_plane) = bumpy_field(n);
    let mut density = Vec::with_capacity(n * n * nz);
    let mut wall = Vec::with_capacity(n * n * nz);
    for t in 0..nz {
        let gain = 1.0 + t as f64 * 0.125;
        for (d, &w) in plane.iter().zip(&wall_plane) {
            density.push(if w { 0.0 } else { d * gain });
            wall.push(w);
        }
    }
    (density, wall)
}

/// Times `reps` calls split into up to eight rounds and reports the
/// fastest round's per-call mean. Shared CI boxes throttle and
/// oversubscribe unpredictably, which inflates a lifetime mean by whole
/// multiples (and by *different* multiples per kernel, corrupting every
/// derived ratio); the best round tracks the hardware's actual
/// throughput and is stable run to run.
fn best_round_ns<F: FnMut()>(reps: u64, mut call: F) -> (u64, f64) {
    let rounds = reps.clamp(1, 8);
    let per = (reps / rounds).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..per {
            call();
        }
        let ns = t0.elapsed().as_nanos() as f64 / per as f64;
        if ns < best {
            best = ns;
        }
    }
    (rounds * per, best)
}

fn time_ftcs(n: usize, threads: usize, reps: u64) -> Sample {
    let (density, wall) = bumpy_field(n);
    let mut e = DiffusionEngine::from_raw(n, n, density, Some(wall));
    e.set_threads(threads);
    e.step_density(0.1); // warm-up
    let (calls, ns_per_call) = best_round_ns(reps, || {
        e.step_density(0.1);
    });
    Sample {
        kernel: "ftcs",
        threads,
        calls,
        ns_per_call,
    }
}

fn time_velocity(n: usize, threads: usize, reps: u64) -> Sample {
    let (density, wall) = bumpy_field(n);
    let mut e = DiffusionEngine::from_raw(n, n, density, Some(wall));
    e.set_threads(threads);
    e.compute_velocities(); // warm-up
    let (calls, ns_per_call) = best_round_ns(reps, || {
        e.compute_velocities();
    });
    Sample {
        kernel: "velocity",
        threads,
        calls,
        ns_per_call,
    }
}

/// Times the density splat of [`clustered_design`]; with `shuffled`, its
/// cell order is permuted first, as `bench_e2e`'s `diffl-hotspot` does,
/// so the netlist walk no longer follows the bin rows.
fn time_splat(n: usize, num_cells: usize, threads: usize, reps: u64, shuffled: bool) -> Sample {
    let (nl, mut p, die) = clustered_design(n, num_cells);
    if shuffled {
        // The cells are identical, so permuting their positions permutes
        // the cell order.
        dpm_rng::Rng::seed_from_u64(0x005A_FF1E).shuffle(p.as_mut_slice());
    }
    let grid = BinGrid::new(die.outline(), 1.0);
    let pool = ThreadPool::new(threads);
    let mut map = DensityMap::from_placement_with_pool(&nl, &p, grid, &pool); // warm-up
    let (calls, ns_per_call) = best_round_ns(reps, || {
        map.recompute_with_pool(&nl, &p, &pool);
    });
    Sample {
        kernel: if shuffled { "splat_shuffled" } else { "splat" },
        threads,
        calls,
        ns_per_call,
    }
}

/// Times `steps` advect calls inside a global-diffusion run: global
/// diffusion advects once per doubling stride of FTCS sweeps, so the
/// sweep budget is `2^steps − 1`.
fn time_advect(n: usize, num_cells: usize, threads: usize, steps: usize) -> Sample {
    let (nl, mut p, die) = clustered_design(n, num_cells);
    let cfg = DiffusionConfig::default()
        .with_bin_size(1.0)
        .with_max_steps((1 << steps) - 1)
        .with_threads(threads);
    let result = GlobalDiffusion::new(cfg).run(&nl, &die, &mut p);
    let advect = result.telemetry.kernels().advect;
    Sample {
        kernel: "advect",
        threads,
        calls: advect.calls,
        ns_per_call: advect.total_ns() as f64 / advect.calls.max(1) as f64,
    }
}

/// A local-diffusion design on an `n`×`n` grid of unit bins: a dense
/// core of unit cells, two per bin, in a centred `n/16`-bin square, on a
/// checkerboard of single cells at half density. The windows open over
/// the core and its two-bin margin and freeze the rest, so about 2% of
/// the cells are live: a small hotspot in a large design.
fn windowed_design(n: usize) -> (Netlist, Placement, Die) {
    let core = (n - n / 16) / 2..(n + n / 16) / 2;
    let mut corners = Vec::new();
    for k in 0..n {
        for j in 0..n {
            let (x, y) = (j as f64, k as f64);
            if core.contains(&j) && core.contains(&k) {
                corners.push(Point::new(x, y));
                corners.push(Point::new(x + 0.5, y + 0.5));
            } else if (j + k) % 2 == 0 {
                corners.push(Point::new(x, y));
            }
        }
    }
    let mut b = NetlistBuilder::new();
    for i in 0..corners.len() {
        b.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::Movable);
    }
    let nl = b.build().expect("valid synthetic netlist");
    let side = n as f64;
    (nl, corners.into_iter().collect(), Die::new(side, side, 1.0))
}

/// Times the advects of two local-diffusion rounds on
/// [`windowed_design`], `reps` runs, and reports the fastest run's mean
/// per advect call. Each advect visits only the live cells, and the
/// per-round list build is billed to the round's first advect. Also
/// returns the first round's live share.
fn time_advect_windowed(n: usize, threads: usize, reps: usize) -> (Sample, f64) {
    struct FirstRound(Option<usize>);
    impl DiffusionObserver for FirstRound {
        fn on_round(&mut self, event: &RoundEvent) {
            self.0.get_or_insert(event.live_cells);
        }
    }
    let (nl, p0, die) = windowed_design(n);
    let cfg = DiffusionConfig::default()
        .with_bin_size(1.0)
        .with_windows(1, 2)
        .with_update_period(10)
        .with_max_rounds(2)
        .with_threads(threads);
    let mut first = FirstRound(None);
    let (mut calls, mut best) = (0, f64::INFINITY);
    for _ in 0..reps {
        let mut p = p0.clone();
        let result =
            LocalDiffusion::new(cfg.clone()).run_observed(&nl, &die, &mut p, &|| false, &mut first);
        let advect = result.telemetry.kernels().advect;
        calls += advect.calls;
        best = best.min(advect.total_ns() as f64 / advect.calls.max(1) as f64);
    }
    let sample = Sample {
        kernel: "advect_windowed",
        threads,
        calls,
        ns_per_call: best,
    };
    (sample, first.0.unwrap_or(0) as f64 / nl.num_cells() as f64)
}

/// The `splat_shuffled` JSON section: the splat of an `n`×`n`
/// [`clustered_design`] with its cell order permuted, at every thread
/// count.
fn splat_shuffled_json(n: usize, reps: u64) -> String {
    let num_cells = n * n / 2;
    let mut samples = Vec::new();
    for &t in &THREAD_COUNTS {
        eprintln!("  shuffled splat {n}x{n}, {t} thread(s)...");
        samples.push(time_splat(n, num_cells, t, reps, true));
    }
    let mut body = String::new();
    let _ = write!(
        body,
        "  \"splat_shuffled\": {{\n    \"nx\": {n},\n    \"ny\": {n},\n    \"cells\": {num_cells},\n    \"samples\": [\n"
    );
    for (i, s) in samples.iter().enumerate() {
        let sep = if i + 1 == samples.len() { "" } else { "," };
        let _ = writeln!(body, "      {}{sep}", s.json());
    }
    let _ = write!(body, "    ]\n  }}");
    body
}

/// The `advect_windowed` JSON section: local-diffusion advect on an
/// `n`×`n` grid whose windows leave about 2% of the cells live, at every
/// thread count.
fn advect_windowed_json(n: usize, reps: usize) -> String {
    let mut samples = Vec::new();
    let mut live_share = 0.0;
    for &t in &THREAD_COUNTS {
        eprintln!("  windowed advect {n}x{n}, {t} thread(s)...");
        let (sample, share) = time_advect_windowed(n, t, reps);
        samples.push(sample);
        live_share = share;
    }
    let cells = windowed_design(n).0.num_cells();
    let mut body = String::new();
    let _ = write!(
        body,
        "  \"advect_windowed\": {{\n    \"nx\": {n},\n    \"ny\": {n},\n    \"cells\": {cells},\n    \"live_share\": {live_share:.3},\n    \"samples\": [\n"
    );
    for (i, s) in samples.iter().enumerate() {
        let sep = if i + 1 == samples.len() { "" } else { "," };
        let _ = writeln!(body, "      {}{sep}", s.json());
    }
    let _ = write!(body, "    ]\n  }}");
    body
}

fn time_stencil3d(n: usize, nz: usize, threads: usize, reps: u64) -> Sample {
    let (density, wall) = bumpy_field_3d(n, nz);
    let mut e = DiffusionEngine::from_raw_3d(n, n, nz, density, Some(wall));
    e.set_threads(threads);
    // dt·3 ≤ 1 keeps the 7-point stencil stable.
    e.step_density(0.1); // warm-up
    let (calls, ns_per_call) = best_round_ns(reps, || {
        e.step_density(0.1);
    });
    Sample {
        kernel: "stencil3d",
        threads,
        calls,
        ns_per_call,
    }
}

/// The `stencil3d` JSON section: the volumetric 7-point FTCS sweep on an
/// `n`×`n`×`nz` stack at every thread count, with the 4-thread speedup.
fn stencil3d_json(n: usize, nz: usize, reps: u64) -> String {
    let mut samples = Vec::new();
    for &t in &THREAD_COUNTS {
        eprintln!("  stack {n}x{n}x{nz}, {t} thread(s)...");
        samples.push(time_stencil3d(n, nz, t, reps));
    }
    let ns_of = |threads: usize| {
        samples
            .iter()
            .find(|s| s.threads == threads)
            .map(|s| s.ns_per_call)
            .unwrap_or(f64::NAN)
    };
    let mut body = String::new();
    let _ = write!(
        body,
        "  \"stencil3d\": {{\n    \"nx\": {n},\n    \"ny\": {n},\n    \"nz\": {nz},\n    \"samples\": [\n"
    );
    for (i, s) in samples.iter().enumerate() {
        let sep = if i + 1 == samples.len() { "" } else { "," };
        let _ = writeln!(body, "      {}{sep}", s.json());
    }
    let speedup = ns_of(1) / ns_of(4);
    let _ = write!(body, "    ],\n    \"speedup_4t_vs_1t\": ");
    if speedup.is_finite() {
        let _ = write!(body, "{speedup:.3}");
    } else {
        let _ = write!(body, "null");
    }
    let _ = write!(body, "\n  }}");
    body
}

/// Fixed serial floating-point dependency chain used as a portability
/// yardstick: `scripts/ci.sh` divides measured kernel ns/call by this
/// loop's ns/iter before comparing against its pinned ceilings, so the
/// floors track container speed instead of absolute wall time. The chain
/// is latency-bound (each iteration depends on the previous one), which
/// is also what bounds the stencil sweeps on a single core.
fn calibrate(iters: u64) -> f64 {
    let mut x = std::hint::black_box(1.0f64);
    let t0 = Instant::now();
    for _ in 0..iters {
        x = x * 1.000_000_1 + 1e-9;
    }
    let ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(x);
    ns / iters as f64
}

/// The first `model name` in `/proc/cpuinfo`, or `"unknown"`, with the
/// characters a JSON string cannot hold verbatim replaced by spaces.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .filter_map(|line| line.split_once(':'))
                .find(|(key, _)| key.trim() == "model name")
                .map(|(_, model)| model.trim().to_string())
        })
        .filter(|model| !model.is_empty())
        .map_or_else(
            || "unknown".to_string(),
            |model| model.replace(|c: char| c == '"' || c == '\\' || c.is_control(), " "),
        )
}

// ---------------------------------------------------------------------------
// Spectral-vs-FTCS race and its FLOP model.
// ---------------------------------------------------------------------------

/// Flops for one *paired* 1D DCT of length `n` (two real sequences packed
/// as the re/im of a single 2n-point complex FFT): ~5 flops per butterfly
/// over (2n)·log2(2n) butterflies, plus the pack/unpack and phase-twist
/// passes at ~12 flops per sample.
fn pair_dct_flops(n: usize) -> f64 {
    let m = (2 * n) as f64;
    5.0 * m * m.log2() + 12.0 * n as f64
}

/// Flops for one full 2D DCT (forward or inverse) on an `nx`×`ny` field:
/// rows transform in pairs, then columns transform in pairs.
fn transform_2d_flops(nx: usize, ny: usize) -> f64 {
    ny.div_ceil(2) as f64 * pair_dct_flops(nx) + nx.div_ceil(2) as f64 * pair_dct_flops(ny)
}

/// Flops for `steps` FTCS sweeps: the 5-point stencil costs ~10 flops per
/// bin per step (4 neighbour reads folded with 4 adds, 2 multiplies).
fn ftcs_field_flops(nx: usize, ny: usize, steps: u64) -> f64 {
    10.0 * (nx * ny) as f64 * steps as f64
}

/// Flops the spectral solver spends updating the field across a run with
/// `iterations` loop iterations: one cached forward transform, then per
/// iteration one decay pass (~2 flops per bin) and one inverse transform.
fn spectral_field_flops(nx: usize, ny: usize, iterations: u64) -> f64 {
    let transforms = 1 + iterations;
    transforms as f64 * transform_2d_flops(nx, ny) + iterations as f64 * 2.0 * (nx * ny) as f64
}

/// [`bumpy_field`] with its wall block filled in: the spectral solver only
/// runs on unmasked grids, so its timings are dense-vs-dense by
/// construction.
fn wall_free_field(n: usize) -> Vec<f64> {
    let (mut density, _) = bumpy_field(n);
    for d in density.iter_mut() {
        if *d == 0.0 {
            *d = 0.25;
        }
    }
    density
}

/// Bare field jump: `s_steps` FTCS sweeps versus one spectral round trip
/// (plan + forward + single decayed inverse) reaching the same diffusion
/// time. Returns `(ftcs_ns, spectral_ns)`. Wall-free field so both
/// solvers do pure dense arithmetic.
fn time_jump(n: usize, threads: usize, s_steps: u64) -> (f64, f64) {
    let density = wall_free_field(n);
    let tau = 0.1;

    let mut e = DiffusionEngine::from_raw(n, n, density.clone(), None);
    e.set_threads(threads);
    e.step_density(tau); // warm-up
    let t0 = Instant::now();
    for _ in 0..s_steps {
        e.step_density(tau);
    }
    let ftcs_ns = t0.elapsed().as_nanos() as f64;

    // One step of `step_density(tau)` advances continuous time by tau/2.
    let t_target = s_steps as f64 * tau * 0.5;
    let mut out = vec![0.0; n * n];
    let t0 = Instant::now();
    let mut solver = SpectralSolver::new(n, n, &density);
    solver.density_at(t_target, &mut out);
    let spectral_ns = t0.elapsed().as_nanos() as f64;
    assert!(out.iter().all(|d| d.is_finite()));
    (ftcs_ns, spectral_ns)
}

/// The `spectral_generic` JSON section: one single-thread 2-D DCT round
/// trip (solver build with its forward transform, plus one decayed
/// inverse) on an `n`×`n` grid with `n` not a power of two, so every
/// axis runs the cosine-matrix path instead of the FFT. Each 2-D
/// transform costs `n²·2n` multiply-adds on that path.
fn spectral_generic_json(n: usize, reps: u64) -> String {
    eprintln!("  grid {n}x{n}, generic-length DCT round trip...");
    let density = wall_free_field(n);
    let mut out = vec![0.0; n * n];
    let (calls, ns_per_call) = best_round_ns(reps, || {
        let mut solver = SpectralSolver::new(n, n, std::hint::black_box(&density));
        solver.density_at(0.5, &mut out);
    });
    assert!(out.iter().all(|d| d.is_finite()));
    let sample = Sample {
        kernel: "dct2d_generic",
        threads: 1,
        calls,
        ns_per_call,
    };
    let madds = 2.0 * 2.0 * (n * n * n) as f64;
    format!(
        "  \"spectral_generic\": {{\n    \"nx\": {n},\n    \"ny\": {n},\n    \"samples\": [\n      {}\n    ],\n    \"madds_per_call\": {madds:.3e}, \"madds_per_ns\": {:.2}\n  }}",
        sample.json(),
        madds / ns_per_call,
    )
}

/// One end-to-end `GlobalDiffusion` run of the clustered design with the
/// given solver, capped at `max_steps` so neither solver converges — an
/// equal-time-budget race (both reach the same diffusion time). Returns
/// the field updates the run made (FTCS sweeps, or spectral transforms:
/// one per stride) and its wall time.
fn run_e2e(n: usize, num_cells: usize, max_steps: usize, solver: SolverKind) -> (u64, f64) {
    let (nl, mut p, die) = clustered_design(n, num_cells);
    let cfg = DiffusionConfig::default()
        .with_bin_size(1.0)
        .with_max_steps(max_steps)
        .with_threads(4)
        .with_solver(solver);
    let t0 = Instant::now();
    let result = GlobalDiffusion::new(cfg).run(&nl, &die, &mut p);
    let wall_ms = t0.elapsed().as_nanos() as f64 / 1e6;
    (result.telemetry.kernels().ftcs.calls, wall_ms)
}

/// The `spectral_vs_ftcs` JSON section for one grid.
fn spectral_race_json(n: usize, num_cells: usize, jump_steps: u64, e2e_cap: usize) -> String {
    eprintln!("  grid {n}x{n}, spectral-vs-FTCS race...");
    let (jump_ftcs_ns, jump_spectral_ns) = time_jump(n, 4, jump_steps);
    let (ftcs_sweeps, ftcs_ms) = run_e2e(n, num_cells, e2e_cap, SolverKind::Ftcs);
    let (spec_iters, spec_ms) = run_e2e(n, num_cells, e2e_cap, SolverKind::Spectral);
    let f_flops = ftcs_field_flops(n, n, ftcs_sweeps);
    let s_flops = spectral_field_flops(n, n, spec_iters);
    let mut body = String::new();
    let _ = write!(
        body,
        "      \"spectral_vs_ftcs\": {{\n\
         \x20       \"jump\": {{\"ftcs_steps\": {jump_steps}, \"ftcs_ns\": {jump_ftcs_ns:.0}, \
         \"spectral_round_trip_ns\": {jump_spectral_ns:.0}, \"wall_speedup\": {:.2}}},\n\
         \x20       \"e2e\": {{\"max_steps\": {e2e_cap}, \"ftcs_steps\": {ftcs_sweeps}, \
         \"ftcs_wall_ms\": {ftcs_ms:.1}, \"spectral_iterations\": {spec_iters}, \
         \"spectral_wall_ms\": {spec_ms:.1}}},\n\
         \x20       \"field_update_flops\": {{\"ftcs\": {f_flops:.3e}, \"spectral\": {s_flops:.3e}, \
         \"flops_ratio\": {:.1}}}\n\
         \x20     }}",
        jump_ftcs_ns / jump_spectral_ns,
        f_flops / s_flops,
    );
    body
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_kernels.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    let cpu = cpu_model();
    eprintln!("perf_kernels: {cores} hardware thread(s) of {cpu} (smoke: {smoke})");

    let grids: &[usize] = if smoke { &[64] } else { &[256, 1024] };
    let mut grids_json = Vec::new();
    for &n in grids {
        // Scale repetitions so the large grid stays in budget on one core.
        let reps: u64 = if smoke {
            4
        } else if n <= 256 {
            40
        } else {
            8
        };
        let steps: usize = if smoke {
            2
        } else if n <= 256 {
            10
        } else {
            4
        };
        // Central-quarter cluster at ~2× target density so global
        // diffusion has genuine overflow to relieve on every grid.
        let num_cells = n * n / 2;

        let mut samples = Vec::new();
        for &t in &THREAD_COUNTS {
            eprintln!("  grid {n}x{n}, {t} thread(s)...");
            samples.push(time_ftcs(n, t, reps));
            samples.push(time_velocity(n, t, reps));
            samples.push(time_splat(n, num_cells, t, reps.min(10), false));
            samples.push(time_advect(n, num_cells, t, steps));
        }

        // Speedup at 4 threads vs 1 thread, per kernel.
        let ns_of = |kernel: &str, threads: usize| {
            samples
                .iter()
                .find(|s| s.kernel == kernel && s.threads == threads)
                .map(|s| s.ns_per_call)
                .unwrap_or(f64::NAN)
        };
        let mut body = String::new();
        let _ = write!(body, "    {{\n      \"nx\": {n},\n      \"ny\": {n},\n      \"cells\": {num_cells},\n      \"samples\": [\n");
        for (i, s) in samples.iter().enumerate() {
            let sep = if i + 1 == samples.len() { "" } else { "," };
            let _ = writeln!(body, "        {}{sep}", s.json());
        }
        let _ = write!(body, "      ],\n      \"speedup_4t_vs_1t\": {{");
        for (i, k) in ["ftcs", "velocity", "advect", "splat"].iter().enumerate() {
            let sep = if i == 3 { "" } else { ", " };
            let speedup = ns_of(k, 1) / ns_of(k, 4);
            if speedup.is_finite() {
                let _ = write!(body, "\"{k}\": {speedup:.3}{sep}");
            } else {
                let _ = write!(body, "\"{k}\": null{sep}");
            }
        }
        let _ = writeln!(body, "}},");
        // Equal-time-budget race: cap the step count so neither solver
        // converges; both then reach the same diffusion time and the
        // field-update FLOP comparison is apples to apples.
        let jump_steps: u64 = if smoke { 50 } else { 500 };
        let e2e_cap: usize = if smoke { 200 } else { 2000 };
        let _ = write!(
            body,
            "{}\n    }}",
            spectral_race_json(n, num_cells, jump_steps, e2e_cap)
        );
        grids_json.push(body);
    }

    let (n3, nz3, reps3): (usize, usize, u64) = if smoke { (48, 4, 4) } else { (192, 8, 20) };
    let stencil3d = stencil3d_json(n3, nz3, reps3);
    let spectral_generic = spectral_generic_json(113, if smoke { 16 } else { 64 });
    let advect_windowed = advect_windowed_json(256, if smoke { 3 } else { 10 });
    let splat_shuffled = splat_shuffled_json(512, if smoke { 8 } else { 16 });

    eprintln!("  calibration loop...");
    let cal_iters: u64 = if smoke { 20_000_000 } else { 50_000_000 };
    let cal_ns = calibrate(cal_iters);

    let json = format!(
        "{{\n  \"bench\": \"perf_kernels\",\n  \"hardware_threads\": {cores},\n  \"cpu_model\": \"{cpu}\",\n  \"thread_counts\": [1, 2, 4, 8],\n  \"note\": \"Deterministic workloads; parallel results are bit-identical to serial. Speedups above 1.0 require more than one hardware thread. Sample keys lanes/precision record the kernel configuration and are constant: lanes is always wide (the stencils lane-process runs of lane-eligible bins 4 at a time; the scalar lane mode and its lane_speedup_1t ratio were removed), precision is the field storage type, always f64. ns_per_call is the fastest of up to 8 timing rounds (calls = total calls made), which filters CI-box throttle noise; the calibration section records a serial FP dependency chain timed in the same process, so ns_per_call divided by ns_per_iter is a machine-independent throughput unit.\",\n  \"calibration\": {{\"iters\": {cal_iters}, \"ns_per_iter\": {cal_ns:.3}}},\n  \"grids\": [\n{}\n  ],\n{spectral_generic},\n{stencil3d},\n{advect_windowed},\n{splat_shuffled}\n}}\n",
        grids_json.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write BENCH_kernels.json");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
