//! The per-layer ledger: a recording observer on the public
//! `DiffusionObserver` seam, the per-job sums that must add up to the
//! job's wall time, and timed replays of the public kernels.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dpm_diffusion::{
    identify_windows_into, manipulate_density, DiffusionConfig, DiffusionEngine, DiffusionObserver,
    KernelEvent, KernelKind, SpectralSolver,
};
use dpm_netlist::Netlist;
use dpm_par::ThreadPool;
use dpm_place::{BinGrid, DensityMap, Die, Placement};

use crate::report::Report;
use crate::stats::median;

/// Calls and busy time of one kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelTotal {
    pub calls: u64,
    pub ns: u64,
}

impl KernelTotal {
    fn add(&mut self, other: KernelTotal) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Sums every kernel event of one run. The engine times each kernel
/// invocation itself and reports it through the observer; the field
/// slot (`KernelKind::Ftcs`) holds an FTCS step or a spectral jump.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    pub splat: KernelTotal,
    pub velocity: KernelTotal,
    pub advect: KernelTotal,
    pub field: KernelTotal,
}

impl DiffusionObserver for Recorder {
    fn on_kernel(&mut self, event: &KernelEvent) {
        let slot = match event.kernel {
            KernelKind::Splat => &mut self.splat,
            KernelKind::Velocity => &mut self.velocity,
            KernelKind::Advect => &mut self.advect,
            KernelKind::Ftcs => &mut self.field,
        };
        slot.calls += 1;
        slot.ns += u64::try_from(event.elapsed.as_nanos()).unwrap_or(u64::MAX);
    }
}

/// The sizes a job's per-element rates divide by.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobShape {
    pub cells: u64,
    pub movable: u64,
    pub bins: u64,
}

/// One traced job's split of its wall time.
#[derive(Debug, Clone, Default)]
pub struct JobTimes {
    pub kernels: Recorder,
    /// Wall time of the diffusion run (`run_observed`).
    pub core_ns: u64,
    pub detailed_ns: u64,
    pub check_ns: u64,
    /// Wall time of the whole job, diffusion through legality check.
    pub total_ns: u64,
    /// Calls the engine makes but does not time itself; the ledger
    /// charges each at its replayed cost.
    pub untimed: UntimedCalls,
}

/// Per-job counts of the calls the engine does not time on its own.
#[derive(Debug, Clone, Copy, Default)]
pub struct UntimedCalls {
    /// `SpectralSolver::new` (once per spectral job).
    pub forward_transforms: u64,
    /// `manipulate_density` (once per global job).
    pub manipulations: u64,
    /// `identify_windows_into` (once per local round, plus the check
    /// that ends the run).
    pub window_passes: u64,
}

impl UntimedCalls {
    fn add(&mut self, other: UntimedCalls) {
        self.forward_transforms += other.forward_transforms;
        self.manipulations += other.manipulations;
        self.window_passes += other.window_passes;
    }
}

/// Layer sums over every traced job of a run.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub jobs: u64,
    pub splat: KernelTotal,
    pub velocity: KernelTotal,
    pub advect: KernelTotal,
    pub field: KernelTotal,
    pub core_ns: u64,
    pub detailed_ns: u64,
    pub check_ns: u64,
    pub total_ns: u64,
    pub untimed: UntimedCalls,
    /// Σ advect calls × movable cells.
    advect_cell_calls: f64,
    /// Σ splat calls × cells.
    splat_cell_calls: f64,
    /// Σ velocity calls × bins.
    velocity_bin_calls: f64,
}

impl Ledger {
    pub fn add_job(&mut self, t: &JobTimes, shape: JobShape) {
        self.jobs += 1;
        self.splat.add(t.kernels.splat);
        self.velocity.add(t.kernels.velocity);
        self.advect.add(t.kernels.advect);
        self.field.add(t.kernels.field);
        self.core_ns += t.core_ns;
        self.detailed_ns += t.detailed_ns;
        self.check_ns += t.check_ns;
        self.total_ns += t.total_ns;
        self.untimed.add(t.untimed);
        self.advect_cell_calls += (t.kernels.advect.calls * shape.movable) as f64;
        self.splat_cell_calls += (t.kernels.splat.calls * shape.cells) as f64;
        self.velocity_bin_calls += (t.kernels.velocity.calls * shape.bins) as f64;
    }

    fn kernel_ns(&self) -> u64 {
        self.splat.ns + self.velocity.ns + self.advect.ns + self.field.ns
    }

    /// The untimed calls at their replayed cost.
    fn replayed_ns(&self, replay: &Replay) -> u64 {
        let u = &self.untimed;
        (u.forward_transforms as f64 * replay.dct_forward_ns
            + u.manipulations as f64 * replay.manipulate_ns
            + u.window_passes as f64 * replay.windows_ns) as u64
    }

    /// Time the named layers account for: the four kernels the engine
    /// times, the untimed calls at their replayed cost, detailed
    /// legalization and the legality check.
    pub fn named_ns(&self, replay: &Replay) -> u64 {
        self.kernel_ns()
            + self.replayed_ns(replay).min(self.core_residual_raw())
            + self.detailed_ns
            + self.check_ns
    }

    fn core_residual_raw(&self) -> u64 {
        self.core_ns.saturating_sub(self.kernel_ns())
    }

    /// Diffusion time outside every named layer: engine set-up,
    /// overflow bookkeeping, windowed averages.
    pub fn core_residual_ns(&self, replay: &Replay) -> u64 {
        self.core_residual_raw()
            .saturating_sub(self.replayed_ns(replay))
    }

    /// Job time outside diffusion, detailed legalization and the check.
    pub fn job_residual_ns(&self) -> u64 {
        self.total_ns
            .saturating_sub(self.core_ns + self.detailed_ns + self.check_ns)
    }

    /// Share of the job wall time the named layers cover.
    pub fn coverage(&self, replay: &Replay) -> f64 {
        self.named_ns(replay) as f64 / self.total_ns.max(1) as f64
    }

    /// Writes the ledger's per-layer metrics. Times and calls are means
    /// per job, so the layer times add up to the mean job time.
    pub fn report(&self, r: &mut Report, replay: &Replay) {
        let jobs = self.jobs.max(1) as f64;
        let ms = |ns: u64| ns as f64 / 1e6 / jobs;
        let calls = |k: KernelTotal| k.calls as f64 / jobs;
        let per = |ns: u64, n: f64| if n > 0.0 { ns as f64 / n } else { 0.0 };
        r.set("core.advect.calls", calls(self.advect));
        r.set("core.advect.ms", ms(self.advect.ns));
        r.set(
            "core.advect.ns_per_cell",
            per(self.advect.ns, self.advect_cell_calls),
        );
        r.set("place.splat.calls", calls(self.splat));
        r.set("place.splat.ms", ms(self.splat.ns));
        r.set(
            "place.splat.ns_per_cell",
            per(self.splat.ns, self.splat_cell_calls),
        );
        r.set("core.field.calls", calls(self.field));
        r.set("core.field.ms", ms(self.field.ns));
        r.set("core.velocity.calls", calls(self.velocity));
        r.set("core.velocity.ms", ms(self.velocity.ns));
        r.set(
            "core.velocity.ns_per_bin",
            per(self.velocity.ns, self.velocity_bin_calls),
        );
        r.set("legalize.detailed.ms", ms(self.detailed_ns));
        r.set("legalize.check.ms", ms(self.check_ns));
        r.set("core.residual.ms", ms(self.core_residual_ns(replay)));
        r.set("job.residual.ms", ms(self.job_residual_ns()));
        r.set("ledger.coverage", self.coverage(replay));
    }
}

/// Bytes one kernel call moves, computed from array sizes (not
/// measured): every `f64` array the kernel reads or writes, touched
/// once. FTCS reads and writes the density field; the velocity kernel
/// reads density and writes both velocity components; advection reads
/// both velocity components and each movable cell's position and width,
/// and writes the position.
pub fn computed_bytes(r: &mut Report, shape: JobShape) {
    let f = std::mem::size_of::<f64>() as f64;
    let (bins, movable) = (shape.bins as f64, shape.movable as f64);
    r.set("core.ftcs.bytes_per_call", 2.0 * f * bins);
    r.set("core.velocity.bytes_per_call", 3.0 * f * bins);
    r.set(
        "core.advect.bytes_per_call",
        2.0 * f * bins + 5.0 * f * movable,
    );
}

/// Repetitions per replayed kernel; the median is kept.
const REPLAY_REPS: usize = 5;

/// Median-of-reps timings of the public kernels on one design.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub ftcs_ns_per_bin: f64,
    pub dct_forward_ns: f64,
    pub dct_inverse_ns: f64,
    pub windows_ns: f64,
    pub manipulate_ns: f64,
}

fn median_of(mut run: impl FnMut() -> Duration) -> f64 {
    let samples: Vec<f64> = (0..REPLAY_REPS).map(|_| run().as_nanos() as f64).collect();
    median(&samples)
}

fn timed(work: impl FnOnce()) -> Duration {
    let t0 = Instant::now();
    work();
    t0.elapsed()
}

/// Replays, outside any job, the kernels the engine does not time on its
/// own: an FTCS step (the spectral path never takes one), the spectral
/// solver's forward (`SpectralSolver::new`) and inverse (`density_at`)
/// transforms, window identification and density manipulation — plus a
/// splat and a velocity pass to warm the map and engine they run on.
pub fn replay_kernels(
    netlist: &Netlist,
    die: &Die,
    placement: &Placement,
    cfg: &DiffusionConfig,
) -> Replay {
    let grid = BinGrid::new(die.outline(), cfg.bin_size);
    let pool = ThreadPool::new(cfg.threads);
    let mut map = DensityMap::from_placement_with_pool(netlist, placement, grid, &pool);
    map.recompute_with_pool(netlist, placement, &pool);
    let mut engine = DiffusionEngine::from_density_map(&map);
    engine.set_conservative_boundaries(!cfg.paper_boundaries);
    engine.set_threads(cfg.threads);
    engine.set_lanes(cfg.lanes);
    engine.set_precision(cfg.precision);
    engine.compute_velocities();
    let bins = (engine.nx() * engine.ny()) as f64;
    let density = engine.densities().to_vec();
    let (nx, ny) = (engine.nx(), engine.ny());
    let tau = cfg.dt * cfg.diffusivity;

    let ftcs = median_of(|| timed(|| engine.step_density(tau)));
    let dct_forward =
        median_of(|| timed(|| drop(black_box(SpectralSolver::new(nx, ny, &density)))));
    let mut solver = SpectralSolver::new(nx, ny, &density);
    let mut field = vec![0.0; nx * ny];
    let mut t = 0.0;
    let dct_inverse = median_of(|| {
        t += tau;
        timed(|| solver.density_at(t, &mut field))
    });
    black_box(&field);

    let mut avg = Vec::new();
    map.windowed_average_into(cfg.w1, &mut avg);
    let mut frozen = Vec::new();
    let windows =
        median_of(|| timed(|| identify_windows_into(&map, &avg, cfg.w2, cfg.d_max, &mut frozen)));
    black_box(&frozen);

    let wall = engine.wall_mask().to_vec();
    let mut scratch = density.clone();
    let manipulate = median_of(|| {
        scratch.copy_from_slice(&density);
        timed(|| {
            black_box(manipulate_density(&mut scratch, Some(&wall), cfg.d_max));
        })
    });

    Replay {
        ftcs_ns_per_bin: ftcs / bins,
        dct_forward_ns: dct_forward,
        dct_inverse_ns: dct_inverse,
        windows_ns: windows,
        manipulate_ns: manipulate,
    }
}

/// Writes the replayed layers, each the median over the replayed
/// designs, and returns those medians.
pub fn report_replays(replays: &[Replay], r: &mut Report) -> Replay {
    let med = |f: fn(&Replay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    let m = Replay {
        ftcs_ns_per_bin: med(|x| x.ftcs_ns_per_bin),
        dct_forward_ns: med(|x| x.dct_forward_ns),
        dct_inverse_ns: med(|x| x.dct_inverse_ns),
        windows_ns: med(|x| x.windows_ns),
        manipulate_ns: med(|x| x.manipulate_ns),
    };
    r.set("core.ftcs.ns_per_bin", m.ftcs_ns_per_bin);
    r.set("core.dct_forward.ms", m.dct_forward_ns / 1e6);
    r.set("core.dct_inverse.ms", m.dct_inverse_ns / 1e6);
    r.set("core.windows.us", m.windows_ns / 1e3);
    r.set("core.manipulate.ms", m.manipulate_ns / 1e6);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(calls: u64, ns: u64) -> KernelTotal {
        KernelTotal { calls, ns }
    }

    #[test]
    fn ledger_layers_and_residuals_sum_to_the_job_time() {
        let mut ledger = Ledger::default();
        let shape = JobShape {
            cells: 100,
            movable: 90,
            bins: 16,
        };
        for (k, extra) in [(1u64, 0u64), (2, 7)] {
            let times = JobTimes {
                kernels: Recorder {
                    splat: total(1, 10 * k),
                    velocity: total(3, 20 * k),
                    advect: total(3, 300 * k),
                    field: total(3, 40 * k),
                },
                core_ns: 400 * k,
                detailed_ns: 50 * k,
                check_ns: 5 * k,
                total_ns: 455 * k + extra,
                untimed: UntimedCalls {
                    manipulations: 1,
                    ..UntimedCalls::default()
                },
            };
            ledger.add_job(&times, shape);
        }
        // Each manipulation replays at 8 ns: 16 of the 90 ns of diffusion
        // outside the kernels are named.
        let replay = Replay {
            manipulate_ns: 8.0,
            ..Replay::default()
        };
        let sum =
            ledger.named_ns(&replay) + ledger.core_residual_ns(&replay) + ledger.job_residual_ns();
        assert_eq!(sum, ledger.total_ns);
        assert_eq!(ledger.core_residual_ns(&replay), 30 * 3 - 16);
        assert_eq!(ledger.job_residual_ns(), 7);
        let expected = (370.0 * 3.0 + 16.0 + 55.0 * 3.0) / (455.0 * 3.0 + 7.0);
        assert!((ledger.coverage(&replay) - expected).abs() < 1e-12);

        let mut r = Report::default();
        ledger.report(&mut r, &replay);
        // Per-job means add up the same way.
        let layer_ms: f64 = [
            "place.splat.ms",
            "core.velocity.ms",
            "core.advect.ms",
            "core.field.ms",
            "legalize.detailed.ms",
            "legalize.check.ms",
            "core.residual.ms",
            "job.residual.ms",
        ]
        .iter()
        .map(|k| r.get(k).expect("reported"))
        .sum::<f64>()
            + 16.0 / 2.0 / 1e6;
        let mean_job_ms = ledger.total_ns as f64 / 2.0 / 1e6;
        assert!((layer_ms - mean_job_ms).abs() < 1e-12);
        assert_eq!(r.get("core.advect.ns_per_cell"), Some(900.0 / (6.0 * 90.0)));
    }
}
