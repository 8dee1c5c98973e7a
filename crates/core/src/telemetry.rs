//! Per-step telemetry of a diffusion run (drives the paper's Figs. 9–10),
//! plus per-kernel wall-time counters for the parallel runtime.

use std::time::Duration;

/// Accumulated wall time of one kernel (FTCS step, velocity field, cell
/// advection or density splat).
///
/// Time spent while the engine ran with one worker accumulates in
/// [`serial_ns`](Self::serial_ns); multi-worker time accumulates in
/// [`parallel_ns`](Self::parallel_ns), so a run that switches thread
/// counts keeps the two regimes separable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelTiming {
    /// Number of kernel invocations recorded.
    pub calls: u64,
    /// Nanoseconds spent in invocations that used exactly one worker.
    pub serial_ns: u64,
    /// Nanoseconds spent in invocations that used more than one worker.
    pub parallel_ns: u64,
    /// Largest worker count any recorded invocation used.
    pub max_threads: usize,
}

impl KernelTiming {
    /// Records one invocation that took `elapsed` using `threads` workers.
    pub fn record(&mut self, elapsed: Duration, threads: usize) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.calls += 1;
        if threads <= 1 {
            self.serial_ns = self.serial_ns.saturating_add(ns);
        } else {
            self.parallel_ns = self.parallel_ns.saturating_add(ns);
        }
        self.max_threads = self.max_threads.max(threads.max(1));
    }

    /// Total nanoseconds across both regimes.
    pub fn total_ns(&self) -> u64 {
        self.serial_ns.saturating_add(self.parallel_ns)
    }

    /// Folds another counter into this one.
    pub fn merge(&mut self, other: &KernelTiming) {
        self.calls += other.calls;
        self.serial_ns = self.serial_ns.saturating_add(other.serial_ns);
        self.parallel_ns = self.parallel_ns.saturating_add(other.parallel_ns);
        self.max_threads = self.max_threads.max(other.max_threads);
    }
}

/// Wall-time counters for the four diffusion hot paths.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use dpm_diffusion::KernelTimers;
///
/// let mut t = KernelTimers::default();
/// t.ftcs.record(Duration::from_micros(10), 1);
/// t.ftcs.record(Duration::from_micros(4), 4);
/// assert_eq!(t.ftcs.calls, 2);
/// assert_eq!(t.ftcs.serial_ns, 10_000);
/// assert_eq!(t.ftcs.parallel_ns, 4_000);
/// assert_eq!(t.ftcs.max_threads, 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelTimers {
    /// FTCS density step (Eq. 4).
    pub ftcs: KernelTiming,
    /// Velocity-field computation (Eq. 5).
    pub velocity: KernelTiming,
    /// Cell advection (Eq. 7).
    pub advect: KernelTiming,
    /// Density-map splatting (measured placement density).
    pub splat: KernelTiming,
}

impl KernelTimers {
    /// Folds another set of counters into this one.
    pub fn merge(&mut self, other: &KernelTimers) {
        self.ftcs.merge(&other.ftcs);
        self.velocity.merge(&other.velocity);
        self.advect.merge(&other.advect);
        self.splat.merge(&other.splat);
    }
}

/// Snapshot of one diffusion step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Step number `n` (0-based): one advect. In global diffusion a step
    /// is a stride of FTCS sweeps, so `n` is the stride index.
    pub step: usize,
    /// FTCS sweeps of diffusion time this step covers: its stride in
    /// global diffusion (the sweeps a spectral jump stands in for), 1 in
    /// the runners that step 1:1. Summed, it puts runs with different
    /// schedules on one time axis.
    pub sweeps: usize,
    /// Total cell movement during this step, in world units: the sum of
    /// each moved cell's Euclidean displacement, each term within 2 ulp
    /// of `hypot` (the volumetric engine adds the tiers moved along z).
    pub movement: f64,
    /// Total overflow of the *computed* (PDE) density after the step,
    /// over live bins only ([`DiffusionEngine::total_overflow`]): in local
    /// diffusion it covers just the round's windows, so it does not
    /// compare with a global run's whole-grid value.
    ///
    /// [`DiffusionEngine::total_overflow`]: crate::DiffusionEngine::total_overflow
    pub computed_overflow: f64,
    /// Maximum computed density after the step.
    pub max_density: f64,
    /// Total overflow of the *measured* placement density, when a dynamic
    /// density update happened at this step.
    pub measured_overflow: Option<f64>,
}

/// Accumulated telemetry of a diffusion run.
///
/// # Examples
///
/// ```
/// use dpm_diffusion::{StepRecord, Telemetry};
///
/// let mut t = Telemetry::new();
/// t.push(StepRecord { step: 0, sweeps: 1, movement: 3.0, computed_overflow: 1.0, max_density: 1.5, measured_overflow: None });
/// t.push(StepRecord { step: 1, sweeps: 2, movement: 2.0, computed_overflow: 0.5, max_density: 1.2, measured_overflow: Some(0.4) });
/// assert_eq!(t.total_movement(), 5.0);
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    records: Vec<StepRecord>,
    kernels: KernelTimers,
}

impl Telemetry {
    /// Creates empty telemetry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a step record.
    pub fn push(&mut self, record: StepRecord) {
        self.records.push(record);
    }

    /// All records, in step order.
    pub fn records(&self) -> &[StepRecord] {
        &self.records
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total cell movement across all steps.
    pub fn total_movement(&self) -> f64 {
        self.records.iter().map(|r| r.movement).sum()
    }

    /// Cumulative movement per step (the series of the paper's Fig. 9).
    pub fn cumulative_movement(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.records
            .iter()
            .map(|r| {
                acc += r.movement;
                acc
            })
            .collect()
    }

    /// The computed-overflow series (the paper's Fig. 10).
    pub fn overflow_series(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.computed_overflow).collect()
    }

    /// Per-kernel wall-time counters accumulated over the run.
    pub fn kernels(&self) -> &KernelTimers {
        &self.kernels
    }

    /// Replaces the kernel counters (runners install the engine's timers
    /// when a run finishes).
    pub fn set_kernels(&mut self, kernels: KernelTimers) {
        self.kernels = kernels;
    }

    /// The measured-overflow checkpoints `(step, overflow)` recorded at
    /// dynamic density updates.
    pub fn measured_checkpoints(&self) -> Vec<(usize, f64)> {
        self.records
            .iter()
            .filter_map(|r| r.measured_overflow.map(|o| (r.step, o)))
            .collect()
    }
}

impl Extend<StepRecord> for Telemetry {
    fn extend<T: IntoIterator<Item = StepRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(step: usize, movement: f64, overflow: f64) -> StepRecord {
        StepRecord {
            step,
            sweeps: 1,
            movement,
            computed_overflow: overflow,
            max_density: 0.0,
            measured_overflow: None,
        }
    }

    #[test]
    fn empty_telemetry() {
        let t = Telemetry::new();
        assert!(t.is_empty());
        assert_eq!(t.total_movement(), 0.0);
        assert!(t.cumulative_movement().is_empty());
    }

    #[test]
    fn cumulative_movement_is_monotone_prefix_sum() {
        let mut t = Telemetry::new();
        t.extend([rec(0, 1.0, 5.0), rec(1, 2.0, 3.0), rec(2, 0.5, 1.0)]);
        assert_eq!(t.cumulative_movement(), vec![1.0, 3.0, 3.5]);
        assert_eq!(t.overflow_series(), vec![5.0, 3.0, 1.0]);
        assert_eq!(t.total_movement(), 3.5);
    }

    #[test]
    fn measured_checkpoints_filters() {
        let mut t = Telemetry::new();
        t.push(rec(0, 1.0, 5.0));
        t.push(StepRecord {
            step: 1,
            sweeps: 1,
            movement: 1.0,
            computed_overflow: 4.0,
            max_density: 1.5,
            measured_overflow: Some(4.2),
        });
        assert_eq!(t.measured_checkpoints(), vec![(1, 4.2)]);
    }
}
