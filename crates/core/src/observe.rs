//! Observer hooks for the diffusion runners.
//!
//! [`DiffusionObserver`] is the single seam through which anything
//! watches a run: per-step telemetry, kernel timings, trajectory
//! tracing ([`trace_global_diffusion`](crate::trace_global_diffusion))
//! and the streaming progress frames of `dpm-serve` all hang off the
//! same three callbacks instead of growing their own copies of the
//! diffusion loop.
//!
//! Observers are strictly read-only witnesses: every callback receives
//! shared references to already-computed state, after the arithmetic of
//! the step has finished. An attached observer therefore cannot perturb
//! the dynamics — runs with and without observers produce bit-identical
//! placements (asserted by tests in `global.rs` and `local.rs`).

use crate::{StepRecord, Telemetry};
use dpm_netlist::Netlist;
use dpm_place::Placement;
use std::time::{Duration, Instant};

/// Which parallel kernel a [`KernelEvent`] timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// The density-field update: FTCS sweeps (Eq. 4) or the spectral
    /// jump that replaces them.
    Ftcs,
    /// The velocity-field computation (Eq. 5).
    Velocity,
    /// Cell advection through the interpolated field (Eq. 6).
    Advect,
    /// The density splat building/refreshing the bin map.
    Splat,
}

/// Emitted after every diffusion step: each advect, which in global
/// diffusion is once per stride of FTCS sweeps. A stride cut short by
/// cancellation after its advect still emits one.
///
/// `record` is the exact [`StepRecord`] pushed to the run's
/// [`Telemetry`](crate::Telemetry); `placement` and `netlist` let an
/// observer derive anything else (cell positions for tracing, HPWL,
/// region densities) from the post-step state.
#[derive(Debug)]
pub struct StepEvent<'a> {
    /// The step's telemetry record (movement, overflow, max density).
    pub record: StepRecord,
    /// The local-diffusion round this step belongs to (1 for global).
    pub round: usize,
    /// The placement after the step's advection.
    pub placement: &'a Placement,
    /// The netlist being migrated.
    pub netlist: &'a Netlist,
}

/// Emitted by local diffusion at the start of each executed round,
/// after the dynamic density update measured the real placement and the
/// round's windows and live-cell list were built, before its first step.
#[derive(Debug, Clone, Copy)]
pub struct RoundEvent {
    /// The 1-based round number.
    pub round: usize,
    /// Total measured local overflow at the round boundary.
    pub measured_overflow: f64,
    /// Maximum windowed-average overflow over the target.
    pub max_window_overflow: f64,
    /// Diffusion steps completed before this round.
    pub steps_so_far: usize,
    /// Cells each of the round's advects visits: those centred in a
    /// bin that is neither wall nor frozen when the round starts.
    pub live_cells: usize,
}

/// Emitted after each timed kernel invocation. A [`KernelKind::Ftcs`]
/// event bills one stride's field update: all of a global stride's FTCS
/// sweeps, or one spectral jump. Runners that step 1:1 send one per
/// sweep. A spectral run sends one more before its first stride, for
/// the forward transform that builds its solver (see
/// [`calls`](Self::calls)).
///
/// Every runner times each kernel call exactly once and folds the same
/// event into its run's [`KernelTimers`](crate::KernelTimers), so
/// [`Telemetry::kernels`](crate::Telemetry::kernels) is the sum of the
/// events an observer saw.
#[derive(Debug, Clone, Copy)]
pub struct KernelEvent {
    /// Which kernel ran.
    pub kernel: KernelKind,
    /// Wall time of this invocation.
    pub elapsed: Duration,
    /// Worker-pool threads the kernel ran on: 1 for the serial
    /// kernels (the volumetric splat and advect, the spectral jumps).
    pub threads: usize,
    /// Kernel invocations the event bills: a global stride's FTCS
    /// sweeps, or 1 (one spectral jump, one call of any other kernel).
    /// The field event of a spectral solver's forward transform bills 0
    /// calls: its time counts towards the field update, while the field's
    /// `calls` keep counting sweeps or jumps, one per stride.
    pub calls: u64,
}

/// A witness attached to a diffusion run.
///
/// All methods default to no-ops, so an observer implements only what
/// it needs. Callbacks run on the thread driving the diffusion loop,
/// between steps — keep them cheap (or hand off to a channel) to avoid
/// slowing the run; they can never change its outcome.
pub trait DiffusionObserver {
    /// Called after each diffusion step completes.
    fn on_step(&mut self, _event: &StepEvent<'_>) {}

    /// Called at each executed local-diffusion round boundary (never
    /// called by global diffusion, which is a single round).
    fn on_round(&mut self, _event: &RoundEvent) {}

    /// Called after each timed kernel invocation.
    fn on_kernel(&mut self, _event: &KernelEvent) {}
}

/// The observer that observes nothing; attached by the plain `run`
/// entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl DiffusionObserver for NoopObserver {}

/// The one clock of a run, and its record. A runner times every kernel
/// call through it exactly once: each call becomes one [`KernelEvent`]
/// for the observer and is folded into the kernel timers of the run's
/// [`Telemetry`], so those timers are the sum of the events the observer
/// saw.
pub(crate) struct RunRecorder<'a> {
    /// The run's observer; runners send their round events to it
    /// directly.
    pub(crate) observer: &'a mut dyn DiffusionObserver,
    /// Workers of the run's pool, which the parallel kernels run on.
    pub(crate) threads: usize,
    /// The run's telemetry.
    pub(crate) telemetry: Telemetry,
}

impl<'a> RunRecorder<'a> {
    pub(crate) fn new(observer: &'a mut dyn DiffusionObserver, threads: usize) -> Self {
        Self {
            observer,
            threads,
            telemetry: Telemetry::new(),
        }
    }

    /// Records one diffusion step of local-diffusion round `round` (1 for
    /// a single-round run): pushes `record` to the telemetry and shows it
    /// to the observer with the post-step `placement`.
    pub(crate) fn step(
        &mut self,
        record: StepRecord,
        round: usize,
        placement: &Placement,
        netlist: &Netlist,
    ) {
        self.telemetry.push(record);
        self.observer.on_step(&StepEvent {
            record,
            round,
            placement,
            netlist,
        });
    }

    /// Runs `f` as one call of the parallel `kernel` on the run's pool
    /// and records it.
    pub(crate) fn time<R>(&mut self, kernel: KernelKind, f: impl FnOnce() -> R) -> R {
        let (out, elapsed) = lap(f);
        self.record(kernel, elapsed, self.threads, 1);
        out
    }

    /// Records `calls` invocations of `kernel` on `threads` workers that
    /// together took `elapsed`, as one event.
    pub(crate) fn record(
        &mut self,
        kernel: KernelKind,
        elapsed: Duration,
        threads: usize,
        calls: u64,
    ) {
        let event = KernelEvent {
            kernel,
            elapsed,
            threads,
            calls,
        };
        self.telemetry.kernels.record(&event);
        self.observer.on_kernel(&event);
    }
}

/// Runs `f` and returns its wall time with its result, for a kernel
/// call that one event bills together with other work.
pub(crate) fn lap<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

impl KernelKind {
    /// Stable span/metric name for this kernel.
    pub fn span_name(self) -> &'static str {
        match self {
            KernelKind::Ftcs => "kernel.ftcs",
            KernelKind::Velocity => "kernel.velocity",
            KernelKind::Advect => "kernel.advect",
            KernelKind::Splat => "kernel.splat",
        }
    }
}

/// Default cap on per-kernel spans recorded by one [`SpanObserver`].
///
/// A long run fires thousands of kernel events; a trace needs the first
/// few to show the per-kernel breakdown, not all of them. The cap
/// bounds both the span ring pressure and the wire-export size.
pub const KERNEL_SPAN_CAP: usize = 64;

/// Bridges [`DiffusionObserver`] kernel events into distributed-trace
/// spans.
///
/// Each timed kernel invocation becomes a child span of `parent` in
/// `recorder`, with ids minted deterministically from the seed. Kernel
/// events report only their elapsed wall time, so the span's interval
/// is reconstructed as `[now - elapsed, now]` in the recorder's epoch.
/// At most `cap` kernel spans are recorded (the rest are counted in
/// [`SpanObserver::kernel_events`]); every event is still forwarded to
/// the optional chained observer, so progress streaming composes with
/// tracing. Like every observer, this is a read-only witness — the
/// placement is bit-identical with or without it.
pub struct SpanObserver<'a> {
    recorder: &'a dpm_obs::SpanRecorder,
    parent: dpm_obs::TraceContext,
    ids: dpm_obs::TraceIdGen,
    cap: usize,
    recorded: usize,
    events: u64,
    inner: Option<&'a mut dyn DiffusionObserver>,
}

impl<'a> SpanObserver<'a> {
    /// Creates a bridge recording kernel spans under `parent`.
    ///
    /// `seed` drives span-id minting; pass something derived from the
    /// inherited context (e.g. `parent.span_id`) so the ids are a pure
    /// function of the root trace seed.
    pub fn new(
        recorder: &'a dpm_obs::SpanRecorder,
        parent: dpm_obs::TraceContext,
        seed: u64,
    ) -> Self {
        Self {
            recorder,
            parent,
            ids: dpm_obs::TraceIdGen::seeded(seed),
            cap: KERNEL_SPAN_CAP,
            recorded: 0,
            events: 0,
            inner: None,
        }
    }

    /// Chains another observer that receives every event unchanged.
    pub fn with_inner(mut self, inner: &'a mut dyn DiffusionObserver) -> Self {
        self.inner = Some(inner);
        self
    }

    /// Overrides the kernel-span cap.
    pub fn with_cap(mut self, cap: usize) -> Self {
        self.cap = cap;
        self
    }

    /// Total kernel events seen (recorded or not).
    pub fn kernel_events(&self) -> u64 {
        self.events
    }
}

impl DiffusionObserver for SpanObserver<'_> {
    fn on_step(&mut self, event: &StepEvent<'_>) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.on_step(event);
        }
    }

    fn on_round(&mut self, event: &RoundEvent) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.on_round(event);
        }
    }

    fn on_kernel(&mut self, event: &KernelEvent) {
        self.events += 1;
        if self.recorded < self.cap {
            self.recorded += 1;
            let now = self.recorder.now_ns();
            let elapsed = u64::try_from(event.elapsed.as_nanos()).unwrap_or(u64::MAX);
            let ctx = self.ids.child_of(&self.parent);
            self.recorder.record_traced(
                event.kernel.span_name(),
                now.saturating_sub(elapsed),
                now,
                ctx,
            );
        }
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.on_kernel(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_methods_are_callable_noops() {
        struct OnlySteps(usize);
        impl DiffusionObserver for OnlySteps {
            fn on_step(&mut self, _event: &StepEvent<'_>) {
                self.0 += 1;
            }
        }
        let mut obs = OnlySteps(0);
        obs.on_round(&RoundEvent {
            round: 1,
            measured_overflow: 0.0,
            max_window_overflow: 0.0,
            steps_so_far: 0,
            live_cells: 0,
        });
        obs.on_kernel(&KernelEvent {
            kernel: KernelKind::Ftcs,
            elapsed: Duration::ZERO,
            threads: 1,
            calls: 1,
        });
        assert_eq!(obs.0, 0);
    }

    #[test]
    fn span_observer_records_capped_kernel_spans_and_chains() {
        struct CountKernels(u64);
        impl DiffusionObserver for CountKernels {
            fn on_kernel(&mut self, _event: &KernelEvent) {
                self.0 += 1;
            }
        }
        let recorder = dpm_obs::SpanRecorder::new(64);
        // Let the recorder's epoch age past the events' elapsed time, or
        // `now - elapsed` would clamp at zero and shorten the spans.
        while recorder.now_ns() < 20_000 {
            std::hint::spin_loop();
        }
        let parent = dpm_obs::TraceIdGen::seeded(9).root();
        let mut chained = CountKernels(0);
        let mut bridge = SpanObserver::new(&recorder, parent, parent.span_id)
            .with_cap(3)
            .with_inner(&mut chained);
        for _ in 0..5 {
            bridge.on_kernel(&KernelEvent {
                kernel: KernelKind::Velocity,
                elapsed: Duration::from_micros(10),
                threads: 2,
                calls: 1,
            });
        }
        assert_eq!(bridge.kernel_events(), 5);
        assert_eq!(chained.0, 5, "chained observer sees every event");
        let records = recorder.records();
        assert_eq!(records.len(), 3, "cap limits recorded spans");
        for r in &records {
            assert_eq!(r.name, "kernel.velocity");
            assert_eq!(r.trace_id, parent.trace_id);
            assert_eq!(r.parent_id, parent.span_id);
            assert!(r.duration_ns() >= 10_000);
        }
        // Ids are a pure function of the seed.
        let recorder2 = dpm_obs::SpanRecorder::new(64);
        let mut bridge2 = SpanObserver::new(&recorder2, parent, parent.span_id).with_cap(3);
        for _ in 0..3 {
            bridge2.on_kernel(&KernelEvent {
                kernel: KernelKind::Velocity,
                elapsed: Duration::from_micros(10),
                threads: 2,
                calls: 1,
            });
        }
        let ids: Vec<u64> = records.iter().map(|r| r.span_id).collect();
        let ids2: Vec<u64> = recorder2.records().iter().map(|r| r.span_id).collect();
        assert_eq!(ids, ids2);
    }
}
