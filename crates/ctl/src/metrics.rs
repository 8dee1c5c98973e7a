//! Server metrics: one `dpm-obs` registry, with per-tenant instruments
//! named via [`labeled`].
//!
//! The outcome counters, latency histograms and merged kernel timers
//! are what a `StatsRequest` frame reports as a [`StatsSnapshot`]; every
//! reply is counted once, under its [`ErrorCode`] or as served. On top of
//! those sit the cache/delta/failover counters and the per-tenant
//! `jobs_ok{tenant="…"}` / `e2e_ns{tenant="…"}` family, visible through
//! the [`registry`](CtlMetrics::registry).

use std::sync::Mutex;

use dpm_diffusion::KernelTimers;
use dpm_obs::{labeled, Counter, Histogram, HistogramSnapshot, Registry};
use dpm_serve::wire::{ErrorCode, StatsSnapshot};

/// Handles for one tenant's instruments.
pub struct TenantMetrics {
    /// The tenant's configured name (the metric label value).
    pub name: String,
    /// Jobs finished with a success reply.
    pub jobs_ok: Counter,
    /// Jobs finished with an error reply.
    pub jobs_err: Counter,
    /// Admission → reply-queued latency, nanoseconds.
    pub e2e: Histogram,
}

/// All control-plane instruments, pre-registered at startup so the hot
/// path never takes the registry lock.
pub struct CtlMetrics {
    registry: Registry,
    /// Job requests (full or delta) that decoded.
    pub received: Counter,
    /// Jobs admitted to the fair queue.
    pub admitted: Counter,
    /// Jobs a worker started running.
    pub started: Counter,
    /// Jobs answered with a successful response.
    pub served: Counter,
    /// Jobs rejected with a full tenant queue.
    pub overloaded: Counter,
    /// Frames, payloads or inputs that failed to decode or check, plus
    /// unknown tenants.
    pub malformed: Counter,
    /// Jobs rejected for invalid diffusion parameters.
    pub invalid_config: Counter,
    /// Jobs rejected during shutdown.
    pub rejected_shutdown: Counter,
    /// Jobs whose deadline expired (in queue or mid-diffusion).
    pub deadline_expired: Counter,
    /// Jobs that failed unexpectedly: an engine panic, or a routed job
    /// that lost a part on every backend.
    pub internal_errors: Counter,
    /// Progress frames streamed to clients.
    pub progress_frames: Counter,
    /// Baseline uploads accepted.
    pub put_designs: Counter,
    /// Delta requests received.
    pub delta_requests: Counter,
    /// Delta requests whose baseline was resident.
    pub cache_hits: Counter,
    /// Delta requests answered with `NeedDesign`.
    pub need_design: Counter,
    /// Baselines evicted from the design cache.
    pub cache_evictions: Counter,
    /// Intra-job warm-spare failovers reported by the shard router.
    pub failovers: Counter,
    /// Permanent primary replacements performed by the registry.
    pub replacements: Counter,
    /// Queue-wait latency, nanoseconds.
    pub queue_hist: Histogram,
    /// Diffusion service latency, nanoseconds.
    pub service_hist: Histogram,
    /// End-to-end latency, nanoseconds.
    pub e2e_hist: Histogram,
    tenants: Vec<TenantMetrics>,
    /// Kernel timers of the jobs the server ran in process.
    kernels: Mutex<KernelTimers>,
}

impl CtlMetrics {
    /// Registers the full instrument set for the given tenants.
    pub fn new(tenant_names: &[String]) -> Self {
        let registry = Registry::new();
        let bounds = Histogram::latency_bounds();
        let counter = |name: &str| registry.counter(name);
        let tenants = tenant_names
            .iter()
            .map(|name| TenantMetrics {
                name: name.clone(),
                jobs_ok: registry.counter(&labeled("jobs_ok", &[("tenant", name)])),
                jobs_err: registry.counter(&labeled("jobs_err", &[("tenant", name)])),
                e2e: registry.histogram(&labeled("e2e_ns", &[("tenant", name)]), &bounds),
            })
            .collect();
        Self {
            received: counter("requests_received_total"),
            admitted: counter("requests_admitted_total"),
            started: counter("jobs_started_total"),
            served: counter("jobs_served_total"),
            overloaded: counter("rejected_overloaded_total"),
            malformed: counter("rejected_malformed_total"),
            invalid_config: counter("rejected_invalid_config_total"),
            rejected_shutdown: counter("rejected_shutdown_total"),
            deadline_expired: counter("deadline_expired_total"),
            internal_errors: counter("internal_errors_total"),
            progress_frames: counter("progress_frames_total"),
            put_designs: counter("put_designs"),
            delta_requests: counter("delta_requests"),
            cache_hits: counter("cache_hits"),
            need_design: counter("need_design"),
            cache_evictions: counter("cache_evictions"),
            failovers: counter("failovers"),
            replacements: counter("replacements"),
            queue_hist: registry.histogram("queue_wait_ns", &bounds),
            service_hist: registry.histogram("service_ns", &bounds),
            e2e_hist: registry.histogram("e2e_ns", &bounds),
            tenants,
            kernels: Mutex::new(KernelTimers::default()),
            registry,
        }
    }

    /// Counts one error reply under its code.
    pub(crate) fn count_error(&self, code: ErrorCode) {
        let counter = match code {
            ErrorCode::Overloaded => &self.overloaded,
            ErrorCode::InvalidConfig => &self.invalid_config,
            ErrorCode::Malformed => &self.malformed,
            ErrorCode::DeadlineExpired => &self.deadline_expired,
            ErrorCode::ShuttingDown => &self.rejected_shutdown,
            ErrorCode::Internal => &self.internal_errors,
        };
        counter.inc();
    }

    /// Folds a served job's kernel timers into the snapshot's.
    pub(crate) fn merge_kernels(&self, kernels: &KernelTimers) {
        self.kernels
            .lock()
            .expect("kernel timers poisoned")
            .merge(kernels);
    }

    /// Instruments for the tenant at `index` (fair-queue order).
    pub fn tenant(&self, index: usize) -> &TenantMetrics {
        &self.tenants[index]
    }

    /// All per-tenant instrument sets, in fair-queue order.
    pub fn tenants(&self) -> &[TenantMetrics] {
        &self.tenants
    }

    /// The underlying registry, for text exposition or merging.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Builds the stats snapshot a `StatsRequest` frame is answered
    /// with. The cache, failover and per-tenant counters are visible via
    /// [`registry`](Self::registry) instead: the wire snapshot keeps its
    /// shape so v2 clients can decode it.
    pub fn stats_snapshot(&self, queue_depth: u64) -> StatsSnapshot {
        StatsSnapshot {
            queue_depth,
            received: self.received.get(),
            admitted: self.admitted.get(),
            served: self.served.get(),
            overloaded: self.overloaded.get(),
            invalid_config: self.invalid_config.get(),
            malformed: self.malformed.get(),
            deadline_expired: self.deadline_expired.get(),
            rejected_shutdown: self.rejected_shutdown.get(),
            internal_errors: self.internal_errors.get(),
            progress_frames: self.progress_frames.get(),
            queue_hist: self.queue_hist.snapshot(),
            service_hist: self.service_hist.snapshot(),
            e2e_hist: self.e2e_hist.snapshot(),
            kernels: *self.kernels.lock().expect("kernel timers poisoned"),
        }
    }

    /// Convenience: a tenant's end-to-end latency distribution.
    pub fn tenant_e2e(&self, index: usize) -> HistogramSnapshot {
        self.tenants[index].e2e.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_tenant_instruments_are_labeled_and_independent() {
        let m = CtlMetrics::new(&["acme".into(), "zeta".into()]);
        m.tenant(0).jobs_ok.inc();
        m.tenant(1).jobs_ok.add(3);
        m.tenant(0).e2e.record(1_000);
        assert_eq!(m.tenant(0).jobs_ok.get(), 1);
        assert_eq!(m.tenant(1).jobs_ok.get(), 3);
        let text = m.registry().snapshot().to_text();
        assert!(text.contains("jobs_ok{tenant=\"acme\"} 1"), "{text}");
        assert!(text.contains("jobs_ok{tenant=\"zeta\"} 3"), "{text}");
        assert_eq!(m.tenant_e2e(0).count, 1);
        assert_eq!(m.tenant_e2e(1).count, 0);
    }

    #[test]
    fn stats_snapshot_round_trips_the_wire_shape() {
        let m = CtlMetrics::new(&["a".into()]);
        m.received.add(5);
        m.served.add(4);
        let snap = m.stats_snapshot(2);
        assert_eq!(snap.queue_depth, 2);
        assert_eq!(snap.received, 5);
        let bytes = dpm_serve::wire::encode_stats(&snap);
        let back = dpm_serve::wire::decode_stats(&bytes).unwrap();
        assert_eq!(back, snap);
    }
}
