//! Tenant admission: bounded per-tenant queues drained with deficit
//! round-robin.
//!
//! One noisy tenant replaying a thousand-job ECO sweep must not starve
//! a tenant submitting one interactive request. Each tenant gets its
//! own bounded queue (admission control: overflow is rejected at the
//! door with a typed error, not buffered without bound) and workers
//! drain the queues with deficit round-robin: every service turn a
//! tenant's deficit is refilled by its weight and it may dequeue that
//! many unit-cost jobs before the turn passes on. Long-run throughput
//! is proportional to weight; latency under contention is bounded by
//! one round of everyone else's quanta.
//!
//! The schedule is a pure function of the push/pop sequence — no
//! clocks — so replaying a request stream replays the exact service
//! order, which the fairness tests pin.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// One tenant's admission contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Tenant name, matched against the `tenant` field of requests.
    pub name: String,
    /// Relative service weight (jobs per DRR round). Zero is clamped
    /// to one — a configured tenant is never fully starved.
    pub weight: u32,
    /// Jobs that may wait in this tenant's queue before admission
    /// rejects with [`AdmitError::QueueFull`].
    pub max_queued: usize,
}

impl TenantSpec {
    /// A tenant with unit weight and the given queue bound.
    pub fn new(name: impl Into<String>, weight: u32, max_queued: usize) -> Self {
        Self {
            name: name.into(),
            weight,
            max_queued,
        }
    }
}

/// Why admission rejected a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The request named a tenant the control plane was not configured
    /// with.
    UnknownTenant,
    /// The tenant's queue is at `max_queued`.
    QueueFull,
    /// The queue was closed for shutdown.
    Closed,
}

struct TenantState<T> {
    weight: u64,
    max_queued: usize,
    deficit: u64,
    queue: VecDeque<T>,
}

struct State<T> {
    tenants: Vec<TenantState<T>>,
    /// DRR cursor: index of the tenant whose turn it is.
    cursor: usize,
    closed: bool,
}

/// A multi-tenant bounded queue with deficit-round-robin service.
///
/// `try_push` never blocks (admission control); `pop_wait` blocks until
/// a job is available or the queue is closed and drained.
pub struct FairQueue<T> {
    names: Vec<String>,
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> FairQueue<T> {
    /// Builds a queue serving exactly the given tenants.
    pub fn new(specs: &[TenantSpec]) -> Self {
        let names = specs.iter().map(|s| s.name.clone()).collect();
        let tenants = specs
            .iter()
            .map(|s| TenantState {
                weight: u64::from(s.weight.max(1)),
                max_queued: s.max_queued,
                deficit: 0,
                queue: VecDeque::new(),
            })
            .collect();
        Self {
            names,
            state: Mutex::new(State {
                tenants,
                cursor: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Index of `tenant` in the service order, if configured.
    pub fn tenant_index(&self, tenant: &str) -> Option<usize> {
        self.names.iter().position(|n| n == tenant)
    }

    /// Name of the tenant at `index`.
    pub fn tenant_name(&self, index: usize) -> &str {
        &self.names[index]
    }

    /// Configured tenant names, in service order.
    pub fn tenant_names(&self) -> &[String] {
        &self.names
    }

    /// Enqueues a job for `tenant` without blocking.
    ///
    /// # Errors
    ///
    /// [`AdmitError::UnknownTenant`] for unconfigured tenants,
    /// [`AdmitError::QueueFull`] at the tenant's bound,
    /// [`AdmitError::Closed`] after [`close`](Self::close).
    pub fn try_push(&self, tenant: &str, item: T) -> Result<(), AdmitError> {
        let idx = self.tenant_index(tenant).ok_or(AdmitError::UnknownTenant)?;
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(AdmitError::Closed);
        }
        let t = &mut st.tenants[idx];
        if t.queue.len() >= t.max_queued {
            return Err(AdmitError::QueueFull);
        }
        t.queue.push_back(item);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeues the next job in DRR order, blocking while all queues
    /// are empty. Returns the owning tenant's index alongside the job;
    /// `None` once the queue is closed and fully drained.
    pub fn pop_wait(&self) -> Option<(usize, T)> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(popped) = Self::pop_drr(&mut st) {
                return Some(popped);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap();
        }
    }

    fn pop_drr(st: &mut State<T>) -> Option<(usize, T)> {
        let n = st.tenants.len();
        if n == 0 {
            return None;
        }
        // At most one full round: if nobody has work, report empty.
        for _ in 0..n {
            let i = st.cursor;
            let t = &mut st.tenants[i];
            if t.queue.is_empty() {
                // An empty tenant forfeits its remaining quantum —
                // deficits never accumulate while idle, so a returning
                // tenant cannot burst past its share.
                t.deficit = 0;
                st.cursor = (i + 1) % n;
                continue;
            }
            if t.deficit == 0 {
                t.deficit = t.weight;
            }
            t.deficit -= 1;
            let item = t.queue.pop_front().expect("checked non-empty");
            if t.deficit == 0 || t.queue.is_empty() {
                if t.queue.is_empty() {
                    t.deficit = 0;
                }
                st.cursor = (i + 1) % n;
            }
            return Some((i, item));
        }
        None
    }

    /// Total queued jobs across all tenants.
    pub fn len(&self) -> usize {
        let st = self.state.lock().unwrap();
        st.tenants.iter().map(|t| t.queue.len()).sum()
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes admission and wakes every blocked worker. Already-queued
    /// jobs are still drained by `pop_wait`.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(weights: &[(&str, u32)]) -> FairQueue<u32> {
        let specs: Vec<TenantSpec> = weights
            .iter()
            .map(|&(n, w)| TenantSpec::new(n, w, 64))
            .collect();
        FairQueue::new(&specs)
    }

    #[test]
    fn drr_serves_in_weight_proportion() {
        let fq = q(&[("a", 2), ("b", 1)]);
        for i in 0..12 {
            fq.try_push("a", i).unwrap();
            fq.try_push("b", 100 + i).unwrap();
        }
        let order: Vec<usize> = (0..9).map(|_| fq.pop_wait().unwrap().0).collect();
        // Quantum 2 for a, 1 for b: a a b a a b ...
        assert_eq!(order, vec![0, 0, 1, 0, 0, 1, 0, 0, 1]);
    }

    #[test]
    fn schedule_is_deterministic_for_a_replayed_stream() {
        let run = || {
            let fq = q(&[("a", 1), ("b", 3)]);
            for i in 0..8 {
                fq.try_push("b", i).unwrap();
            }
            fq.try_push("a", 99).unwrap();
            (0..9).map(|_| fq.pop_wait().unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn admission_rejects_overflow_and_unknown_tenants() {
        let specs = [TenantSpec::new("a", 1, 2)];
        let fq: FairQueue<u32> = FairQueue::new(&specs);
        fq.try_push("a", 1).unwrap();
        fq.try_push("a", 2).unwrap();
        assert_eq!(fq.try_push("a", 3), Err(AdmitError::QueueFull));
        assert_eq!(fq.try_push("ghost", 1), Err(AdmitError::UnknownTenant));
        assert_eq!(fq.len(), 2);
    }

    #[test]
    fn close_drains_then_returns_none() {
        let fq = q(&[("a", 1)]);
        fq.try_push("a", 7).unwrap();
        fq.close();
        assert_eq!(fq.try_push("a", 8), Err(AdmitError::Closed));
        assert_eq!(fq.pop_wait(), Some((0, 7)));
        assert_eq!(fq.pop_wait(), None);
    }

    #[test]
    fn idle_tenants_do_not_accumulate_deficit() {
        let fq = q(&[("a", 4), ("b", 1)]);
        // a drains alone first — its leftover quantum is forfeited, so
        // the turn passes to b before a's next full 4-job quantum.
        fq.try_push("a", 0).unwrap();
        assert_eq!(fq.pop_wait().unwrap().0, 0);
        for i in 0..6 {
            fq.try_push("a", i).unwrap();
            fq.try_push("b", i).unwrap();
        }
        let order: Vec<usize> = (0..6).map(|_| fq.pop_wait().unwrap().0).collect();
        assert_eq!(
            order,
            vec![1, 0, 0, 0, 0, 1],
            "idle reset hands the turn to b"
        );
    }

    #[test]
    fn blocked_pop_wakes_on_push() {
        use std::sync::Arc;
        let fq = Arc::new(q(&[("a", 1)]));
        let fq2 = Arc::clone(&fq);
        let h = std::thread::spawn(move || fq2.pop_wait());
        std::thread::sleep(std::time::Duration::from_millis(20));
        fq.try_push("a", 5).unwrap();
        assert_eq!(h.join().unwrap(), Some((0, 5)));
    }
}
