//! Health-checked backend registry: primaries, warm spares, and the
//! policy for swapping one for the other.
//!
//! [`ShardRouter`](dpm_serve::ShardRouter) already retries a failed
//! shard on a spare *within* a job. The registry works one level up,
//! *between* jobs: it probes backends (a bounded TCP connect for
//! [`ShardBackend::Tcp`]; in-process backends are trivially alive),
//! permanently replaces primaries that have died with healthy spares,
//! and folds the router's per-job failover reports back in so a
//! backend that failed mid-job is not offered to the next one. The
//! selection a job actually runs with is whatever
//! [`select`](BackendRegistry::select) returns at admission time.

use std::collections::HashSet;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use dpm_serve::ShardBackend;

/// How long a health probe waits for a TCP backend to accept.
const PROBE_TIMEOUT: Duration = Duration::from_millis(250);

/// Point-in-time registry state, for metrics and `BENCH_serve.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Current primaries, in shard-assignment order.
    pub primaries: Vec<ShardBackend>,
    /// Remaining warm spares, in promotion order.
    pub spares: Vec<ShardBackend>,
    /// Primaries replaced by spares since construction.
    pub replacements: u64,
    /// Backends declared dead (failed probes plus reported failures).
    pub dead: u64,
}

/// A registry of primary backends with warm spares.
pub struct BackendRegistry {
    primaries: Vec<ShardBackend>,
    spares: Vec<ShardBackend>,
    dead: HashSet<SocketAddr>,
    replacements: u64,
}

impl BackendRegistry {
    /// Creates a registry with the given primaries (assigned to shards
    /// round-robin by the router) and warm spares (promoted in order).
    pub fn new(primaries: Vec<ShardBackend>, spares: Vec<ShardBackend>) -> Self {
        assert!(!primaries.is_empty(), "at least one primary required");
        Self {
            primaries,
            spares,
            dead: HashSet::new(),
            replacements: 0,
        }
    }

    /// Whether `backend` currently looks alive. In-process backends
    /// always are; TCP backends get a bounded connect probe, and
    /// anything already declared dead is not re-probed.
    pub fn is_healthy(&self, backend: ShardBackend) -> bool {
        match backend {
            ShardBackend::InProcess => true,
            ShardBackend::Tcp(addr) => {
                !self.dead.contains(&addr)
                    && TcpStream::connect_timeout(&addr, PROBE_TIMEOUT).is_ok()
            }
        }
    }

    /// Declares a backend dead without probing — the router found out
    /// the hard way mid-job. Dead backends are skipped by every later
    /// [`select`](Self::select) and never promoted from the spare pool.
    pub fn report_failure(&mut self, backend: ShardBackend) {
        if let ShardBackend::Tcp(addr) = backend {
            self.dead.insert(addr);
        }
    }

    /// Probes every primary and permanently replaces dead ones with
    /// the first healthy spare, then returns `(primaries, spares)` for
    /// the next job: the current primaries plus the remaining spares
    /// (for the router's *intra*-job failover). A dead primary with no
    /// healthy spare left stays in place — the router will route
    /// around it per job and report the failure back here.
    pub fn select(&mut self) -> (Vec<ShardBackend>, Vec<ShardBackend>) {
        for i in 0..self.primaries.len() {
            if self.is_healthy(self.primaries[i]) {
                continue;
            }
            self.report_failure(self.primaries[i]);
            while let Some(pos) = self
                .spares
                .iter()
                .position(|&s| !matches!(s, ShardBackend::Tcp(a) if self.dead.contains(&a)))
            {
                let spare = self.spares.remove(pos);
                if self.is_healthy(spare) {
                    self.primaries[i] = spare;
                    self.replacements += 1;
                    break;
                }
                self.report_failure(spare);
            }
        }
        (self.primaries.clone(), self.spares.clone())
    }

    /// Current state, for metrics.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            primaries: self.primaries.clone(),
            spares: self.spares.clone(),
            replacements: self.replacements,
            dead: self.dead.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn dead_addr() -> SocketAddr {
        // Bind-then-drop: the port was just free, so connecting to it
        // refuses immediately instead of timing out.
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    }

    #[test]
    fn healthy_primaries_pass_through() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let mut reg = BackendRegistry::new(
            vec![ShardBackend::InProcess, ShardBackend::Tcp(addr)],
            vec![ShardBackend::InProcess],
        );
        let (primaries, spares) = reg.select();
        assert_eq!(
            primaries,
            vec![ShardBackend::InProcess, ShardBackend::Tcp(addr)]
        );
        assert_eq!(spares, vec![ShardBackend::InProcess]);
        assert_eq!(reg.snapshot().replacements, 0);
    }

    #[test]
    fn dead_primary_is_replaced_by_first_healthy_spare() {
        let dead = dead_addr();
        let mut reg = BackendRegistry::new(
            vec![ShardBackend::Tcp(dead), ShardBackend::InProcess],
            vec![ShardBackend::Tcp(dead_addr()), ShardBackend::InProcess],
        );
        let (primaries, spares) = reg.select();
        // First spare is dead too, so the in-process spare steps in.
        assert_eq!(
            primaries,
            vec![ShardBackend::InProcess, ShardBackend::InProcess]
        );
        assert!(spares.is_empty(), "both spares consumed (one died)");
        let snap = reg.snapshot();
        assert_eq!(snap.replacements, 1);
        assert_eq!(snap.dead, 2);
        // The replacement is permanent: selecting again is a no-op.
        let (again, _) = reg.select();
        assert_eq!(again, primaries);
        assert_eq!(reg.snapshot().replacements, 1);
    }

    #[test]
    fn reported_failures_stick_without_probing() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let mut reg =
            BackendRegistry::new(vec![ShardBackend::Tcp(addr)], vec![ShardBackend::InProcess]);
        // The listener is alive, but the router said the backend
        // failed a job — believe the router.
        reg.report_failure(ShardBackend::Tcp(addr));
        let (primaries, _) = reg.select();
        assert_eq!(primaries, vec![ShardBackend::InProcess]);
        assert_eq!(reg.snapshot().replacements, 1);
    }

    #[test]
    fn dead_primary_with_no_spares_stays_put() {
        let dead = dead_addr();
        let mut reg = BackendRegistry::new(vec![ShardBackend::Tcp(dead)], vec![]);
        let (primaries, spares) = reg.select();
        assert_eq!(primaries, vec![ShardBackend::Tcp(dead)]);
        assert!(spares.is_empty());
        assert_eq!(reg.snapshot().dead, 1);
    }
}
