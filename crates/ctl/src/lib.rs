//! `dpm-ctl` — a multi-tenant control plane over `dpm-serve`.
//!
//! The single [`Server`](dpm_serve::Server) answers one question: "run
//! this diffusion migration". A physical-synthesis fleet asks harder
//! ones: many tenants sharing one service, each replaying an ECO loop
//! against an almost-unchanged design, over thousands of mostly-idle
//! connections, against backends that sometimes die. This crate is
//! that layer, built from four parts:
//!
//! - [`DesignCache`][]: baselines keyed by FNV-1a
//!   content hash with deterministic byte-budget LRU eviction. A
//!   request naming an uncached baseline gets a typed
//!   [`NeedDesign`](dpm_serve::NeedDesign) frame; after one upload,
//!   every later request ships only an
//!   [`EcoDelta`](dpm_serve::EcoDelta) — bit-identical results to a
//!   full resend at a fraction of the bytes.
//! - [`FairQueue`][]: per-tenant bounded admission with
//!   deficit-round-robin service, so throughput is weight-proportional
//!   and a replay storm from one tenant cannot starve the rest.
//! - [`Readiness`]/[`CtlServer`]:
//!   a poll-based front-end multiplexing thousands of idle
//!   connections on one thread (epoll on Linux, a deterministic
//!   scanner in tests), with incremental frame assembly and
//!   per-connection version echo for wire-v2 clients.
//! - [`BackendRegistry`][]: health-checked
//!   primaries with warm spares; dead backends are replaced between
//!   jobs, and both routers' intra-job failovers feed back in.
//!
//! Everything is std-only, deterministic where it matters (cache
//! eviction, fair-queue schedule), and speaks the same framed TCP
//! protocol as `dpm-serve`, so [`ServeClient`](dpm_serve::ServeClient)
//! works unchanged against a control plane.

pub mod cache;
pub mod fair;
pub mod front;
pub mod metrics;
pub mod poll;
pub mod registry;

pub use cache::{CacheStats, CachedDesign, DesignCache, InsertOutcome};
pub use fair::{AdmitError, FairQueue, TenantSpec};
pub use front::{CtlConfig, CtlServer, ExecMode};
pub use metrics::{CtlMetrics, TenantMetrics};
pub use poll::{default_readiness, Readiness, ScanReadiness};
pub use registry::{BackendRegistry, RegistrySnapshot};

#[cfg(target_os = "linux")]
pub use poll::EpollReadiness;
