//! `dpm-ctl` — the migration server: a multi-tenant control plane over
//! `dpm-serve`'s executor, wire protocol and routers.
//!
//! [`CtlServer`] is the workspace's one TCP server. A single job ("run
//! this diffusion migration") and a physical-synthesis fleet (many
//! tenants sharing one service, each replaying an ECO loop against an
//! almost-unchanged design, over thousands of mostly-idle connections,
//! against backends that sometimes die) are served by the same
//! admission, deadlines, workers, stats and shutdown. It is built from
//! four parts:
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
//!   scanner in tests), with incremental frame assembly,
//!   per-connection version echo for wire-v2 clients and one job in
//!   flight per connection, so pipelined requests are answered in
//!   order. Worker replies wake it through a socket pair.
//! - [`BackendRegistry`][]: health-checked
//!   primaries with warm spares; dead backends are replaced between
//!   jobs, and both routers' intra-job failovers feed back in.
//!
//! Everything is std-only, deterministic where it matters (cache
//! eviction, fair-queue schedule), and speaks `dpm-serve`'s framed TCP
//! protocol, so [`ServeClient`](dpm_serve::ServeClient) is its client.
//!
//! ```no_run
//! use dpm_ctl::{CtlConfig, CtlServer, TenantSpec};
//! # fn main() -> std::io::Result<()> {
//! let server = CtlServer::start(CtlConfig {
//!     addr: "127.0.0.1:0".parse().expect("a socket address"),
//!     workers: 2,
//!     tenants: vec![TenantSpec::new("default", 1, 64)], // weight 1, 64 queued
//!     log_path: Some("requests.jsonl".into()),
//!     ..CtlConfig::default()
//! })?;
//! println!("listening on {}", server.local_addr());
//! let stats = server.shutdown(); // drains admitted jobs, delivers replies
//! println!("served {} jobs", stats.served);
//! # Ok(())
//! # }
//! ```

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
