//! Migration-as-a-service: run diffusion-based placement migration over
//! a socket.
//!
//! `dpm-serve` wraps the `dpm-diffusion` engines in a small, std-only
//! TCP service speaking a length-prefixed, versioned binary protocol
//! ([`wire`]). The server is built around explicit capacity limits:
//!
//! - a **bounded admission queue** ([`queue::BoundedQueue`]) — when it
//!   is full the client gets an [`ErrorCode::Overloaded`] reply at once
//!   instead of unbounded buffering;
//! - **per-request deadlines** measured from admission (queue wait
//!   counts), enforced *inside* the diffusion loops via the engines'
//!   cancellation hooks — an expired job answers
//!   [`ErrorCode::DeadlineExpired`] with its partial step/round counts;
//! - a **fixed worker pool** running the actual jobs;
//! - **structured JSONL request logs** ([`log::RequestLog`]);
//! - **streaming observability**: requests can ask for periodic
//!   [`ProgressUpdate`] frames while diffusion runs, and any client can
//!   fetch a [`StatsSnapshot`] (counters, latency histograms, merged
//!   kernel timings) — both built on the `dpm-obs` metrics registry;
//! - **graceful shutdown**: stop accepting, drain every admitted job,
//!   join all threads;
//! - **horizontal sharding** ([`shard`]): a [`ShardRouter`] partitions
//!   one job's die into K bin-aligned regions with density halos, fans
//!   the sub-problems out to in-process or TCP backends, and stitches
//!   the owned-cell results back with bounded halo-exchange rounds —
//!   K = 1 is bit-identical to a direct engine run, and a dead shard
//!   degrades to an unmigrated region instead of a failed job;
//! - **z-slab volumetric routing** ([`zslab`]): a [`VolRouter`] splats
//!   a 3D (tiered) job's density once, then ships each of K backends a
//!   tier slab with two ghost tiers and runs one exact FTCS step per
//!   halo-exchange round — the routed stack is bit-identical to a
//!   direct [`VolumetricDiffusion`](dpm_diffusion::VolumetricDiffusion)
//!   run at any K, in-process or over TCP. The [`wire`] format carries
//!   the tier axis as an optional trailing extension, so planar frames
//!   are byte-identical to pre-volumetric ones and legacy frames decode
//!   as 2D jobs.
//!
//! The two routers are thin front ends over one halo-exchange round
//! loop: it owns the fan-out, warm-spare failover, reply-shape checks,
//! tracing and response assembly, while each partition decides only how
//! to cut and stitch its sub-jobs, when to stop, and whether a part that
//! failed on every backend degrades (planar) or fails the job
//! (volumetric).
//!
//! Determinism survives the wire: `f64` values travel as IEEE-754 bit
//! patterns, so a round trip through the server produces placements
//! bit-identical to calling the engines in-process. Progress streaming
//! is observation-only — a request with `progress_stride: 0` and the
//! same request streamed every step produce bit-identical placements.
//!
//! ```no_run
//! use dpm_serve::{Server, ServeClient, ServeConfig};
//! use dpm_serve::wire::{JobKind, JobRequest, PayloadEncoding, Reply};
//! # fn demo(netlist: dpm_netlist::Netlist, die: dpm_place::Die,
//! #         placement: dpm_place::Placement) -> std::io::Result<()> {
//! let server = Server::start("127.0.0.1:0", ServeConfig::default())?;
//! let mut client = ServeClient::connect(server.local_addr())?;
//! let req = JobRequest {
//!     id: 1,
//!     deadline_ms: 0,
//!     progress_stride: 8, // a ProgressUpdate every 8 diffusion steps
//!     kind: JobKind::Local,
//!     design: "cpu_core".into(),
//!     config: dpm_diffusion::DiffusionConfig::default(),
//!     netlist,
//!     die,
//!     placement,
//!     vol: None,   // planar job; Some(VolRequestExt) runs a 3D stack
//!     trace: None, // Some(TraceContext) joins a distributed trace
//! };
//! let reply = client.request_streaming(&req, PayloadEncoding::Binary, |p| {
//!     eprintln!("step {}: max density {:.3}", p.step, p.max_density);
//! });
//! match reply {
//!     Ok(Reply::Ok(resp)) => println!("{} steps", resp.steps),
//!     Ok(Reply::Rejected(e)) => eprintln!("rejected: {}", e.message),
//!     Err(e) => eprintln!("transport: {e}"),
//! }
//! let stats = client.stats().expect("stats frame");
//! println!("served {} jobs; p99 e2e {} ns",
//!          stats.served, stats.e2e_hist.percentile(0.99));
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod delta;
pub mod log;
pub mod queue;
mod router;
pub mod server;
pub mod shard;
pub mod wire;
pub mod zslab;

pub use client::{DeltaReply, ServeClient};
pub use delta::{CellMove, CellResize, DeltaError, DeltaJobRequest, EcoDelta, NewCell};
pub use server::{execute_job, execute_request, ServeConfig, ServeStats, Server};
pub use shard::{
    ShardBackend, ShardFailover, ShardOutcome, ShardReply, ShardRouter, ShardRouterConfig,
};
pub use wire::{
    design_hash, DesignAck, ErrorCode, ErrorReply, JobKind, JobRequest, JobResponse, NeedDesign,
    PayloadEncoding, ProgressUpdate, PutDesign, Reply, StatsSnapshot, VolRequestExt,
    VolResponseExt,
};
pub use zslab::{VolReply, VolRouteError, VolRouter, VolRouterConfig};
