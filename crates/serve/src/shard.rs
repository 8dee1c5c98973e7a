//! Horizontal sharding: route one migration job across K backends.
//!
//! A [`ShardRouter`] takes a normal [`JobRequest`], partitions its die
//! into K bin-aligned shard regions with density halos
//! ([`ShardPartition`]), and fans each shard's sub-problem out to a
//! backend — either an in-process diffusion run or a remote
//! [`Server`](crate::Server) reached over TCP through
//! [`ServeClient`](crate::ServeClient). Between shard-local diffusion
//! passes it runs bounded **halo-exchange rounds**: after every fan-out
//! the owned-cell results are stitched into the global placement,
//! ownership and halos are recomputed from the fresh positions, and the
//! next round's shards see their neighbors' latest boundary density
//! through the refreshed ghosts. The halo is `max(W2, 2)` bins wide, derived from the job's
//! own window, so a diffusion window straddling a shard boundary is
//! fully visible from both sides.
//!
//! The round loop itself — fan-out, warm-spare failover, tracing and
//! response assembly — is shared with the volumetric
//! [`VolRouter`](crate::VolRouter); this module supplies only the planar
//! partition's decisions: how a shard's sub-problem is cut and stitched,
//! when a round is accepted, and that a shard failing on every backend
//! degrades instead of failing the job.
//!
//! Correctness anchors:
//!
//! - **K = 1 is a pass-through**: one shard covering the whole die
//!   carries the original die and every cell in order, so the routed
//!   result is bit-identical to calling the engine directly (and, for a
//!   TCP backend, bit-identical through the wire — `f64`s travel as bit
//!   patterns).
//! - **The maximum principle survives stitching**: for K > 1 a round is
//!   *accepted* only if the measured global max bin density did not
//!   increase; a round that would raise it is discarded and the
//!   exchange loop stops. Post-migration max density is therefore never
//!   above pre-migration max density, mirroring the FTCS maximum
//!   principle the engines guarantee per shard.
//! - **Graceful degradation**: a dead, overloaded, misbehaving or
//!   panicking shard leaves its region unmigrated for that round and
//!   records a per-shard error in the [`ShardReply`]; the job as a whole
//!   still succeeds with whatever the healthy shards achieved.
//! - **Warm spares**: a router built with [`ShardRouter::with_spares`]
//!   retries a failed shard's sub-problem on a spare backend within the
//!   same round and hands the shard to that spare for later rounds, so
//!   a killed backend costs a serial retry instead of an unmigrated
//!   region. Replacements are reported as [`ShardFailover`] entries.
//!
//! Telemetry from every shard run is merged: `DiffusionResult` kernel
//! timers via [`KernelTimers::merge`], per-shard service latencies via
//! the `dpm-obs` histogram snapshot merge.

use std::convert::Infallible;
use std::net::SocketAddr;
use std::time::Instant;

use dpm_diffusion::{stitch_positions, KernelTimers, ShardPartition, ShardProblem};
use dpm_geom::Rect;
use dpm_obs::{Histogram, HistogramSnapshot};
use dpm_place::{BinGrid, DensityMap, Placement};

use crate::router::{self, Finished, PartReply, Partition};
use crate::wire::{JobRequest, JobResponse};

/// Where one shard's sub-problems run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardBackend {
    /// Run the sub-problem on a thread inside the router's process,
    /// through the same [`execute_request`](crate::execute_request) a
    /// server worker runs.
    InProcess,
    /// Send the sub-problem to a [`Server`](crate::Server) at this
    /// address through a [`ServeClient`](crate::ServeClient), binary-encoded.
    Tcp(SocketAddr),
}

/// Routing parameters for a [`ShardRouter`].
#[derive(Debug, Clone)]
pub struct ShardRouterConfig {
    /// Requested shard count K. The partitioner may clamp this on tiny
    /// grids; [`ShardReply::shards`] reports what actually ran.
    pub shards: usize,
    /// Upper bound on halo-exchange rounds (each round is one fan-out
    /// over all shards). With one shard a single round runs — there is
    /// no neighbor state to exchange.
    pub max_halo_rounds: usize,
}

impl Default for ShardRouterConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            max_halo_rounds: 4,
        }
    }
}

/// Per-shard accounting, accumulated over every halo-exchange round.
#[derive(Debug, Clone, Default)]
pub struct ShardOutcome {
    /// Shard index.
    pub shard: usize,
    /// World rectangle of the shard's owned core region.
    pub region: Rect,
    /// Cells the shard owned in the final round.
    pub owned_cells: usize,
    /// Diffusion steps executed across all rounds.
    pub steps: u64,
    /// Diffusion rounds (the engines' inner rounds) across all rounds.
    pub rounds: u64,
    /// Total backend-reported service time across all successful
    /// rounds, nanoseconds.
    pub service_ns: u64,
    /// The most recent error, if any round failed on this shard. A set
    /// error means the shard's region kept its pre-round placement for
    /// the failing rounds — degraded, not fatal.
    pub error: Option<String>,
}

/// One warm-spare replacement: the backend a shard (or slab) was
/// assigned to failed a round, and a spare ran the sub-problem instead
/// (and owns the part for any later rounds of the same job).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardFailover {
    /// Which shard (or slab) failed over.
    pub shard: usize,
    /// The backend that failed.
    pub from: ShardBackend,
    /// The spare that took over.
    pub to: ShardBackend,
}

/// Everything the router learned from one routed job.
#[derive(Debug, Clone)]
pub struct ShardReply {
    /// Aggregated response in the same shape a single
    /// [`Server`](crate::Server) would produce: final positions for
    /// every cell, summed steps/rounds, movement stats against the
    /// input placement.
    pub response: JobResponse,
    /// Number of shards that actually ran (after grid clamping).
    pub shards: usize,
    /// Per-shard accounting, indexed by shard.
    pub outcomes: Vec<ShardOutcome>,
    /// Halo-exchange rounds executed (fan-outs over all shards).
    pub halo_exchanges: usize,
    /// Warm-spare replacements performed during this job, in the order
    /// they happened (empty when every assigned backend stayed healthy
    /// or no spares were configured).
    pub failovers: Vec<ShardFailover>,
    /// Measured global max bin density before round 1 and after every
    /// *accepted* round; non-increasing by construction for K > 1.
    pub max_density_trace: Vec<f64>,
    /// Progress frames the shard backends streamed, in-process and TCP
    /// alike (0 unless the request asked for a progress stride).
    pub progress_frames: u64,
    /// Kernel timers merged across every in-process shard run via
    /// [`KernelTimers::merge`], plus each TCP backend server's lifetime
    /// timers from its stats endpoint (a `JobResponse` carries none).
    pub kernels: KernelTimers,
    /// Per-shard service latencies in one `dpm-obs` histogram: one
    /// sample per successful shard run per round.
    pub shard_service_hist: HistogramSnapshot,
}

/// Fans one [`JobRequest`] out over K shard backends with halo
/// exchange. See the [module docs](self) for the contract.
///
/// # Examples
///
/// ```
/// use dpm_gen::{CircuitSpec, InflationSpec};
/// use dpm_serve::shard::{ShardRouter, ShardRouterConfig};
/// use dpm_serve::wire::{JobKind, JobRequest};
///
/// let mut bench = CircuitSpec::with_size("quick", 120, 5).generate();
/// bench.inflate(&InflationSpec::centered(0.2, 0.3, 9));
/// let req = JobRequest {
///     id: 1,
///     deadline_ms: 0,
///     progress_stride: 0,
///     kind: JobKind::Local,
///     design: "quick".into(),
///     config: dpm_diffusion::DiffusionConfig::default(),
///     netlist: bench.netlist,
///     die: bench.die,
///     placement: bench.placement,
///     vol: None,
///     trace: None,
/// };
/// let router = ShardRouter::in_process(ShardRouterConfig {
///     shards: 2,
///     ..ShardRouterConfig::default()
/// });
/// let reply = router.route(&req);
/// assert_eq!(reply.shards, 2);
/// assert!(reply.halo_exchanges >= 1);
/// // Maximum principle across the stitch: never worse than the input.
/// let trace = &reply.max_density_trace;
/// assert!(trace.last().unwrap() <= trace.first().unwrap());
/// ```
pub struct ShardRouter {
    cfg: ShardRouterConfig,
    backends: Vec<ShardBackend>,
    spares: Vec<ShardBackend>,
}

impl ShardRouter {
    /// Creates a router. Shard `i` runs on backend `i % backends.len()`,
    /// so one backend may serve several shards.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards` is zero or `backends` is empty.
    pub fn new(cfg: ShardRouterConfig, backends: Vec<ShardBackend>) -> Self {
        Self::with_spares(cfg, backends, Vec::new())
    }

    /// Creates a router with warm spares: when a shard's assigned
    /// backend fails a round, its sub-problem is retried on the first
    /// untried spare (in order) within the same round, and that spare
    /// takes over the shard for the rest of the job. A spare that fails
    /// its retry is consumed too — it is presumed as dead as the
    /// backend it replaced.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards` is zero or `backends` is empty.
    pub fn with_spares(
        cfg: ShardRouterConfig,
        backends: Vec<ShardBackend>,
        spares: Vec<ShardBackend>,
    ) -> Self {
        assert!(cfg.shards >= 1, "shard count must be positive");
        assert!(!backends.is_empty(), "at least one backend required");
        Self {
            cfg,
            backends,
            spares,
        }
    }

    /// Creates a router that runs every shard in-process.
    pub fn in_process(cfg: ShardRouterConfig) -> Self {
        Self::new(cfg, vec![ShardBackend::InProcess])
    }

    /// Routes one job across the shards and stitches the result.
    ///
    /// Never fails as a whole: backend errors degrade to per-shard
    /// [`ShardOutcome::error`] entries while the rest of the die is
    /// still migrated.
    pub fn route(&self, req: &JobRequest) -> ShardReply {
        let started = Instant::now();
        let halo_bins = req.config.w2.max(2);
        let partition =
            ShardPartition::new(&req.die, req.config.bin_size, self.cfg.shards, halo_bins);
        let grid = partition.grid();
        let outcomes = partition.shards().iter().map(|s| ShardOutcome {
            shard: s.index,
            region: s.core.world_rect(grid),
            ..ShardOutcome::default()
        });
        let mut planar = Planar {
            req,
            max_rounds: self.cfg.max_halo_rounds.max(1),
            target: req.config.d_max + req.config.delta,
            trace: vec![max_density(req, grid, &req.placement)],
            working: req.placement.clone(),
            candidate: Placement::default(),
            owners: Vec::new(),
            outcomes: outcomes.collect(),
            service: Histogram::new(&Histogram::latency_bounds()),
            converged: false,
            stepped: false,
            stopped: false,
            partition,
        };
        let Ok(routed) = router::route(req, &mut planar, &self.backends, &self.spares, started);
        ShardReply {
            response: routed.response,
            shards: planar.partition.len(),
            outcomes: planar.outcomes,
            halo_exchanges: routed.rounds,
            failovers: routed.failovers,
            max_density_trace: planar.trace,
            progress_frames: routed.progress_frames,
            kernels: routed.kernels,
            shard_service_hist: planar.service.snapshot(),
        }
    }
}

/// Measured global max bin density of `p` on `grid`.
fn max_density(req: &JobRequest, grid: &BinGrid, p: &Placement) -> f64 {
    DensityMap::from_placement(&req.netlist, p, grid.clone()).max_density()
}

/// The planar partition's side of the round loop: the die's shard
/// regions, the accepted placement, and the round being stitched.
struct Planar<'a> {
    req: &'a JobRequest,
    partition: ShardPartition,
    max_rounds: usize,
    target: f64,
    /// Max density of the input and of every accepted round.
    trace: Vec<f64>,
    /// Accepted placement, and the candidate this round stitches into.
    working: Placement,
    candidate: Placement,
    /// Cell owners, derived from `working` at the start of each round.
    owners: Vec<usize>,
    outcomes: Vec<ShardOutcome>,
    /// Every shard run's service time, one sample per shard per round.
    service: Histogram,
    /// Whether the last stitched run converged (what a single shard
    /// reports), and whether any run of this round took a step.
    converged: bool,
    stepped: bool,
    stopped: bool,
}

impl Partition for Planar<'_> {
    type Cut = ShardProblem;
    type Error = Infallible;

    fn len(&self) -> usize {
        self.partition.len()
    }

    fn next_round(&mut self, rounds: usize) -> bool {
        if rounds > 0 {
            let max = max_density(self.req, self.partition.grid(), &self.candidate);
            let last = *self.trace.last().expect("trace is never empty");
            // Rejecting a round that raised the max preserves the
            // maximum principle across the stitch: accepted state is
            // never denser than what came before.
            self.stopped = self.partition.len() > 1 && max > last;
            if !self.stopped {
                std::mem::swap(&mut self.working, &mut self.candidate);
                self.trace.push(max);
                // A single shard has no neighbor state to exchange.
                self.stopped = max <= self.target || !self.stepped || self.partition.len() == 1;
            }
        }
        if self.stopped || rounds >= self.max_rounds {
            return false;
        }
        // Halo exchange: ownership and ghost positions derive from the
        // freshest accepted placement.
        let netlist = &self.req.netlist;
        self.owners = self.partition.assign_owners(netlist, &self.working);
        self.candidate = self.working.clone();
        self.stepped = false;
        true
    }

    fn cut(&self, shard: usize) -> Option<(JobRequest, ShardProblem)> {
        let (req, working, owners) = (self.req, &self.working, &self.owners);
        let partition = &self.partition;
        let problem = partition.extract_problem(shard, &req.netlist, &req.die, working, owners)?;
        let sub = JobRequest {
            design: format!("{}/shard{shard}", req.design),
            config: req.config.clone(),
            netlist: problem.netlist.clone(),
            die: problem.die.clone(),
            placement: problem.placement.clone(),
            vol: None,
            trace: None,
            ..*req
        };
        Some((sub, problem))
    }

    fn stitch(
        &mut self,
        shard: usize,
        cut: ShardProblem,
        reply: PartReply,
    ) -> Result<(), Infallible> {
        let out = &mut self.outcomes[shard];
        out.owned_cells = cut.owned;
        self.converged = reply.as_ref().is_ok_and(|resp| resp.converged);
        match reply {
            Ok(resp) => {
                out.steps += resp.steps;
                out.rounds += resp.rounds;
                out.service_ns += resp.service_ns;
                self.service.record(resp.service_ns);
                self.stepped |= resp.steps > 0;
                stitch_positions(&cut, &resp.positions, &mut self.candidate);
            }
            // A failed shard degrades: its region keeps the pre-round
            // placement already in the candidate.
            Err(error) => out.error = Some(error),
        }
        Ok(())
    }

    fn finish(&mut self) -> Finished {
        // A single shard's own convergence verdict stands; K > 1 judges
        // the stitched placement.
        let stitched = *self.trace.last().expect("trace is never empty") <= self.target;
        Finished {
            converged: stitched || (self.partition.len() == 1 && self.converged),
            steps: self.outcomes.iter().map(|o| o.steps).sum(),
            rounds: self.outcomes.iter().map(|o| o.rounds).sum(),
            placement: std::mem::take(&mut self.working),
            vol: None,
        }
    }
}
