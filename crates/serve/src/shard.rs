//! Horizontal sharding: route one migration job across K backends.
//!
//! A [`ShardRouter`] takes a normal [`JobRequest`], partitions its die
//! into K bin-aligned shard regions with H-bin density halos
//! ([`ShardPartition`]), and fans each shard's sub-problem out to a
//! backend — either an in-process diffusion run or a remote
//! [`Server`](crate::Server) reached over TCP through
//! [`ServeClient`]. Between shard-local diffusion passes it runs
//! bounded **halo-exchange rounds**: after every fan-out the owned-cell
//! results are stitched into the global placement, ownership and halos
//! are recomputed from the fresh positions, and the next round's shards
//! see their neighbors' latest boundary density through the refreshed
//! ghosts.
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
//! - **Graceful degradation**: a dead, overloaded or panicking shard
//!   leaves its region unmigrated for that round and records a
//!   per-shard error in the [`ShardReply`]; the job as a whole still
//!   succeeds with whatever the healthy shards achieved.
//! - **Warm spares**: a router built with [`ShardRouter::with_spares`]
//!   retries a failed shard's sub-problem on a spare backend within the
//!   same round and hands the shard to that spare for later rounds, so
//!   a killed backend costs a serial retry instead of an unmigrated
//!   region. Replacements are reported as [`ShardFailover`] entries.
//!
//! Telemetry from every shard run is merged: `DiffusionResult` kernel
//! timers via [`KernelTimers::merge`], per-shard service latencies via
//! the `dpm-obs` histogram snapshot merge.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dpm_diffusion::{stitch_positions, KernelTimers, ShardPartition, ShardProblem};
use dpm_geom::{Point, Rect};
use dpm_obs::{
    normalize_spans, rebase_spans, Histogram, HistogramSnapshot, SpanRecord, SpanRecorder,
    TraceContext, TraceIdGen,
};
use dpm_place::{DensityMap, MovementStats, Placement};

use crate::wire::{ErrorReply, JobRequest, JobResponse, PayloadEncoding, ProgressUpdate, Reply};
use crate::{execute_request, ServeClient};

/// Salt mixed into the inherited span id when seeding the router's
/// span-id generator, distinct from the server's salt so a router and a
/// backend seeded from the same context never collide id streams.
const ROUTE_SEED_SALT: u64 = 0x5AAD_0D15_7A7C_40F5;

/// Spans a traced route keeps locally (round + dispatch spans; remote
/// spans ride back inside the sub-responses instead).
const ROUTE_SPAN_CAPACITY: usize = 256;

/// Where one shard's sub-problems run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardBackend {
    /// Run the sub-problem on a thread inside the router's process,
    /// through the same [`execute_request`] a server worker runs.
    InProcess,
    /// Send the sub-problem to a [`Server`](crate::Server) at this
    /// address through a [`ServeClient`].
    Tcp(SocketAddr),
}

/// Routing parameters for a [`ShardRouter`].
#[derive(Debug, Clone)]
pub struct ShardRouterConfig {
    /// Requested shard count K. The partitioner may clamp this on tiny
    /// grids; [`ShardReply::shards`] reports what actually ran.
    pub shards: usize,
    /// Halo width H in bins. At least the diffusion window `W2` is
    /// sensible: then a window straddling a shard boundary is fully
    /// visible from both sides.
    pub halo_bins: usize,
    /// Upper bound on halo-exchange rounds (each round is one fan-out
    /// over all shards). With one shard a single round runs — there is
    /// no neighbor state to exchange.
    pub max_halo_rounds: usize,
    /// Payload encoding for TCP backends.
    pub encoding: PayloadEncoding,
}

impl Default for ShardRouterConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            halo_bins: 2,
            max_halo_rounds: 4,
            encoding: PayloadEncoding::Binary,
        }
    }
}

/// Per-shard accounting, accumulated over every halo-exchange round.
#[derive(Debug, Clone)]
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
    /// Total service time across all rounds, nanoseconds.
    pub service_ns: u64,
    /// The most recent error, if any round failed on this shard. A set
    /// error means the shard's region kept its pre-round placement for
    /// the failing rounds — degraded, not fatal.
    pub error: Option<String>,
}

/// One warm-spare replacement: the backend a shard was assigned to
/// failed a round, and a spare ran the sub-problem instead (and owns
/// the shard for any later rounds of the same job).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardFailover {
    /// Which shard failed over.
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
    /// [`KernelTimers::merge`]. TCP backends report timings through
    /// their own stats endpoint instead.
    pub kernels: KernelTimers,
    /// Per-shard service latencies: one histogram per shard, merged
    /// into a single snapshot with the `dpm-obs` histogram merge (one
    /// sample per shard per round).
    pub shard_service_hist: HistogramSnapshot,
}

/// What one shard's run produced in one round.
struct ShardRun {
    /// The sub-problem that ran (carries the owned-cell mapping the
    /// stitcher needs).
    problem: ShardProblem,
    /// Post-run position of every sub-problem cell; `None` on error.
    positions: Option<Vec<Point>>,
    steps: u64,
    rounds: u64,
    converged: bool,
    service_ns: u64,
    progress_frames: u64,
    kernels: Option<KernelTimers>,
    error: Option<String>,
    /// Remote spans exported by a TCP backend, already re-based into
    /// the router's clock by the dispatch span's start.
    spans: Vec<SpanRecord>,
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

    /// The routing configuration.
    pub fn config(&self) -> &ShardRouterConfig {
        &self.cfg
    }

    /// The configured backends.
    pub fn backends(&self) -> &[ShardBackend] {
        &self.backends
    }

    /// The configured warm spares (not yet consumed by a failover).
    pub fn spares(&self) -> &[ShardBackend] {
        &self.spares
    }

    /// Routes one job across the shards and stitches the result.
    ///
    /// Never fails as a whole: backend errors degrade to per-shard
    /// [`ShardOutcome::error`] entries while the rest of the die is
    /// still migrated.
    pub fn route(&self, req: &JobRequest) -> ShardReply {
        let t0 = Instant::now();
        // Tracing state: a local recorder for round/dispatch spans and a
        // deterministic id generator seeded from the inherited context.
        // Remote spans come back through the sub-responses and are
        // stitched (re-based onto dispatch-span starts) into one tree.
        let trace_ctx = req.trace;
        let recorder = trace_ctx.map(|_| SpanRecorder::new(ROUTE_SPAN_CAPACITY));
        let recorder_ref = recorder.as_ref();
        let mut ids = trace_ctx.map(|ctx| TraceIdGen::seeded(ctx.span_id ^ ROUTE_SEED_SALT));
        let mut collected_spans: Vec<SpanRecord> = Vec::new();
        let partition = ShardPartition::new(
            &req.die,
            req.config.bin_size,
            self.cfg.shards,
            self.cfg.halo_bins,
        );
        let k = partition.len();
        let grid = partition.grid().clone();
        let target = req.config.d_max + req.config.delta;

        let mut working = req.placement.clone();
        let measure =
            |p: &Placement| DensityMap::from_placement(&req.netlist, p, grid.clone()).max_density();
        let mut trace = vec![measure(&working)];

        let mut outcomes: Vec<ShardOutcome> = partition
            .shards()
            .iter()
            .map(|s| ShardOutcome {
                shard: s.index,
                region: s.core.world_rect(&grid),
                owned_cells: 0,
                steps: 0,
                rounds: 0,
                service_ns: 0,
                error: None,
            })
            .collect();
        let shard_hists: Vec<Histogram> = (0..k)
            .map(|_| Histogram::new(&Histogram::latency_bounds()))
            .collect();
        let mut kernels = KernelTimers::default();
        let mut progress_frames = 0u64;
        let mut halo_exchanges = 0usize;
        let mut single_shard_converged = false;

        // Per-shard backend assignment; failovers rewrite it mid-job.
        let mut assign: Vec<ShardBackend> = (0..k)
            .map(|shard| self.backends[shard % self.backends.len()])
            .collect();
        let mut spares = self.spares.clone();
        let mut failovers: Vec<ShardFailover> = Vec::new();

        let round_cap = if k == 1 {
            1
        } else {
            self.cfg.max_halo_rounds.max(1)
        };
        for _ in 0..round_cap {
            // One `halo.round` span per fan-out; each shard's dispatch
            // context is minted serially up front so span ids stay a
            // pure function of the inherited context, independent of
            // thread interleaving.
            let round_trace = trace_ctx.map(|ctx| {
                let ids = ids.as_mut().expect("id generator exists when traced");
                let round_ctx = ids.child_of(&ctx);
                let dispatch: Vec<TraceContext> =
                    (0..k).map(|_| ids.child_of(&round_ctx)).collect();
                let start = recorder_ref.expect("recorder exists when traced").now_ns();
                (start, round_ctx, dispatch)
            });
            // Halo exchange: ownership and ghost positions are derived
            // from the freshest global placement.
            let owners = partition.assign_owners(&req.netlist, &working);
            let mut runs: Vec<Option<ShardRun>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..k)
                    .map(|shard| {
                        let backend = assign[shard];
                        let partition = &partition;
                        let owners = &owners;
                        let working = &working;
                        let encoding = self.cfg.encoding;
                        let shard_trace = round_trace
                            .as_ref()
                            .map(|(_, _, dispatch)| (recorder_ref.unwrap(), dispatch[shard]));
                        scope.spawn(move || {
                            partition
                                .extract_problem(shard, &req.netlist, &req.die, working, owners)
                                .map(|problem| {
                                    run_shard(backend, req, problem, encoding, shard_trace)
                                })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard thread never panics"))
                    .collect()
            });

            // Warm-spare failover: retry each failed shard serially on
            // the spares before stitching, so a dead backend costs a
            // retry, not an unmigrated region. The successful spare owns
            // the shard from here on; a spare that fails its retry is
            // consumed (presumed dead) and the next one is tried. The
            // wire is bit-exact, so which backend ran the sub-problem
            // cannot change the stitched placement.
            for (shard, slot) in runs.iter_mut().enumerate() {
                if slot.as_ref().is_none_or(|run| run.error.is_none()) {
                    continue;
                }
                while !spares.is_empty() {
                    let spare = spares.remove(0);
                    // A retry is a fresh dispatch: it gets its own span
                    // (and id) under the same round.
                    let retry_trace = round_trace.as_ref().map(|(_, round_ctx, _)| {
                        let ctx = ids.as_mut().expect("traced").child_of(round_ctx);
                        (recorder_ref.expect("traced"), ctx)
                    });
                    let retry = partition
                        .extract_problem(shard, &req.netlist, &req.die, &working, &owners)
                        .map(|problem| {
                            run_shard(spare, req, problem, self.cfg.encoding, retry_trace)
                        });
                    match retry {
                        Some(run) if run.error.is_none() => {
                            failovers.push(ShardFailover {
                                shard,
                                from: assign[shard],
                                to: spare,
                            });
                            assign[shard] = spare;
                            *slot = Some(run);
                            break;
                        }
                        _ => {}
                    }
                }
            }

            halo_exchanges += 1;
            let mut candidate = working.clone();
            let mut any_steps = false;
            let mut all_converged = true;
            for (shard, run) in runs.into_iter().enumerate() {
                let Some(mut run) = run else {
                    // Shard owns no cells this round; nothing to do.
                    continue;
                };
                collected_spans.append(&mut run.spans);
                let out = &mut outcomes[shard];
                out.owned_cells = run.problem.owned;
                out.steps += run.steps;
                out.rounds += run.rounds;
                out.service_ns += run.service_ns;
                shard_hists[shard].record(run.service_ns);
                progress_frames += run.progress_frames;
                if let Some(kt) = &run.kernels {
                    kernels.merge(kt);
                }
                all_converged &= run.converged && run.error.is_none();
                if let Some(err) = run.error {
                    out.error = Some(err);
                }
                if let Some(positions) = run.positions {
                    any_steps |= run.steps > 0;
                    stitch_positions(&run.problem, &positions, &mut candidate);
                }
            }

            let candidate_max = measure(&candidate);
            if let Some((start, round_ctx, _)) = &round_trace {
                let recorder = recorder_ref.expect("recorder exists when traced");
                recorder.record_traced("halo.round", *start, recorder.now_ns(), *round_ctx);
            }
            if k > 1 && candidate_max > *trace.last().expect("trace is never empty") {
                // Rejecting the round preserves the maximum-principle
                // invariant across the stitch: accepted state is never
                // denser than what came before.
                break;
            }
            working = candidate;
            trace.push(candidate_max);
            single_shard_converged = all_converged;
            if candidate_max <= target || !any_steps {
                break;
            }
        }

        // TCP backends cannot ship per-run kernel timers in a
        // JobResponse; fold in their servers' lifetime timers instead.
        for addr in self.distinct_tcp_addrs() {
            if let Ok(snapshot) = ServeClient::connect(addr).and_then(|mut c| {
                c.stats()
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
            }) {
                kernels.merge(&snapshot.kernels);
            }
        }

        let mut shard_service_hist = HistogramSnapshot::empty(&Histogram::latency_bounds());
        for h in &shard_hists {
            shard_service_hist.merge(&h.snapshot());
        }

        let final_max = *trace.last().expect("trace is never empty");
        // Assemble the stitched span tree: the router's own round and
        // dispatch spans plus every backend's re-based remote spans,
        // normalized so the earliest span starts at 0 (a receiver one
        // hop up re-bases again onto its own dispatch span).
        let spans = match (recorder_ref, trace_ctx) {
            (Some(recorder), Some(ctx)) => {
                let mut spans = recorder.drain_trace(ctx.trace_id);
                spans.append(&mut collected_spans);
                normalize_spans(&mut spans);
                spans
            }
            _ => Vec::new(),
        };
        let movement = MovementStats::between(&req.netlist, &req.placement, &working);
        let response = JobResponse {
            id: req.id,
            converged: final_max <= target || (k == 1 && single_shard_converged),
            steps: outcomes.iter().map(|o| o.steps).sum(),
            rounds: outcomes.iter().map(|o| o.rounds).sum(),
            total_movement: movement.total,
            max_movement: movement.max,
            queue_ns: 0,
            service_ns: t0.elapsed().as_nanos() as u64,
            positions: working.as_slice().to_vec(),
            vol: None,
            spans,
        };
        ShardReply {
            response,
            shards: k,
            outcomes,
            halo_exchanges,
            failovers,
            max_density_trace: trace,
            progress_frames,
            kernels,
            shard_service_hist,
        }
    }

    fn distinct_tcp_addrs(&self) -> Vec<SocketAddr> {
        let mut addrs = Vec::new();
        for b in &self.backends {
            if let ShardBackend::Tcp(a) = b {
                if !addrs.contains(a) {
                    addrs.push(*a);
                }
            }
        }
        addrs
    }
}

/// Runs one shard's sub-problem on its backend. Never panics: engine
/// panics and transport failures degrade to `error`.
///
/// When traced, the sub-request inherits `trace`'s context and the whole
/// backend interaction becomes one `shard.dispatch` span under it (see
/// [`dispatch`]).
fn run_shard(
    backend: ShardBackend,
    req: &JobRequest,
    problem: ShardProblem,
    encoding: PayloadEncoding,
    trace: Option<(&SpanRecorder, TraceContext)>,
) -> ShardRun {
    let started = Instant::now();
    let sub = JobRequest {
        id: req.id,
        deadline_ms: req.deadline_ms,
        progress_stride: req.progress_stride,
        kind: req.kind,
        design: format!("{}/shard{}", req.design, problem.shard),
        config: req.config.clone(),
        netlist: problem.netlist.clone(),
        die: problem.die.clone(),
        placement: problem.placement.clone(),
        vol: None,
        trace: trace.map(|(_, ctx)| ctx),
    };
    let mut progress_frames = 0u64;
    let reply = dispatch(
        backend,
        &sub,
        encoding,
        trace.map(|(recorder, _)| recorder),
        &mut |_| progress_frames += 1,
    );
    let service_ns = started.elapsed().as_nanos() as u64;
    match reply {
        Ok((resp, _)) if resp.positions.len() != problem.cell_map.len() => {
            let msg = format!(
                "backend returned {} positions for {} cells",
                resp.positions.len(),
                problem.cell_map.len()
            );
            failed(problem, service_ns, msg)
        }
        Ok((resp, kernels)) => ShardRun {
            positions: Some(resp.positions),
            steps: resp.steps,
            rounds: resp.rounds,
            converged: resp.converged,
            service_ns: resp.service_ns,
            progress_frames,
            kernels,
            error: None,
            spans: resp.spans,
            problem,
        },
        Err(e) => failed(problem, service_ns, e),
    }
}

/// Runs one sub-request on a backend — in-process through
/// [`execute_request`], or on a [`Server`](crate::Server) over TCP — and
/// returns the response plus, for an in-process run, its kernel timers.
/// Both backends honour the sub-request's deadline, stream its progress
/// into `on_progress` and export its job span; every failure (transport,
/// rejection, engine panic) becomes a message.
///
/// With a `recorder` and a traced sub-request, the interaction becomes
/// one `shard.dispatch` span under the sub-request's context, and the
/// backend's exported spans (normalized to start at 0) are re-based onto
/// the dispatch span's local start — so remote clocks never enter the
/// stitched tree. An in-process run records straight into `recorder`.
pub(crate) fn dispatch(
    backend: ShardBackend,
    sub: &JobRequest,
    encoding: PayloadEncoding,
    recorder: Option<&SpanRecorder>,
    on_progress: &mut dyn FnMut(&ProgressUpdate),
) -> Result<(JobResponse, Option<KernelTimers>), String> {
    let start = recorder.map(SpanRecorder::now_ns);
    let rejected = |e: ErrorReply| format!("{}: {}", e.code.as_str(), e.message);
    let mut result = match backend {
        ShardBackend::InProcess => {
            let deadline = (sub.deadline_ms > 0)
                .then(|| Instant::now() + Duration::from_millis(u64::from(sub.deadline_ms)));
            execute_request(sub, deadline, Some(on_progress), recorder)
                .map(|(resp, kernels)| (resp, Some(kernels)))
                .map_err(rejected)
        }
        ShardBackend::Tcp(addr) => ServeClient::connect(addr)
            .map_err(|e| format!("connect {addr}: {e}"))
            .and_then(|mut client| {
                client
                    .request_streaming(sub, encoding, on_progress)
                    .map_err(|e| format!("transport: {e}"))
            })
            .and_then(|reply| match reply {
                Reply::Ok(resp) => Ok((resp, None)),
                Reply::Rejected(e) => Err(rejected(e)),
            }),
    };
    if let (Some(recorder), Some(ctx), Some(start)) = (recorder, sub.trace, start) {
        recorder.record_traced("shard.dispatch", start, recorder.now_ns(), ctx);
        if let Ok((resp, _)) = &mut result {
            rebase_spans(&mut resp.spans, start);
        }
    }
    result
}

fn failed(problem: ShardProblem, service_ns: u64, error: String) -> ShardRun {
    ShardRun {
        problem,
        positions: None,
        steps: 0,
        rounds: 0,
        converged: false,
        service_ns,
        progress_frames: 0,
        kernels: None,
        error: Some(error),
        spans: Vec::new(),
    }
}
