//! The halo-exchange round loop both routers run.
//!
//! A route is a sequence of rounds. Each round cuts one sub-job per
//! part of a partition from the freshest global state, fans the
//! sub-jobs out to their backends on scoped threads, retries failed
//! parts on warm spares, and stitches every reply back in part order.
//! The loop owns everything the two partitions share: trace minting
//! (`halo.round` and `shard.dispatch` spans), the fan-out, warm-spare
//! failover, remote-span collection, span-tree assembly and the
//! aggregated [`JobResponse`].
//!
//! What differs between a planar die region and a tier slab lives
//! behind the private [`Partition`] trait: how a part's sub-job is cut,
//! how its reply is checked and stitched, when the loop stops, and what
//! a part that failed on every backend costs — a degraded region for
//! the planar router, a typed error for the volumetric one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dpm_diffusion::KernelTimers;
use dpm_obs::{normalize_spans, rebase_spans, SpanRecorder, TraceIdGen};
use dpm_place::{MovementStats, Placement};

use crate::shard::{ShardBackend, ShardFailover, REPLY_GRACE};
use crate::wire::{
    ErrorReply, JobRequest, JobResponse, PayloadEncoding, ProgressUpdate, Reply, VolResponseExt,
};
use crate::{execute_request, ServeClient};

/// Salt mixed into the inherited span id when seeding a route's span-id
/// generator, distinct from the server's salt so a router and a backend
/// seeded from the same context never collide id streams.
const SEED_SALT: u64 = 0x5AAD_0D15_7A7C_40F5;

/// Spans a traced route keeps locally: round and dispatch spans, plus
/// the job spans of in-process backends.
const SPAN_CAPACITY: usize = 256;

/// Upper bound on remote spans stitched into one routed reply. A long
/// volumetric run exchanges hundreds of rounds; the earliest rounds
/// carry the structure a trace needs, the rest would only bloat the
/// wire export.
const REMOTE_SPAN_CAP: usize = 2048;

/// One partition's side of the halo-exchange loop.
pub(crate) trait Partition: Sync {
    /// What stitching a part's reply needs to know about its sub-job.
    type Cut: Send;
    /// How the route fails once a part has failed on every backend.
    type Error;

    /// Number of parts; part `i` starts on backend `i % backends`.
    fn len(&self) -> usize;
    /// Judges the round just stitched (when `rounds > 0`), then either
    /// prepares the next round from the freshest state or returns
    /// `false` to stop.
    fn next_round(&mut self, rounds: usize) -> bool;
    /// Cuts part `part`'s sub-job for this round, or `None` when the
    /// part has nothing to run.
    fn cut(&self, part: usize) -> Option<(JobRequest, Self::Cut)>;
    /// Stitches one part's checked reply, or applies the failure policy
    /// to a part that failed on its backend and every spare.
    fn stitch(&mut self, part: usize, cut: Self::Cut, reply: PartReply) -> Result<(), Self::Error>;
    /// The final state, once the loop has stopped.
    fn finish(&mut self) -> Finished;
}

/// One part's reply for one round, as the partition stitches it: the
/// checked response, or why the part failed on its backend and on
/// every spare tried.
pub(crate) type PartReply = Result<JobResponse, String>;

/// What a partition's final state contributes to the routed response.
pub(crate) struct Finished {
    pub converged: bool,
    pub steps: u64,
    pub rounds: u64,
    pub placement: Placement,
    pub vol: Option<VolResponseExt>,
}

/// Everything the loop learned besides the partition's own state.
pub(crate) struct Routed {
    pub response: JobResponse,
    /// Rounds executed (fan-outs over all parts).
    pub rounds: usize,
    pub failovers: Vec<ShardFailover>,
    /// Kernel timers merged across the sub-jobs this process ran (its
    /// in-process backends). A TCP backend bills its own runs in its
    /// own `StatsSnapshot` and in the stitched spans.
    pub kernels: KernelTimers,
    /// Progress frames the backends streamed.
    pub progress_frames: u64,
}

/// Runs `part`'s rounds over `backends` (part `i` on `backends[i %
/// len]`) with warm `spares`: a failed part is retried on the first
/// untried spare within the same round, and the spare that succeeds
/// owns the part for the rest of the job. A spare that fails its retry
/// is consumed too. The wire is bit-exact, so which backend ran a
/// sub-job cannot change the stitched result.
pub(crate) fn route<P: Partition>(
    req: &JobRequest,
    part: &mut P,
    backends: &[ShardBackend],
    spares: &[ShardBackend],
    started: Instant,
) -> Result<Routed, P::Error> {
    // Tracing state: a local recorder for round and dispatch spans and
    // a deterministic id generator seeded from the inherited context.
    let recorder = req.trace.map(|_| SpanRecorder::new(SPAN_CAPACITY));
    let recorder = recorder.as_ref();
    let mut ids = req.trace.map(|t| TraceIdGen::seeded(t.span_id ^ SEED_SALT));
    let k = part.len();
    let mut assign: Vec<ShardBackend> = (0..k).map(|i| backends[i % backends.len()]).collect();
    let mut spares = spares.to_vec();
    let mut failovers = Vec::new();
    let mut remote_spans = Vec::new();
    let mut kernels = KernelTimers::default();
    let frames = AtomicU64::new(0);
    let mut rounds = 0;
    while part.next_round(rounds) {
        // One `halo.round` span per fan-out; every dispatch context is
        // minted serially up front so span ids stay a pure function of
        // the inherited context, independent of thread interleaving.
        let round = req.trace.zip(ids.as_mut()).map(|(ctx, ids)| {
            let round_ctx = ids.child_of(&ctx);
            let dispatch: Vec<_> = (0..k).map(|_| ids.child_of(&round_ctx)).collect();
            (recorder.expect("traced").now_ns(), round_ctx, dispatch)
        });
        let run = |i: usize, backend| {
            let (mut sub, cut) = part.cut(i)?;
            sub.trace = round.as_ref().map(|(_, _, dispatch)| dispatch[i]);
            let reply = attempt(backend, &sub, recorder, &frames);
            Some((i, sub, cut, reply))
        };
        let mut runs: Vec<_> = std::thread::scope(|scope| {
            let run = &run;
            let handles: Vec<_> = assign
                .iter()
                .enumerate()
                .map(|(i, &backend)| scope.spawn(move || run(i, backend)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("part thread never panics"))
                .collect()
        });

        // Warm-spare failover, serially and before any stitching. A
        // retry is a fresh dispatch with its own span under the round.
        for (i, sub, _, reply) in runs.iter_mut().flatten() {
            while reply.is_err() && !spares.is_empty() {
                let spare = spares.remove(0);
                if let Some((_, round_ctx, _)) = &round {
                    sub.trace = Some(ids.as_mut().expect("traced").child_of(round_ctx));
                }
                *reply = attempt(spare, sub, recorder, &frames);
                if reply.is_ok() {
                    let from = std::mem::replace(&mut assign[*i], spare);
                    failovers.push(ShardFailover {
                        shard: *i,
                        from,
                        to: spare,
                    });
                }
            }
        }

        rounds += 1;
        for (i, _, cut, reply) in runs.into_iter().flatten() {
            let reply = reply.map(|(mut resp, kt)| {
                kernels.merge(&kt);
                let room = REMOTE_SPAN_CAP.saturating_sub(remote_spans.len());
                resp.spans.truncate(room);
                remote_spans.append(&mut resp.spans);
                resp
            });
            part.stitch(i, cut, reply)?;
        }
        if let (Some(recorder), Some((start, round_ctx, _))) = (recorder, &round) {
            recorder.record_traced("halo.round", *start, recorder.now_ns(), *round_ctx);
        }
    }

    // The stitched span tree: the route's own round and dispatch spans
    // plus every backend's re-based remote spans, normalized so the
    // earliest span starts at 0 (a receiver one hop up re-bases again
    // onto its own dispatch span).
    let spans = match (recorder, req.trace) {
        (Some(recorder), Some(ctx)) => {
            let mut spans = recorder.drain_trace(ctx.trace_id);
            spans.append(&mut remote_spans);
            normalize_spans(&mut spans);
            spans
        }
        _ => Vec::new(),
    };
    let done = part.finish();
    let movement = MovementStats::between(&req.netlist, &req.placement, &done.placement);
    let response = JobResponse {
        id: req.id,
        converged: done.converged,
        steps: done.steps,
        rounds: done.rounds,
        total_movement: movement.total,
        max_movement: movement.max,
        queue_ns: 0,
        service_ns: started.elapsed().as_nanos() as u64,
        positions: done.placement.as_slice().to_vec(),
        vol: done.vol,
        spans,
    };
    Ok(Routed {
        response,
        rounds,
        failovers,
        kernels,
        progress_frames: frames.into_inner(),
    })
}

/// The outcome of one sub-job attempt: the checked reply and its
/// kernel timers (zero for a TCP backend).
type Attempt = Result<(JobResponse, KernelTimers), String>;

/// Checks a reply's shape against its sub-job — one position per cell
/// and, for a volumetric sub-job, one depth per cell and the evolved
/// field over the shipped region — so a misbehaving backend fails (and
/// fails over) instead of corrupting the stitch.
fn check(sub: &JobRequest, resp: &JobResponse) -> Result<(), String> {
    let cells = sub.placement.len();
    let bins = |f: &Option<Vec<f64>>| f.as_ref().map_or(0, Vec::len);
    let want = sub.vol.as_ref().map(|v| (cells, bins(&v.field)));
    let got = resp.vol.as_ref().map(|v| (v.z.len(), bins(&v.field)));
    let n = resp.positions.len();
    if n != cells || got != want {
        return Err(format!(
            "backend returned {n} positions for {cells} cells; (depths, field bins) {got:?}, expected {want:?}"
        ));
    }
    Ok(())
}

/// Runs one sub-job on a backend — in-process through
/// [`execute_request`], or binary-encoded over TCP on a migration
/// server — and checks the reply's shape. Both
/// backends honour the sub-job's deadline, count its streamed progress
/// frames into `frames` and export its job span; every failure
/// (transport, rejection, engine panic, bad shape) becomes a message.
/// A TCP backend silent for the sub-job's `deadline_ms` plus
/// [`REPLY_GRACE`] fails with a transport timeout.
///
/// With a `recorder` and a traced sub-job, the interaction becomes one
/// `shard.dispatch` span under the sub-job's context, and the backend's
/// exported spans (normalized to start at 0) are re-based onto the
/// dispatch span's local start — so remote clocks never enter the
/// stitched tree. An in-process run records straight into `recorder`.
fn attempt(
    backend: ShardBackend,
    sub: &JobRequest,
    recorder: Option<&SpanRecorder>,
    frames: &AtomicU64,
) -> Attempt {
    let start = recorder.map(SpanRecorder::now_ns);
    let on_progress = &mut |_: &ProgressUpdate| {
        frames.fetch_add(1, Ordering::Relaxed);
    };
    let rejected = |e: ErrorReply| format!("{}: {}", e.code.as_str(), e.message);
    let mut result = match backend {
        ShardBackend::InProcess => {
            let deadline = (sub.deadline_ms > 0)
                .then(|| Instant::now() + Duration::from_millis(u64::from(sub.deadline_ms)));
            execute_request(sub, deadline, Some(on_progress), recorder).map_err(rejected)
        }
        ShardBackend::Tcp(addr) => ServeClient::connect(addr)
            .and_then(|client| {
                let bound = (sub.deadline_ms > 0)
                    .then(|| Duration::from_millis(u64::from(sub.deadline_ms)) + REPLY_GRACE);
                client.set_io_timeout(bound).map(|()| client)
            })
            .map_err(|e| format!("connect {addr}: {e}"))
            .and_then(|mut client| {
                client
                    .request_streaming(sub, PayloadEncoding::Binary, on_progress)
                    .map_err(|e| format!("transport: {e}"))
            })
            .and_then(|reply| match reply {
                Reply::Ok(resp) => Ok((resp, KernelTimers::default())),
                Reply::Rejected(e) => Err(rejected(e)),
            }),
    };
    if let (Some(recorder), Some(ctx), Some(start)) = (recorder, sub.trace, start) {
        recorder.record_traced("shard.dispatch", start, recorder.now_ns(), ctx);
        if let Ok((resp, _)) = &mut result {
            rebase_spans(&mut resp.spans, start);
        }
    }
    result.and_then(|(resp, kt)| check(sub, &resp).map(|()| (resp, kt)))
}
