//! The service workload: a `dpm-ctl` control plane serving two tenants'
//! ECO streams, driven open-loop at a fixed rate and then closed-loop to
//! find its capacity.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use dpm_ctl::poll::RawFd;
use dpm_ctl::{default_readiness, CtlConfig, CtlServer, ExecMode, Readiness, TenantSpec};
use dpm_diffusion::SolverKind;
use dpm_gen::{Benchmark, EcoSpec, InflationSpec};
use dpm_obs::{rebase_spans, SpanRecord, SpanRecorder, TraceIdGen};
use dpm_place::{hpwl, BinGrid, DensityMap, Placement};
use dpm_rng::Rng;
use dpm_serve::delta::{decode_delta_request, encode_delta_request};
use dpm_serve::wire::{
    decode_design_ack, decode_need_design, decode_request, decode_response, design_hash,
    encode_design_bytes, encode_put_design, encode_request, encode_response, read_frame,
    write_frame, FrameKind, JobKind, JobRequest, JobResponse, PayloadEncoding, PutDesign, Reply,
    DEFAULT_MAX_FRAME_LEN,
};
use dpm_serve::{execute_job, DeltaJobRequest, EcoDelta, ServeClient};

use crate::batch::untimed_calls;
use crate::ledger::{
    computed_bytes, replay_kernels, report_replays, JobShape, JobTimes, Ledger, Recorder,
};
use crate::report::Report;
use crate::stats::{mean, median, percentile};
use crate::workload::{ckt_circuit, pinned_config, Deck, Mode, Workload};
use crate::{peak_rss_mb, same_bits, Options, REPLAYED_INPUTS, TRACED_JOBS};

/// Seed of the design catalogue, the same on every run. `--seed` drives
/// the traffic instead (arrival times, request mix and order), so every
/// run serves the same ECO jobs: the quality metrics average the same
/// jobs, and set-up does the same work, whatever the seed.
const CATALOGUE_SEED: u64 = 0;
const TENANTS: usize = 2;
const WORKERS: usize = 2;
/// The front-end's readiness wait, ms. `CtlConfig` defaults to 5, and
/// asks for a small value: a reply a worker finishes waits in the outbox
/// until the wait returns. At 5 ms, latency is a staircase in the
/// machine's speed (a reply leaves 5 or 10 ms after its request was
/// read), and a few percent of host speed moved whole seeds from one
/// step to the next: p90 read 20 ms on some runs and 33 ms on others.
/// At 1 ms the steps are small, and the tick stays a measured layer
/// (`ctl.tick_ms`).
const WAIT_MS: i32 = 1;
const BASELINE_CELLS: usize = 5_000;
/// Baseline designs each tenant keeps cached.
const BASES_PER_TENANT: usize = 4;
/// Distinct ECO edits prepared per baseline; requests draw from them.
const VARIANTS_PER_BASE: usize = 4;
/// Offered open-loop rate, requests per second. Requests are paced, not
/// Poisson: at this rate about 45% of Poisson gaps are shorter than a
/// typical reply, so p50 and p90 measured how the host shared two vCPUs
/// among the client, front-end and worker threads, and read 10–15%
/// apart between seeds. Paced requests overlap only when a reply takes
/// longer than the gap.
const RATE_PER_S: f64 = 40.0;
/// Share of the run's seconds given to the open loop; the closed-loop
/// capacity phase gets the rest.
const OPEN_SHARE: f64 = 0.65;
/// Closed-loop connections per tenant.
const CLOSED_CONNECTIONS_PER_TENANT: usize = 4;
/// Every this many OK job replies, one is re-run in process and must
/// match bit for bit.
const CHECK_EVERY: usize = 50;
/// Bound on waiting for any one reply before the run counts the rest as
/// lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// An ECO delta against the tenant's cached baseline (cache read +
    /// `EcoDelta::apply` on the control plane).
    Delta,
    /// The whole modified design resent as a plain job request.
    Full,
    /// A design upload into the cache (cache write).
    Put,
}

impl Op {
    fn draw(rng: &mut Rng) -> Op {
        let u = rng.random_f64();
        if u < 0.70 {
            Op::Delta
        } else if u < 0.95 {
            Op::Full
        } else {
            Op::Put
        }
    }
}

/// One prepared ECO edit of one of a tenant's baselines, in every form
/// a request can carry it.
struct Variant {
    /// Index of the edited baseline in [`Tenant::bases`].
    base: usize,
    /// The modified design as a full job request.
    full: JobRequest,
    delta: DeltaJobRequest,
    movable: usize,
}

/// A tenant: several baseline designs (blocks) in the control plane's
/// cache, and the ECO edits it streams against them.
struct Tenant {
    name: String,
    bases: Vec<Benchmark>,
    variants: Vec<Variant>,
}

impl Tenant {
    fn base_of(&self, v: &Variant) -> &Benchmark {
        &self.bases[v.base]
    }
}

/// A tenant's baselines are ckt-shaped circuits, each with a small
/// concentrated inflation so every ECO job has some migration left to
/// do; several per tenant keep the catalogue from hinging on a single
/// hotspot.
fn tenant(index: usize) -> Tenant {
    let name = format!("tenant{index}");
    let mut bases = Vec::new();
    let mut variants = Vec::new();
    for b in 0..BASES_PER_TENANT {
        let base_seed =
            Workload::ServeEco.input_seed(CATALOGUE_SEED, (index * BASES_PER_TENANT + b) as u64);
        let mut base = ckt_circuit("serve", BASELINE_CELLS, base_seed);
        base.inflate(&InflationSpec::centered(0.01, 0.05, base_seed ^ 0x5EED));
        let hash = design_hash(&base.netlist, &base.die, &base.placement);
        let config = pinned_config(&base.die, 2.5, SolverKind::Ftcs);
        for v in 0..VARIANTS_PER_BASE as u64 {
            let mut eco = base.clone();
            eco.apply_eco(&EcoSpec::default(), base_seed ^ (v + 1).wrapping_mul(0xEC0));
            let delta =
                EcoDelta::diff(&base.netlist, &base.placement, &eco.netlist, &eco.placement)
                    .expect("an ECO extends its baseline");
            variants.push(Variant {
                base: b,
                movable: eco.netlist.movable_cell_ids().count(),
                delta: DeltaJobRequest {
                    id: 0,
                    deadline_ms: 0,
                    progress_stride: 0,
                    kind: JobKind::Local,
                    design: format!("{name}_b{b}_eco{v}"),
                    tenant: name.clone(),
                    config: config.clone(),
                    baseline: hash,
                    delta,
                    trace: None,
                },
                full: JobRequest {
                    id: 0,
                    deadline_ms: 0,
                    progress_stride: 0,
                    kind: JobKind::Local,
                    design: format!("{name}_b{b}_full{v}"),
                    config: config.clone(),
                    netlist: eco.netlist,
                    die: eco.die,
                    placement: eco.placement,
                    vol: None,
                    trace: None,
                },
            });
        }
        bases.push(base);
    }
    Tenant {
        name,
        bases,
        variants,
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Planned {
    at: Duration,
    op: Op,
    tenant: usize,
    variant: usize,
    kind: JobKind,
}

impl Planned {
    /// The catalogue job this request runs: replies to requests with the
    /// same job are bit-identical, whether sent as a delta or in full.
    fn job(&self) -> (usize, usize, bool) {
        (self.tenant, self.variant, self.kind == JobKind::Global)
    }
}

fn plan(rng: &mut Rng, at: Duration, index: usize) -> Planned {
    Planned {
        at,
        op: Op::draw(rng),
        tenant: rng.random_range(0..TENANTS),
        variant: rng.random_range(0..BASES_PER_TENANT * VARIANTS_PER_BASE),
        kind: if index.is_multiple_of(2) {
            JobKind::Local
        } else {
            JobKind::Global
        },
    }
}

/// The open loop's traffic: one request every `1 / RATE_PER_S` seconds
/// over `span`. The request mix has exact shares in an order the seed
/// shuffles, and job requests deal the catalogue's (tenant, variant,
/// kind) jobs in shuffled rounds, so a window serves every job about
/// equally often.
fn schedule(seed: u64, span: Duration) -> Vec<Planned> {
    let mut rng = Rng::seed_from_u64(Workload::ServeEco.input_seed(seed, 1_000));
    let n = (RATE_PER_S * span.as_secs_f64()) as usize;
    let mut ops: Vec<Op> = (0..n)
        .map(|i| match i * 100 / n {
            0..70 => Op::Delta,
            70..95 => Op::Full,
            _ => Op::Put,
        })
        .collect();
    rng.shuffle(&mut ops);
    const PER_TENANT: usize = BASES_PER_TENANT * VARIANTS_PER_BASE;
    let mut deck = Deck::new(TENANTS * PER_TENANT * 2, rng.next_u64());
    let mut out = Vec::with_capacity(n);
    for (k, op) in ops.into_iter().enumerate() {
        let (tenant, variant, kind) = if op == Op::Put {
            (
                rng.random_range(0..TENANTS),
                rng.random_range(0..PER_TENANT),
                JobKind::Local,
            )
        } else {
            let j = deck.deal();
            let kind = if j.is_multiple_of(2) {
                JobKind::Local
            } else {
                JobKind::Global
            };
            (j / 2 / PER_TENANT, j / 2 % PER_TENANT, kind)
        };
        out.push(Planned {
            at: Duration::from_secs_f64(k as f64 / RATE_PER_S),
            op,
            tenant,
            variant,
            kind,
        });
    }
    out
}

/// Encodes the request `p` stands for with id `id`, reusing the
/// prepared variant so no design is cloned on the send path.
fn encode(
    tenants: &mut [Tenant],
    p: &Planned,
    id: u64,
    trace: Option<dpm_obs::TraceContext>,
) -> (FrameKind, Vec<u8>) {
    let t = &mut tenants[p.tenant];
    let v = &mut t.variants[p.variant];
    match p.op {
        Op::Delta => {
            v.delta.id = id;
            v.delta.kind = p.kind;
            v.delta.trace = trace;
            (FrameKind::DeltaRequest, encode_delta_request(&v.delta))
        }
        Op::Full => {
            v.full.id = id;
            v.full.kind = p.kind;
            v.full.trace = trace;
            (
                FrameKind::Request,
                encode_request(&v.full, PayloadEncoding::Binary),
            )
        }
        Op::Put => {
            let put = PutDesign {
                id,
                tenant: t.name.clone(),
                bytes: encode_design_bytes(&v.full.netlist, &v.full.die, &v.full.placement),
            };
            (FrameKind::PutDesign, encode_put_design(&put))
        }
    }
}

/// What the writer recorded about a request it sent.
struct Sent {
    id: u64,
    plan: Planned,
    due: Instant,
    /// When encoding started (the writer was on time or late by then).
    start: Instant,
    encode_ns: u64,
    bytes: usize,
    cells: usize,
    traced: Option<(dpm_obs::TraceContext, u64)>,
}

enum Msg {
    Sent(Sent),
    Done,
}

enum Outcome {
    Job(Box<JobResponse>),
    Ack,
    Failed(String),
}

/// One answered (or lost) open-loop request.
struct Obs {
    sent: Sent,
    arrive: Instant,
    outcome: Outcome,
}

impl Obs {
    fn e2e_ms(&self) -> f64 {
        match self.outcome {
            // A failed request misses any latency limit.
            Outcome::Failed(_) => f64::INFINITY,
            _ => (self.arrive - self.sent.due).as_secs_f64() * 1e3,
        }
    }
}

fn accept(msg: Msg, pending: &mut HashMap<u64, Sent>, done: &mut bool) {
    match msg {
        Msg::Sent(s) => {
            pending.insert(s.id, s);
        }
        Msg::Done => *done = true,
    }
}

fn placement_of(points: &[dpm_geom::Point]) -> Placement {
    let mut p = Placement::new(points.len());
    p.as_mut_slice().copy_from_slice(points);
    p
}

/// Reads replies off the connection and pairs them with what the writer
/// sent.
fn read_replies(
    stream: &mut TcpStream,
    rx: &mpsc::Receiver<Msg>,
    outstanding: &AtomicU64,
) -> Vec<Obs> {
    let mut pending: HashMap<u64, Sent> = HashMap::new();
    let mut out = Vec::new();
    let mut writer_done = false;
    let mut ok_jobs = 0usize;
    let mut seen = HashSet::new();
    loop {
        while let Ok(msg) = rx.try_recv() {
            accept(msg, &mut pending, &mut writer_done);
        }
        if pending.is_empty() {
            if writer_done {
                return out;
            }
            match rx.recv() {
                Ok(msg) => accept(msg, &mut pending, &mut writer_done),
                Err(_) => return out,
            }
            continue;
        }
        let frame = match read_frame(stream, DEFAULT_MAX_FRAME_LEN) {
            Ok(Some(frame)) => frame,
            other => {
                let why = match other {
                    Err(e) => format!("transport error: {e}"),
                    _ => "connection closed".to_string(),
                };
                let arrive = Instant::now();
                out.extend(pending.drain().map(|(_, sent)| Obs {
                    sent,
                    arrive,
                    outcome: Outcome::Failed(why.clone()),
                }));
                return out;
            }
        };
        let arrive = Instant::now();
        let (id, outcome) = match frame.kind {
            FrameKind::Response | FrameKind::Error => match Reply::from_frame(&frame) {
                Ok(Reply::Ok(resp)) => (resp.id, Outcome::Job(Box::new(resp))),
                Ok(Reply::Rejected(e)) => (
                    e.id,
                    Outcome::Failed(format!("rejected: {}", e.code.as_str())),
                ),
                Err(e) => (0, Outcome::Failed(format!("undecodable reply: {e}"))),
            },
            FrameKind::DesignAck => match decode_design_ack(&frame.payload) {
                Ok(ack) => (ack.id, Outcome::Ack),
                Err(e) => (0, Outcome::Failed(format!("undecodable ack: {e}"))),
            },
            FrameKind::NeedDesign => match decode_need_design(&frame.payload) {
                Ok(need) => (need.id, Outcome::Failed("unexpected NeedDesign".into())),
                Err(e) => (0, Outcome::Failed(format!("undecodable NeedDesign: {e}"))),
            },
            other => (0, Outcome::Failed(format!("unexpected {other:?} frame"))),
        };
        if !pending.contains_key(&id) {
            // The writer records a request before sending it, so its
            // record is on the channel unless the id is unknown.
            while !pending.contains_key(&id) && !writer_done {
                match rx.recv() {
                    Ok(msg) => accept(msg, &mut pending, &mut writer_done),
                    Err(_) => break,
                }
            }
        }
        let Some(sent) = pending.remove(&id) else {
            if let Outcome::Failed(why) = outcome {
                // An error without a usable id (a malformed-frame answer)
                // fails the oldest outstanding request.
                if let Some(&oldest) = pending.keys().min() {
                    let sent = pending.remove(&oldest).expect("present");
                    outstanding.fetch_sub(1, Ordering::Relaxed);
                    out.push(Obs {
                        sent,
                        arrive,
                        outcome: Outcome::Failed(why),
                    });
                }
            }
            continue;
        };
        outstanding.fetch_sub(1, Ordering::Relaxed);
        let outcome = match outcome {
            Outcome::Job(_) if sent.plan.op == Op::Put => {
                Outcome::Failed("job reply to a design upload".into())
            }
            Outcome::Ack if sent.plan.op != Op::Put => {
                Outcome::Failed("upload ack to a job request".into())
            }
            Outcome::Job(resp) if resp.positions.len() != sent.cells => Outcome::Failed(format!(
                "reply has {} positions for {} cells",
                resp.positions.len(),
                sent.cells
            )),
            o => o,
        };
        let outcome = match outcome {
            Outcome::Job(mut resp) => {
                // Keep positions only where the post-hoc checks and the
                // HPWL of each catalogue job need them.
                if !seen.insert(sent.plan.job()) && !ok_jobs.is_multiple_of(CHECK_EVERY) {
                    resp.positions = Vec::new();
                }
                ok_jobs += 1;
                Outcome::Job(resp)
            }
            o => o,
        };
        out.push(Obs {
            sent,
            arrive,
            outcome,
        });
    }
}

/// What the open loop measured.
struct OpenLoop {
    obs: Vec<Obs>,
    late_ms_max: f64,
    outstanding_max: u64,
    spans: Vec<SpanRecord>,
}

fn open_loop(
    addr: SocketAddr,
    tenants: &mut [Tenant],
    plan: &[Planned],
    seed: u64,
    traced: bool,
) -> OpenLoop {
    let stream = TcpStream::connect(addr).expect("bench connects to the control plane");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("set read timeout");
    let mut writer = stream.try_clone().expect("clone the stream for the writer");
    let mut reader = stream;
    let outstanding = &AtomicU64::new(0);
    let clock = SpanRecorder::new(1);
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    let (obs, (late_ms_max, outstanding_max)) = std::thread::scope(|s| {
        let reader_thread = s.spawn(move || read_replies(&mut reader, &rx, outstanding));
        let mut ids = TraceIdGen::seeded(seed ^ 0x5E7E_7ACE);
        let mut late_ms_max = 0.0f64;
        let mut outstanding_max = 0u64;
        for (k, p) in plan.iter().enumerate() {
            let due = start + p.at;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let t0 = Instant::now();
            late_ms_max = late_ms_max.max(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
            let id = k as u64 + 1;
            // Alternate pairs of traced and untraced job requests (job
            // kinds alternate singly), so the overhead of tracing is
            // measured on the same mix under the same load.
            let ctx = (traced && p.op != Op::Put && (k / 2).is_multiple_of(2)).then(|| ids.root());
            let root_start = clock.now_ns();
            let (kind, payload) = encode(tenants, p, id, ctx);
            let encode_ns = t0.elapsed().as_nanos() as u64;
            let cells = tenants[p.tenant].variants[p.variant]
                .full
                .netlist
                .num_cells();
            let sent = Sent {
                id,
                plan: *p,
                due,
                start: t0,
                encode_ns,
                bytes: payload.len(),
                cells,
                traced: ctx.map(|c| (c, root_start)),
            };
            let now_out = outstanding.fetch_add(1, Ordering::Relaxed) + 1;
            outstanding_max = outstanding_max.max(now_out);
            if tx.send(Msg::Sent(sent)).is_err()
                || write_frame(&mut writer, kind, &payload).is_err()
            {
                break;
            }
        }
        let _ = tx.send(Msg::Done);
        let obs = reader_thread.join().expect("reader thread");
        (obs, (late_ms_max, outstanding_max))
    });
    // The client root span of each exported traced request, with the
    // control plane's span tree re-based under it.
    let mut spans = Vec::new();
    let mut exported = 0;
    for o in &obs {
        let (Some((ctx, root_start)), Outcome::Job(resp)) = (o.sent.traced, &o.outcome) else {
            continue;
        };
        if exported == TRACED_JOBS {
            break;
        }
        exported += 1;
        let end = root_start + (o.arrive - o.sent.start).as_nanos() as u64;
        spans.push(SpanRecord {
            name: "client.request".into(),
            start_ns: root_start,
            end_ns: end,
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: 0,
        });
        let mut remote = resp.spans.clone();
        rebase_spans(&mut remote, root_start);
        spans.extend(remote);
    }
    OpenLoop {
        obs,
        late_ms_max,
        outstanding_max,
        spans,
    }
}

/// Closed loop: each connection sends its next request when the last
/// one is answered. Each tenant drives several connections, each with
/// its own share of the tenant's variants, so a request is always
/// waiting for each worker: with one connection per worker, a worker
/// idles whenever its reply is in flight, and the loop would not measure
/// capacity. Returns (requests answered OK, failures, elapsed).
fn closed_loop(
    addr: SocketAddr,
    tenants: &mut [Tenant],
    seed: u64,
    span: Duration,
) -> (u64, u64, Duration) {
    let start = Instant::now();
    let results: Vec<(u64, u64)> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (ti, t) in tenants.iter_mut().enumerate() {
            let per = t.variants.len() / CLOSED_CONNECTIONS_PER_TENANT;
            let (name, bases) = (&t.name, &t.bases);
            for (ci, variants) in t.variants.chunks_mut(per).enumerate() {
                let c = ti * CLOSED_CONNECTIONS_PER_TENANT + ci;
                handles.push(s.spawn(move || {
                    let mut client =
                        ServeClient::connect(addr).expect("closed-loop client connects");
                    let mut rng =
                        Rng::seed_from_u64(Workload::ServeEco.input_seed(seed, 2_000 + c as u64));
                    let (mut ok, mut failed) = (0u64, 0u64);
                    let mut k = 0usize;
                    while start.elapsed() < span {
                        let p = plan(&mut rng, Duration::ZERO, k);
                        let id = (1u64 << 40) + ((c as u64) << 32) + k as u64;
                        k += 1;
                        let v = &mut variants[p.variant % variants.len()];
                        let base = &bases[v.base];
                        let cells = v.full.netlist.num_cells();
                        let reply = match p.op {
                            Op::Delta => {
                                v.delta.id = id;
                                v.delta.kind = p.kind;
                                v.delta.trace = None;
                                client
                                    .request_delta(
                                        &v.delta,
                                        (&base.netlist, &base.die, &base.placement),
                                        |_| {},
                                    )
                                    .map(Some)
                            }
                            Op::Full => {
                                v.full.id = id;
                                v.full.kind = p.kind;
                                v.full.trace = None;
                                client.request(&v.full, PayloadEncoding::Binary).map(Some)
                            }
                            Op::Put => client
                                .put_design(
                                    id,
                                    name,
                                    &v.full.netlist,
                                    &v.full.die,
                                    &v.full.placement,
                                )
                                .map(|_| None),
                        };
                        match reply {
                            Ok(None) => ok += 1,
                            Ok(Some(Reply::Ok(resp))) if resp.positions.len() == cells => ok += 1,
                            Ok(_) => failed += 1,
                            Err(_) => {
                                failed += 1;
                                break;
                            }
                        }
                    }
                    (ok, failed)
                }));
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread"))
            .collect()
    });
    let elapsed = start.elapsed();
    let ok = results.iter().map(|r| r.0).sum();
    let failed = results.iter().map(|r| r.1).sum();
    (ok, failed, elapsed)
}

/// One readiness wait of the control plane's front-end.
#[derive(Debug, Clone, Copy)]
struct Wait {
    start: Instant,
    end: Instant,
}

/// The front-end's waits, in order (they all run on its one thread).
type Waits = Arc<Mutex<Vec<Wait>>>;

/// The platform readiness source, recording when each wait starts and
/// returns. Between a return and the next start the front-end is busy
/// reading requests, decoding them, applying deltas and flushing
/// replies; a reply a worker finishes while the front-end waits sits in
/// the outbox until the wait returns — the readiness tick.
struct TimedReadiness {
    inner: Box<dyn Readiness>,
    waits: Waits,
}

impl Readiness for TimedReadiness {
    fn register(&mut self, token: u64, fd: RawFd) -> io::Result<()> {
        self.inner.register(token, fd)
    }

    fn deregister(&mut self, token: u64, fd: RawFd) -> io::Result<()> {
        self.inner.deregister(token, fd)
    }

    fn wait(&mut self, timeout_ms: i32, out: &mut Vec<u64>) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.wait(timeout_ms, out);
        let end = Instant::now();
        self.waits
            .lock()
            .expect("no wait recorder panics while holding the lock")
            .push(Wait { start, end });
        result
    }
}

/// Starts a control plane and caches every tenant's baselines. With
/// `waits`, the front-end's readiness waits are recorded there.
fn start_server(tenants: &[Tenant], waits: Option<Waits>) -> CtlServer {
    let cfg = CtlConfig {
        workers: WORKERS,
        tenants: tenants
            .iter()
            .map(|t| TenantSpec::new(t.name.clone(), 1, 256))
            .collect(),
        exec: ExecMode::InProcess,
        wait_ms: WAIT_MS,
        ..CtlConfig::default()
    };
    let ctl = match waits {
        Some(waits) => default_readiness().and_then(|inner| {
            CtlServer::start_with(cfg, Box::new(TimedReadiness { inner, waits }))
        }),
        None => CtlServer::start(cfg),
    }
    .expect("control plane starts");
    let mut client = ServeClient::connect(ctl.local_addr()).expect("setup client connects");
    let mut id = 0;
    for t in tenants {
        for base in &t.bases {
            id += 1;
            client
                .put_design(id, &t.name, &base.netlist, &base.die, &base.placement)
                .expect("baseline upload");
        }
        // One discarded job per tenant warms the workers.
        let mut warm = t.variants[0].delta.clone();
        id += 1;
        warm.id = id;
        let base = t.base_of(&t.variants[0]);
        let reply = client
            .request_delta(&warm, (&base.netlist, &base.die, &base.placement), |_| {})
            .expect("warm-up request");
        assert!(matches!(reply, Reply::Ok(_)), "warm-up request failed");
    }
    ctl
}

/// Control-plane counters at one moment.
#[derive(Clone, Copy, Default)]
struct Counters {
    cache_hits: u64,
    need_design: u64,
    put_designs: u64,
    delta_requests: u64,
    rejected: u64,
}

fn counters(ctl: &CtlServer) -> Counters {
    let m = ctl.metrics();
    Counters {
        cache_hits: m.cache_hits.get(),
        need_design: m.need_design.get(),
        put_designs: m.put_designs.get(),
        delta_requests: m.delta_requests.get(),
        rejected: m.overloaded.get()
            + m.malformed.get()
            + m.invalid_config.get()
            + m.rejected_shutdown.get()
            + m.deadline_expired.get(),
    }
}

/// One set-up: generate the tenants' catalogue, start a control plane
/// and cache the baselines. Also returns its wall time, s.
fn set_up(waits: Option<Waits>) -> (Vec<Tenant>, CtlServer, f64) {
    let t0 = Instant::now();
    let tenants: Vec<Tenant> = (0..TENANTS).map(tenant).collect();
    let ctl = start_server(&tenants, waits);
    (tenants, ctl, t0.elapsed().as_secs_f64())
}

pub fn run(opts: &Options) -> Report {
    let mut r = Report::default();
    // Half the set-ups run before the measured phases and the rest after
    // them, so their median sees the host at both ends of the run. Each
    // shuts its control plane down before the next starts.
    let reps = opts.setup_reps();
    let mut setup = Vec::new();
    for _ in 1..reps.div_ceil(2) {
        setup.push(set_up(None).2);
    }
    let waits = opts.trace.then(|| Arc::new(Mutex::new(Vec::new())));
    let (mut tenants, ctl, secs) = set_up(waits.clone());
    setup.push(secs);
    let addr = ctl.local_addr();
    let before = counters(&ctl);

    // The service's times are reported as measured. Scaling them by the
    // reference kernel, as the batch workloads do, did not make them
    // repeat (see the README): the service's speed on a shared host
    // moves with the two vCPUs its threads hand work between, not with
    // the one the kernel runs on.
    let open_span = Duration::from_secs_f64(opts.seconds * OPEN_SHARE);
    let closed_span = Duration::from_secs_f64(opts.seconds * (1.0 - OPEN_SHARE));
    let plan = schedule(opts.seed, open_span);
    let open = open_loop(addr, &mut tenants, &plan, opts.seed, opts.trace);
    let (closed_ok, closed_failed, closed_elapsed) =
        closed_loop(addr, &mut tenants, opts.seed, closed_span);
    r.set("peak_rss_mb", peak_rss_mb());
    let after = counters(&ctl);
    drop(ctl);
    while setup.len() < reps {
        setup.push(set_up(None).2);
    }
    r.set("setup_s", median(&setup));

    r.attempted = plan.len() as u64 + closed_ok + closed_failed;
    r.failed = closed_failed
        + open
            .obs
            .iter()
            .filter(|o| matches!(o.outcome, Outcome::Failed(_)))
            .count() as u64;
    // Requests the writer never got to send are lost too.
    r.failed += plan.len().saturating_sub(open.obs.len()) as u64;
    if after.need_design > before.need_design {
        r.problems.push(format!(
            "{} unexpected NeedDesign answers",
            after.need_design - before.need_design
        ));
    }
    for o in open
        .obs
        .iter()
        .filter_map(|o| match &o.outcome {
            Outcome::Failed(why) => Some(why),
            _ => None,
        })
        .take(3)
    {
        r.problems.push(format!("request failed: {o}"));
    }

    let e2e: Vec<f64> = open.obs.iter().map(Obs::e2e_ms).collect();
    r.latency_samples = e2e.len();
    r.set("latency_ms_p50", median(&e2e));
    r.set("latency_ms_p90", percentile(&e2e, 0.9));
    r.set(
        "jobs_per_s",
        closed_ok as f64 / closed_elapsed.as_secs_f64(),
    );

    let jobs: Vec<(&Obs, &JobResponse)> = open
        .obs
        .iter()
        .filter_map(|o| match &o.outcome {
            Outcome::Job(resp) => Some((o, resp.as_ref())),
            _ => None,
        })
        .collect();
    let row = tenants[0].bases[0].die.row_height();
    let variant = |o: &Obs| &tenants[o.sent.plan.tenant].variants[o.sent.plan.variant];
    // Quality is taken once per catalogue job, from its first reply (the
    // reader kept its positions), and averaged over the jobs served.
    let mut quality = BTreeMap::new();
    for (o, resp) in &jobs {
        quality.entry(o.sent.plan.job()).or_insert_with(|| {
            let v = variant(o);
            let (nl, pl) = (&v.full.netlist, &v.full.placement);
            [
                (hpwl(nl, &placement_of(&resp.positions)) / hpwl(nl, pl) - 1.0) * 100.0,
                resp.total_movement / v.movable as f64 / row,
                resp.max_movement / row,
            ]
        });
    }
    let column = |i: usize| mean(&quality.values().map(|q| q[i]).collect::<Vec<_>>());
    r.set("hpwl_increase_pct", column(0));
    r.set("move_avg_rows", column(1));
    r.set("move_max_rows", column(2));

    // Every fiftieth reply is re-run in process and must match bit for
    // bit.
    let mut ledger = Ledger::default();
    let mut replays = Vec::new();
    let (mut steps, mut rounds, mut converged, mut overflow) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut shape = JobShape::default();
    for (o, resp) in jobs.iter().step_by(CHECK_EVERY) {
        let v = variant(o);
        let base = tenants[o.sent.plan.tenant].base_of(v);
        let die = &base.die;
        let (input_nl, input_pl) = match o.sent.plan.op {
            Op::Delta => v
                .delta
                .delta
                .apply(&base.netlist, &base.placement)
                .expect("the prepared delta applies"),
            _ => (v.full.netlist.clone(), v.full.placement.clone()),
        };
        let cfg = &v.full.config;
        let mut rerun = input_pl.clone();
        let mut rec = Recorder::default();
        let t0 = Instant::now();
        let result = execute_job(
            o.sent.plan.kind,
            cfg,
            &input_nl,
            die,
            &mut rerun,
            &|| false,
            &mut rec,
        );
        let core_ns = t0.elapsed().as_nanos() as u64;
        if !same_bits(rerun.as_slice(), &resp.positions) {
            r.failed += 1;
            r.problems.push(format!(
                "reply {} differs from an in-process run",
                o.sent.id
            ));
        }
        if opts.trace {
            shape = JobShape {
                cells: input_nl.num_cells() as u64,
                movable: v.movable as u64,
                bins: BinGrid::new(die.outline(), cfg.bin_size).len() as u64,
            };
            let mode = match o.sent.plan.kind {
                JobKind::Global => Mode::Global,
                JobKind::Local => Mode::Local,
            };
            ledger.add_job(
                &JobTimes {
                    kernels: rec,
                    core_ns,
                    total_ns: core_ns,
                    untimed: untimed_calls(mode, cfg, &result),
                    ..JobTimes::default()
                },
                shape,
            );
            steps.push(result.steps as f64);
            rounds.push(result.rounds as f64);
            converged.push(f64::from(u8::from(result.converged)));
            let grid = BinGrid::new(die.outline(), cfg.bin_size);
            overflow.push(
                DensityMap::from_placement(&input_nl, &rerun, grid)
                    .max_local_overflow(cfg.w1, cfg.d_max),
            );
            if replays.len() < REPLAYED_INPUTS {
                replays.push(replay_kernels(&input_nl, die, &input_pl, cfg));
            }
        }
    }

    if opts.trace {
        let replay = report_replays(&replays, &mut r);
        ledger.report(&mut r, &replay);
        computed_bytes(&mut r, shape);
        r.set("core.steps", mean(&steps));
        r.set("core.rounds", mean(&rounds));
        r.set("core.converged_frac", mean(&converged));
        r.set("core.overflow_max", mean(&overflow));
        let waits = waits
            .map(|w| std::mem::take(&mut *w.lock().expect("front-end stopped")))
            .unwrap_or_default();
        report_service_layers(&mut r, &open, &jobs, &tenants, &waits, before, after);
        if let Some(sink) = &opts.trace_out {
            sink.write(Workload::ServeEco, &open.spans);
        }
    }
    r
}

/// Median time of `REPS` runs of `work`, in microseconds.
fn replay_us(mut work: impl FnMut()) -> f64 {
    const REPS: usize = 5;
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            work();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// The wire, control-plane and load-generator layers of the traced run.
fn report_service_layers(
    r: &mut Report,
    open: &OpenLoop,
    jobs: &[(&Obs, &JobResponse)],
    tenants: &[Tenant],
    waits: &[Wait],
    before: Counters,
    after: Counters,
) {
    // Bench-side replays of the codec and delta apply on one of the
    // run's prepared payloads: what each side pays per request.
    let t = &tenants[0];
    let v = &t.variants[0];
    let full_bytes = encode_request(&v.full, PayloadEncoding::Binary);
    let delta_bytes = encode_delta_request(&v.delta);
    let response = jobs.first().map(|(_, resp)| (*resp).clone());
    let response_bytes = response.as_ref().map(encode_response).unwrap_or_default();
    let encode_request_us = replay_us(|| {
        drop(std::hint::black_box(encode_request(
            &v.full,
            PayloadEncoding::Binary,
        )))
    });
    let decode_request_us = replay_us(|| drop(std::hint::black_box(decode_request(&full_bytes))));
    let encode_delta_us = replay_us(|| drop(std::hint::black_box(encode_delta_request(&v.delta))));
    let decode_delta_us =
        replay_us(|| drop(std::hint::black_box(decode_delta_request(&delta_bytes))));
    let base = t.base_of(v);
    let delta_apply_us = replay_us(|| {
        drop(std::hint::black_box(
            v.delta.delta.apply(&base.netlist, &base.placement),
        ))
    });
    r.set("wire.encode_request.us", encode_request_us);
    r.set("wire.decode_request.us", decode_request_us);
    r.set("wire.encode_delta.us", encode_delta_us);
    r.set("wire.decode_delta.us", decode_delta_us);
    r.set("serve.delta_apply.us", delta_apply_us);
    if let Some(resp) = &response {
        r.set(
            "wire.encode_response.us",
            replay_us(|| drop(std::hint::black_box(encode_response(resp)))),
        );
        r.set(
            "wire.decode_response.us",
            replay_us(|| drop(std::hint::black_box(decode_response(&response_bytes)))),
        );
    }
    let sizes = |op: Op| -> Vec<f64> {
        open.obs
            .iter()
            .filter(|o| o.sent.plan.op == op)
            .map(|o| o.sent.bytes as f64)
            .collect()
    };
    r.set("wire.full_request_bytes", median(&sizes(Op::Full)));
    r.set("wire.delta_request_bytes", median(&sizes(Op::Delta)));

    let ms = |ns: u64| ns as f64 / 1e6;
    let queue: Vec<f64> = jobs.iter().map(|(_, resp)| ms(resp.queue_ns)).collect();
    let service: Vec<f64> = jobs.iter().map(|(_, resp)| ms(resp.service_ns)).collect();
    // Front-end: what the client saw from the end of encoding to the
    // reply's arrival, less queue and service time — transport, decode
    // and delta apply on the front-end thread, and its readiness tick.
    let front: Vec<f64> = jobs
        .iter()
        .map(|(o, resp)| {
            (o.arrive - o.sent.start).as_secs_f64() * 1e3
                - ms(o.sent.encode_ns + resp.queue_ns + resp.service_ns)
        })
        .collect();
    r.set("ctl.queue_wait_ms.p50", median(&queue));
    r.set("ctl.queue_wait_ms.p90", percentile(&queue, 0.9));
    r.set("ctl.service_ms.p50", median(&service));
    r.set("ctl.service_ms.p90", percentile(&service, 0.9));
    r.set("ctl.front_ms.p50", median(&front));
    r.set("ctl.front_ms.p90", percentile(&front, 0.9));

    // The ledger of a request tiles its latency, from when it was due
    // to when its reply arrived, with measured stretches: generator
    // lateness; client encode; the wait until the front-end wakes to
    // read it and the busy stretch that follows (decode, delta apply,
    // admission); queue wait and service (from the reply, taken to start
    // when that busy stretch ends); the wait until the front-end wakes
    // again to flush the reply (its readiness tick); the busy stretch
    // that flushes it. What is left — transport and waking the client —
    // is the residual.
    let wake_after = |t: Instant| {
        let k = waits.partition_point(|w| w.end < t);
        waits.get(k).map(|w| {
            let busy_until = waits.get(k + 1).map_or(w.end, |next| next.start);
            (w.end, busy_until)
        })
    };
    let (mut named, mut total) = (0.0, 0.0);
    let mut tick_ms = Vec::new();
    for (o, resp) in jobs {
        let sent = o.sent.start + Duration::from_nanos(o.sent.encode_ns);
        let (_, read_busy) = wake_after(sent).unwrap_or((sent, sent));
        let done = read_busy.min(o.arrive) + Duration::from_nanos(resp.queue_ns + resp.service_ns);
        let (flush, flush_busy) = wake_after(done).unwrap_or((o.arrive, o.arrive));
        let (flush, flush_busy) = (flush.min(o.arrive), flush_busy.min(o.arrive));
        let tick = flush.saturating_duration_since(done).as_secs_f64() * 1e3;
        tick_ms.push(tick);
        let span = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
        named += span(o.sent.due, o.sent.start)
            + ms(o.sent.encode_ns + resp.queue_ns + resp.service_ns)
            + span(sent, read_busy.min(o.arrive))
            + tick
            + span(flush, flush_busy);
        total += span(o.sent.due, o.arrive);
    }
    r.set("ctl.tick_ms.p50", median(&tick_ms));
    r.set("ctl.tick_ms.p90", percentile(&tick_ms, 0.9));
    r.set("ledger.coverage", named / total);
    r.set(
        "job.residual.ms",
        (total - named) / jobs.len().max(1) as f64,
    );

    let delta = |a: u64, b: u64| (b - a) as f64;
    r.set("ctl.cache_hits", delta(before.cache_hits, after.cache_hits));
    r.set(
        "ctl.need_design",
        delta(before.need_design, after.need_design),
    );
    r.set(
        "ctl.put_designs",
        delta(before.put_designs, after.put_designs),
    );
    r.set(
        "ctl.delta_requests",
        delta(before.delta_requests, after.delta_requests),
    );
    r.set("ctl.rejected", delta(before.rejected, after.rejected));
    r.set(
        "ctl.cache_hit_ratio",
        delta(before.cache_hits, after.cache_hits)
            / delta(before.delta_requests, after.delta_requests).max(1.0),
    );

    let kind_p50 = |op: Op| {
        let v: Vec<f64> = open
            .obs
            .iter()
            .filter(|o| o.sent.plan.op == op)
            .map(Obs::e2e_ms)
            .collect();
        median(&v)
    };
    r.set("serve.full.latency_ms_p50", kind_p50(Op::Full));
    r.set("serve.delta.latency_ms_p50", kind_p50(Op::Delta));
    r.set("serve.put.latency_ms_p50", kind_p50(Op::Put));
    r.set("loadgen.late_ms_max", open.late_ms_max);
    r.set("loadgen.outstanding_max", open.outstanding_max as f64);

    let (traced, untraced): (Vec<f64>, Vec<f64>) = jobs
        .iter()
        .map(|(o, _)| (o.sent.traced.is_some(), o.e2e_ms()))
        .fold(
            (Vec::new(), Vec::new()),
            |(mut t, mut u), (is_traced, ms)| {
                if is_traced {
                    t.push(ms)
                } else {
                    u.push(ms)
                }
                (t, u)
            },
        );
    r.set(
        "trace.overhead_pct",
        (median(&traced) / median(&untraced) - 1.0) * 100.0,
    );
}
