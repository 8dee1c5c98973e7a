//! The migration server: admission control, worker pool, deadlines,
//! streaming progress, graceful shutdown.
//!
//! ## Life of a request
//!
//! 1. A connection thread reads one frame, decodes the [`JobRequest`]
//!    and validates its [`DiffusionConfig`] — malformed or invalid
//!    requests are answered immediately with an error frame.
//! 2. The request is offered to the **bounded** admission queue. A full
//!    queue answers [`ErrorCode::Overloaded`] at once (explicit
//!    backpressure; the server never buffers without bound).
//! 3. A worker pops the job, checks the deadline (queue wait counts
//!    against it), and hands it to [`execute_request`] — the one
//!    executor the control plane and the routers' in-process backends
//!    share — with a cancellation hook that compares `Instant::now()`
//!    against the deadline between diffusion steps. When the request
//!    asked for a progress stride, a [`DiffusionObserver`] on the run streams
//!    [`ProgressUpdate`] frames back through the connection thread
//!    every `progress_stride` steps — the observer only reads post-step
//!    state, so streaming never changes the result.
//! 4. The reply — legalized placement, or a partial-progress
//!    [`ErrorCode::DeadlineExpired`] — travels back to the connection
//!    thread, which writes it to the socket. Every outcome is appended
//!    to the JSONL request log.
//!
//! ## Observability
//!
//! All server metrics live in one `dpm-obs` [`Registry`]: outcome
//! counters, a queue-depth gauge, and queue/service/end-to-end latency
//! histograms. Kernel timings of completed runs are merged into one
//! [`KernelTimers`]. Clients fetch everything as a [`StatsSnapshot`]
//! over the wire (a `StatsRequest` frame); in-process callers use
//! [`Server::stats`], [`Server::stats_snapshot`] or the text exposition
//! from [`Server::metrics_text`]. Recent jobs are also recorded as
//! spans in a bounded [`SpanRecorder`] ([`Server::spans`]).
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] stops accepting connections, closes the queue
//! (no new admissions), lets the workers drain every admitted job, joins
//! all threads and flushes the log. In-flight requests complete; clients
//! that race the shutdown get [`ErrorCode::ShuttingDown`].

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dpm_diffusion::{
    DiffusionConfig, DiffusionObserver, DiffusionResult, GlobalDiffusion, KernelTimers,
    LocalDiffusion, NoopObserver, SolverKind, SpanObserver, StepEvent, VolJobSpec, VolPlacement,
    VolumetricDiffusion,
};
use dpm_obs::{
    normalize_spans, Counter, Gauge, Histogram, Registry, SpanRecord, SpanRecorder, TraceIdGen,
};
use dpm_place::{BinGrid, MovementStats};

use crate::log::{RequestLog, RequestRecord};
use crate::queue::{BoundedQueue, PushError};
use crate::wire::{
    encode_progress, encode_stats, read_frame, write_frame_versioned, ErrorCode, ErrorReply,
    FrameKind, JobKind, JobRequest, JobResponse, ProgressUpdate, Reply, StatsSnapshot,
    VolRequestExt, VolResponseExt, WireError, DEFAULT_MAX_FRAME_LEN, VERSION,
};

/// How often blocked connection reads wake up to check for shutdown.
const READ_POLL: Duration = Duration::from_millis(25);

/// How many recent job spans the server retains for inspection.
const SPAN_CAPACITY: usize = 256;

/// Salt mixed into the inherited span id when seeding a job's span-id
/// generator, so sibling jobs under one client connection mint distinct
/// id streams even though each inherits ids from the same root context.
const TRACE_SEED_SALT: u64 = 0x5E7E_D0C5_B10B_5EED;

/// Salt for the job span [`execute_request`] mints under the request's
/// trace context; distinct from [`TRACE_SEED_SALT`] so the job span and
/// the server's queue-wait span never share an id.
const JOB_SEED_SALT: u64 = 0x10B5_7A7E_C0DE_D00D;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Capacity of the admission queue; beyond it requests are rejected
    /// with [`ErrorCode::Overloaded`].
    pub queue_capacity: usize,
    /// Number of worker threads running diffusion jobs.
    pub workers: usize,
    /// Cap on `DiffusionConfig::threads` per job (requests asking for
    /// more are clamped; results are bit-identical either way).
    pub job_threads: usize,
    /// Deadline applied to requests that carry `deadline_ms == 0`.
    /// `0` here means such requests run without a deadline.
    pub default_deadline_ms: u32,
    /// Largest accepted frame payload, bytes.
    pub max_frame_len: usize,
    /// Where to append the JSONL request log (`None` disables logging).
    pub log_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            workers: 2,
            job_threads: 1,
            default_deadline_ms: 0,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            log_path: None,
        }
    }
}

/// Monotonic outcome counters, readable at any time via
/// [`Server::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests that decoded successfully.
    pub received: u64,
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Jobs a worker started running.
    pub started: u64,
    /// Jobs that finished with a successful response.
    pub served: u64,
    /// Requests rejected because the queue was full.
    pub overloaded: u64,
    /// Requests rejected by config validation.
    pub invalid_config: u64,
    /// Frames or payloads that failed to decode.
    pub malformed: u64,
    /// Jobs whose deadline expired (in queue or mid-diffusion).
    pub deadline_expired: u64,
    /// Requests refused because the server was shutting down.
    pub rejected_shutdown: u64,
    /// Jobs that failed unexpectedly (engine panic).
    pub internal_errors: u64,
    /// Progress frames streamed to clients.
    pub progress_frames: u64,
}

/// Every server metric, registered once in a shared [`Registry`] so the
/// counters the wire-level [`StatsSnapshot`] reports and the text
/// exposition of [`Server::metrics_text`] are the same instruments.
struct Metrics {
    registry: Registry,
    queue_depth: Gauge,
    received: Counter,
    admitted: Counter,
    started: Counter,
    served: Counter,
    overloaded: Counter,
    invalid_config: Counter,
    malformed: Counter,
    deadline_expired: Counter,
    rejected_shutdown: Counter,
    internal_errors: Counter,
    progress_frames: Counter,
    queue_hist: Histogram,
    service_hist: Histogram,
    e2e_hist: Histogram,
    kernels: Mutex<KernelTimers>,
}

impl Metrics {
    fn new() -> Self {
        let registry = Registry::new();
        let bounds = Histogram::latency_bounds();
        Self {
            queue_depth: registry.gauge("queue_depth"),
            received: registry.counter("requests_received_total"),
            admitted: registry.counter("requests_admitted_total"),
            started: registry.counter("jobs_started_total"),
            served: registry.counter("jobs_served_total"),
            overloaded: registry.counter("rejected_overloaded_total"),
            invalid_config: registry.counter("rejected_invalid_config_total"),
            malformed: registry.counter("rejected_malformed_total"),
            deadline_expired: registry.counter("deadline_expired_total"),
            rejected_shutdown: registry.counter("rejected_shutdown_total"),
            internal_errors: registry.counter("internal_errors_total"),
            progress_frames: registry.counter("progress_frames_total"),
            queue_hist: registry.histogram("queue_wait_ns", &bounds),
            service_hist: registry.histogram("service_ns", &bounds),
            e2e_hist: registry.histogram("e2e_ns", &bounds),
            kernels: Mutex::new(KernelTimers::default()),
            registry,
        }
    }

    fn snapshot(&self) -> ServeStats {
        ServeStats {
            received: self.received.get(),
            admitted: self.admitted.get(),
            started: self.started.get(),
            served: self.served.get(),
            overloaded: self.overloaded.get(),
            invalid_config: self.invalid_config.get(),
            malformed: self.malformed.get(),
            deadline_expired: self.deadline_expired.get(),
            rejected_shutdown: self.rejected_shutdown.get(),
            internal_errors: self.internal_errors.get(),
            progress_frames: self.progress_frames.get(),
        }
    }
}

/// What a worker sends back to the connection thread: zero or more
/// progress updates, then exactly one terminal reply.
enum WorkerMsg {
    Progress(ProgressUpdate),
    Done(Reply),
}

/// One admitted job traveling from a connection thread to a worker.
struct Job {
    req: JobRequest,
    enqueued: Instant,
    deadline: Option<Instant>,
    reply_tx: mpsc::Sender<WorkerMsg>,
}

struct Shared {
    queue: BoundedQueue<Job>,
    shutdown: AtomicBool,
    metrics: Metrics,
    spans: SpanRecorder,
    log: RequestLog,
    job_threads: usize,
    max_frame_len: usize,
    default_deadline_ms: u32,
}

impl Shared {
    fn stats_snapshot(&self) -> StatsSnapshot {
        let m = &self.metrics;
        let depth = self.queue.len() as u64;
        m.queue_depth.set(depth as i64);
        StatsSnapshot {
            queue_depth: depth,
            received: m.received.get(),
            admitted: m.admitted.get(),
            served: m.served.get(),
            overloaded: m.overloaded.get(),
            invalid_config: m.invalid_config.get(),
            malformed: m.malformed.get(),
            deadline_expired: m.deadline_expired.get(),
            rejected_shutdown: m.rejected_shutdown.get(),
            internal_errors: m.internal_errors.get(),
            progress_frames: m.progress_frames.get(),
            queue_hist: m.queue_hist.snapshot(),
            service_hist: m.service_hist.snapshot(),
            e2e_hist: m.e2e_hist.snapshot(),
            kernels: *m.kernels.lock().expect("kernel timers poisoned"),
        }
    }
}

/// A running migration server. Dropping it performs a graceful shutdown.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor and worker threads.
    ///
    /// # Errors
    ///
    /// Returns the bind error, or the error opening the log file.
    pub fn start(addr: impl ToSocketAddrs, cfg: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let log = match &cfg.log_path {
            Some(path) => RequestLog::to_file(path)?,
            None => RequestLog::disabled(),
        };
        let metrics = Metrics::new();
        // Registry-backed so the ring's drop count scrapes as the
        // `spans_dropped` counter in the text exposition.
        let spans = SpanRecorder::with_registry(SPAN_CAPACITY, &metrics.registry);
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_capacity.max(1)),
            shutdown: AtomicBool::new(false),
            metrics,
            spans,
            log,
            job_threads: cfg.job_threads.max(1),
            max_frame_len: cfg.max_frame_len,
            default_deadline_ms: cfg.default_deadline_ms,
        });

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || acceptor_loop(listener, shared, conns))
        };
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();

        Ok(Self {
            addr: local,
            shared,
            acceptor: Some(acceptor),
            workers,
            conns,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current outcome counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.metrics.snapshot()
    }

    /// The full metrics snapshot a `StatsRequest` frame would return:
    /// counters, queue depth, latency histograms and merged kernel
    /// timings.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.shared.stats_snapshot()
    }

    /// Renders every registered metric in the stable `dpm-obs` text
    /// exposition format.
    pub fn metrics_text(&self) -> String {
        self.shared
            .metrics
            .queue_depth
            .set(self.shared.queue.len() as i64);
        self.shared.metrics.registry.snapshot().to_text()
    }

    /// The most recent job spans (bounded ring; newest last).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.shared.spans.records()
    }

    /// Requests currently waiting in the admission queue.
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Gracefully shuts down: stop accepting, drain every admitted job,
    /// join all threads, flush the log. Returns the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_impl();
        self.stats()
    }

    fn shutdown_impl(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // No new admissions; workers drain what was admitted, then exit.
        self.shared.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Connection threads notice the flag at their next read poll.
        let handles: Vec<_> = {
            let mut guard = self.conns.lock().expect("conn registry poisoned");
            guard.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        self.shared.log.flush();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.shutdown_impl();
        }
    }
}

fn acceptor_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // The shutdown wake-up (or a client racing it).
                    break;
                }
                let shared = Arc::clone(&shared);
                let handle = std::thread::spawn(move || connection_loop(stream, shared));
                conns.lock().expect("conn registry poisoned").push(handle);
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept failure; keep serving.
            }
        }
    }
}

fn write_reply(stream: &mut TcpStream, version: u16, reply: &Reply) -> Result<(), WireError> {
    let (kind, payload) = reply.to_frame_bytes();
    write_frame_versioned(stream, version, kind, &payload)
}

fn rejection(id: u64, code: ErrorCode, message: impl Into<String>) -> Reply {
    Reply::Rejected(ErrorReply {
        id,
        code,
        steps: 0,
        rounds: 0,
        message: message.into(),
    })
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn connection_loop(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));

    // Every reply carries the wire version the request arrived with, so
    // a v2 client pinned to `version == 2` header checks keeps working
    // against this server. Until a frame arrives, errors go out at
    // the current version.
    let mut conn_version: u16 = VERSION;
    loop {
        let frame = match read_frame(&mut stream, shared.max_frame_len) {
            Ok(Some(frame)) => frame,
            Ok(None) => break, // client closed cleanly
            Err(WireError::Io(ref e)) if is_timeout(e) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(WireError::Io(_)) => break, // connection torn down
            Err(e) => {
                // Framing is corrupt; the stream position is unknown, so
                // answer once and drop the connection.
                shared.metrics.malformed.inc();
                shared.log.write(&RequestRecord {
                    id: 0,
                    outcome: ErrorCode::Malformed.as_str(),
                    kind: "-",
                    ..Default::default()
                });
                let _ = write_reply(
                    &mut stream,
                    conn_version,
                    &rejection(0, ErrorCode::Malformed, e.to_string()),
                );
                break;
            }
        };
        conn_version = frame.version;

        if frame.kind == FrameKind::StatsRequest {
            let payload = encode_stats(&shared.stats_snapshot());
            if write_frame_versioned(&mut stream, conn_version, FrameKind::Stats, &payload).is_err()
            {
                break;
            }
            continue;
        }

        if frame.kind != FrameKind::Request {
            shared.metrics.malformed.inc();
            let reply = rejection(0, ErrorCode::Malformed, "expected a request frame");
            if write_reply(&mut stream, conn_version, &reply).is_err() {
                break;
            }
            continue;
        }

        let req = match crate::wire::decode_request(&frame.payload) {
            Ok(req) => req,
            Err(e) => {
                shared.metrics.malformed.inc();
                shared.log.write(&RequestRecord {
                    id: 0,
                    outcome: ErrorCode::Malformed.as_str(),
                    kind: "-",
                    ..Default::default()
                });
                let reply = rejection(0, ErrorCode::Malformed, e.to_string());
                if write_reply(&mut stream, conn_version, &reply).is_err() {
                    break;
                }
                continue;
            }
        };
        shared.metrics.received.inc();
        let id = req.id;
        let kind_str = kind_name(req.kind);
        let design = req.design.clone();
        let cells = req.netlist.num_cells();

        if let Err(e) = req.config.validate() {
            shared.metrics.invalid_config.inc();
            shared.log.write(&RequestRecord {
                id,
                outcome: ErrorCode::InvalidConfig.as_str(),
                kind: kind_str,
                design,
                cells,
                ..Default::default()
            });
            let reply = rejection(id, ErrorCode::InvalidConfig, e.to_string());
            if write_reply(&mut stream, conn_version, &reply).is_err() {
                break;
            }
            continue;
        }

        let deadline_ms = if req.deadline_ms == 0 {
            shared.default_deadline_ms
        } else {
            req.deadline_ms
        };
        let enqueued = Instant::now();
        let deadline =
            (deadline_ms > 0).then(|| enqueued + Duration::from_millis(u64::from(deadline_ms)));
        let (reply_tx, reply_rx) = mpsc::channel();
        let job = Job {
            req,
            enqueued,
            deadline,
            reply_tx,
        };

        let mut admitted_at = None;
        let reply = match shared.queue.try_push(job) {
            Ok(()) => {
                shared.metrics.admitted.inc();
                admitted_at = Some(enqueued);
                // The worker streams progress updates (if the request
                // asked for them) and always finishes with Done; a
                // dropped sender means the worker died. Once the socket
                // fails we stop writing but keep draining so the
                // terminal reply is still consumed.
                let mut sink_ok = true;
                let mut terminal = None;
                loop {
                    match reply_rx.recv() {
                        Ok(WorkerMsg::Progress(p)) => {
                            if sink_ok {
                                shared.metrics.progress_frames.inc();
                                sink_ok = write_frame_versioned(
                                    &mut stream,
                                    conn_version,
                                    FrameKind::Progress,
                                    &encode_progress(&p),
                                )
                                .is_ok();
                            }
                        }
                        Ok(WorkerMsg::Done(reply)) => {
                            terminal = Some(reply);
                            break;
                        }
                        Err(_) => break,
                    }
                }
                terminal.unwrap_or_else(|| {
                    rejection(id, ErrorCode::Internal, "worker terminated without a reply")
                })
            }
            Err(PushError::Full(_)) => {
                shared.metrics.overloaded.inc();
                shared.log.write(&RequestRecord {
                    id,
                    outcome: ErrorCode::Overloaded.as_str(),
                    kind: kind_str,
                    design,
                    cells,
                    ..Default::default()
                });
                rejection(
                    id,
                    ErrorCode::Overloaded,
                    "admission queue full; retry later",
                )
            }
            Err(PushError::Closed(_)) => {
                shared.metrics.rejected_shutdown.inc();
                shared.log.write(&RequestRecord {
                    id,
                    outcome: ErrorCode::ShuttingDown.as_str(),
                    kind: kind_str,
                    design,
                    cells,
                    ..Default::default()
                });
                rejection(id, ErrorCode::ShuttingDown, "server is shutting down")
            }
        };
        if write_reply(&mut stream, conn_version, &reply).is_err() {
            break;
        }
        if let Some(t0) = admitted_at {
            shared.metrics.e2e_hist.record_duration(t0.elapsed());
        }
    }
}

fn kind_name(kind: JobKind) -> &'static str {
    match kind {
        JobKind::Global => "global",
        JobKind::Local => "local",
    }
}

/// Why a volumetric extension cannot run, or `None` if it can. Checked
/// before the engine because the core runner asserts on these instead of
/// erroring.
fn vol_rejection(v: &VolRequestExt, req: &JobRequest) -> Option<&'static str> {
    if !matches!(req.kind, JobKind::Global) {
        return Some("volumetric jobs run global diffusion only");
    }
    if v.z.len() != req.netlist.num_cells() {
        return Some("vol.z does not cover the netlist");
    }
    if matches!(req.config.solver, SolverKind::Spectral)
        && (v.exact_steps.is_some() || v.field.is_some())
    {
        return Some("halo-exchange volumetric sub-jobs are FTCS-only");
    }
    if let Some(field) = &v.field {
        let bins = BinGrid::new(req.die.outline(), req.config.bin_size).len();
        if field.len() != bins * v.nz as usize {
            return Some("vol.field does not match the job region");
        }
    }
    None
}

/// Which input value is not finite, or `None` if all are. The wire
/// decoder rejects these already; an in-process request reaches the
/// engine unchecked, where a NaN migrates to a NaN placement.
fn non_finite_input(req: &JobRequest) -> Option<&'static str> {
    fn finite(vs: impl IntoIterator<Item = f64>) -> bool {
        vs.into_iter().all(f64::is_finite)
    }
    if !finite(req.placement.as_slice().iter().flat_map(|p| [p.x, p.y])) {
        return Some("non-finite cell position");
    }
    let cells = req.netlist.cell_ids().map(|c| req.netlist.cell(c));
    if !finite(cells.flat_map(|c| [c.width, c.height])) {
        return Some("non-finite cell size");
    }
    let vol = req.vol.iter();
    if !finite(vol.flat_map(|v| v.z.iter().chain(v.field.iter().flatten()).copied())) {
        return Some("non-finite vol.z or vol.field");
    }
    None
}

/// The observer that hands a [`ProgressUpdate`] to a sink every `stride`
/// steps. It accumulates cumulative movement from the per-step records
/// and never touches the run's state.
struct ProgressObserver<'a> {
    id: u64,
    stride: u64,
    movement: f64,
    sink: &'a mut dyn FnMut(&ProgressUpdate),
}

impl DiffusionObserver for ProgressObserver<'_> {
    fn on_step(&mut self, event: &StepEvent<'_>) {
        self.movement += event.record.movement;
        let completed = event.record.step as u64 + 1;
        if completed.is_multiple_of(self.stride) {
            (self.sink)(&ProgressUpdate {
                id: self.id,
                step: completed,
                round: event.round as u64,
                overflow: event.record.computed_overflow,
                movement: self.movement,
                max_density: event.record.max_density,
            });
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    while let Some(job) = shared.queue.pop_wait() {
        let queue_elapsed = job.enqueued.elapsed();
        let queue_ns = queue_elapsed.as_nanos() as u64;
        shared.metrics.queue_hist.record_duration(queue_elapsed);
        shared.metrics.started.inc();
        let Job {
            mut req,
            deadline,
            reply_tx,
            ..
        } = job;
        req.config.threads = req.config.threads.clamp(1, shared.job_threads);
        let trace_id = req.trace.map_or(0, |t| t.trace_id);
        let mut record = RequestRecord {
            id: req.id,
            kind: kind_name(req.kind),
            design: req.design.clone(),
            cells: req.netlist.num_cells(),
            queue_ns,
            trace_id,
            ..Default::default()
        };

        // Queue wait counts against the deadline.
        let outcome = if deadline.is_some_and(|d| Instant::now() >= d) {
            Err(ErrorReply {
                id: req.id,
                code: ErrorCode::DeadlineExpired,
                steps: 0,
                rounds: 0,
                message: "deadline expired while queued".into(),
            })
        } else {
            // The queue wait is recorded retroactively under the
            // inherited span; the executor hangs the job span beside it.
            if let Some(ctx) = req.trace {
                let queue_ctx = TraceIdGen::seeded(ctx.span_id ^ TRACE_SEED_SALT).child_of(&ctx);
                let now = shared.spans.now_ns();
                shared.spans.record_traced(
                    "queue.wait",
                    now.saturating_sub(queue_ns),
                    now,
                    queue_ctx,
                );
            }
            let t0 = Instant::now();
            let mut sink = |p: &ProgressUpdate| {
                let _ = reply_tx.send(WorkerMsg::Progress(*p));
            };
            let outcome = execute_request(&req, deadline, Some(&mut sink), Some(&shared.spans));
            let service_elapsed = t0.elapsed();
            record.service_ns = service_elapsed.as_nanos() as u64;
            shared.metrics.service_hist.record_duration(service_elapsed);
            outcome
        };

        let reply = match outcome {
            Ok((mut resp, kernels)) => {
                shared
                    .metrics
                    .kernels
                    .lock()
                    .expect("kernel timers poisoned")
                    .merge(&kernels);
                shared.metrics.served.inc();
                record.outcome = "ok";
                record.steps = resp.steps;
                record.rounds = resp.rounds;
                record.converged = resp.converged;
                record.movement_total = resp.total_movement;
                record.movement_max = resp.max_movement;
                resp.queue_ns = queue_ns;
                // Export this job's spans back to the caller: drain them
                // from the ring (they now live in the reply, not the
                // local diagnostics view) and normalize so the receiver
                // can re-base under its dispatch span.
                if trace_id != 0 {
                    resp.spans = shared.spans.drain_trace(trace_id);
                    normalize_spans(&mut resp.spans);
                }
                Reply::Ok(resp)
            }
            Err(err) => {
                match err.code {
                    ErrorCode::DeadlineExpired => shared.metrics.deadline_expired.inc(),
                    ErrorCode::InvalidConfig => shared.metrics.invalid_config.inc(),
                    ErrorCode::Malformed => shared.metrics.malformed.inc(),
                    _ => shared.metrics.internal_errors.inc(),
                }
                record.outcome = err.code.as_str();
                record.steps = err.steps;
                record.rounds = err.rounds;
                Reply::Rejected(err)
            }
        };
        shared.log.write(&record);
        let _ = reply_tx.send(WorkerMsg::Done(reply));
    }
}

/// Runs one [`JobRequest`] on the calling thread: the single execution
/// path behind [`Server`] workers, the `dpm-ctl` control plane, and the
/// in-process backends of [`ShardRouter`](crate::ShardRouter) and
/// [`VolRouter`](crate::VolRouter), so an in-process run and a TCP
/// backend differ only in transport.
///
/// - The request is checked before the engine runs, whoever built it: a
///   config [`DiffusionConfig::validate`] rejects or a bad volumetric
///   extension (the core runners assert instead of erroring) answers
///   [`ErrorCode::InvalidConfig`], and a non-finite cell position, depth,
///   width, height or field value answers [`ErrorCode::Malformed`].
/// - A volumetric job runs through [`VolumetricDiffusion`]; planar
///   requests run through [`execute_job`].
/// - `deadline` is polled between diffusion steps; a run it cuts short
///   answers [`ErrorCode::DeadlineExpired`] with its partial step and
///   round counts.
/// - `progress` receives a [`ProgressUpdate`] every
///   `req.progress_stride` steps (never, for a zero stride).
/// - `spans` receives a `job.{global,local,volumetric}` span. When the
///   request carries a trace context the span is its child and the
///   per-kernel spans hang under it.
/// - An engine panic is contained and answers [`ErrorCode::Internal`].
///
/// The response reports movement over the movable cells, returns the
/// evolved field only to requests that shipped one in, and carries no
/// queue time and no spans: queueing and span export belong to the
/// caller. The run's kernel timers come back beside it.
///
/// # Errors
///
/// The [`ErrorReply`] the request should be answered with.
pub fn execute_request(
    req: &JobRequest,
    deadline: Option<Instant>,
    progress: Option<&mut dyn FnMut(&ProgressUpdate)>,
    spans: Option<&SpanRecorder>,
) -> Result<(JobResponse, KernelTimers), ErrorReply> {
    let reject = |code, steps, rounds, message: &str| ErrorReply {
        id: req.id,
        code,
        steps,
        rounds,
        message: message.into(),
    };
    if let Err(e) = req.config.validate() {
        return Err(reject(ErrorCode::InvalidConfig, 0, 0, &e.to_string()));
    }
    if let Some(msg) = req.vol.as_ref().and_then(|v| vol_rejection(v, req)) {
        return Err(reject(ErrorCode::InvalidConfig, 0, 0, msg));
    }
    if let Some(msg) = non_finite_input(req) {
        return Err(reject(ErrorCode::Malformed, 0, 0, msg));
    }
    let t0 = Instant::now();
    let should_stop = move || deadline.is_some_and(|d| Instant::now() >= d);

    // Observers compose: the span bridge forwards every event to the
    // progress observer, which is a no-op without a sink or a stride.
    let mut progress = progress
        .filter(|_| req.progress_stride > 0)
        .map(|sink| ProgressObserver {
            id: req.id,
            stride: u64::from(req.progress_stride),
            movement: 0.0,
            sink,
        });
    let mut noop = NoopObserver;
    let inner: &mut dyn DiffusionObserver = match progress.as_mut() {
        Some(p) => p,
        None => &mut noop,
    };
    let job_ctx = req
        .trace
        .map(|ctx| TraceIdGen::seeded(ctx.span_id ^ JOB_SEED_SALT).child_of(&ctx));
    let mut bridge;
    let observer: &mut dyn DiffusionObserver = match (spans, job_ctx) {
        (Some(recorder), Some(ctx)) => {
            bridge = SpanObserver::new(recorder, ctx, ctx.span_id).with_inner(inner);
            &mut bridge
        }
        _ => inner,
    };
    let span_name = match (req.kind, &req.vol) {
        (_, Some(_)) => "job.volumetric",
        (JobKind::Global, None) => "job.global",
        (JobKind::Local, None) => "job.local",
    };
    let span = spans.map(|recorder| match job_ctx {
        Some(ctx) => recorder.start_traced(span_name, ctx),
        None => recorder.start(span_name),
    });

    let run = catch_unwind(AssertUnwindSafe(|| match &req.vol {
        Some(v) => {
            let spec = VolJobSpec {
                nz: v.nz as usize,
                z0: v.z0 as usize,
                global_nz: v.global_nz as usize,
                field: v.field.clone(),
                exact_steps: v.exact_steps.map(|s| s as usize),
            };
            let mut vp = VolPlacement {
                xy: req.placement.clone(),
                z: v.z.clone(),
            };
            let r = VolumetricDiffusion::new(req.config.clone(), v.global_nz as usize)
                .run_job_observed(
                    &spec,
                    &req.netlist,
                    &req.die,
                    &mut vp,
                    &should_stop,
                    observer,
                );
            let result = DiffusionResult {
                steps: r.steps,
                rounds: 1,
                converged: r.converged,
                cancelled: r.cancelled,
                telemetry: r.telemetry,
            };
            let field = v.field.is_some().then_some(r.field);
            (result, vp.xy, Some(VolResponseExt { z: vp.z, field }))
        }
        None => {
            let mut after = req.placement.clone();
            let result = execute_job(
                req.kind,
                &req.config,
                &req.netlist,
                &req.die,
                &mut after,
                &should_stop,
                observer,
            );
            (result, after, None)
        }
    }));
    drop(span);

    let Ok((result, after, vol)) = run else {
        return Err(reject(
            ErrorCode::Internal,
            0,
            0,
            "diffusion engine panicked",
        ));
    };
    let (steps, rounds) = (result.steps as u64, result.rounds as u64);
    if result.cancelled {
        return Err(reject(
            ErrorCode::DeadlineExpired,
            steps,
            rounds,
            "deadline expired mid-diffusion; placement progress discarded",
        ));
    }
    let movement = MovementStats::between(&req.netlist, &req.placement, &after);
    let response = JobResponse {
        id: req.id,
        converged: result.converged,
        steps,
        rounds,
        total_movement: movement.total,
        max_movement: movement.max,
        queue_ns: 0,
        service_ns: t0.elapsed().as_nanos() as u64,
        positions: after.as_slice().to_vec(),
        vol,
        spans: Vec::new(),
    };
    Ok((response, *result.telemetry.kernels()))
}

/// Runs one planar migration job on the calling thread: dispatches on
/// [`JobKind`], threads the cancellation hook and observer through the
/// engine, and leaves the legalized positions in `placement`. This is
/// the engine step of [`execute_request`], which wraps it with deadline,
/// progress, tracing, panic containment and the response.
#[allow(clippy::too_many_arguments)]
pub fn execute_job(
    kind: JobKind,
    config: &DiffusionConfig,
    netlist: &dpm_netlist::Netlist,
    die: &dpm_place::Die,
    placement: &mut dpm_place::Placement,
    should_stop: &dyn Fn() -> bool,
    observer: &mut dyn DiffusionObserver,
) -> dpm_diffusion::DiffusionResult {
    match kind {
        JobKind::Global => GlobalDiffusion::new(config.clone()).run_observed(
            netlist,
            die,
            placement,
            should_stop,
            observer,
        ),
        JobKind::Local => LocalDiffusion::new(config.clone()).run_observed(
            netlist,
            die,
            placement,
            should_stop,
            observer,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::tests::LEGACY_F32_FRAMES;
    use crate::wire::{
        decode_error, decode_response, encode_request, read_frame, write_frame, PayloadEncoding,
        DEFAULT_MAX_FRAME_LEN,
    };
    use dpm_geom::Point;
    use dpm_place::Placement;

    fn request(kind: JobKind) -> JobRequest {
        let mut bench = dpm_gen::CircuitSpec::with_size("executor", 120, 5).generate();
        bench.inflate(&dpm_gen::InflationSpec::centered(0.2, 0.3, 9));
        JobRequest {
            id: 3,
            deadline_ms: 0,
            progress_stride: 0,
            kind,
            design: "executor".into(),
            config: DiffusionConfig::default(),
            netlist: bench.netlist,
            die: bench.die,
            placement: bench.placement,
            vol: None,
            trace: None,
        }
    }

    #[test]
    fn engine_panic_is_an_internal_error_not_an_unwind() {
        // Built in process, so the wire never checks it: a placement
        // that does not cover the netlist trips an engine assertion in
        // every build profile.
        for kind in [JobKind::Global, JobKind::Local] {
            let mut req = request(kind);
            req.placement = Placement::new(req.netlist.num_cells() - 1);
            let err = execute_request(&req, None, None, None).expect_err("cannot migrate");
            assert_eq!(err.code, ErrorCode::Internal, "{kind:?}: {}", err.message);
            assert_eq!(err.id, req.id);
        }
    }

    #[test]
    fn in_process_requests_are_checked_before_the_engine_runs() {
        // Neither reaches the engine: in a release build an unstable dt
        // diverges and a NaN position migrates to a NaN placement that
        // reports converged.
        for kind in [JobKind::Global, JobKind::Local] {
            let mut req = request(kind);
            req.config.dt = 0.9;
            let err = execute_request(&req, None, None, None).expect_err("unstable dt");
            assert_eq!(err.code, ErrorCode::InvalidConfig, "{}", err.message);

            let mut req = request(kind);
            let cell = req.netlist.movable_cell_ids().next().expect("movable cell");
            req.placement.set(cell, Point::new(f64::NAN, 1.0));
            let err = execute_request(&req, None, None, None).expect_err("NaN position");
            assert_eq!(err.code, ErrorCode::Malformed, "{kind:?}: {}", err.message);
            assert_eq!(err.id, req.id);
        }
    }

    #[test]
    fn legacy_f32_frames_get_a_typed_rejection_and_the_connection_keeps_serving() {
        let server = Server::start("127.0.0.1:0", ServeConfig::default()).expect("server starts");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let req = request(JobKind::Global);
        let mut send = |payload: &[u8]| {
            write_frame(&mut stream, FrameKind::Request, payload).expect("send");
            read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
                .expect("reply")
                .expect("connection open")
        };
        // Both f32 fixtures, and a v3 vol + exact-steps + trace request:
        // legacy extension bytes are unknown tags.
        let v3_vol: &[u8] = include_bytes!("../tests/fixtures/wire/v3_request_vol_exact_trace.bin");
        for frame in LEGACY_F32_FRAMES.into_iter().chain([v3_vol]) {
            let err = send(frame);
            assert_eq!(err.kind, FrameKind::Error);
            let err = decode_error(&err.payload).expect("typed error");
            assert_eq!(err.code, ErrorCode::Malformed, "{}", err.message);

            let ok = send(&encode_request(&req, PayloadEncoding::Binary));
            assert_eq!(ok.kind, FrameKind::Response, "the connection keeps serving");
            assert!(decode_response(&ok.payload).expect("response").steps > 0);
        }
        server.shutdown();
    }

    #[test]
    fn expired_deadline_reports_partial_progress() {
        let req = request(JobKind::Local);
        let err = execute_request(&req, Some(Instant::now()), None, None)
            .expect_err("an expired deadline cancels the run");
        assert_eq!(err.code, ErrorCode::DeadlineExpired);
        assert_eq!(err.steps, 0, "cancellation is polled before the first step");
    }
}
