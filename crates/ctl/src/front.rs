//! The migration server: a readiness-driven front-end feeding a fair
//! queue feeding execution workers.
//!
//! ## Life of a request
//!
//! 1. The front-end thread owns every connection. It multiplexes them
//!    through a [`Readiness`] implementation (epoll on Linux, a portable
//!    scanner elsewhere), assembling frames incrementally with
//!    [`FrameAssembler`], so a thousand idle connections cost a thousand
//!    small buffers, not a thousand blocked threads. Cache-protocol
//!    frames (`PutDesign`, cache-miss `NeedDesign` answers), stats and
//!    every rejection are answered inline on the front-end thread.
//! 2. A request that decodes has its
//!    [`DiffusionConfig`](dpm_diffusion::DiffusionConfig) validated, its
//!    thread count clamped to the host's parallelism (results are
//!    bit-identical at any count) and is offered to its tenant's bounded
//!    queue in the [`FairQueue`]. A full queue answers
//!    [`ErrorCode::Overloaded`] at once. The deadline runs from here.
//! 3. While one of its jobs is queued or running, a connection is not
//!    read: each connection has at most one job in flight, so pipelined
//!    requests are answered in submission order.
//! 4. Worker threads pop jobs in deficit-round-robin order and execute
//!    them either in process ([`dpm_serve::execute_request`]) or across
//!    a shard or z-slab fleet ([`ShardRouter`], [`VolRouter`]) selected
//!    per job from the [`BackendRegistry`]. Progress frames and the
//!    reply travel back through an outbox, and each push to an empty
//!    outbox wakes the front-end through a socket pair registered with
//!    its readiness. The front-end writes them on the owning connection
//!    with the codec version that connection last spoke, so v2 clients
//!    only ever read v2 headers.
//! 5. Every reply is counted once, under its [`ErrorCode`] or as
//!    served, and logged to the JSONL [`RequestLog`].
//!
//! ## Shutdown
//!
//! [`CtlServer::shutdown`] (or a drop) closes the queue, so requests
//! that race it get [`ErrorCode::ShuttingDown`]; the workers drain every
//! admitted job; the front-end writes their replies; then the front-end
//! stops and the log is flushed.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dpm_diffusion::KernelTimers;
use dpm_obs::{labeled, normalize_spans, rebase_spans, SpanRecord, SpanRecorder, TraceIdGen};
use dpm_serve::delta::decode_delta_request;
use dpm_serve::log::{RequestLog, RequestRecord};
use dpm_serve::wire::{
    decode_design_bytes, decode_put_design, decode_request, encode_design_ack, encode_error,
    encode_need_design, encode_progress, encode_response, encode_stats, fnv1a64,
    write_frame_versioned, DesignAck, ErrorCode, ErrorReply, Frame, FrameAssembler, FrameKind,
    JobKind, JobRequest, JobResponse, NeedDesign, ProgressUpdate, StatsSnapshot,
    DEFAULT_MAX_FRAME_LEN,
};
use dpm_serve::{
    execute_request, ShardBackend, ShardRouter, ShardRouterConfig, VolRouteError, VolRouter,
    VolRouterConfig,
};

use crate::cache::{CacheStats, CachedDesign, DesignCache};
use crate::fair::{AdmitError, FairQueue, TenantSpec};
use crate::metrics::CtlMetrics;
use crate::poll::{default_readiness, Readiness};
use crate::registry::{BackendRegistry, RegistrySnapshot};

/// How admitted jobs are executed.
pub enum ExecMode {
    /// Run the diffusion on the worker thread itself.
    InProcess,
    /// Fan each planar job out across a shard fleet, selecting backends
    /// from a health-checked registry per job. Volumetric jobs (the
    /// planar router has no tier axis) run on the worker thread.
    Sharded {
        /// Requested shard count K. The halo is `max(W2, 2)` bins of
        /// each job's own window.
        shards: usize,
        /// Upper bound on halo-exchange rounds.
        max_halo_rounds: usize,
        /// Primaries and warm spares.
        registry: BackendRegistry,
    },
    /// Fan each volumetric job out across z-slab backends through a
    /// [`VolRouter`], selecting backends from a health-checked registry
    /// per job. Planar jobs (no volumetric extension) fall back to
    /// running on the worker thread.
    Volumetric {
        /// Requested slab count K. Slabs always ship two ghost tiers,
        /// the only exact width.
        slabs: usize,
        /// Primaries and warm spares: a slab whose backend fails is
        /// retried on a spare within the job; with no spare left the
        /// job fails.
        registry: BackendRegistry,
    },
}

/// Server configuration.
pub struct CtlConfig {
    /// Address to listen on; port 0 picks an ephemeral port.
    pub addr: SocketAddr,
    /// Execution worker threads.
    pub workers: usize,
    /// Largest request frame accepted, bytes.
    pub max_frame_len: usize,
    /// Design-cache byte budget.
    pub cache_bytes: usize,
    /// Deadline applied to requests that carry `deadline_ms: 0`.
    /// `0` means no deadline.
    pub default_deadline_ms: u32,
    /// Readiness-wait timeout, milliseconds. Sockets and worker replies
    /// wake the front-end at once, so this only bounds how long an idle
    /// front-end sleeps.
    pub wait_ms: i32,
    /// Admission contracts, one per tenant. Wire-v2 requests (which
    /// carry no tenant) are billed to the first tenant.
    pub tenants: Vec<TenantSpec>,
    /// How jobs execute.
    pub exec: ExecMode,
    /// Where to append the JSONL request log (`None` disables logging).
    pub log_path: Option<PathBuf>,
}

impl Default for CtlConfig {
    fn default() -> Self {
        Self {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: 2,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            cache_bytes: 64 << 20,
            default_deadline_ms: 0,
            wait_ms: 5,
            tenants: vec![TenantSpec::new("default", 1, 256)],
            exec: ExecMode::InProcess,
            log_path: None,
        }
    }
}

/// One admitted job: where it came from, how to answer, what to run.
struct Job {
    conn: u64,
    version: u16,
    arrived: Instant,
    deadline: Option<Instant>,
    req: JobRequest,
}

enum Exec {
    InProcess,
    Sharded {
        shards: usize,
        max_halo_rounds: usize,
        registry: Mutex<BackendRegistry>,
    },
    Volumetric {
        slabs: usize,
        registry: Mutex<BackendRegistry>,
    },
}

/// How many recent spans the server's shared recorder retains.
const CTL_SPAN_CAPACITY: usize = 512;

/// Per-site salts for deterministic span-id minting. Each traced hop
/// seeds its own generator from the inherited span id; distinct salts
/// keep the front-end's admission/cache spans, the worker's job spans
/// and downstream hops on disjoint id streams.
const CTL_ADMIT_SALT: u64 = 0xC7_1A_D0_17_AD_31_75_01;
const CTL_CACHE_SALT: u64 = 0xC7_1C_AC_8E_5E_ED_02_02;
const CTL_JOB_SALT: u64 = 0xC7_1E_4E_C5_EE_D0_03_03;

/// A frame produced off the front-end thread for one connection.
struct Outgoing {
    conn: u64,
    bytes: Vec<u8>,
    /// The job's terminal reply: the connection may read again.
    last: bool,
}

struct Shared {
    queue: FairQueue<Job>,
    cache: Mutex<DesignCache>,
    /// Frames produced off the front-end thread, drained by it after
    /// every readiness wait.
    outbox: Mutex<Vec<Outgoing>>,
    /// Write end of the front-end's wake-up socket pair.
    wake: UnixStream,
    metrics: CtlMetrics,
    /// Shared span ring: the front-end records admission and cache spans
    /// into it, workers record queue-wait, execution and job spans, and
    /// the worker drains a trace's spans into the response when its job
    /// completes.
    spans: SpanRecorder,
    log: RequestLog,
    exec: Exec,
    stop: AtomicBool,
    default_deadline_ms: u32,
    /// Ceiling on a job's `DiffusionConfig::threads`: the host's
    /// parallelism.
    max_job_threads: usize,
}

impl Shared {
    /// Queues a frame for the front-end to write, waking it when the
    /// outbox was empty (a non-empty one already holds a wake-up).
    fn send(&self, conn: u64, version: u16, kind: FrameKind, payload: &[u8]) {
        let mut bytes = Vec::with_capacity(11 + payload.len());
        write_frame_versioned(&mut bytes, version, kind, payload)
            .expect("writing to a Vec cannot fail");
        let last = kind != FrameKind::Progress;
        let mut outbox = self.outbox.lock().unwrap();
        let idle = outbox.is_empty();
        outbox.push(Outgoing { conn, bytes, last });
        drop(outbox);
        if idle {
            self.wake_front();
        }
    }

    fn wake_front(&self) {
        // A full socket buffer already holds a wake-up.
        let _ = (&self.wake).write(&[1]);
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.metrics.stats_snapshot(self.queue.len() as u64)
    }
}

/// A running migration server. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops admission, drains the queue,
/// delivers the replies and joins every thread.
pub struct CtlServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    front: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl CtlServer {
    /// Starts a server on `cfg.addr` with the platform's best
    /// [`Readiness`].
    ///
    /// # Errors
    ///
    /// Returns bind, log-file or readiness-setup errors.
    pub fn start(cfg: CtlConfig) -> io::Result<Self> {
        Self::start_with(cfg, default_readiness()?)
    }

    /// Starts a server with an explicit readiness source — how tests
    /// drive the event loop with the deterministic scanner.
    ///
    /// # Errors
    ///
    /// Returns bind or log-file errors.
    pub fn start_with(cfg: CtlConfig, readiness: Box<dyn Readiness>) -> io::Result<Self> {
        assert!(!cfg.tenants.is_empty(), "at least one tenant required");
        let listener = TcpListener::bind(cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let log = match &cfg.log_path {
            Some(path) => RequestLog::to_file(path)?,
            None => RequestLog::disabled(),
        };
        let (wake, woken) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        woken.set_nonblocking(true)?;
        let tenant_names: Vec<String> = cfg.tenants.iter().map(|t| t.name.clone()).collect();
        let exec = match cfg.exec {
            ExecMode::InProcess => Exec::InProcess,
            ExecMode::Sharded {
                shards,
                max_halo_rounds,
                registry,
            } => Exec::Sharded {
                shards,
                max_halo_rounds,
                registry: Mutex::new(registry),
            },
            ExecMode::Volumetric { slabs, registry } => Exec::Volumetric {
                slabs,
                registry: Mutex::new(registry),
            },
        };
        let metrics = CtlMetrics::new(&tenant_names);
        let spans = SpanRecorder::with_registry(CTL_SPAN_CAPACITY, metrics.registry());
        let shared = Arc::new(Shared {
            queue: FairQueue::new(&cfg.tenants),
            cache: Mutex::new(DesignCache::new(cfg.cache_bytes)),
            outbox: Mutex::new(Vec::new()),
            wake,
            metrics,
            spans,
            log,
            exec,
            stop: AtomicBool::new(false),
            default_deadline_ms: cfg.default_deadline_ms,
            max_job_threads: thread::available_parallelism().map_or(1, |n| n.get()),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let s = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("ctl-worker-{i}"))
                    .spawn(move || worker_loop(&s))
                    .expect("spawn ctl worker")
            })
            .collect();
        let front = {
            let s = Arc::clone(&shared);
            let (max_frame_len, wait_ms) = (cfg.max_frame_len, cfg.wait_ms.max(1));
            thread::Builder::new()
                .name("ctl-front".into())
                .spawn(move || front_loop(&s, &listener, &woken, readiness, max_frame_len, wait_ms))
                .expect("spawn ctl front-end")
        };
        Ok(Self {
            addr,
            shared,
            front: Some(front),
            workers,
        })
    }

    /// The address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's instruments.
    pub fn metrics(&self) -> &CtlMetrics {
        &self.shared.metrics
    }

    /// The most recent spans (bounded ring; newest last): every job's
    /// `job.*` span, and the spans of traced requests whose trace has
    /// not been exported yet.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.shared.spans.records()
    }

    /// Design-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.lock().unwrap().stats()
    }

    /// Backend-registry state, when running sharded or volumetric.
    pub fn registry_snapshot(&self) -> Option<RegistrySnapshot> {
        match &self.shared.exec {
            Exec::Sharded { registry, .. } | Exec::Volumetric { registry, .. } => {
                Some(registry.lock().unwrap().snapshot())
            }
            Exec::InProcess => None,
        }
    }

    /// Stops admission, drains every admitted job, delivers the replies,
    /// joins all threads and flushes the log. Returns the final
    /// counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop();
        self.shared.stats_snapshot()
    }

    fn stop(&mut self) {
        self.shared.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // The workers are done, so the outbox holds every reply; the
        // front-end's next pass hands them over and then exits.
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake_front();
        if let Some(h) = self.front.take() {
            let _ = h.join();
        }
        self.shared.log.flush();
    }
}

impl Drop for CtlServer {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Front-end event loop.
// ---------------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    out: Vec<u8>,
    out_pos: usize,
    /// Codec version of the last frame this connection sent; every
    /// reply is stamped with it.
    version: u16,
    /// A job of this connection is queued or running. Its socket is
    /// deregistered and its buffered frames wait until the reply.
    busy: bool,
    /// The peer closed its sending side: no more reads; close once its
    /// job is answered and the outbound buffer drains.
    eof: bool,
    /// Close once the outbound buffer drains (post-error courtesy).
    closing: bool,
    /// Close now (I/O error).
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            asm: FrameAssembler::new(),
            out: Vec::new(),
            out_pos: 0,
            version: dpm_serve::wire::VERSION,
            busy: false,
            eof: false,
            closing: false,
            dead: false,
        }
    }

    fn push_frame(&mut self, kind: FrameKind, payload: &[u8]) {
        write_frame_versioned(&mut self.out, self.version, kind, payload)
            .expect("writing to a Vec cannot fail");
    }

    /// Reads everything currently available into the frame assembler.
    fn read_available(&mut self) {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => self.asm.push(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
    }

    fn flush(&mut self) {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.out_pos == self.out.len() && self.out_pos > 0 {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Whether the socket belongs in the readiness set.
    fn reading(&self) -> bool {
        !self.busy && !self.eof
    }

    fn done(&self) -> bool {
        let drained = !self.busy && self.out_pos == self.out.len();
        self.dead || ((self.closing || self.eof) && drained)
    }
}

const LISTENER_TOKEN: u64 = 0;
const WAKE_TOKEN: u64 = 1;

/// How long the shutdown pass may block writing one connection's last
/// replies.
const FINAL_WRITE_TIMEOUT: Duration = Duration::from_secs(1);

fn front_loop(
    shared: &Shared,
    listener: &TcpListener,
    woken: &UnixStream,
    mut readiness: Box<dyn Readiness>,
    max_frame_len: usize,
    wait_ms: i32,
) {
    let _ = readiness.register(LISTENER_TOKEN, listener.as_raw_fd());
    let _ = readiness.register(WAKE_TOKEN, woken.as_raw_fd());
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = WAKE_TOKEN + 1;
    let mut ready: Vec<u64> = Vec::new();
    loop {
        // Read before the wait: once set, the outbox taken below holds
        // every reply the workers will ever produce.
        let stopping = shared.stop.load(Ordering::SeqCst);
        if readiness.wait(wait_ms, &mut ready).is_err() {
            ready.clear();
        }
        // Accept every pending connection. Checked unconditionally —
        // cheap when nothing is pending, and readiness back-ends that
        // coalesce events then cannot strand a connection.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = next_token;
                    next_token += 1;
                    let _ = readiness.register(token, stream.as_raw_fd());
                    conns.insert(token, Conn::new(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        for &token in &ready {
            if let Some(conn) = conns.get_mut(&token) {
                conn.read_available();
                dispatch_frames(shared, token, conn, max_frame_len);
                if !conn.reading() {
                    let _ = readiness.deregister(token, conn.stream.as_raw_fd());
                }
            }
        }
        // Drain the wake-ups before taking the outbox: a frame pushed
        // after the take writes a fresh one.
        while (&*woken).read(&mut [0u8; 64]).is_ok_and(|n| n > 0) {}
        let produced = std::mem::take(&mut *shared.outbox.lock().unwrap());
        for Outgoing {
            conn: token,
            bytes,
            last,
        } in produced
        {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            conn.out.extend_from_slice(&bytes);
            if last {
                // The frames the client pipelined behind the job.
                conn.busy = false;
                dispatch_frames(shared, token, conn, max_frame_len);
                if conn.reading() {
                    let _ = readiness.register(token, conn.stream.as_raw_fd());
                }
            }
        }
        conns.retain(|&token, conn| {
            conn.flush();
            let keep = !conn.done();
            if !keep {
                let _ = readiness.deregister(token, conn.stream.as_raw_fd());
            }
            keep
        });
        if stopping {
            break;
        }
    }
    // The last replies: block briefly on connections whose socket
    // buffer is full rather than drop them.
    for conn in conns.values_mut().filter(|c| c.out_pos < c.out.len()) {
        let _ = conn.stream.set_nonblocking(false);
        let _ = conn.stream.set_write_timeout(Some(FINAL_WRITE_TIMEOUT));
        conn.flush();
    }
}

/// Dispatches the complete frames buffered on one connection, up to the
/// first that admits a job.
fn dispatch_frames(shared: &Shared, token: u64, conn: &mut Conn, max_frame_len: usize) {
    while !conn.busy && !conn.closing {
        match conn.asm.next_frame(max_frame_len) {
            Ok(Some(frame)) => dispatch_frame(shared, token, conn, &frame),
            Ok(None) => break,
            Err(e) => {
                // The stream cannot be re-synchronized after a framing
                // error: answer once, then close.
                malformed(shared, conn, 0, e);
                conn.closing = true;
            }
        }
    }
}

fn dispatch_frame(shared: &Shared, token: u64, conn: &mut Conn, frame: &Frame) {
    conn.version = frame.version;
    match frame.kind {
        FrameKind::StatsRequest => {
            conn.push_frame(FrameKind::Stats, &encode_stats(&shared.stats_snapshot()));
        }
        FrameKind::Request => match decode_request(&frame.payload) {
            Ok(req) => {
                shared.metrics.received.inc();
                // v2 requests carry no tenant; they are billed to the
                // first configured tenant.
                admit(shared, token, conn, 0, req);
            }
            Err(e) => malformed(shared, conn, 0, e),
        },
        FrameKind::PutDesign => match decode_put_design(&frame.payload) {
            Ok(put) => handle_put_design(shared, conn, &put.tenant, put.id, &put.bytes),
            Err(e) => malformed(shared, conn, 0, e),
        },
        FrameKind::DeltaRequest => match decode_delta_request(&frame.payload) {
            Ok(dreq) => {
                shared.metrics.received.inc();
                handle_delta(shared, token, conn, dreq);
            }
            Err(e) => malformed(shared, conn, 0, e),
        },
        kind => malformed(shared, conn, 0, format!("{kind:?} is not a request frame")),
    }
}

fn kind_name(kind: JobKind) -> &'static str {
    match kind {
        JobKind::Global => "global",
        JobKind::Local => "local",
    }
}

/// Answers a frame that never became a job as `Malformed`.
fn malformed(shared: &Shared, conn: &mut Conn, id: u64, message: impl ToString) {
    let record = RequestRecord {
        id,
        kind: "-",
        ..Default::default()
    };
    reject(shared, conn, record, ErrorCode::Malformed, message);
}

/// The log record of a job, before it runs.
fn job_record(req: &JobRequest) -> RequestRecord {
    RequestRecord {
        id: req.id,
        kind: kind_name(req.kind),
        design: req.design.clone(),
        cells: req.netlist.num_cells(),
        trace_id: req.trace.map_or(0, |t| t.trace_id),
        ..Default::default()
    }
}

/// Answers `record.id` with an error frame, counting and logging the
/// outcome under `code`.
fn reject(
    shared: &Shared,
    conn: &mut Conn,
    mut record: RequestRecord,
    code: ErrorCode,
    message: impl ToString,
) {
    shared.metrics.count_error(code);
    record.outcome = code.as_str();
    shared.log.write(&record);
    conn.push_frame(
        FrameKind::Error,
        &encode_error(&ErrorReply {
            id: record.id,
            code,
            steps: 0,
            rounds: 0,
            message: message.to_string(),
        }),
    );
}

fn handle_put_design(shared: &Shared, conn: &mut Conn, tenant: &str, id: u64, bytes: &[u8]) {
    if shared.queue.tenant_index(tenant).is_none() {
        return malformed(shared, conn, id, format!("unknown tenant {tenant:?}"));
    }
    let hash = fnv1a64(bytes);
    let (netlist, die, placement) = match decode_design_bytes(bytes) {
        Ok(parts) => parts,
        Err(e) => return malformed(shared, conn, id, e),
    };
    let design = Arc::new(CachedDesign {
        netlist,
        die,
        placement,
    });
    let mut cache = shared.cache.lock().unwrap();
    let outcome = cache.insert(hash, bytes.len(), design);
    let resident_bytes = cache.stats().resident_bytes;
    drop(cache);
    shared.metrics.put_designs.inc();
    shared
        .metrics
        .cache_evictions
        .add(u64::from(outcome.evicted));
    conn.push_frame(
        FrameKind::DesignAck,
        &encode_design_ack(&DesignAck {
            id,
            hash,
            cached: outcome.cached,
            resident_bytes,
            evicted: outcome.evicted,
        }),
    );
}

fn handle_delta(shared: &Shared, token: u64, conn: &mut Conn, dreq: dpm_serve::DeltaJobRequest) {
    shared.metrics.delta_requests.inc();
    let Some(tenant_idx) = shared.queue.tenant_index(&dreq.tenant) else {
        return malformed(
            shared,
            conn,
            dreq.id,
            format!("unknown tenant {:?}", dreq.tenant),
        );
    };
    let lookup_start = dreq.trace.map(|_| shared.spans.now_ns());
    let baseline = shared.cache.lock().unwrap().get(dreq.baseline);
    // One span per design-cache decision, named for its outcome: a
    // `cache.miss` subtree ends at the NeedDesign round trip it causes.
    if let (Some(ctx), Some(start)) = (dreq.trace, lookup_start) {
        // The outcome folds into the seed: a miss and the hit after the
        // client's re-send inherit the same context, and must not mint
        // the same span id.
        let seed = ctx.span_id ^ CTL_CACHE_SALT ^ u64::from(baseline.is_some());
        let cache_ctx = TraceIdGen::seeded(seed).child_of(&ctx);
        let name = if baseline.is_some() {
            "cache.hit"
        } else {
            "cache.miss"
        };
        shared
            .spans
            .record_traced(name, start, shared.spans.now_ns(), cache_ctx);
    }
    let Some(design) = baseline else {
        shared.metrics.need_design.inc();
        conn.push_frame(
            FrameKind::NeedDesign,
            &encode_need_design(&NeedDesign {
                id: dreq.id,
                hash: dreq.baseline,
            }),
        );
        return;
    };
    shared.metrics.cache_hits.inc();
    match dreq.to_job_request(&design.netlist, &design.die, &design.placement) {
        Ok(req) => admit(shared, token, conn, tenant_idx, req),
        Err(e) => malformed(shared, conn, dreq.id, e),
    }
}

fn admit(shared: &Shared, token: u64, conn: &mut Conn, tenant_idx: usize, mut req: JobRequest) {
    let record = job_record(&req);
    if let Err(e) = req.config.validate() {
        return reject(shared, conn, record, ErrorCode::InvalidConfig, e);
    }
    // Placements are bit-identical at any thread count; more threads
    // than the host has only oversubscribe it.
    req.config.threads = req.config.threads.clamp(1, shared.max_job_threads);
    let admit_start = req.trace.map(|_| shared.spans.now_ns());
    let deadline_ms = if req.deadline_ms == 0 {
        shared.default_deadline_ms
    } else {
        req.deadline_ms
    };
    let arrived = Instant::now();
    let deadline =
        (deadline_ms > 0).then(|| arrived + Duration::from_millis(u64::from(deadline_ms)));
    let trace = req.trace;
    let job = Job {
        conn: token,
        version: conn.version,
        arrived,
        deadline,
        req,
    };
    // The admission span carries the tenant label — the root of the
    // tree this server grafts onto the client's trace context.
    // Recorded *before* the push: the moment the job is queued a worker
    // may pop, finish, and drain the trace, and a span recorded after
    // that drain would be orphaned.
    if let (Some(ctx), Some(start)) = (trace, admit_start) {
        let admit_ctx = TraceIdGen::seeded(ctx.span_id ^ CTL_ADMIT_SALT).child_of(&ctx);
        let tenant = shared.queue.tenant_name(tenant_idx);
        shared.spans.record_traced(
            &labeled("ctl.admit", &[("tenant", tenant)]),
            start,
            shared.spans.now_ns(),
            admit_ctx,
        );
    }
    let outcome = shared
        .queue
        .try_push(shared.queue.tenant_name(tenant_idx), job);
    if outcome.is_err() {
        // The job never ran, so nothing will drain this trace; drop its
        // spans instead of letting them sit in the ring.
        if let Some(ctx) = trace {
            drop(shared.spans.drain_trace(ctx.trace_id));
        }
    }
    let (code, message) = match outcome {
        Ok(()) => {
            shared.metrics.admitted.inc();
            conn.busy = true;
            return;
        }
        Err(AdmitError::QueueFull) => (ErrorCode::Overloaded, "tenant queue full; retry later"),
        Err(AdmitError::UnknownTenant) => (ErrorCode::Malformed, "unknown tenant"),
        Err(AdmitError::Closed) => (ErrorCode::ShuttingDown, "server is shutting down"),
    };
    reject(shared, conn, record, code, message);
}

// ---------------------------------------------------------------------------
// Workers.
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    while let Some((tenant_idx, job)) = shared.queue.pop_wait() {
        shared.metrics.started.inc();
        let queue_wait = job.arrived.elapsed();
        shared.metrics.queue_hist.record_duration(queue_wait);
        let Job {
            conn,
            version,
            arrived,
            deadline,
            mut req,
        } = job;
        let mut record = job_record(&req);
        record.queue_ns = queue_wait.as_nanos() as u64;
        // A traced request gets a retroactive queue-wait span. A routing
        // server also wraps the job in a `ctl.execute` span that its
        // route (or in-process fallback) nests under; in process, the
        // executor's job span is the execution span.
        let root = req.trace;
        let exec_ctx = root.and_then(|ctx| {
            let mut ids = TraceIdGen::seeded(ctx.span_id ^ CTL_JOB_SALT);
            let now = shared.spans.now_ns();
            let waited = now.saturating_sub(record.queue_ns);
            shared
                .spans
                .record_traced("queue.wait", waited, now, ids.child_of(&ctx));
            let routed = !matches!(shared.exec, Exec::InProcess);
            routed.then(|| ids.child_of(&ctx))
        });
        req.trace = exec_ctx.or(root);
        let exec_start = shared.spans.now_ns();
        let t0 = Instant::now();
        let mut outcome = run_job(shared, conn, version, deadline, &req);
        let service = t0.elapsed();
        shared.metrics.service_hist.record_duration(service);
        record.service_ns = service.as_nanos() as u64;
        if let Some(ctx) = exec_ctx {
            // A router normalized its span tree to start at zero; re-base
            // it onto this server's clock so it interleaves correctly
            // with the admission and queue spans drained below.
            shared
                .spans
                .record_traced("ctl.execute", exec_start, shared.spans.now_ns(), ctx);
            if let Ok(resp) = &mut outcome {
                rebase_spans(&mut resp.spans, exec_start);
            }
        }
        let e2e = arrived.elapsed();
        shared.metrics.e2e_hist.record_duration(e2e);
        let tenant = shared.metrics.tenant(tenant_idx);
        tenant.e2e.record_duration(e2e);
        match outcome {
            Ok(mut resp) => {
                shared.metrics.served.inc();
                tenant.jobs_ok.inc();
                resp.queue_ns = record.queue_ns;
                resp.service_ns = record.service_ns;
                // Stitch the trace: this server's own spans (admission,
                // cache, queue wait, execution, and an in-process job's
                // kernel spans) plus the tree a router put in
                // `resp.spans`, normalized for the client to re-base.
                if let Some(ctx) = root {
                    let mut spans = shared.spans.drain_trace(ctx.trace_id);
                    spans.append(&mut resp.spans);
                    normalize_spans(&mut spans);
                    resp.spans = spans;
                }
                record.outcome = "ok";
                record.steps = resp.steps;
                record.rounds = resp.rounds;
                record.converged = resp.converged;
                record.movement_total = resp.total_movement;
                record.movement_max = resp.max_movement;
                shared.log.write(&record);
                shared.send(conn, version, FrameKind::Response, &encode_response(&resp));
            }
            Err(err) => {
                // Error replies carry no span export; drop the trace's
                // spans so they cannot leak into a later drain.
                if let Some(ctx) = root {
                    drop(shared.spans.drain_trace(ctx.trace_id));
                }
                shared.metrics.count_error(err.code);
                tenant.jobs_err.inc();
                record.outcome = err.code.as_str();
                record.steps = err.steps;
                record.rounds = err.rounds;
                shared.log.write(&record);
                shared.send(conn, version, FrameKind::Error, &encode_error(&err));
            }
        }
    }
}

/// Runs one job on the fleet its mode routes it to, or in process, and
/// merges the kernels this process ran into the server's stats: an
/// in-process job's, or a routed job's sub-jobs on
/// [`ShardBackend::InProcess`] backends. TCP backends bill their own.
fn run_job(
    shared: &Shared,
    conn: u64,
    version: u16,
    deadline: Option<Instant>,
    req: &JobRequest,
) -> Result<JobResponse, ErrorReply> {
    let (outcome, kernels) = match &shared.exec {
        Exec::Sharded {
            shards,
            max_halo_rounds,
            registry,
        } if req.vol.is_none() => run_routed(shared, registry, |primaries, spares| {
            let cfg = ShardRouterConfig {
                shards: *shards,
                max_halo_rounds: *max_halo_rounds,
            };
            run_sharded(ShardRouter::with_spares(cfg, primaries, spares), req)
        }),
        Exec::Volumetric { slabs, registry } if req.vol.is_some() => {
            run_routed(shared, registry, |primaries, spares| {
                let cfg = VolRouterConfig { slabs: *slabs };
                run_volumetric(VolRouter::with_spares(cfg, primaries, spares), req)
            })
        }
        // In process, and the jobs a router does not take: volumetric
        // ones in sharded mode, planar ones in volumetric mode.
        _ => {
            let mut sink = |p: &ProgressUpdate| {
                shared.metrics.progress_frames.inc();
                shared.send(conn, version, FrameKind::Progress, &encode_progress(p));
            };
            match execute_request(req, deadline, Some(&mut sink), Some(&shared.spans)) {
                Ok((resp, kernels)) => (Ok(resp), kernels),
                Err(err) => (Err(err), KernelTimers::default()),
            }
        }
    };
    shared.metrics.merge_kernels(&kernels);
    outcome
}

/// A routed job's answer, the kernels its sub-jobs ran in this process,
/// and every backend the route found dead.
type RouteOutcome = (
    Result<JobResponse, ErrorReply>,
    KernelTimers,
    Vec<ShardBackend>,
);

/// Routes one job on this job's primaries and spares from the
/// registry (counting any replacement its health check made), then
/// reports every backend the route found dead back to the registry and
/// counts them as failovers.
fn run_routed(
    shared: &Shared,
    registry: &Mutex<BackendRegistry>,
    route: impl FnOnce(Vec<ShardBackend>, Vec<ShardBackend>) -> RouteOutcome,
) -> (Result<JobResponse, ErrorReply>, KernelTimers) {
    let (primaries, spares) = {
        let mut reg = registry.lock().unwrap();
        let before = reg.snapshot().replacements;
        let selected = reg.select();
        let replaced = reg.snapshot().replacements - before;
        shared.metrics.replacements.add(replaced);
        selected
    };
    let (outcome, kernels, dead) = route(primaries, spares);
    shared.metrics.failovers.add(dead.len() as u64);
    let mut reg = registry.lock().unwrap();
    for backend in dead {
        reg.report_failure(backend);
    }
    (outcome, kernels)
}

/// A planar route degrades a shard that failed on every backend; the
/// control plane answers such a job with an error instead.
fn run_sharded(router: ShardRouter, req: &JobRequest) -> RouteOutcome {
    let reply = router.route(req);
    let dead = reply.failovers.iter().map(|f| f.from).collect();
    let outcome = match reply.outcomes.iter().find(|o| o.error.is_some()) {
        Some(out) => Err(ErrorReply {
            id: req.id,
            code: ErrorCode::Internal,
            steps: reply.response.steps,
            rounds: reply.response.rounds,
            message: format!(
                "shard {} failed with no spare left: {}",
                out.shard,
                out.error.as_deref().unwrap_or("unknown")
            ),
        }),
        None => Ok(reply.response),
    };
    (outcome, reply.kernels, dead)
}

/// An exact volumetric route cannot degrade: a slab that failed on
/// every backend fails the job.
fn run_volumetric(router: VolRouter, req: &JobRequest) -> RouteOutcome {
    let err = match router.route(req) {
        Ok(reply) => {
            let dead = reply.failovers.iter().map(|f| f.from).collect();
            return (Ok(reply.response), reply.kernels, dead);
        }
        Err(err) => err,
    };
    // Shape errors are the client's fault; a dead backend is ours.
    let (code, dead) = match &err {
        VolRouteError::Backend { slab, .. } => {
            (ErrorCode::Internal, vec![router.slab_backend(*slab)])
        }
        VolRouteError::NotVolumetric
        | VolRouteError::NotGlobal
        | VolRouteError::SpectralUnsupported => (ErrorCode::InvalidConfig, Vec::new()),
        VolRouteError::BadExtension(_) => (ErrorCode::Malformed, Vec::new()),
    };
    let reply = ErrorReply {
        id: req.id,
        code,
        steps: 0,
        rounds: 0,
        message: err.to_string(),
    };
    (Err(reply), KernelTimers::default(), dead)
}
