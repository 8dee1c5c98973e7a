//! The control-plane server: a readiness-driven front-end feeding a
//! fair queue feeding execution workers.
//!
//! One front-end thread owns every connection. It multiplexes them
//! through a [`Readiness`] implementation (epoll on Linux, a portable
//! scanner elsewhere and in tests), assembling frames incrementally
//! with [`FrameAssembler`] so a thousand idle connections cost a
//! thousand small buffers, not a thousand blocked threads. Decoded
//! work is admitted to the [`FairQueue`] per tenant; cache-protocol
//! frames (`PutDesign`, cache-miss `NeedDesign` answers) and stats are
//! answered inline on the front-end thread, since they never run a
//! diffusion.
//!
//! Worker threads pop jobs in deficit-round-robin order and execute
//! them either in process ([`dpm_serve::execute_request`], the same
//! executor a `dpm-serve` worker runs) or across a shard or z-slab
//! fleet ([`ShardRouter`], [`VolRouter`]) selected per job from the
//! [`BackendRegistry`]. Replies travel back to the front-end through
//! an outbox; the front-end writes them on the owning connection with
//! the codec version that connection last spoke, so v2 clients of a
//! v3 control plane only ever read v2 headers.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dpm_obs::{labeled, normalize_spans, rebase_spans, SpanRecorder, TraceIdGen};
use dpm_serve::delta::decode_delta_request;
use dpm_serve::wire::{
    decode_design_bytes, decode_put_design, decode_request, encode_design_ack, encode_error,
    encode_need_design, encode_progress, encode_response, encode_stats, fnv1a64,
    write_frame_versioned, DesignAck, ErrorCode, ErrorReply, Frame, FrameAssembler, FrameKind,
    JobRequest, JobResponse, NeedDesign, ProgressUpdate, WireError, DEFAULT_MAX_FRAME_LEN,
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
        /// Requested shard count K.
        shards: usize,
        /// Halo width in bins.
        halo_bins: usize,
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
        /// Requested slab count K.
        slabs: usize,
        /// Ghost tiers shipped on each side of a slab's owned range.
        halo_layers: usize,
        /// Primaries (the z-slab router has no degraded mode, so warm
        /// spares are ignored).
        registry: BackendRegistry,
    },
}

/// Control-plane configuration.
pub struct CtlConfig {
    /// Execution worker threads.
    pub workers: usize,
    /// Largest request frame accepted, bytes.
    pub max_frame_len: usize,
    /// Design-cache byte budget.
    pub cache_bytes: usize,
    /// Deadline applied to requests that carry `deadline_ms: 0`.
    /// `0` means no deadline.
    pub default_deadline_ms: u32,
    /// Readiness-wait granularity, milliseconds. This bounds how stale
    /// the front-end's view of worker output can get, so keep it small.
    pub wait_ms: i32,
    /// Admission contracts, one per tenant. Wire-v2 requests (which
    /// carry no tenant) are billed to the first tenant.
    pub tenants: Vec<TenantSpec>,
    /// How jobs execute.
    pub exec: ExecMode,
}

impl Default for CtlConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            cache_bytes: 64 << 20,
            default_deadline_ms: 0,
            wait_ms: 5,
            tenants: vec![TenantSpec::new("default", 1, 256)],
            exec: ExecMode::InProcess,
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
        halo_bins: usize,
        max_halo_rounds: usize,
        registry: Mutex<BackendRegistry>,
    },
    Volumetric {
        slabs: usize,
        halo_layers: usize,
        registry: Mutex<BackendRegistry>,
    },
}

/// How many recent spans the control plane's shared recorder retains.
const CTL_SPAN_CAPACITY: usize = 512;

/// Per-site salts for deterministic span-id minting. Each traced hop
/// seeds its own generator from the inherited span id; distinct salts
/// keep the front-end's admission/cache spans, the worker's job spans
/// and downstream hops on disjoint id streams.
const CTL_ADMIT_SALT: u64 = 0xC7_1A_D0_17_AD_31_75_01;
const CTL_CACHE_SALT: u64 = 0xC7_1C_AC_8E_5E_ED_02_02;
const CTL_JOB_SALT: u64 = 0xC7_1E_4E_C5_EE_D0_03_03;

struct Shared {
    queue: FairQueue<Job>,
    cache: Mutex<DesignCache>,
    /// Frames produced off the front-end thread, drained by it every
    /// readiness wait: `(connection token, encoded frame bytes)`.
    outbox: Mutex<Vec<(u64, Vec<u8>)>>,
    metrics: CtlMetrics,
    /// Shared span ring for traced requests: the front-end records
    /// admission and cache spans into it, workers record queue-wait and
    /// execution spans, and the worker drains a trace's spans into the
    /// response when its job completes.
    spans: SpanRecorder,
    exec: Exec,
    stop: AtomicBool,
    default_deadline_ms: u32,
}

impl Shared {
    fn send(&self, conn: u64, version: u16, kind: FrameKind, payload: &[u8]) {
        let mut buf = Vec::with_capacity(11 + payload.len());
        write_frame_versioned(&mut buf, version, kind, payload)
            .expect("writing to a Vec cannot fail");
        self.outbox.lock().unwrap().push((conn, buf));
    }

    fn send_error(&self, conn: u64, version: u16, err: &ErrorReply) {
        self.send(conn, version, FrameKind::Error, &encode_error(err));
    }
}

/// A running control plane. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops admission, drains the queue and
/// joins every thread.
pub struct CtlServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    front: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl CtlServer {
    /// Starts a control plane on an ephemeral localhost port with the
    /// platform's best [`Readiness`].
    ///
    /// # Errors
    ///
    /// Returns bind or readiness-setup errors.
    pub fn start(cfg: CtlConfig) -> io::Result<Self> {
        Self::start_with(cfg, default_readiness()?)
    }

    /// Starts a control plane with an explicit readiness source — how
    /// tests drive the event loop with the deterministic scanner.
    ///
    /// # Errors
    ///
    /// Returns bind errors.
    pub fn start_with(cfg: CtlConfig, readiness: Box<dyn Readiness>) -> io::Result<Self> {
        assert!(!cfg.tenants.is_empty(), "at least one tenant required");
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let tenant_names: Vec<String> = cfg.tenants.iter().map(|t| t.name.clone()).collect();
        let exec = match cfg.exec {
            ExecMode::InProcess => Exec::InProcess,
            ExecMode::Sharded {
                shards,
                halo_bins,
                max_halo_rounds,
                registry,
            } => Exec::Sharded {
                shards,
                halo_bins,
                max_halo_rounds,
                registry: Mutex::new(registry),
            },
            ExecMode::Volumetric {
                slabs,
                halo_layers,
                registry,
            } => Exec::Volumetric {
                slabs,
                halo_layers,
                registry: Mutex::new(registry),
            },
        };
        let metrics = CtlMetrics::new(&tenant_names);
        let spans = SpanRecorder::with_registry(CTL_SPAN_CAPACITY, metrics.registry());
        let shared = Arc::new(Shared {
            queue: FairQueue::new(&cfg.tenants),
            cache: Mutex::new(DesignCache::new(cfg.cache_bytes)),
            outbox: Mutex::new(Vec::new()),
            metrics,
            spans,
            exec,
            stop: AtomicBool::new(false),
            default_deadline_ms: cfg.default_deadline_ms,
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
                .spawn(move || front_loop(&s, &listener, readiness, max_frame_len, wait_ms))
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

    /// The control plane's instruments.
    pub fn metrics(&self) -> &CtlMetrics {
        &self.shared.metrics
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

    /// Stops admission, drains in-flight work and joins all threads.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for CtlServer {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.front.take() {
            let _ = h.join();
        }
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
    /// Close once the outbound buffer drains (post-error courtesy).
    closing: bool,
    /// Close now (EOF or I/O error).
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
            closing: false,
            dead: false,
        }
    }

    fn push_frame(&mut self, kind: FrameKind, payload: &[u8]) {
        write_frame_versioned(&mut self.out, self.version, kind, payload)
            .expect("writing to a Vec cannot fail");
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

    fn done(&self) -> bool {
        self.dead || (self.closing && self.out_pos == self.out.len())
    }
}

const LISTENER_TOKEN: u64 = 0;

fn front_loop(
    shared: &Shared,
    listener: &TcpListener,
    mut readiness: Box<dyn Readiness>,
    max_frame_len: usize,
    wait_ms: i32,
) {
    let _ = readiness.register(LISTENER_TOKEN, listener.as_raw_fd());
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut ready: Vec<u64> = Vec::new();
    while !shared.stop.load(Ordering::Relaxed) {
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
        for &token in ready.iter().filter(|&&t| t != LISTENER_TOKEN) {
            if let Some(conn) = conns.get_mut(&token) {
                service_conn(shared, token, conn, max_frame_len);
            }
        }
        // Hand worker output to the owning connections.
        let produced = std::mem::take(&mut *shared.outbox.lock().unwrap());
        for (token, bytes) in produced {
            if let Some(conn) = conns.get_mut(&token) {
                conn.out.extend_from_slice(&bytes);
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
    }
}

/// Reads everything currently available on one connection and
/// dispatches every complete frame.
fn service_conn(shared: &Shared, token: u64, conn: &mut Conn, max_frame_len: usize) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => conn.asm.push(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    loop {
        match conn.asm.next_frame(max_frame_len) {
            Ok(Some(frame)) => dispatch_frame(shared, token, conn, &frame),
            Ok(None) => break,
            Err(e) => {
                // The stream cannot be re-synchronized after a framing
                // error: answer once, then close.
                shared.metrics.malformed.inc();
                conn.push_frame(
                    FrameKind::Error,
                    &encode_error(&ErrorReply {
                        id: 0,
                        code: ErrorCode::Malformed,
                        steps: 0,
                        rounds: 0,
                        message: e.to_string(),
                    }),
                );
                conn.closing = true;
                break;
            }
        }
    }
}

fn dispatch_frame(shared: &Shared, token: u64, conn: &mut Conn, frame: &Frame) {
    conn.version = frame.version;
    shared.metrics.received.inc();
    match frame.kind {
        FrameKind::StatsRequest => {
            let snap = shared.metrics.stats_snapshot(shared.queue.len() as u64);
            conn.push_frame(FrameKind::Stats, &encode_stats(&snap));
        }
        FrameKind::Request => match decode_request(&frame.payload) {
            Ok(req) => {
                // v2 requests carry no tenant; they are billed to the
                // first configured tenant.
                admit(shared, token, conn, 0, req);
            }
            Err(e) => reject_decode(shared, conn, e),
        },
        FrameKind::PutDesign => match decode_put_design(&frame.payload) {
            Ok(put) => handle_put_design(shared, conn, &put.tenant, put.id, &put.bytes),
            Err(e) => reject_decode(shared, conn, e),
        },
        FrameKind::DeltaRequest => match decode_delta_request(&frame.payload) {
            Ok(dreq) => handle_delta(shared, token, conn, dreq),
            Err(e) => reject_decode(shared, conn, e),
        },
        _ => {
            shared.metrics.malformed.inc();
            conn.push_frame(
                FrameKind::Error,
                &encode_error(&ErrorReply {
                    id: 0,
                    code: ErrorCode::Malformed,
                    steps: 0,
                    rounds: 0,
                    message: format!("{:?} is not a request frame", frame.kind),
                }),
            );
        }
    }
}

fn reject_decode(shared: &Shared, conn: &mut Conn, e: WireError) {
    shared.metrics.malformed.inc();
    conn.push_frame(
        FrameKind::Error,
        &encode_error(&ErrorReply {
            id: 0,
            code: ErrorCode::Malformed,
            steps: 0,
            rounds: 0,
            message: e.to_string(),
        }),
    );
}

fn reject(conn: &mut Conn, id: u64, code: ErrorCode, message: String) {
    conn.push_frame(
        FrameKind::Error,
        &encode_error(&ErrorReply {
            id,
            code,
            steps: 0,
            rounds: 0,
            message,
        }),
    );
}

fn handle_put_design(shared: &Shared, conn: &mut Conn, tenant: &str, id: u64, bytes: &[u8]) {
    if shared.queue.tenant_index(tenant).is_none() {
        shared.metrics.malformed.inc();
        reject(
            conn,
            id,
            ErrorCode::Malformed,
            format!("unknown tenant {tenant:?}"),
        );
        return;
    }
    let hash = fnv1a64(bytes);
    let (netlist, die, placement) = match decode_design_bytes(bytes) {
        Ok(parts) => parts,
        Err(e) => {
            shared.metrics.malformed.inc();
            reject(conn, id, ErrorCode::Malformed, e.to_string());
            return;
        }
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
        shared.metrics.malformed.inc();
        reject(
            conn,
            dreq.id,
            ErrorCode::Malformed,
            format!("unknown tenant {:?}", dreq.tenant),
        );
        return;
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
        Err(e) => {
            shared.metrics.malformed.inc();
            reject(conn, dreq.id, ErrorCode::Malformed, e.to_string());
        }
    }
}

fn admit(shared: &Shared, token: u64, conn: &mut Conn, tenant_idx: usize, req: JobRequest) {
    let id = req.id;
    let admit_start = req.trace.map(|_| shared.spans.now_ns());
    let deadline_ms = if req.deadline_ms == 0 {
        shared.default_deadline_ms
    } else {
        req.deadline_ms
    };
    let deadline =
        (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(u64::from(deadline_ms)));
    let trace = req.trace;
    let job = Job {
        conn: token,
        version: conn.version,
        arrived: Instant::now(),
        deadline,
        req,
    };
    // The admission span carries the tenant label — the root of the
    // tree this control plane grafts onto the client's trace context.
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
    match outcome {
        Ok(()) => shared.metrics.admitted.inc(),
        Err(AdmitError::QueueFull) => {
            shared.metrics.overloaded.inc();
            reject(conn, id, ErrorCode::Overloaded, "tenant queue full".into());
        }
        Err(AdmitError::UnknownTenant) => {
            shared.metrics.malformed.inc();
            reject(conn, id, ErrorCode::Malformed, "unknown tenant".into());
        }
        Err(AdmitError::Closed) => {
            shared.metrics.rejected_shutdown.inc();
            reject(
                conn,
                id,
                ErrorCode::ShuttingDown,
                "control plane is shutting down".into(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Workers.
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    while let Some((tenant_idx, job)) = shared.queue.pop_wait() {
        let queue_wait = job.arrived.elapsed();
        shared.metrics.queue_hist.record_duration(queue_wait);
        let Job {
            conn,
            version,
            arrived,
            deadline,
            mut req,
        } = job;
        let id = req.id;
        // Traced requests get a retroactive queue-wait span and an
        // execution context; downstream hops (routers, the executor's
        // job span) inherit the execution context so their spans nest
        // under `ctl.execute`, not directly under the root.
        let root = req.trace;
        let job_ctx = root.map(|ctx| {
            let mut ids = TraceIdGen::seeded(ctx.span_id ^ CTL_JOB_SALT);
            let now = shared.spans.now_ns();
            shared.spans.record_traced(
                "queue.wait",
                now.saturating_sub(queue_wait.as_nanos() as u64),
                now,
                ids.child_of(&ctx),
            );
            ids.child_of(&ctx)
        });
        req.trace = job_ctx;
        let t0 = Instant::now();
        let exec_start = shared.spans.now_ns();
        let mut outcome = if let Err(e) = req.config.validate() {
            shared.metrics.invalid_config.inc();
            Err(ErrorReply {
                id,
                code: ErrorCode::InvalidConfig,
                steps: 0,
                rounds: 0,
                message: e.to_string(),
            })
        } else {
            match &shared.exec {
                Exec::Sharded {
                    shards,
                    halo_bins,
                    max_halo_rounds,
                    registry,
                } if req.vol.is_none() => run_sharded(
                    shared,
                    registry,
                    *shards,
                    *halo_bins,
                    *max_halo_rounds,
                    &req,
                ),
                Exec::Volumetric {
                    slabs,
                    halo_layers,
                    registry,
                } if req.vol.is_some() => {
                    run_volumetric(shared, registry, *slabs, *halo_layers, &req)
                }
                // In process, and the jobs a router does not take:
                // volumetric ones in sharded mode, planar ones in
                // volumetric mode.
                _ => {
                    let mut sink = |p: &ProgressUpdate| {
                        shared.send(conn, version, FrameKind::Progress, &encode_progress(p));
                        shared.metrics.progress_frames.inc();
                    };
                    let spans = job_ctx.map(|_| &shared.spans);
                    execute_request(&req, deadline, Some(&mut sink), spans).map(|(resp, _)| resp)
                }
            }
        };
        if let Ok(resp) = &mut outcome {
            resp.service_ns = t0.elapsed().as_nanos() as u64;
        }
        if let Some(ctx) = job_ctx {
            // A router normalized its span tree to start at zero; re-base
            // it onto this front-end's clock so it interleaves correctly
            // with the admission and queue spans drained below.
            shared
                .spans
                .record_traced("ctl.execute", exec_start, shared.spans.now_ns(), ctx);
            if let Ok(resp) = &mut outcome {
                rebase_spans(&mut resp.spans, exec_start);
            }
        }
        shared.metrics.served.inc();
        let e2e = arrived.elapsed();
        shared.metrics.e2e_hist.record_duration(e2e);
        shared.metrics.tenant(tenant_idx).e2e.record_duration(e2e);
        match outcome {
            Ok(mut resp) => {
                resp.queue_ns = queue_wait.as_nanos() as u64;
                // Stitch the trace: the control plane's own spans
                // (admission, cache, queue wait, execution, and an
                // in-process job's kernel spans) plus the tree a router
                // put in `resp.spans`, normalized for the client to
                // re-base.
                if let Some(ctx) = root {
                    let mut spans = shared.spans.drain_trace(ctx.trace_id);
                    spans.append(&mut resp.spans);
                    normalize_spans(&mut spans);
                    resp.spans = spans;
                }
                shared.metrics.service_hist.record(resp.service_ns);
                shared.metrics.tenant(tenant_idx).jobs_ok.inc();
                shared.send(conn, version, FrameKind::Response, &encode_response(&resp));
            }
            Err(err) => {
                // Error replies carry no span export; drop the trace's
                // spans so they cannot leak into a later drain.
                if let Some(ctx) = root {
                    drop(shared.spans.drain_trace(ctx.trace_id));
                }
                if err.code == ErrorCode::DeadlineExpired {
                    shared.metrics.deadline_expired.inc();
                }
                shared.metrics.tenant(tenant_idx).jobs_err.inc();
                shared.send_error(conn, version, &err);
            }
        }
    }
}

/// Picks this job's primaries and spares, counting any replacement the
/// registry made while health-checking.
fn select_backends(
    shared: &Shared,
    registry: &Mutex<BackendRegistry>,
) -> (Vec<ShardBackend>, Vec<ShardBackend>) {
    let mut reg = registry.lock().unwrap();
    let before = reg.snapshot().replacements;
    let selected = reg.select();
    shared
        .metrics
        .replacements
        .add(reg.snapshot().replacements - before);
    selected
}

fn run_sharded(
    shared: &Shared,
    registry: &Mutex<BackendRegistry>,
    shards: usize,
    halo_bins: usize,
    max_halo_rounds: usize,
    req: &JobRequest,
) -> Result<JobResponse, ErrorReply> {
    let (primaries, spares) = select_backends(shared, registry);
    let router = ShardRouter::with_spares(
        ShardRouterConfig {
            shards,
            halo_bins,
            max_halo_rounds,
            encoding: dpm_serve::wire::PayloadEncoding::Binary,
        },
        primaries,
        spares,
    );
    let reply = router.route(req);
    if !reply.failovers.is_empty() {
        shared.metrics.failovers.add(reply.failovers.len() as u64);
        let mut reg = registry.lock().unwrap();
        for f in &reply.failovers {
            reg.report_failure(f.from);
        }
    }
    if let Some(out) = reply.outcomes.iter().find(|o| o.error.is_some()) {
        return Err(ErrorReply {
            id: req.id,
            code: ErrorCode::Internal,
            steps: reply.response.steps,
            rounds: reply.response.rounds,
            message: format!(
                "shard {} failed with no spare left: {}",
                out.shard,
                out.error.as_deref().unwrap_or("unknown")
            ),
        });
    }
    Ok(reply.response)
}

fn run_volumetric(
    shared: &Shared,
    registry: &Mutex<BackendRegistry>,
    slabs: usize,
    halo_layers: usize,
    req: &JobRequest,
) -> Result<JobResponse, ErrorReply> {
    let (primaries, _spares) = select_backends(shared, registry);
    let router = VolRouter::new(
        VolRouterConfig {
            slabs,
            halo_layers,
            encoding: dpm_serve::wire::PayloadEncoding::Binary,
        },
        primaries,
    );
    let err = match router.route(req) {
        Ok(reply) => return Ok(reply.response),
        Err(err) => err,
    };
    // Exact volumetric stitching cannot degrade: a failed slab fails the
    // job. Shape errors are the client's fault; a dead backend is ours.
    let code = match &err {
        VolRouteError::Backend { slab, .. } => {
            shared.metrics.failovers.inc();
            let backend = router.slab_backend(*slab);
            registry.lock().unwrap().report_failure(backend);
            ErrorCode::Internal
        }
        VolRouteError::NotVolumetric
        | VolRouteError::NotGlobal
        | VolRouteError::SpectralUnsupported => ErrorCode::InvalidConfig,
        VolRouteError::BadExtension(_) => ErrorCode::Malformed,
    };
    Err(ErrorReply {
        id: req.id,
        code,
        steps: 0,
        rounds: 0,
        message: err.to_string(),
    })
}
