//! Open-loop load generator for the `dpm-serve` migration service.
//!
//! Starts a server on an ephemeral port, replays a deterministic
//! arrival schedule (exponential inter-arrivals from `dpm-rng`) from a
//! pool of sender threads, and reports throughput plus p50/p95/p99/max
//! latency, split into queue wait and service time as measured by the
//! server and end-to-end wall time as seen by the client. Latency
//! aggregation uses the fixed-bucket `dpm-obs` histograms — the same
//! instrument the server itself exports over the wire.
//!
//! Open-loop means arrivals do not wait for earlier replies: if the
//! server falls behind, requests pile into its bounded queue and the
//! `Overloaded` rejections are counted rather than hidden — the honest
//! way to measure a service under offered load.
//!
//! `--pipeline N` keeps up to N requests outstanding per connection
//! (send without waiting, matching replies in submission order). The
//! reported `head_of_line` histogram is the per-request difference
//! between client-observed end-to-end time and the server-side
//! queue + service time — the cost of waiting behind earlier replies on
//! the same connection plus transport overhead.
//!
//! A slice of the schedule requests streamed progress frames, and the
//! run ends with a wire-level stats probe; the JSON records how many
//! progress frames the clients saw and cross-checks the server's own
//! counter.
//!
//! `--tenants N` switches to the **multi-tenant control-plane mode**:
//! instead of a bare server it boots a `dpm-ctl` [`CtlServer`] in
//! sharded mode over a health-checked backend registry seeded with one
//! dead primary and a warm spare, opens ≥1000 idle connections to
//! exercise the poll-based front-end, and drives N tenant threads
//! through an ECO replay loop — one baseline upload each, then
//! delta-only requests with a cold full resend mixed in every third
//! round. The JSON gains `tenants`, `idle_connections`, the cache and
//! failover counters, and per-tenant p50/p95/p99 latency.
//!
//! Usage: `cargo run --release --bin perf_serve [-- <output-path>]
//! [--smoke] [--pipeline N] [--tenants N]`
//!
//! `--smoke` runs a seconds-scale schedule (used by `scripts/ci.sh`) and
//! applies the same acceptance checks: every request answered, clean
//! shutdown, valid JSON written.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpm_ctl::{BackendRegistry, CtlConfig, CtlServer, ExecMode, TenantSpec};
use dpm_diffusion::DiffusionConfig;
use dpm_gen::{Benchmark, CircuitSpec, EcoSpec, InflationSpec};
use dpm_obs::{Histogram, TraceExporter};
use dpm_rng::Rng;
use dpm_serve::wire::{
    design_hash, read_frame, write_frame, FrameKind, JobKind, JobRequest, PayloadEncoding, Reply,
    DEFAULT_MAX_FRAME_LEN,
};
use dpm_serve::{DeltaJobRequest, EcoDelta, ServeClient, ServeConfig, Server, ShardBackend};

struct LoadSpec {
    /// Concurrent sender threads (each with its own connection).
    senders: usize,
    /// Total requests in the schedule.
    requests: usize,
    /// Mean offered arrival rate, requests per second.
    rate_per_sec: f64,
    /// Cells per circuit preset (requests cycle through these).
    circuit_cells: &'static [usize],
    /// Server worker threads.
    workers: usize,
    /// Server queue capacity.
    queue_capacity: usize,
}

const FULL: LoadSpec = LoadSpec {
    senders: 4,
    requests: 48,
    rate_per_sec: 24.0,
    circuit_cells: &[200, 400],
    workers: 2,
    queue_capacity: 16,
};

const SMOKE: LoadSpec = LoadSpec {
    senders: 2,
    requests: 8,
    rate_per_sec: 16.0,
    circuit_cells: &[120],
    workers: 2,
    queue_capacity: 8,
};

/// Every `STREAM_EVERY`-th request asks for progress frames at this
/// stride, on a workload dense enough to run real diffusion steps.
const STREAM_EVERY: usize = 4;
const STREAM_STRIDE: u32 = 4;

/// One completed request as seen by its sender.
struct Observation {
    outcome: &'static str,
    queue_ns: u64,
    service_ns: u64,
    e2e_ns: u64,
}

fn bench_for(cells: usize, seed: u64) -> Benchmark {
    let mut b = CircuitSpec::with_size("serve", cells, seed).generate();
    b.inflate(&InflationSpec::distributed(0.12, seed ^ 0x51EE));
    b
}

/// A denser pile for the streamed requests: guarantees the job runs a
/// non-trivial number of steps so progress frames actually flow.
fn busy_bench_for(cells: usize, seed: u64) -> Benchmark {
    let mut b = CircuitSpec::with_size("serve", cells, seed).generate();
    b.inflate(&InflationSpec::centered(0.3, 0.25, seed ^ 0x51EE));
    b
}

/// Builds the whole request set up front so generation cost never
/// pollutes the measured window.
fn build_requests(spec: &LoadSpec) -> Vec<JobRequest> {
    (0..spec.requests)
        .map(|i| {
            let cells = spec.circuit_cells[i % spec.circuit_cells.len()];
            let streamed = i % STREAM_EVERY == 0;
            let b = if streamed {
                busy_bench_for(cells, 0xC0FFEE + i as u64)
            } else {
                bench_for(cells, 0xC0FFEE + i as u64)
            };
            JobRequest {
                id: i as u64 + 1,
                deadline_ms: 0,
                progress_stride: if streamed { STREAM_STRIDE } else { 0 },
                kind: if i % 2 == 0 {
                    JobKind::Local
                } else {
                    JobKind::Global
                },
                design: format!("serve_{cells}c_{i}"),
                config: DiffusionConfig {
                    d_max: if streamed { 0.8 } else { 1.0 },
                    ..DiffusionConfig::default()
                },
                netlist: b.netlist,
                die: b.die,
                placement: b.placement,
                vol: None,
                trace: None,
            }
        })
        .collect()
}

/// Deterministic exponential inter-arrival schedule: absolute offsets
/// from the load start, one per request.
fn arrival_schedule(spec: &LoadSpec, seed: u64) -> Vec<Duration> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..spec.requests)
        .map(|_| {
            // Inverse-CDF sample; (0,1] keeps ln() finite.
            let u = 1.0 - rng.random_f64();
            t += -u.ln() / spec.rate_per_sec;
            Duration::from_secs_f64(t)
        })
        .collect()
}

fn latency_json(name: &str, ns: &[u64]) -> String {
    let h = Histogram::new(&Histogram::latency_bounds());
    for &v in ns {
        h.record(v);
    }
    let s = h.snapshot();
    format!(
        "\"{name}\": {{\"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}, \"max_us\": {:.1}, \"mean_us\": {:.1}, \"count\": {}}}",
        s.percentile(0.50) as f64 / 1e3,
        s.percentile(0.95) as f64 / 1e3,
        s.percentile(0.99) as f64 / 1e3,
        s.max as f64 / 1e3,
        s.mean() / 1e3,
        s.count,
    )
}

/// Receives the oldest outstanding reply, counting skipped progress
/// frames, and records the observation.
fn recv_one(
    client: &mut ServeClient,
    inflight: &mut VecDeque<(u64, Instant)>,
    obs: &mut Vec<Observation>,
    progress_seen: &mut u64,
) {
    let reply = client
        .recv_reply_with(|_| *progress_seen += 1)
        .expect("transport stays healthy");
    let (id, sent) = inflight.pop_front().expect("reply without a request");
    let e2e_ns = sent.elapsed().as_nanos() as u64;
    obs.push(match reply {
        Reply::Ok(resp) => {
            assert_eq!(resp.id, id, "pipelined replies out of order");
            Observation {
                outcome: "ok",
                queue_ns: resp.queue_ns,
                service_ns: resp.service_ns,
                e2e_ns,
            }
        }
        Reply::Rejected(e) => Observation {
            outcome: e.code.as_str(),
            queue_ns: 0,
            service_ns: 0,
            e2e_ns,
        },
    });
}

// ---------------------------------------------------------------------------
// Multi-tenant control-plane mode (--tenants N).
// ---------------------------------------------------------------------------

/// Shape of one multi-tenant run.
struct TenantLoad {
    /// ECO rounds per tenant. Rounds with `round % 3 == 2` send a cold
    /// full request; the rest ship only the delta.
    rounds: usize,
    /// Cells in each tenant's baseline design.
    cells: usize,
    /// Idle connections held open across the run.
    idle_connections: usize,
}

const TENANT_FULL: TenantLoad = TenantLoad {
    rounds: 12,
    cells: 220,
    idle_connections: 1500,
};

const TENANT_SMOKE: TenantLoad = TenantLoad {
    rounds: 6,
    cells: 160,
    idle_connections: 1000,
};

/// What one tenant thread observed.
struct TenantOutcome {
    name: String,
    weight: u32,
    ok: usize,
    deltas_sent: usize,
    fulls_sent: usize,
    e2e_ns: Vec<u64>,
}

fn tenant_baseline(cells: usize, seed: u64) -> Benchmark {
    let mut b = CircuitSpec::with_size("ctl_tenant", cells, seed).generate();
    b.inflate(&InflationSpec::centered(0.25, 0.25, seed ^ 0x7E4A));
    b
}

/// One tenant's ECO replay loop: upload-once (implicitly, via the
/// `NeedDesign` handshake on the first delta), then delta-only
/// requests, with a cold full resend every third round so the mix
/// exercises both paths.
fn tenant_loop(
    addr: std::net::SocketAddr,
    name: String,
    weight: u32,
    load: &TenantLoad,
    seed: u64,
) -> TenantOutcome {
    let base = tenant_baseline(load.cells, seed);
    let baseline_hash = design_hash(&base.netlist, &base.die, &base.placement);
    let mut client = ServeClient::connect(addr).expect("tenant connects");
    let mut out = TenantOutcome {
        name: name.clone(),
        weight,
        ok: 0,
        deltas_sent: 0,
        fulls_sent: 0,
        e2e_ns: Vec::with_capacity(load.rounds),
    };
    for round in 0..load.rounds {
        let id = seed * 1_000 + round as u64 + 1;
        let kind = if round % 2 == 0 {
            JobKind::Local
        } else {
            JobKind::Global
        };
        let t0 = Instant::now();
        let reply = if round % 3 == 2 {
            // Cold path: the full design crosses the wire.
            out.fulls_sent += 1;
            let mut eco = tenant_baseline(load.cells, seed);
            eco.apply_eco(&EcoSpec::default(), seed ^ round as u64);
            let req = JobRequest {
                id,
                deadline_ms: 0,
                progress_stride: 0,
                kind,
                design: format!("{name}_full_{round}"),
                config: DiffusionConfig::default(),
                netlist: eco.netlist,
                die: eco.die,
                placement: eco.placement,
                vol: None,
                trace: None,
            };
            client
                .send_request(&req, PayloadEncoding::Binary)
                .expect("send full request");
            client.recv_reply().expect("full reply")
        } else {
            // Warm path: regenerate the deterministic baseline, apply
            // this round's ECO, and ship only the diff.
            out.deltas_sent += 1;
            let mut eco = tenant_baseline(load.cells, seed);
            eco.apply_eco(&EcoSpec::default(), seed ^ round as u64);
            let delta =
                EcoDelta::diff(&base.netlist, &base.placement, &eco.netlist, &eco.placement)
                    .expect("eco keeps the baseline prefix");
            let dreq = DeltaJobRequest {
                id,
                deadline_ms: 0,
                progress_stride: 0,
                kind,
                design: format!("{name}_eco_{round}"),
                tenant: name.clone(),
                config: DiffusionConfig::default(),
                baseline: baseline_hash,
                delta,
                trace: None,
            };
            client
                .request_delta(&dreq, (&base.netlist, &base.die, &base.placement), |_| {})
                .expect("delta reply")
        };
        out.e2e_ns.push(t0.elapsed().as_nanos() as u64);
        match reply {
            Reply::Ok(resp) => {
                assert_eq!(resp.id, id, "reply out of order");
                out.ok += 1;
            }
            Reply::Rejected(e) => panic!(
                "tenant {name} round {round} rejected: {} {}",
                e.code.as_str(),
                e.message
            ),
        }
    }
    out
}

/// An address that refuses connections: bind, snapshot the port, drop.
fn dead_addr() -> std::net::SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind probe listener");
    l.local_addr().expect("probe addr")
}

/// Sends a `StatsRequest` on a raw idle connection and checks a stats
/// frame comes back — proof the connection survived the load multiplex.
fn probe_idle(conn: &mut TcpStream) -> bool {
    if write_frame(conn, FrameKind::StatsRequest, &[]).is_err() {
        return false;
    }
    matches!(
        read_frame(conn, DEFAULT_MAX_FRAME_LEN),
        Ok(Some(frame)) if frame.kind == FrameKind::Stats
    )
}

/// Runs one traced request through the control plane and writes its
/// span tree as Chrome `trace_event` JSONL — the artifact a developer
/// drops into Perfetto to see where a fleet request spent its time.
fn export_trace_sample(addr: std::net::SocketAddr, load: &TenantLoad, path: &str) {
    let mut client = ServeClient::connect(addr)
        .expect("trace client connects")
        .with_tracing(0x7E57_7ACE)
        .with_tenant("tenant0");
    let b = tenant_baseline(load.cells, 0x7E57);
    let mut req = JobRequest {
        id: 999_001,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Local,
        design: "trace_sample".into(),
        config: DiffusionConfig::default(),
        netlist: b.netlist,
        die: b.die,
        placement: b.placement,
        vol: None,
        trace: None,
    };
    client.begin_trace(&mut req).expect("tracing armed");
    let reply = client
        .request(&req, PayloadEncoding::Binary)
        .expect("traced sample transport");
    assert!(matches!(reply, Reply::Ok(_)), "traced sample rejected");
    let spans = client.take_trace_spans();
    assert!(!spans.is_empty(), "traced sample produced no spans");
    let mut exporter = TraceExporter::new();
    for s in &spans {
        if s.parent_id == 0 {
            exporter.add_with_args(s, 1, 1, &[("tenant", "tenant0")]);
        } else {
            exporter.add(s, 1, 1);
        }
    }
    std::fs::write(path, exporter.to_jsonl()).expect("write trace jsonl");
    eprintln!("  wrote trace sample ({} spans) to {path}", spans.len());
}

fn run_multi_tenant(out_path: &str, smoke: bool, tenants: usize, trace_out: Option<&str>) {
    let load = if smoke { &TENANT_SMOKE } else { &TENANT_FULL };
    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    eprintln!(
        "perf_serve multi-tenant{}: {tenants} tenants x {} rounds, {} idle connections, {cores} hardware thread(s)",
        if smoke { " (smoke)" } else { "" },
        load.rounds,
        load.idle_connections,
    );

    // Backend fleet: two live shard servers and one dead address. The
    // registry starts with the dead one as a primary, so the very first
    // job forces a permanent warm-spare replacement.
    let live_a = Server::start("127.0.0.1:0", ServeConfig::default()).expect("backend a");
    let live_b = Server::start("127.0.0.1:0", ServeConfig::default()).expect("backend b");
    let dead = dead_addr();
    let registry = BackendRegistry::new(
        vec![
            ShardBackend::Tcp(live_a.local_addr()),
            ShardBackend::Tcp(dead),
        ],
        vec![ShardBackend::Tcp(live_b.local_addr())],
    );

    let specs: Vec<TenantSpec> = (0..tenants)
        .map(|i| TenantSpec::new(format!("tenant{i}"), (i % 3) as u32 + 1, 64))
        .collect();
    let weights: Vec<u32> = specs.iter().map(|s| s.weight).collect();
    let ctl = CtlServer::start(CtlConfig {
        workers: 2,
        tenants: specs,
        exec: ExecMode::Sharded {
            shards: 2,
            max_halo_rounds: 4,
            registry,
        },
        ..CtlConfig::default()
    })
    .expect("control plane starts");
    let addr = ctl.local_addr();

    // Fill the front-end with idle connections before any load. The
    // accept drain runs once per readiness tick, so pace the connect
    // storm instead of racing the listener backlog.
    let mut idle: Vec<TcpStream> = Vec::with_capacity(load.idle_connections);
    for i in 0..load.idle_connections {
        idle.push(TcpStream::connect(addr).expect("idle connection"));
        if i % 64 == 63 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    let t0 = Instant::now();
    let handles: Vec<_> = (0..tenants)
        .map(|i| {
            let name = format!("tenant{i}");
            let weight = weights[i];
            std::thread::spawn(move || tenant_loop(addr, name, weight, load, i as u64 + 1))
        })
        .collect();
    let outcomes: Vec<TenantOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("tenant thread finishes"))
        .collect();
    let wall = t0.elapsed();

    // The idle pool must still be serviceable after the load: probe the
    // first, middle, and last connections end to end.
    let n = idle.len();
    let mut survivors = 0;
    for idx in [0, n / 2, n - 1] {
        if probe_idle(&mut idle[idx]) {
            survivors += 1;
        }
    }
    assert_eq!(survivors, 3, "idle connections starved by the load");

    let m = ctl.metrics();
    let cache_hits = m.cache_hits.get();
    let delta_requests = m.delta_requests.get();
    let need_design = m.need_design.get();
    let put_designs = m.put_designs.get();
    let failovers = m.failovers.get();
    let replacements = m.replacements.get();
    let served = m.served.get();
    let cache = ctl.cache_stats();
    let reg = ctl
        .registry_snapshot()
        .expect("sharded mode has a registry");

    let total_ok: usize = outcomes.iter().map(|o| o.ok).sum();
    let deltas_sent: usize = outcomes.iter().map(|o| o.deltas_sent).sum();
    let fulls_sent: usize = outcomes.iter().map(|o| o.fulls_sent).sum();
    assert_eq!(
        total_ok,
        tenants * load.rounds,
        "a request was lost or rejected"
    );
    assert_eq!(
        served, total_ok as u64,
        "control plane served a different count"
    );
    // Every tenant's first delta misses (NeedDesign), is uploaded and
    // resent; everything after that hits.
    assert_eq!(need_design, tenants as u64, "one cache miss per tenant");
    assert_eq!(
        put_designs, tenants as u64,
        "one baseline upload per tenant"
    );
    assert_eq!(
        delta_requests,
        (deltas_sent + tenants) as u64,
        "deltas plus resends"
    );
    assert!(cache_hits > 0, "warm rounds must hit the design cache");
    assert_eq!(
        cache_hits, deltas_sent as u64,
        "all but the first delta hit"
    );
    assert!(replacements >= 1, "the dead primary was never replaced");
    assert!(
        !reg.primaries.contains(&ShardBackend::Tcp(dead)),
        "dead backend still a primary after the run"
    );

    eprintln!(
        "  {total_ok} ok ({deltas_sent} deltas + {fulls_sent} fulls) in {:.2}s; cache {cache_hits} hits / {need_design} misses; {replacements} replacement(s), {failovers} failover(s)",
        wall.as_secs_f64()
    );

    let mut per_tenant = String::new();
    for (i, o) in outcomes.iter().enumerate() {
        let sep = if i + 1 == outcomes.len() {
            ""
        } else {
            ",\n    "
        };
        let _ = write!(
            per_tenant,
            "\"{}\": {{\"weight\": {}, \"requests\": {}, {}}}{sep}",
            o.name,
            o.weight,
            o.ok,
            latency_json("e2e", &o.e2e_ns)
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"perf_serve\",\n  \"mode\": \"{mode}\",\n  \"hardware_threads\": {cores},\n  \"tenants\": {tenants},\n  \"idle_connections\": {idle_n},\n  \"config\": {{\"rounds_per_tenant\": {rounds}, \"cells\": {cells}, \"shards\": 2, \"ctl_workers\": 2}},\n  \"wall_seconds\": {wall:.3},\n  \"requests_ok\": {total_ok},\n  \"deltas_sent\": {deltas_sent},\n  \"fulls_sent\": {fulls_sent},\n  \"cache_hits\": {cache_hits},\n  \"delta_requests\": {delta_requests},\n  \"need_design\": {need_design},\n  \"put_designs\": {put_designs},\n  \"failovers\": {failovers},\n  \"replacements\": {replacements},\n  \"cache\": {{\"hits\": {ch}, \"misses\": {cm}, \"evictions\": {ce}, \"resident_bytes\": {cb}, \"entries\": {cn}}},\n  \"per_tenant\": {{\n    {per_tenant}\n  }},\n  \"note\": \"Control-plane replay: each tenant uploads its baseline once via the NeedDesign handshake, then ships ECO deltas; every third round is a cold full resend. Backends are a 2-shard fleet whose dead primary is replaced by a warm spare from the health-checked registry on first use. Idle connections are held open across the run and probed afterwards. Latency is client-observed end to end; percentiles from dpm-obs fixed-bucket histograms.\"\n}}\n",
        mode = if smoke { "multi_tenant_smoke" } else { "multi_tenant" },
        idle_n = n,
        rounds = load.rounds,
        cells = load.cells,
        wall = wall.as_secs_f64(),
        ch = cache.hits,
        cm = cache.misses,
        ce = cache.evictions,
        cb = cache.resident_bytes,
        cn = cache.entries,
    );
    std::fs::write(out_path, &json).expect("write BENCH_serve.json");
    println!("{json}");
    eprintln!("wrote {out_path}");

    if let Some(path) = trace_out {
        export_trace_sample(addr, load, path);
    }

    drop(idle);
    ctl.shutdown();
    live_a.shutdown();
    live_b.shutdown();
}

// ---------------------------------------------------------------------------
// Tracing-overhead mode (--trace-overhead).
// ---------------------------------------------------------------------------

/// One closed-loop request on a persistent client, returning the
/// client-observed end-to-end latency.
fn overhead_one(client: &mut ServeClient, r: &JobRequest, traced: bool) -> u64 {
    let mut req = r.clone();
    if traced {
        client.begin_trace(&mut req).expect("tracing armed");
    }
    let t0 = Instant::now();
    let reply = client
        .request(&req, PayloadEncoding::Binary)
        .expect("transport stays healthy");
    let e2e = t0.elapsed().as_nanos() as u64;
    assert!(matches!(reply, Reply::Ok(_)), "request rejected: {reply:?}");
    if traced {
        assert!(
            !client.take_trace_spans().is_empty(),
            "traced request yielded no spans"
        );
    }
    e2e
}

/// Exact percentile over raw samples — the fixed histogram buckets
/// double per step, far too coarse to resolve a few-percent delta.
fn exact_percentile(ns: &[u64], q: f64) -> u64 {
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    sorted[((sorted.len() as f64 - 1.0) * q).round() as usize]
}

/// Measures the end-to-end cost of tracing: the same closed-loop
/// request schedule with tracing off and on, interleaved per request
/// (alternating which arm goes first) so both arms see the same system
/// drift. Each request is repeated `reps` times per arm and only its
/// minimum latency is kept — scheduler preemption is strictly additive
/// noise, so best-of-reps isolates the code-path cost — then exact
/// p50/p99 are taken across the request mix. Span recording is a
/// fixed-size ring write per event and the export rides an existing
/// reply frame, so the target is < 2% on p50.
fn run_trace_overhead(out_path: &str, smoke: bool) {
    let spec = if smoke { &SMOKE } else { &FULL };
    let reps = if smoke { 2 } else { 10 };
    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    eprintln!(
        "perf_serve trace-overhead{}: {} requests x {reps} reps x 2 arms, {cores} hardware thread(s)",
        if smoke { " (smoke)" } else { "" },
        spec.requests,
    );
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            queue_capacity: spec.queue_capacity,
            workers: spec.workers,
            ..ServeConfig::default()
        },
    )
    .expect("server binds an ephemeral port");
    let addr = server.local_addr();
    let requests = build_requests(spec);

    let mut plain = ServeClient::connect(addr).expect("plain client connects");
    let mut traced = ServeClient::connect(addr)
        .expect("traced client connects")
        .with_tracing(0x7E57_0FF5)
        .with_tenant("perf");

    // Warm both code paths (thread pools, allocator, caches) before
    // measuring anything.
    for r in requests.iter().take(4) {
        overhead_one(&mut plain, r, false);
        overhead_one(&mut traced, r, true);
    }

    let mut off = vec![u64::MAX; requests.len()];
    let mut on = vec![u64::MAX; requests.len()];
    for rep in 0..reps {
        for (i, r) in requests.iter().enumerate() {
            if (rep + i) % 2 == 0 {
                off[i] = off[i].min(overhead_one(&mut plain, r, false));
                on[i] = on[i].min(overhead_one(&mut traced, r, true));
            } else {
                on[i] = on[i].min(overhead_one(&mut traced, r, true));
                off[i] = off[i].min(overhead_one(&mut plain, r, false));
            }
        }
    }
    server.shutdown();

    let (off_p50, off_p99) = (exact_percentile(&off, 0.50), exact_percentile(&off, 0.99));
    let (on_p50, on_p99) = (exact_percentile(&on, 0.50), exact_percentile(&on, 0.99));
    let pct = |off: u64, on: u64| (on as f64 - off as f64) / off.max(1) as f64 * 100.0;
    eprintln!(
        "  e2e p50 {:.1}us off vs {:.1}us on ({:+.2}%), p99 {:.1}us vs {:.1}us ({:+.2}%)",
        off_p50 as f64 / 1e3,
        on_p50 as f64 / 1e3,
        pct(off_p50, on_p50),
        off_p99 as f64 / 1e3,
        on_p99 as f64 / 1e3,
        pct(off_p99, on_p99),
    );

    let json = format!(
        "{{\n  \"bench\": \"perf_serve\",\n  \"mode\": \"trace_overhead{smoke_tag}\",\n  \"hardware_threads\": {cores},\n  \"requests_per_arm\": {n},\n  \"reps_per_request\": {reps},\n  \"trace_overhead\": {{\"off_p50_us\": {op50:.1}, \"off_p99_us\": {op99:.1}, \"on_p50_us\": {np50:.1}, \"on_p99_us\": {np99:.1}, \"overhead_p50_pct\": {d50:.2}, \"overhead_p99_pct\": {d99:.2}}},\n  \"note\": \"Closed-loop: the same request schedule with tracing off and on, interleaved per request so both arms share system drift (client arms a root context per request; the server exports its span tree on the reply). Per-request best-of-reps filters scheduler preemption, then exact p50/p99 across the request mix. Target: < 2% p50 regression.\"\n}}\n",
        smoke_tag = if smoke { "_smoke" } else { "" },
        n = off.len(),
        op50 = off_p50 as f64 / 1e3,
        op99 = off_p99 as f64 / 1e3,
        np50 = on_p50 as f64 / 1e3,
        np99 = on_p99 as f64 / 1e3,
        d50 = pct(off_p50, on_p50),
        d99 = pct(off_p99, on_p99),
    );
    std::fs::write(out_path, &json).expect("write trace-overhead JSON");
    println!("{json}");
    eprintln!("wrote {out_path}");
}

fn main() {
    let mut out_path = "BENCH_serve.json".to_string();
    let mut smoke = false;
    let mut pipeline = 1usize;
    let mut tenants = 0usize;
    let mut trace_out: Option<String> = None;
    let mut trace_overhead = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            smoke = true;
        } else if arg == "--pipeline" {
            pipeline = args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n >= 1)
                .expect("--pipeline needs a depth >= 1");
        } else if arg == "--tenants" {
            tenants = args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n >= 1)
                .expect("--tenants needs a count >= 1");
        } else if arg == "--trace-out" {
            trace_out = Some(args.next().expect("--trace-out needs a path"));
        } else if arg == "--trace-overhead" {
            trace_overhead = true;
        } else {
            out_path = arg;
        }
    }
    if trace_overhead {
        run_trace_overhead(&out_path, smoke);
        return;
    }
    if tenants > 0 {
        run_multi_tenant(&out_path, smoke, tenants, trace_out.as_deref());
        return;
    }
    let spec = if smoke { &SMOKE } else { &FULL };
    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    eprintln!(
        "perf_serve{}: {} requests, {} senders, depth {pipeline}, {:.0} req/s offered, {cores} hardware thread(s)",
        if smoke { " (smoke)" } else { "" },
        spec.requests,
        spec.senders,
        spec.rate_per_sec
    );

    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            queue_capacity: spec.queue_capacity,
            workers: spec.workers,
            ..ServeConfig::default()
        },
    )
    .expect("server binds an ephemeral port");
    let addr = server.local_addr();

    let requests = build_requests(spec);
    let schedule = arrival_schedule(spec, 0xA1157);
    let started = Arc::new(AtomicU64::new(0));
    let progress_total = Arc::new(AtomicU64::new(0));

    // Sender k owns arrivals k, k+senders, k+2*senders, ... — open-loop
    // within the sender pool's ability to keep up. With a pipeline
    // depth above 1 a sender only blocks once `pipeline` requests are
    // outstanding on its connection.
    let t0 = Instant::now();
    let handles: Vec<_> = (0..spec.senders)
        .map(|k| {
            let mine: Vec<(Duration, JobRequest)> = requests
                .iter()
                .zip(&schedule)
                .skip(k)
                .step_by(spec.senders)
                .map(|(r, &d)| (d, r.clone()))
                .collect();
            let started = Arc::clone(&started);
            let progress_total = Arc::clone(&progress_total);
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("client connects");
                let mut obs = Vec::with_capacity(mine.len());
                let mut inflight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(pipeline);
                let mut progress_seen = 0u64;
                for (offset, req) in mine {
                    if let Some(wait) = offset.checked_sub(t0.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    started.fetch_add(1, Ordering::Relaxed);
                    client
                        .send_request(&req, PayloadEncoding::Binary)
                        .expect("transport stays healthy");
                    inflight.push_back((req.id, Instant::now()));
                    while inflight.len() >= pipeline {
                        recv_one(&mut client, &mut inflight, &mut obs, &mut progress_seen);
                    }
                }
                while !inflight.is_empty() {
                    recv_one(&mut client, &mut inflight, &mut obs, &mut progress_seen);
                }
                progress_total.fetch_add(progress_seen, Ordering::Relaxed);
                obs
            })
        })
        .collect();

    let observations: Vec<Observation> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("sender thread finishes"))
        .collect();
    let wall = t0.elapsed();
    let progress_seen = progress_total.load(Ordering::Relaxed);

    // Wire-level stats probe before shutdown: the server's own counters
    // must agree with what the clients observed.
    let snapshot = ServeClient::connect(addr)
        .expect("stats client connects")
        .stats()
        .expect("stats frame decodes");
    let stats = server.shutdown();

    // Every scheduled request must have been answered one way or the
    // other, and the server must account for each admitted job.
    assert_eq!(observations.len(), spec.requests, "lost replies");
    assert_eq!(
        stats.admitted,
        stats.served + stats.deadline_expired,
        "shutdown left jobs unaccounted"
    );
    assert_eq!(
        snapshot.received, stats.received,
        "wire stats disagree with in-process stats"
    );
    assert_eq!(
        stats.progress_frames, progress_seen,
        "server sent a different number of progress frames than clients saw"
    );
    assert!(
        progress_seen > 0,
        "streamed requests produced no progress frames"
    );

    let ok: Vec<&Observation> = observations.iter().filter(|o| o.outcome == "ok").collect();
    let rejected = observations.len() - ok.len();
    let throughput = ok.len() as f64 / wall.as_secs_f64();
    eprintln!(
        "  {} ok / {} rejected in {:.2}s ({throughput:.1} req/s served), {progress_seen} progress frames",
        ok.len(),
        rejected,
        wall.as_secs_f64()
    );

    let mut outcome_counts: Vec<(&'static str, usize)> = Vec::new();
    for o in &observations {
        match outcome_counts
            .iter_mut()
            .find(|(name, _)| *name == o.outcome)
        {
            Some((_, n)) => *n += 1,
            None => outcome_counts.push((o.outcome, 1)),
        }
    }
    let mut outcomes_json = String::new();
    for (i, (name, n)) in outcome_counts.iter().enumerate() {
        let sep = if i + 1 == outcome_counts.len() {
            ""
        } else {
            ", "
        };
        let _ = write!(outcomes_json, "\"{name}\": {n}{sep}");
    }

    // Head-of-line delta: what the client paid on top of the server's
    // own queue + service accounting (reply ordering, transport).
    let hol: Vec<u64> = ok
        .iter()
        .map(|o| o.e2e_ns.saturating_sub(o.queue_ns + o.service_ns))
        .collect();

    let json = format!(
        "{{\n  \"bench\": \"perf_serve\",\n  \"mode\": \"{mode}\",\n  \"hardware_threads\": {cores},\n  \"config\": {{\"senders\": {senders}, \"requests\": {requests}, \"pipeline\": {pipeline}, \"offered_rate_per_sec\": {rate:.1}, \"server_workers\": {workers}, \"queue_capacity\": {cap}, \"circuit_cells\": {cells:?}}},\n  \"wall_seconds\": {wall:.3},\n  \"served_per_sec\": {throughput:.2},\n  \"progress_frames\": {progress_seen},\n  \"outcomes\": {{{outcomes}}},\n  \"latency\": {{\n    {queue},\n    {service},\n    {e2e},\n    {hol}\n  }},\n  \"note\": \"Open-loop exponential arrivals from a fixed dpm-rng seed; queue/service split measured server-side, e2e client-side; percentiles from dpm-obs fixed-bucket histograms (bucket upper bounds). head_of_line = e2e - (queue + service): reply-ordering plus transport cost, nonzero mainly when --pipeline > 1. Overloaded rejections are counted, not retried.\"\n}}\n",
        mode = if smoke { "smoke" } else { "full" },
        senders = spec.senders,
        requests = spec.requests,
        rate = spec.rate_per_sec,
        workers = spec.workers,
        cap = spec.queue_capacity,
        cells = spec.circuit_cells,
        wall = wall.as_secs_f64(),
        outcomes = outcomes_json,
        queue = latency_json("queue", &ok.iter().map(|o| o.queue_ns).collect::<Vec<_>>()),
        service = latency_json("service", &ok.iter().map(|o| o.service_ns).collect::<Vec<_>>()),
        e2e = latency_json(
            "e2e",
            &observations.iter().map(|o| o.e2e_ns).collect::<Vec<_>>()
        ),
        hol = latency_json("head_of_line", &hol),
    );
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
