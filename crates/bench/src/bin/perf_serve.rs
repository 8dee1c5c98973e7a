//! Control-plane benchmark for the `dpm-ctl` migration service: one run
//! writes every number of `BENCH_serve.json`, in two legs.
//!
//! The **multi-tenant leg** boots a `dpm-ctl` [`CtlServer`] in sharded
//! mode over a health-checked backend registry seeded with one dead
//! primary and a warm spare, opens ≥1000 idle connections to exercise
//! the poll-based front-end, and drives a fixed number of tenant threads
//! through an ECO replay loop — one baseline upload each, then
//! delta-only requests with a cold full resend mixed in every third
//! round. It records the cache and failover counters and per-tenant
//! p50/p95/p99 latency from `dpm-obs` fixed-bucket histograms.
//!
//! The **trace-overhead leg** boots a bare in-process `CtlServer` and
//! replays one closed-loop request set with tracing off and on,
//! interleaved per request, and records the end-to-end cost of tracing
//! under `"trace_overhead"`.
//!
//! Usage: `cargo run --release -p dpm-bench --bin perf_serve [--
//! <output-path>] [--smoke] [--trace-out <path>]`
//!
//! The output path defaults to `BENCH_serve.json`. `--smoke` runs
//! seconds-scale sizes (used by `scripts/ci.sh`) and writes the same
//! keys. `--trace-out` also sends one traced request through the control
//! plane and writes its span tree as Chrome `trace_event` JSONL. The
//! binary exits non-zero unless every request was answered, the cache
//! accounting is exact, the dead primary was replaced and the idle
//! connections survived the load.

use std::fmt::Write as _;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use dpm_bench::latency_json;
use dpm_ctl::{BackendRegistry, CtlConfig, CtlServer, ExecMode, TenantSpec};
use dpm_diffusion::DiffusionConfig;
use dpm_gen::{Benchmark, CircuitSpec, EcoSpec, InflationSpec};
use dpm_obs::TraceExporter;
use dpm_serve::wire::{
    design_hash, read_frame, write_frame, FrameKind, JobKind, JobRequest, PayloadEncoding, Reply,
    DEFAULT_MAX_FRAME_LEN,
};
use dpm_serve::{DeltaJobRequest, EcoDelta, ServeClient, ShardBackend};

/// Shape of one run.
struct TenantLoad {
    /// Tenant threads, weighted 1, 2, 3, 1, ...
    tenants: usize,
    /// ECO rounds per tenant. Rounds with `round % 3 == 2` send a cold
    /// full request; the rest ship only the delta.
    rounds: usize,
    /// Cells in each tenant's baseline design.
    cells: usize,
    /// Idle connections held open across the run.
    idle_connections: usize,
    /// Distinct requests per arm of the trace-overhead leg.
    overhead_requests: usize,
    /// Times each of them runs per arm; the fastest counts.
    overhead_reps: usize,
}

const TENANT_FULL: TenantLoad = TenantLoad {
    tenants: 3,
    rounds: 12,
    cells: 220,
    idle_connections: 1500,
    overhead_requests: 48,
    overhead_reps: 10,
};

const TENANT_SMOKE: TenantLoad = TenantLoad {
    tenants: 3,
    rounds: 6,
    cells: 160,
    idle_connections: 1000,
    overhead_requests: 8,
    overhead_reps: 2,
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

/// The multi-tenant leg. Returns its JSON members, `"tenants"` through
/// `"per_tenant"`, one per line.
fn run_multi_tenant(load: &'static TenantLoad, trace_out: Option<&str>) -> String {
    let tenants = load.tenants;
    eprintln!(
        "  multi-tenant: {tenants} tenants x {} rounds, {} idle connections",
        load.rounds, load.idle_connections,
    );

    // Backend fleet: two live shard servers and one dead address. The
    // registry starts with the dead one as a primary, so the very first
    // job forces a permanent warm-spare replacement.
    let live_a = CtlServer::start(CtlConfig::default()).expect("backend a");
    let live_b = CtlServer::start(CtlConfig::default()).expect("backend b");
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

    if let Some(path) = trace_out {
        export_trace_sample(addr, load, path);
    }

    drop(idle);
    ctl.shutdown();
    live_a.shutdown();
    live_b.shutdown();

    format!(
        "  \"tenants\": {tenants},\n  \"idle_connections\": {n},\n  \"config\": {{\"rounds_per_tenant\": {rounds}, \"cells\": {cells}, \"shards\": 2, \"ctl_workers\": 2}},\n  \"wall_seconds\": {wall:.3},\n  \"requests_ok\": {total_ok},\n  \"deltas_sent\": {deltas_sent},\n  \"fulls_sent\": {fulls_sent},\n  \"cache_hits\": {cache_hits},\n  \"delta_requests\": {delta_requests},\n  \"need_design\": {need_design},\n  \"put_designs\": {put_designs},\n  \"failovers\": {failovers},\n  \"replacements\": {replacements},\n  \"cache\": {{\"hits\": {ch}, \"misses\": {cm}, \"evictions\": {ce}, \"resident_bytes\": {cb}, \"entries\": {cn}}},\n  \"per_tenant\": {{\n    {per_tenant}\n  }}",
        rounds = load.rounds,
        cells = load.cells,
        wall = wall.as_secs_f64(),
        ch = cache.hits,
        cm = cache.misses,
        ce = cache.evictions,
        cb = cache.resident_bytes,
        cn = cache.entries,
    )
}

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

/// The trace-overhead leg: the end-to-end cost of tracing, measured on
/// a bare in-process server by running the same closed-loop request set
/// with tracing off and on, interleaved per request (alternating which
/// arm goes first) so both arms see the same system drift. Each request
/// is repeated `overhead_reps` times per arm and only its minimum
/// latency is kept — scheduler preemption is strictly additive noise, so
/// best-of-reps isolates the code-path cost — then exact p50/p99 are
/// taken across the request mix. Span recording is a fixed-size ring
/// write per event and the export rides an existing reply frame, so the
/// target is < 2% on p50. Returns the `"trace_overhead"` JSON member.
fn run_trace_overhead(load: &TenantLoad) -> String {
    let reps = load.overhead_reps;
    eprintln!(
        "  trace-overhead: {} requests x {reps} reps x 2 arms",
        load.overhead_requests,
    );
    let requests: Vec<JobRequest> = (0..load.overhead_requests)
        .map(|i| {
            let b = tenant_baseline(load.cells, 0x0FF5 + i as u64);
            JobRequest {
                id: i as u64 + 1,
                deadline_ms: 0,
                progress_stride: 0,
                kind: if i % 2 == 0 {
                    JobKind::Local
                } else {
                    JobKind::Global
                },
                design: format!("overhead_{i}"),
                config: DiffusionConfig::default(),
                netlist: b.netlist,
                die: b.die,
                placement: b.placement,
                vol: None,
                trace: None,
            }
        })
        .collect();
    let server = CtlServer::start(CtlConfig::default()).expect("server binds an ephemeral port");
    let addr = server.local_addr();
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

    format!(
        "\"trace_overhead\": {{\"off_p50_us\": {op50:.1}, \"off_p99_us\": {op99:.1}, \"on_p50_us\": {np50:.1}, \"on_p99_us\": {np99:.1}, \"overhead_p50_pct\": {d50:.2}, \"overhead_p99_pct\": {d99:.2}, \"requests_per_arm\": {n}, \"reps_per_request\": {reps}, \"note\": \"Closed loop on a bare in-process server: each request with tracing off and on, interleaved per request so both arms share system drift (the client arms a root context per request; the server exports its span tree on the reply). Per-request best-of-reps filters scheduler preemption, then exact p50/p99 across the request mix. Target: < 2% p50 regression.\"}}",
        n = off.len(),
        op50 = off_p50 as f64 / 1e3,
        op99 = off_p99 as f64 / 1e3,
        np50 = on_p50 as f64 / 1e3,
        np99 = on_p99 as f64 / 1e3,
        d50 = pct(off_p50, on_p50),
        d99 = pct(off_p99, on_p99),
    )
}

fn main() {
    let mut out_path = "BENCH_serve.json".to_string();
    let mut smoke = false;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            smoke = true;
        } else if arg == "--trace-out" {
            trace_out = Some(args.next().expect("--trace-out needs a path"));
        } else if arg.starts_with("--") {
            panic!("unknown flag {arg}; usage: perf_serve [<out>] [--smoke] [--trace-out <path>]");
        } else {
            out_path = arg;
        }
    }
    let load = if smoke { &TENANT_SMOKE } else { &TENANT_FULL };
    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    eprintln!(
        "perf_serve{}: {cores} hardware thread(s)",
        if smoke { " (smoke)" } else { "" }
    );

    let tenants = run_multi_tenant(load, trace_out.as_deref());
    let overhead = run_trace_overhead(load);
    let json = format!(
        "{{\n  \"bench\": \"perf_serve\",\n  \"mode\": \"{mode}\",\n  \"hardware_threads\": {cores},\n{tenants},\n  {overhead},\n  \"note\": \"Control-plane replay: each tenant uploads its baseline once via the NeedDesign handshake, then ships ECO deltas; every third round is a cold full resend. Backends are a 2-shard fleet whose dead primary is replaced by a warm spare from the health-checked registry on first use. Idle connections are held open across the run and probed afterwards. Latency is client-observed end to end; percentiles from dpm-obs fixed-bucket histograms.\"\n}}\n",
        mode = if smoke { "multi_tenant_smoke" } else { "multi_tenant" },
    );
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
