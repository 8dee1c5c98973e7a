//! End-to-end tests for the control plane: the ECO-delta path is
//! bit-identical to a full resend (both solvers, in-process engine and
//! over TCP), the NeedDesign handshake and LRU eviction behave
//! deterministically over the wire, legacy v2 clients get v2 replies
//! byte for byte, a sharded control plane survives a dead backend via
//! the registry's warm spare, in-process execution is the same
//! executor a direct `execute_job` call runs — volumetric jobs
//! included — routed sub-jobs run on in-process backends bill their
//! kernels to the control plane's stats, job thread counts are clamped
//! to the host, and wire v3 extension frames get a typed rejection.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use dpm_diffusion::{DiffusionConfig, SolverKind, VolumetricDiffusion};
use dpm_gen::{Benchmark, CircuitSpec, EcoSpec, InflationSpec, VolBenchmark, VolCircuitSpec};
use dpm_serve::wire::{
    design_hash, encode_request, encode_response, read_frame, write_frame_versioned, ErrorCode,
    FrameKind, JobKind, JobRequest, PayloadEncoding, VolRequestExt, DEFAULT_MAX_FRAME_LEN,
};
use dpm_serve::{
    execute_job, DeltaJobRequest, DeltaReply, EcoDelta, Reply, ServeClient, ShardBackend,
    ShardRouter, ShardRouterConfig,
};

use dpm_ctl::{BackendRegistry, CtlConfig, CtlServer, ExecMode, TenantSpec};
use dpm_place::MovementStats;

fn bench(cells: usize, seed: u64) -> Benchmark {
    CircuitSpec::with_size("ctl_e2e", cells, seed).generate()
}

/// A baseline and its ECO'd successor, generated from the same spec so
/// the successor strictly extends the baseline. The baseline is
/// inflated into a hot spot so the migration does real work.
fn eco_pair(cells: usize, seed: u64) -> (Benchmark, Benchmark) {
    let make = || {
        let mut b = bench(cells, seed);
        b.inflate(&InflationSpec::centered(0.3, 0.25, seed ^ 0xD1E));
        b
    };
    let base = make();
    let mut eco = make();
    let summary = eco.apply_eco(&EcoSpec::default(), seed ^ 0xEC0);
    assert!(summary.buffers > 0 && summary.moved > 0 && summary.resized > 0);
    (base, eco)
}

fn full_request(b: &Benchmark, id: u64, kind: JobKind, config: &DiffusionConfig) -> JobRequest {
    JobRequest {
        id,
        deadline_ms: 0,
        progress_stride: 0,
        kind,
        design: format!("ctl_e2e_{id}"),
        config: config.clone(),
        netlist: b.netlist.clone(),
        die: b.die.clone(),
        placement: b.placement.clone(),
        vol: None,
        trace: None,
    }
}

fn delta_request(
    base: &Benchmark,
    eco: &Benchmark,
    id: u64,
    tenant: &str,
    kind: JobKind,
    config: &DiffusionConfig,
) -> DeltaJobRequest {
    let delta = EcoDelta::diff(&base.netlist, &base.placement, &eco.netlist, &eco.placement)
        .expect("eco extends base");
    DeltaJobRequest {
        id,
        deadline_ms: 0,
        progress_stride: 0,
        kind,
        design: format!("ctl_e2e_delta_{id}"),
        tenant: tenant.to_string(),
        config: config.clone(),
        baseline: design_hash(&base.netlist, &base.die, &base.placement),
        delta,
        trace: None,
    }
}

fn one_tenant_cfg() -> CtlConfig {
    CtlConfig {
        workers: 1,
        tenants: vec![TenantSpec::new("acme", 1, 64)],
        ..CtlConfig::default()
    }
}

fn dead_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr");
    drop(listener);
    addr
}

#[test]
fn delta_path_is_bit_identical_to_full_resend_both_solvers() {
    for (solver, kind) in [
        (SolverKind::Ftcs, JobKind::Local),
        (SolverKind::Spectral, JobKind::Global),
    ] {
        let config = DiffusionConfig::default().with_solver(solver);
        let (base, eco) = eco_pair(220, 71);

        // Ground truth: the engine run in this process on the modified
        // design.
        let mut local = eco.placement.clone();
        let result = execute_job(
            kind,
            &config,
            &eco.netlist,
            &eco.die,
            &mut local,
            &|| false,
            &mut dpm_diffusion::NoopObserver,
        );
        assert!(result.steps > 0, "workload must do real work");

        let ctl = CtlServer::start(one_tenant_cfg()).expect("ctl starts");
        let mut client = ServeClient::connect(ctl.local_addr()).expect("connect");

        // Full resend over TCP.
        let full = client
            .request(
                &full_request(&eco, 1, kind, &config),
                PayloadEncoding::Binary,
            )
            .expect("full request");
        let Reply::Ok(full) = full else {
            panic!("full request rejected: {full:?}");
        };
        assert_eq!(
            full.positions,
            local.as_slice().to_vec(),
            "{solver:?}: TCP full resend must match the in-process engine bit for bit"
        );

        // Delta path over TCP (NeedDesign handshake resolved inside
        // request_delta).
        let dreq = delta_request(&base, &eco, 2, "acme", kind, &config);
        let reply = client
            .request_delta(&dreq, (&base.netlist, &base.die, &base.placement), |_| {})
            .expect("delta request");
        let Reply::Ok(delta_resp) = reply else {
            panic!("delta request rejected: {reply:?}");
        };
        assert_eq!(
            delta_resp.positions, full.positions,
            "{solver:?}: cached-baseline + ECO delta must be bit-identical to the full resend"
        );
        ctl.shutdown();
    }
}

#[test]
fn need_design_handshake_then_cache_hits() {
    let config = DiffusionConfig::default();
    let (base, eco) = eco_pair(180, 83);
    let ctl = CtlServer::start(one_tenant_cfg()).expect("ctl starts");
    let mut client = ServeClient::connect(ctl.local_addr()).expect("connect");

    // Cold cache: the delta is answered with a typed NeedDesign frame
    // naming the missing hash.
    let dreq = delta_request(&base, &eco, 10, "acme", JobKind::Local, &config);
    client.send_delta_request(&dreq).expect("send");
    let reply = client.recv_delta_reply(|_| {}).expect("recv");
    let DeltaReply::NeedDesign(need) = reply else {
        panic!("expected NeedDesign on a cold cache, got {reply:?}");
    };
    assert_eq!(need.id, 10);
    assert_eq!(need.hash, dreq.baseline);

    // Upload, then resend: the ack echoes the content hash and the
    // resent delta runs.
    let ack = client
        .put_design(10, "acme", &base.netlist, &base.die, &base.placement)
        .expect("upload");
    assert!(ack.cached);
    assert_eq!(ack.hash, dreq.baseline);
    client.send_delta_request(&dreq).expect("resend");
    let DeltaReply::Done(Reply::Ok(first)) = client.recv_delta_reply(|_| {}).expect("recv") else {
        panic!("resent delta should run");
    };

    // Warm cache: a second delta skips the handshake entirely.
    let dreq2 = delta_request(&base, &eco, 11, "acme", JobKind::Local, &config);
    client.send_delta_request(&dreq2).expect("send warm");
    let DeltaReply::Done(Reply::Ok(second)) = client.recv_delta_reply(|_| {}).expect("recv") else {
        panic!("warm delta should run");
    };
    assert_eq!(first.positions, second.positions, "same delta, same answer");

    let cache = ctl.cache_stats();
    assert_eq!(cache.misses, 1, "exactly the cold lookup missed");
    assert_eq!(cache.hits, 2, "resend and warm request both hit");
    assert_eq!(ctl.metrics().need_design.get(), 1);
    assert_eq!(ctl.metrics().delta_requests.get(), 3);
    ctl.shutdown();
}

#[test]
fn wire_lru_eviction_is_deterministic() {
    let a = bench(140, 91);
    let b = bench(140, 92);
    let a_bytes = dpm_serve::wire::encode_design_bytes(&a.netlist, &a.die, &a.placement).len();
    // Budget fits either design alone but never both, so the second
    // upload must evict the first — deterministically.
    let cfg = CtlConfig {
        workers: 1,
        cache_bytes: a_bytes + a_bytes / 2,
        tenants: vec![TenantSpec::new("acme", 1, 64)],
        ..CtlConfig::default()
    };
    let ctl = CtlServer::start(cfg).expect("ctl starts");
    let mut client = ServeClient::connect(ctl.local_addr()).expect("connect");

    let ack_a = client
        .put_design(1, "acme", &a.netlist, &a.die, &a.placement)
        .expect("upload a");
    assert!(ack_a.cached);
    assert_eq!(ack_a.evicted, 0);

    let ack_b = client
        .put_design(2, "acme", &b.netlist, &b.die, &b.placement)
        .expect("upload b");
    assert!(ack_b.cached);
    assert_eq!(
        ack_b.evicted, 1,
        "b must evict a: the budget holds one design"
    );

    // a is gone: a delta naming it gets NeedDesign, not a stale run.
    let mut eco_a = bench(140, 91);
    eco_a.apply_eco(&EcoSpec::default(), 5);
    let dreq = delta_request(
        &a,
        &eco_a,
        3,
        "acme",
        JobKind::Local,
        &DiffusionConfig::default(),
    );
    client.send_delta_request(&dreq).expect("send");
    let reply = client.recv_delta_reply(|_| {}).expect("recv");
    assert!(
        matches!(reply, DeltaReply::NeedDesign(ref n) if n.hash == dreq.baseline),
        "evicted baseline must miss: {reply:?}"
    );

    let cache = ctl.cache_stats();
    assert_eq!(cache.evictions, 1);
    assert_eq!(cache.entries, 1);
    ctl.shutdown();
}

#[test]
fn v2_client_gets_v2_reply_bytes() {
    let config = DiffusionConfig::default();
    let eco = bench(150, 97);
    let ctl = CtlServer::start(one_tenant_cfg()).expect("ctl starts");

    // Hand-rolled v2 client: a v2-stamped Request frame on a raw
    // socket.
    let mut stream = TcpStream::connect(ctl.local_addr()).expect("connect");
    let req = full_request(&eco, 77, JobKind::Local, &config);
    let payload = encode_request(&req, PayloadEncoding::Binary);
    write_frame_versioned(&mut stream, 2, FrameKind::Request, &payload).expect("send v2");

    // Read the raw reply: header first, then payload.
    let mut header = [0u8; 11];
    stream.read_exact(&mut header).expect("reply header");
    assert_eq!(&header[..4], b"DPMS");
    assert_eq!(
        u16::from_le_bytes([header[4], header[5]]),
        2,
        "a v3 control plane must echo the request's v2 on the reply header"
    );
    assert_eq!(header[6], 2, "frame kind byte for Response");
    let len = u32::from_le_bytes([header[7], header[8], header[9], header[10]]) as usize;
    let mut reply_payload = vec![0u8; len];
    stream
        .read_exact(&mut reply_payload)
        .expect("reply payload");

    // Byte-for-byte: the whole reply equals a v2-stamped re-encoding of
    // its own decode, so nothing in the frame changed shape under v3.
    let resp = dpm_serve::wire::decode_response(&reply_payload).expect("decode");
    assert_eq!(resp.id, 77);
    let mut expected = Vec::new();
    write_frame_versioned(
        &mut expected,
        2,
        FrameKind::Response,
        &encode_response(&resp),
    )
    .expect("re-encode");
    let mut actual = header.to_vec();
    actual.extend_from_slice(&reply_payload);
    assert_eq!(actual, expected, "v2 reply must round-trip byte for byte");
    ctl.shutdown();
}

#[test]
fn sharded_ctl_survives_dead_backend_via_registry_spare() {
    let config = DiffusionConfig::default();
    let eco = {
        let mut b = bench(200, 101);
        b.apply_eco(&EcoSpec::default(), 3);
        b
    };
    let req = full_request(&eco, 5, JobKind::Local, &config);

    // Reference: the same sharded job on healthy in-process backends.
    let shard_cfg = ShardRouterConfig {
        shards: 2,
        ..ShardRouterConfig::default()
    };
    let reference = ShardRouter::in_process(shard_cfg.clone()).route(&req);
    assert!(reference.outcomes.iter().all(|o| o.error.is_none()));

    // Control plane: one primary is dead; the warm spare is a real
    // server. The registry's pre-job health probe must swap them.
    let spare = CtlServer::start(CtlConfig::default()).expect("spare starts");
    let spare_addr = spare.local_addr();
    let registry = BackendRegistry::new(
        vec![ShardBackend::InProcess, ShardBackend::Tcp(dead_addr())],
        vec![ShardBackend::Tcp(spare_addr)],
    );
    let ctl = CtlServer::start(CtlConfig {
        workers: 1,
        tenants: vec![TenantSpec::new("acme", 1, 64)],
        exec: ExecMode::Sharded {
            shards: shard_cfg.shards,
            max_halo_rounds: shard_cfg.max_halo_rounds,
            registry,
        },
        ..CtlConfig::default()
    })
    .expect("ctl starts");

    let mut client = ServeClient::connect(ctl.local_addr()).expect("connect");
    let reply = client
        .request(&req, PayloadEncoding::Binary)
        .expect("request");
    let Reply::Ok(resp) = reply else {
        panic!("sharded job with a dead backend must still succeed: {reply:?}");
    };
    assert_eq!(
        resp.positions, reference.response.positions,
        "failover must not change the placement: backends are bit-exact"
    );

    let snap = ctl
        .registry_snapshot()
        .expect("sharded mode has a registry");
    assert_eq!(snap.replacements, 1, "the dead primary was replaced once");
    assert_eq!(snap.primaries[1], ShardBackend::Tcp(spare_addr));
    assert!(snap.spares.is_empty(), "the spare was promoted");
    assert_eq!(ctl.metrics().replacements.get(), 1);
    ctl.shutdown();
    spare.shutdown();
}

#[test]
fn hundreds_of_idle_connections_do_not_starve_a_request() {
    let config = DiffusionConfig::default();
    let eco = bench(120, 111);
    let ctl = CtlServer::start(one_tenant_cfg()).expect("ctl starts");

    // Park idle connections; they cost the front-end a buffer each,
    // not a thread each.
    let idle: Vec<TcpStream> = (0..300)
        .map(|_| TcpStream::connect(ctl.local_addr()).expect("idle connect"))
        .collect();

    let mut client = ServeClient::connect(ctl.local_addr()).expect("connect");
    let reply = client
        .request(
            &full_request(&eco, 9, JobKind::Local, &config),
            PayloadEncoding::Binary,
        )
        .expect("request among idles");
    assert!(matches!(reply, Reply::Ok(_)), "{reply:?}");

    // The idle connections are still alive and serviceable afterwards.
    let mut last = idle.into_iter().next_back().expect("have one");
    last.set_nonblocking(false).expect("blocking");
    write_frame_versioned(&mut last, 3, FrameKind::StatsRequest, &[]).expect("stats on idle");
    let frame = dpm_serve::wire::read_frame(&mut last, 1 << 20)
        .expect("read stats")
        .expect("stats frame");
    assert_eq!(frame.kind, FrameKind::Stats);
    ctl.shutdown();
}

/// A full-stack volumetric request for `bench`.
fn vol_request(bench: &VolBenchmark, id: u64, config: DiffusionConfig) -> JobRequest {
    JobRequest {
        id,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Global,
        design: "ctl_e2e_vol".into(),
        config,
        netlist: bench.netlist.clone(),
        die: bench.die.clone(),
        placement: bench.placement.xy.clone(),
        vol: Some(VolRequestExt {
            nz: bench.layers() as u32,
            z0: 0,
            global_nz: bench.layers() as u32,
            exact_steps: None,
            z: bench.placement.z.clone(),
            field: None,
        }),
        trace: None,
    }
}

/// Runs a full-stack volumetric job through a control plane in `exec`
/// mode and checks the reply against a direct 3D engine run.
fn assert_volumetric_job_runs_in_process(exec: ExecMode) {
    let bench = VolCircuitSpec::with_size("ctl_e2e_vol", 3, 150, 17)
        .with_hotspot(1)
        .generate();
    let config = DiffusionConfig::default();
    let mut direct = bench.placement.clone();
    let result = VolumetricDiffusion::new(config.clone(), bench.layers()).run(
        &bench.netlist,
        &bench.die,
        &mut direct,
    );
    assert!(result.steps > 0, "workload must do real work");

    let ctl = CtlServer::start(CtlConfig {
        exec,
        ..one_tenant_cfg()
    })
    .expect("ctl starts");
    let req = vol_request(&bench, 9, config);
    let reply = ServeClient::connect(ctl.local_addr())
        .expect("connect")
        .request(&req, PayloadEncoding::Binary)
        .expect("request");
    ctl.shutdown();
    let Reply::Ok(resp) = reply else {
        panic!("volumetric job rejected: {reply:?}");
    };
    assert_eq!(resp.steps, result.steps as u64);
    assert_eq!(resp.positions, direct.xy.as_slice().to_vec());
    let ext = resp.vol.expect("the reply keeps the tier axis");
    assert_eq!(ext.z, direct.z);
    assert!(
        ext.field.is_none(),
        "field not shipped in, must not ship out"
    );
}

#[test]
fn in_process_ctl_runs_volumetric_jobs_on_the_3d_engine() {
    assert_volumetric_job_runs_in_process(ExecMode::InProcess);
}

#[test]
fn sharded_ctl_runs_volumetric_jobs_in_process() {
    // The planar shard router has no tier axis; a volumetric job must
    // not be flattened through it.
    assert_volumetric_job_runs_in_process(ExecMode::Sharded {
        shards: 2,
        max_halo_rounds: 4,
        registry: BackendRegistry::new(vec![ShardBackend::InProcess], vec![]),
    });
}

#[test]
fn routed_in_process_sub_jobs_bill_their_kernels_to_the_ctl() {
    // A registry of in-process backends makes the control plane run a
    // routed job's sub-jobs itself, so its stats carry their kernels:
    // a planar job through the shard router, a stack through the z-slab
    // router (FTCS-only, which the default config is).
    let mut planar = bench(160, 149);
    planar.inflate(&InflationSpec::centered(0.3, 0.25, 149));
    let stack = VolCircuitSpec::with_size("ctl_e2e_vol", 3, 150, 151)
        .with_hotspot(1)
        .generate();
    let config = DiffusionConfig::default();
    let in_process = || BackendRegistry::new(vec![ShardBackend::InProcess; 2], vec![]);
    let cases = [
        (
            ExecMode::Sharded {
                shards: 2,
                max_halo_rounds: 4,
                registry: in_process(),
            },
            full_request(&planar, 31, JobKind::Local, &config),
        ),
        (
            ExecMode::Volumetric {
                slabs: 2,
                registry: in_process(),
            },
            vol_request(&stack, 32, config.clone()),
        ),
    ];
    for (exec, req) in cases {
        let what = if req.vol.is_some() {
            "volumetric"
        } else {
            "sharded"
        };
        let ctl = CtlServer::start(CtlConfig {
            exec,
            ..one_tenant_cfg()
        })
        .expect("ctl starts");
        let mut client = ServeClient::connect(ctl.local_addr()).expect("connect");
        let reply = client
            .request(&req, PayloadEncoding::Binary)
            .expect("request");
        assert!(matches!(reply, Reply::Ok(_)), "{what}: {reply:?}");
        let stats = client.stats().expect("stats frame");
        ctl.shutdown();
        assert!(
            stats.kernels.velocity.calls > 0,
            "{what}: the in-process sub-jobs' kernels were not merged"
        );
    }
}

#[test]
fn ctl_and_server_run_one_executor() {
    // The same planar job run directly through `execute_job` and through
    // the server's in-process mode: bit-identical placement and
    // movement, global and local, traced and untraced.
    let mut b = bench(160, 113);
    b.inflate(&InflationSpec::centered(0.3, 0.25, 113));
    let config = DiffusionConfig::default();
    let ctl = CtlServer::start(one_tenant_cfg()).expect("ctl starts");
    for kind in [JobKind::Global, JobKind::Local] {
        let mut direct = b.placement.clone();
        let expect = execute_job(
            kind,
            &config,
            &b.netlist,
            &b.die,
            &mut direct,
            &|| false,
            &mut dpm_diffusion::NoopObserver,
        );
        let movement = MovementStats::between(&b.netlist, &b.placement, &direct);
        for traced in [false, true] {
            let mut client = ServeClient::connect(ctl.local_addr()).expect("connect");
            let mut req = full_request(&b, 21, kind, &config);
            if traced {
                client = client.with_tracing(0x0E7E_C070);
                client.begin_trace(&mut req).expect("tracing armed");
            }
            let (served, spans) = match client.request(&req, PayloadEncoding::Binary) {
                Ok(Reply::Ok(resp)) => (resp, client.take_trace_spans()),
                other => panic!("{kind:?} traced={traced} failed: {other:?}"),
            };
            let what = format!("{kind:?}, traced={traced}");
            assert_eq!(served.positions, direct.as_slice(), "{what}");
            assert_eq!(served.steps, expect.steps as u64, "{what}");
            assert_eq!(served.rounds, expect.rounds as u64, "{what}");
            assert_eq!(
                served.total_movement.to_bits(),
                movement.total.to_bits(),
                "{what}"
            );
            assert_eq!(
                served.max_movement.to_bits(),
                movement.max.to_bits(),
                "{what}"
            );
            // One executor, one job span: traced runs export the
            // executor's `job.*` span with the kernel spans.
            let job_span = match kind {
                JobKind::Global => "job.global",
                JobKind::Local => "job.local",
            };
            let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
            let jobs = names.iter().filter(|&&n| n == job_span).count();
            assert_eq!(jobs, usize::from(traced), "{what}: {names:?}");
            assert_eq!(
                spans.iter().any(|s| s.name.starts_with("kernel.")),
                traced,
                "{what}: kernel spans iff traced"
            );
        }
    }
    ctl.shutdown();
}

#[test]
fn job_threads_are_clamped_to_the_host() {
    // A request may ask for more FTCS threads than the host has; the
    // server runs it on at most the host's parallelism (placements are
    // bit-identical at any count), and the stats say so.
    let mut b = bench(160, 139);
    b.inflate(&InflationSpec::centered(0.3, 0.25, 139));
    let config = DiffusionConfig {
        threads: 64,
        ..DiffusionConfig::default()
    };
    let ctl = CtlServer::start(one_tenant_cfg()).expect("ctl starts");
    let mut client = ServeClient::connect(ctl.local_addr()).expect("connect");
    let reply = client
        .request(
            &full_request(&b, 1, JobKind::Global, &config),
            PayloadEncoding::Binary,
        )
        .expect("request");
    assert!(matches!(reply, Reply::Ok(_)), "{reply:?}");
    let stats = client.stats().expect("stats frame");
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(stats.kernels.ftcs.calls > 0, "no FTCS kernel time merged");
    assert!(
        stats.kernels.ftcs.max_threads <= host,
        "FTCS ran on {} threads on a {host}-thread host",
        stats.kernels.ftcs.max_threads
    );
    ctl.shutdown();
}

#[test]
fn non_finite_request_is_rejected_and_the_worker_keeps_serving() {
    let config = DiffusionConfig::default();
    let b = bench(120, 127);
    let ctl = CtlServer::start(one_tenant_cfg()).expect("ctl starts");
    let mut stream = TcpStream::connect(ctl.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let mut send = |req: &JobRequest| {
        let payload = encode_request(req, PayloadEncoding::Binary);
        write_frame_versioned(&mut stream, 3, FrameKind::Request, &payload).expect("send");
        let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
            .expect("an answer before the timeout")
            .expect("connection open");
        Reply::from_frame(&frame).expect("decodes")
    };

    let mut poisoned = full_request(&b, 1, JobKind::Local, &config);
    let cell = b.netlist.movable_cell_ids().next().expect("a movable cell");
    poisoned
        .placement
        .set(cell, dpm_geom::Point::new(f64::NAN, 1.0));
    match send(&poisoned) {
        Reply::Rejected(e) => assert_eq!(e.code, ErrorCode::Malformed, "{}", e.message),
        Reply::Ok(_) => panic!("a NaN position must not migrate"),
    }
    assert_eq!(ctl.metrics().malformed.get(), 1, "counted as malformed");
    // The one worker is still alive and serves the next job.
    assert!(matches!(
        send(&full_request(&b, 2, JobKind::Local, &config)),
        Reply::Ok(resp) if resp.id == 2
    ));
    ctl.shutdown();
}

#[test]
fn legacy_extension_frames_are_malformed_and_the_connection_keeps_serving() {
    // Wire v3 extension bytes, written by the v3 encoder: a traced delta
    // request, a vol + exact-steps + trace request and both f32-field
    // requests. The v4 extension block reads their flags bytes as
    // unknown tags.
    let fixtures: [(FrameKind, &[u8]); 4] = [
        (
            FrameKind::DeltaRequest,
            include_bytes!("../../serve/tests/fixtures/wire/v3_delta_traced.bin"),
        ),
        (
            FrameKind::Request,
            include_bytes!("../../serve/tests/fixtures/wire/v3_request_vol_exact_trace.bin"),
        ),
        (
            FrameKind::Request,
            include_bytes!("../../serve/tests/fixtures/wire/v3_request_f32_planar.bin"),
        ),
        (
            FrameKind::Request,
            include_bytes!("../../serve/tests/fixtures/wire/v3_request_f32_stacked.bin"),
        ),
    ];
    let config = DiffusionConfig::default();
    let b = bench(120, 131);
    let ctl = CtlServer::start(one_tenant_cfg()).expect("ctl starts");
    let mut stream = TcpStream::connect(ctl.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let mut send = |kind: FrameKind, payload: &[u8]| {
        write_frame_versioned(&mut stream, 3, kind, payload).expect("send");
        let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
            .expect("an answer before the timeout")
            .expect("connection open");
        Reply::from_frame(&frame).expect("decodes")
    };
    for (id, (kind, payload)) in (1..).zip(fixtures) {
        match send(kind, payload) {
            Reply::Rejected(e) => assert_eq!(e.code, ErrorCode::Malformed, "{}", e.message),
            Reply::Ok(_) => panic!("{kind:?}: a v3 extension frame must not run"),
        }
        let plain = encode_request(
            &full_request(&b, id, JobKind::Global, &config),
            PayloadEncoding::Binary,
        );
        assert!(matches!(
            send(FrameKind::Request, &plain),
            Reply::Ok(resp) if resp.id == id
        ));
    }
    ctl.shutdown();
}
