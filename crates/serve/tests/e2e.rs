//! End-to-end tests: a real server on an ephemeral TCP port, real
//! clients, real diffusion jobs. The server is `dpm-ctl`'s `CtlServer`,
//! the one TCP front-end; these tests pin its single-tenant contract.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dpm_ctl::{CtlConfig, CtlServer, TenantSpec};
use dpm_diffusion::{DiffusionConfig, GlobalDiffusion, LocalDiffusion, SolverKind};
use dpm_gen::{Benchmark, CircuitSpec, InflationSpec};
use dpm_serve::wire::{
    read_frame, write_frame, ErrorCode, FrameKind, JobKind, JobRequest, PayloadEncoding, Reply,
    DEFAULT_MAX_FRAME_LEN, MAGIC, VERSION,
};
use dpm_serve::{ProgressUpdate, ServeClient};

/// A small inflated benchmark: overlapping, so diffusion has real work.
fn bench(seed: u64) -> Benchmark {
    let mut b = CircuitSpec::with_size("e2e", 300, seed).generate();
    b.inflate(&InflationSpec::distributed(0.15, seed ^ 0x9e37));
    b
}

/// A config whose stopping criterion is unreachable (d_max far below the
/// average movable density) but whose individual steps stay cheap — the
/// reliable way to have a job still running when a deadline fires,
/// without timing-sensitive sleeps in the engine.
fn unconverging_config() -> DiffusionConfig {
    DiffusionConfig {
        d_max: 0.01,
        max_steps: 50_000_000,
        ..DiffusionConfig::default()
    }
}

fn request(id: u64, kind: JobKind, config: DiffusionConfig, deadline_ms: u32) -> JobRequest {
    let b = bench(0xB0B + id);
    JobRequest {
        id,
        deadline_ms,
        progress_stride: 0,
        kind,
        design: format!("e2e_{id}"),
        config,
        netlist: b.netlist,
        die: b.die,
        placement: b.placement,
        vol: None,
        trace: None,
    }
}

/// A request guaranteed to run a non-trivial number of diffusion steps
/// and still converge quickly: a centered pile of inflated cells plus a
/// density target below the pile's peak.
fn busy_request(id: u64, kind: JobKind) -> JobRequest {
    let seed = 0xB0B + id;
    let mut b = CircuitSpec::with_size("e2e", 300, seed).generate();
    b.inflate(&InflationSpec::centered(0.3, 0.25, seed ^ 0x9e37));
    JobRequest {
        id,
        deadline_ms: 0,
        progress_stride: 0,
        kind,
        design: format!("busy_{id}"),
        config: DiffusionConfig {
            d_max: 0.8,
            ..DiffusionConfig::default()
        },
        netlist: b.netlist,
        die: b.die,
        placement: b.placement,
        vol: None,
        trace: None,
    }
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn send(addr: SocketAddr, req: &JobRequest, encoding: PayloadEncoding) -> Reply {
    let mut client = ServeClient::connect(addr).expect("connects");
    client.request(req, encoding).expect("transport ok")
}

#[test]
fn tcp_round_trip_is_bit_identical_to_direct_call() {
    let server = CtlServer::start(CtlConfig::default()).expect("binds");
    let addr = server.local_addr();

    for (id, kind) in [(1u64, JobKind::Local), (2, JobKind::Global)] {
        let req = request(id, kind, DiffusionConfig::default(), 0);

        // The ground truth: run the engine in-process on a copy.
        let mut direct = req.placement.clone();
        let expect = match kind {
            JobKind::Global => {
                GlobalDiffusion::new(req.config.clone()).run(&req.netlist, &req.die, &mut direct)
            }
            JobKind::Local => {
                LocalDiffusion::new(req.config.clone()).run(&req.netlist, &req.die, &mut direct)
            }
        };

        for encoding in [PayloadEncoding::Binary, PayloadEncoding::Bookshelf] {
            let reply = send(addr, &req, encoding);
            let resp = match reply {
                Reply::Ok(resp) => resp,
                Reply::Rejected(e) => panic!("rejected: {} ({})", e.message, e.code.as_str()),
            };
            assert_eq!(resp.id, id);
            assert_eq!(resp.steps, expect.steps as u64);
            assert_eq!(resp.rounds, expect.rounds as u64);
            assert_eq!(resp.converged, expect.converged);
            assert_eq!(resp.positions.len(), req.netlist.num_cells());
            for (got, want) in resp.positions.iter().zip(direct.as_slice()) {
                assert_eq!(got.x.to_bits(), want.x.to_bits(), "{encoding:?} x drifted");
                assert_eq!(got.y.to_bits(), want.y.to_bits(), "{encoding:?} y drifted");
            }
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.served, 4);
    assert_eq!(stats.received, 4);
}

#[test]
fn queue_full_requests_are_rejected_with_overloaded() {
    let cfg = CtlConfig {
        tenants: vec![TenantSpec::new("default", 1, 1)],
        workers: 1,
        ..CtlConfig::default()
    };
    let server = CtlServer::start(cfg).expect("binds");
    let addr = server.local_addr();

    // Job 1 occupies the single worker for its whole 1200 ms deadline.
    let c1 = std::thread::spawn(move || {
        send(
            addr,
            &request(1, JobKind::Global, unconverging_config(), 1200),
            PayloadEncoding::Binary,
        )
    });
    wait_until("worker busy", || server.metrics().started.get() >= 1);

    // Job 2 fills the single queue slot.
    let c2 = std::thread::spawn(move || {
        send(
            addr,
            &request(2, JobKind::Global, unconverging_config(), 1200),
            PayloadEncoding::Binary,
        )
    });
    wait_until("queue full", || server.metrics().admitted.get() >= 2);

    // Job 3 must be rejected immediately — no waiting out the deadline.
    let t0 = Instant::now();
    let reply = send(
        addr,
        &request(3, JobKind::Local, DiffusionConfig::default(), 0),
        PayloadEncoding::Binary,
    );
    let rejected_in = t0.elapsed();
    match reply {
        Reply::Rejected(e) => {
            assert_eq!(e.code, ErrorCode::Overloaded);
            assert_eq!(e.id, 3);
        }
        Reply::Ok(_) => panic!("overloaded server accepted a third job"),
    }
    assert!(
        rejected_in < Duration::from_millis(500),
        "backpressure reply took {rejected_in:?}"
    );

    // The two slow jobs expire (mid-run or in queue) rather than hang.
    for c in [c1, c2] {
        match c.join().expect("client thread ok") {
            Reply::Rejected(e) => assert_eq!(e.code, ErrorCode::DeadlineExpired),
            Reply::Ok(r) => panic!("unconverging job claimed convergence: {r:?}"),
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.overloaded, 1);
    assert_eq!(stats.deadline_expired, 2);
    assert_eq!(stats.served, 0);
}

#[test]
fn deadline_expiry_mid_diffusion_reports_partial_progress() {
    let server = CtlServer::start(CtlConfig::default()).expect("binds");
    let addr = server.local_addr();

    let t0 = Instant::now();
    let reply = send(
        addr,
        &request(7, JobKind::Global, unconverging_config(), 200),
        PayloadEncoding::Binary,
    );
    let elapsed = t0.elapsed();

    match reply {
        Reply::Rejected(e) => {
            assert_eq!(e.code, ErrorCode::DeadlineExpired);
            assert_eq!(e.id, 7);
            // The job was genuinely cancelled mid-diffusion: it made real
            // progress first (steps are cheap, 200 ms fits thousands).
            assert!(e.steps >= 1, "no partial progress reported");
            assert!(!e.message.is_empty());
        }
        Reply::Ok(r) => panic!("unconverging job finished: {r:?}"),
    }
    // The deadline actually bounded the wall time (generous upper margin
    // for a loaded CI machine).
    assert!(elapsed >= Duration::from_millis(200));
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline ignored: {elapsed:?}"
    );

    let stats = server.shutdown();
    assert_eq!(stats.deadline_expired, 1);
}

#[test]
fn graceful_shutdown_drains_admitted_jobs() {
    let cfg = CtlConfig {
        tenants: vec![TenantSpec::new("default", 1, 4)],
        workers: 1,
        ..CtlConfig::default()
    };
    let server = CtlServer::start(cfg).expect("binds");
    let addr = server.local_addr();

    // Job 1 keeps the worker busy until its 400 ms deadline.
    let c1 = std::thread::spawn(move || {
        send(
            addr,
            &request(1, JobKind::Global, unconverging_config(), 400),
            PayloadEncoding::Binary,
        )
    });
    wait_until("worker busy", || server.metrics().started.get() >= 1);

    // Job 2 is admitted but still queued when shutdown begins.
    let req2 = request(2, JobKind::Local, DiffusionConfig::default(), 0);
    let mut direct2 = req2.placement.clone();
    LocalDiffusion::new(req2.config.clone()).run(&req2.netlist, &req2.die, &mut direct2);
    let c2 = std::thread::spawn(move || send(addr, &req2, PayloadEncoding::Binary));
    wait_until("second job admitted", || {
        server.metrics().admitted.get() >= 2
    });

    // Shutdown must drain both: finish job 1 (expiring), then run job 2
    // from the closed queue to completion.
    let stats = server.shutdown();

    match c1.join().expect("client 1 ok") {
        Reply::Rejected(e) => assert_eq!(e.code, ErrorCode::DeadlineExpired),
        Reply::Ok(r) => panic!("unconverging job finished: {r:?}"),
    }
    match c2.join().expect("client 2 ok") {
        Reply::Ok(resp) => {
            assert_eq!(resp.id, 2);
            for (got, want) in resp.positions.iter().zip(direct2.as_slice()) {
                assert_eq!(got.x.to_bits(), want.x.to_bits());
                assert_eq!(got.y.to_bits(), want.y.to_bits());
            }
        }
        Reply::Rejected(e) => panic!("drained job rejected: {} ({})", e.message, e.code.as_str()),
    }

    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.served, 1);
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.rejected_shutdown, 0);
}

#[test]
fn invalid_config_is_rejected_with_a_typed_error() {
    let server = CtlServer::start(CtlConfig::default()).expect("binds");
    let addr = server.local_addr();

    let bad = DiffusionConfig {
        bin_size: -4.0,
        ..DiffusionConfig::default()
    };
    let reply = send(
        addr,
        &request(11, JobKind::Local, bad, 0),
        PayloadEncoding::Binary,
    );
    match reply {
        Reply::Rejected(e) => {
            assert_eq!(e.code, ErrorCode::InvalidConfig);
            assert_eq!(e.id, 11);
            assert!(
                e.message.contains("bin_size"),
                "unhelpful message: {}",
                e.message
            );
        }
        Reply::Ok(_) => panic!("negative bin size accepted"),
    }

    let nan = DiffusionConfig {
        d_max: f64::NAN,
        ..DiffusionConfig::default()
    };
    let reply = send(
        addr,
        &request(12, JobKind::Global, nan, 0),
        PayloadEncoding::Binary,
    );
    assert!(matches!(reply, Reply::Rejected(e) if e.code == ErrorCode::InvalidConfig));

    let stats = server.shutdown();
    assert_eq!(stats.invalid_config, 2);
    assert_eq!(stats.served, 0);
}

#[test]
fn nonsensical_spectral_config_is_rejected_with_a_typed_error() {
    let server = CtlServer::start(CtlConfig::default()).expect("binds");
    let addr = server.local_addr();

    // A spectral run with a zero step budget can never advance time: the
    // server must answer with an InvalidConfig error frame, not run it.
    let bad = DiffusionConfig {
        max_steps: 0,
        ..DiffusionConfig::default()
    }
    .with_solver(SolverKind::Spectral);
    let reply = send(
        addr,
        &request(21, JobKind::Global, bad, 0),
        PayloadEncoding::Binary,
    );
    match reply {
        Reply::Rejected(e) => {
            assert_eq!(e.code, ErrorCode::InvalidConfig);
            assert_eq!(e.id, 21);
            assert!(
                e.message.contains("spectral"),
                "unhelpful message: {}",
                e.message
            );
        }
        Reply::Ok(_) => panic!("zero-budget spectral config accepted"),
    }

    // Spectral + paper mirror boundaries is also rejected: the DCT basis
    // encodes the engine's conservative boundary, not the paper's.
    let mirror = DiffusionConfig {
        paper_boundaries: true,
        ..DiffusionConfig::default()
    }
    .with_solver(SolverKind::Spectral);
    let reply = send(
        addr,
        &request(22, JobKind::Global, mirror, 0),
        PayloadEncoding::Binary,
    );
    assert!(matches!(reply, Reply::Rejected(e) if e.code == ErrorCode::InvalidConfig));

    let stats = server.shutdown();
    assert_eq!(stats.invalid_config, 2);
    assert_eq!(stats.served, 0);
}

#[test]
fn spectral_request_over_tcp_matches_direct_spectral_run() {
    // The solver choice must survive the wire: a spectral request run
    // through the server lands bit-identically with an in-process
    // spectral run, and differs from the FTCS answer for the same design.
    let server = CtlServer::start(CtlConfig::default()).expect("binds");
    let addr = server.local_addr();

    let mut req = busy_request(31, JobKind::Global);
    req.config = req.config.with_solver(SolverKind::Spectral);
    let mut direct = req.placement.clone();
    GlobalDiffusion::new(req.config.clone()).run(&req.netlist, &req.die, &mut direct);

    let mut ftcs = req.placement.clone();
    GlobalDiffusion::new(req.config.clone().with_solver(SolverKind::Ftcs)).run(
        &req.netlist,
        &req.die,
        &mut ftcs,
    );

    let reply = send(addr, &req, PayloadEncoding::Binary);
    let resp = match reply {
        Reply::Ok(resp) => resp,
        Reply::Rejected(e) => panic!("rejected: {} ({})", e.message, e.code.as_str()),
    };
    assert_eq!(resp.id, 31);
    let mut any_differs_from_ftcs = false;
    for (got, (want, f)) in resp
        .positions
        .iter()
        .zip(direct.as_slice().iter().zip(ftcs.as_slice()))
    {
        assert_eq!(got.x.to_bits(), want.x.to_bits());
        assert_eq!(got.y.to_bits(), want.y.to_bits());
        any_differs_from_ftcs |= got.x.to_bits() != f.x.to_bits();
    }
    assert!(
        any_differs_from_ftcs,
        "spectral e2e result is identical to FTCS — solver byte likely dropped on the wire"
    );
    server.shutdown();
}

#[test]
fn malformed_payloads_get_error_replies_not_crashes() {
    let server = CtlServer::start(CtlConfig::default()).expect("binds");
    let addr = server.local_addr();

    // Garbage payload inside a well-formed frame: the server answers with
    // a malformed-error frame and keeps the connection usable.
    {
        let mut stream = TcpStream::connect(addr).expect("connects");
        write_frame(&mut stream, FrameKind::Request, &[0xAB; 37]).expect("writes");
        let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
            .expect("reads")
            .expect("reply present");
        match Reply::from_frame(&frame).expect("decodes") {
            Reply::Rejected(e) => {
                assert_eq!(e.code, ErrorCode::Malformed);
                assert_eq!(e.id, 0, "undecodable request cannot echo an id");
            }
            Reply::Ok(_) => panic!("garbage decoded to a response"),
        }

        // Same connection, now a real request: still served.
        let req = request(21, JobKind::Local, DiffusionConfig::default(), 0);
        let payload = dpm_serve::wire::encode_request(&req, PayloadEncoding::Binary);
        write_frame(&mut stream, FrameKind::Request, &payload).expect("writes");
        let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
            .expect("reads")
            .expect("reply present");
        assert!(matches!(
            Reply::from_frame(&frame).expect("decodes"),
            Reply::Ok(resp) if resp.id == 21
        ));
    }

    // Corrupt framing (bad magic): one error reply, then the server drops
    // the connection since the stream position is unrecoverable.
    {
        use std::io::Write as _;
        let mut stream = TcpStream::connect(addr).expect("connects");
        let mut header = Vec::new();
        header.extend_from_slice(b"XXXX");
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.push(1);
        header.extend_from_slice(&0u32.to_le_bytes());
        stream.write_all(&header).expect("writes");
        let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
            .expect("reads")
            .expect("reply present");
        assert!(matches!(
            Reply::from_frame(&frame).expect("decodes"),
            Reply::Rejected(e) if e.code == ErrorCode::Malformed
        ));
        assert!(
            read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
                .expect("clean close")
                .is_none(),
            "server kept a corrupt connection open"
        );
    }

    // A response frame sent to the server is also malformed traffic.
    {
        let mut stream = TcpStream::connect(addr).expect("connects");
        write_frame(&mut stream, FrameKind::Error, &[]).expect("writes");
        let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
            .expect("reads")
            .expect("reply present");
        assert!(matches!(
            Reply::from_frame(&frame).expect("decodes"),
            Reply::Rejected(e) if e.code == ErrorCode::Malformed
        ));
    }

    let stats = server.shutdown();
    assert_eq!(stats.malformed, 3);
    assert_eq!(stats.served, 1);
    // Sanity: magic constant is what the docs promise.
    assert_eq!(&MAGIC, b"DPMS");
}

#[test]
fn request_log_captures_every_outcome_as_jsonl() {
    let dir = std::env::temp_dir().join("dpm_serve_e2e_log");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("requests_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let cfg = CtlConfig {
        log_path: Some(path.clone()),
        ..CtlConfig::default()
    };
    let server = CtlServer::start(cfg).expect("binds");
    let addr = server.local_addr();

    let ok = send(
        addr,
        &request(31, JobKind::Local, DiffusionConfig::default(), 0),
        PayloadEncoding::Binary,
    );
    assert!(matches!(ok, Reply::Ok(_)));
    let bad = DiffusionConfig {
        n_u: 0,
        ..DiffusionConfig::default()
    };
    let rejected = send(
        addr,
        &request(32, JobKind::Local, bad, 0),
        PayloadEncoding::Binary,
    );
    assert!(matches!(rejected, Reply::Rejected(_)));

    server.shutdown();

    let text = std::fs::read_to_string(&path).expect("log readable");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "one JSONL line per request: {text}");
    let ok_line = lines
        .iter()
        .find(|l| l.contains("\"id\":31"))
        .expect("ok line");
    assert!(ok_line.contains("\"outcome\":\"ok\""));
    assert!(ok_line.contains("\"kind\":\"local\""));
    assert!(ok_line.contains("\"design\":\"e2e_31\""));
    assert!(ok_line.contains("\"cells\":") && !ok_line.contains("\"cells\":0,"));
    assert!(ok_line.contains("\"service_ns\":"));
    let bad_line = lines
        .iter()
        .find(|l| l.contains("\"id\":32"))
        .expect("bad line");
    assert!(bad_line.contains("\"outcome\":\"invalid_config\""));
    for l in &lines {
        assert!(l.starts_with('{') && l.ends_with('}'));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn progress_frames_stream_while_the_job_runs() {
    let server = CtlServer::start(CtlConfig::default()).expect("binds");
    let addr = server.local_addr();

    // Ground truth: the same request without streaming.
    let mut plain = busy_request(41, JobKind::Global);
    let baseline = send(addr, &plain, PayloadEncoding::Binary);
    let baseline = match baseline {
        Reply::Ok(resp) => resp,
        Reply::Rejected(e) => panic!("baseline rejected: {}", e.message),
    };

    // Streamed run: a progress frame after every diffusion step.
    plain.progress_stride = 1;
    let mut client = ServeClient::connect(addr).expect("connects");
    let mut updates: Vec<ProgressUpdate> = Vec::new();
    let reply = client
        .request_streaming(&plain, PayloadEncoding::Binary, |p| updates.push(*p))
        .expect("transport ok");
    let resp = match reply {
        Reply::Ok(resp) => resp,
        Reply::Rejected(e) => panic!("streamed run rejected: {}", e.message),
    };

    // At least one in-flight progress frame arrived before the terminal
    // response, and the stream covered every step.
    assert!(
        !updates.is_empty(),
        "no progress frames before the response"
    );
    assert_eq!(updates.len() as u64, resp.steps);
    for (i, p) in updates.iter().enumerate() {
        assert_eq!(p.id, 41);
        assert_eq!(p.step, i as u64 + 1, "steps arrive in order");
        assert!(p.max_density.is_finite());
        assert!(p.movement >= 0.0);
    }
    // FTCS diffusion obeys a maximum principle: the peak computed
    // density never increases step over step.
    for w in updates.windows(2) {
        assert!(
            w[1].max_density <= w[0].max_density + 1e-12,
            "max density rose: {} -> {}",
            w[0].max_density,
            w[1].max_density
        );
    }
    // Cumulative movement is non-decreasing.
    for w in updates.windows(2) {
        assert!(w[1].movement >= w[0].movement - 1e-12);
    }

    // Observation changed nothing: bit-identical to the unstreamed run.
    assert_eq!(resp.steps, baseline.steps);
    assert_eq!(resp.converged, baseline.converged);
    for (got, want) in resp.positions.iter().zip(baseline.positions.iter()) {
        assert_eq!(got.x.to_bits(), want.x.to_bits(), "streaming moved a cell");
        assert_eq!(got.y.to_bits(), want.y.to_bits(), "streaming moved a cell");
    }

    let stats = server.shutdown();
    assert_eq!(stats.served, 2);
    assert_eq!(stats.progress_frames, resp.steps);
}

#[test]
fn stats_snapshot_matches_the_submitted_jobs() {
    let server = CtlServer::start(CtlConfig::default()).expect("binds");
    let addr = server.local_addr();

    for id in 1..=3u64 {
        let reply = send(
            addr,
            &busy_request(id, JobKind::Local),
            PayloadEncoding::Binary,
        );
        assert!(matches!(reply, Reply::Ok(_)));
    }
    let bad = DiffusionConfig {
        bin_size: -1.0,
        ..DiffusionConfig::default()
    };
    let reply = send(
        addr,
        &request(4, JobKind::Local, bad, 0),
        PayloadEncoding::Binary,
    );
    assert!(matches!(reply, Reply::Rejected(_)));

    let mut client = ServeClient::connect(addr).expect("connects");
    let stats = client.stats().expect("stats frame");
    assert_eq!(stats.received, 4);
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.served, 3);
    assert_eq!(stats.invalid_config, 1);
    assert_eq!(stats.queue_depth, 0);
    // One latency sample per run in every histogram.
    assert_eq!(stats.queue_hist.count, 3);
    assert_eq!(stats.service_hist.count, 3);
    assert_eq!(stats.e2e_hist.count, 3);
    // End-to-end covers queue + service, so its mean cannot be smaller.
    assert!(stats.e2e_hist.sum >= stats.service_hist.sum);
    assert!(stats.e2e_hist.percentile(0.5) > 0);
    // Kernel timings were merged from the three completed runs.
    assert!(stats.kernels.ftcs.calls > 0, "no FTCS kernel time recorded");
    assert!(stats.kernels.velocity.calls > 0);

    // The in-process views agree with the wire snapshot.
    assert_eq!(server.metrics().served.get(), 3);
    let text = server.metrics().registry().snapshot().to_text();
    assert!(text.contains("jobs_served_total 3"), "exposition: {text}");
    assert!(text.contains("requests_received_total 4"));
    assert!(!server.spans().is_empty(), "no job spans recorded");

    server.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_submission_order() {
    let server = CtlServer::start(CtlConfig::default()).expect("binds");
    let addr = server.local_addr();

    // A long streamed job, then a short one: with two workers the short
    // one finishes first, and must still be answered second. The long
    // job's progress frames share the connection with both replies.
    let reqs: Vec<JobRequest> = [(1u64, 4_000, 1), (2, 60, 0)]
        .into_iter()
        .map(|(id, cells, progress_stride)| {
            let mut b = CircuitSpec::with_size("e2e", cells, 0xB0B + id).generate();
            b.inflate(&InflationSpec::centered(0.3, 0.25, id));
            JobRequest {
                progress_stride,
                netlist: b.netlist,
                die: b.die,
                placement: b.placement,
                ..request(id, JobKind::Local, DiffusionConfig::default(), 0)
            }
        })
        .collect();
    let mut client = ServeClient::connect(addr).expect("connects");
    for req in &reqs {
        client
            .send_request(req, PayloadEncoding::Binary)
            .expect("send ok");
    }
    let mut frames = 0u64;
    for req in &reqs {
        match client.recv_reply_with(|_| frames += 1).expect("recv ok") {
            Reply::Ok(resp) => assert_eq!(resp.id, req.id, "replies out of order"),
            Reply::Rejected(e) => panic!("pipelined job rejected: {}", e.message),
        }
    }
    assert!(frames > 0, "the streamed job sent no progress frames");

    let stats = server.shutdown();
    assert_eq!(stats.served, 2);
    assert_eq!(
        stats.progress_frames, frames,
        "the server sent a different number of progress frames than the client saw"
    );
}

#[test]
fn clients_unaware_of_progress_frames_still_get_their_reply() {
    let server = CtlServer::start(CtlConfig::default()).expect("binds");
    let addr = server.local_addr();

    // A "legacy" reader: consumes frames manually and only understands
    // terminal reply kinds, skipping anything else — the documented
    // upgrade path for old clients.
    let mut streamed = busy_request(51, JobKind::Global);
    streamed.progress_stride = 4;

    let mut stream = TcpStream::connect(addr).expect("connects");
    let payload = dpm_serve::wire::encode_request(&streamed, PayloadEncoding::Binary);
    write_frame(&mut stream, FrameKind::Request, &payload).expect("writes");
    let mut skipped = 0u64;
    let resp = loop {
        let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
            .expect("reads")
            .expect("frame present");
        match frame.kind {
            FrameKind::Response | FrameKind::Error => {
                break Reply::from_frame(&frame).expect("decodes")
            }
            _ => skipped += 1,
        }
    };
    assert!(skipped >= 1, "expected in-flight frames to skip");
    assert!(matches!(resp, Reply::Ok(resp) if resp.id == 51));

    server.shutdown();
}

#[test]
fn a_client_that_half_closes_still_gets_its_reply() {
    let server = CtlServer::start(CtlConfig::default()).expect("binds");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
    let req = request(61, JobKind::Local, DiffusionConfig::default(), 0);
    let payload = dpm_serve::wire::encode_request(&req, PayloadEncoding::Binary);
    write_frame(&mut stream, FrameKind::Request, &payload).expect("writes");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
        .expect("reads")
        .expect("reply present");
    assert!(matches!(
        Reply::from_frame(&frame).expect("decodes"),
        Reply::Ok(resp) if resp.id == 61
    ));
    assert!(
        read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
            .expect("clean close")
            .is_none(),
        "the server closes once the reply is out"
    );
    server.shutdown();
}
