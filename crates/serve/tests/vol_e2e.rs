//! End-to-end tests for the volumetric z-slab routing path: K = 1 and
//! K = 2 bit-identicality with the direct 3D engine (in-process and
//! through the wire), the maximum principle across stitched rounds,
//! awkward partitions (halos thicker than a slab, K not dividing the
//! stack, one slab per tier), through-stack macros, warm-spare
//! failover, the router's exactness refusals, and progress frames
//! streamed by a direct volumetric job.

use dpm_ctl::{CtlConfig, CtlServer};
use dpm_diffusion::{DiffusionConfig, SolverKind, VolPlacement, VolumetricDiffusion};
use dpm_gen::{VolBenchmark, VolCircuitSpec};
use dpm_serve::shard::{ShardBackend, ShardFailover};
use dpm_serve::wire::{JobKind, JobRequest, PayloadEncoding, Reply, VolRequestExt};
use dpm_serve::zslab::{VolRouteError, VolRouter, VolRouterConfig};
use dpm_serve::ServeClient;

/// A 3-tier stack with an overfull middle tier — the canonical 3D-IC
/// migration workload.
fn hot_stack(seed: u64) -> VolBenchmark {
    VolCircuitSpec::with_size("vol_e2e", 3, 150, seed)
        .with_hotspot(1)
        .generate()
}

fn request(bench: &VolBenchmark, id: u64) -> JobRequest {
    JobRequest {
        id,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Global,
        design: format!("vol_e2e_{id}"),
        config: DiffusionConfig::default(),
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

/// Runs the same workload directly through [`VolumetricDiffusion`],
/// returning the final volumetric placement and step count.
fn direct_run(bench: &VolBenchmark) -> (VolPlacement, u64) {
    let mut vp = bench.placement.clone();
    let r = VolumetricDiffusion::new(DiffusionConfig::default(), bench.layers()).run(
        &bench.netlist,
        &bench.die,
        &mut vp,
    );
    assert!(
        r.converged,
        "direct run did not converge in {} steps",
        r.steps
    );
    assert!(r.steps > 0, "workload must do real work");
    (vp, r.steps as u64)
}

fn assert_monotone(trace: &[f64]) {
    assert!(trace.len() >= 2, "at least one round: {trace:?}");
    for w in trace.windows(2) {
        assert!(
            w[1] <= w[0],
            "max density rose across a stitched round: {trace:?}"
        );
    }
}

#[test]
fn k1_in_process_is_bit_identical_to_direct_volumetric_run() {
    let bench = hot_stack(71);
    let (direct, steps) = direct_run(&bench);

    let router = VolRouter::in_process(VolRouterConfig { slabs: 1 });
    let reply = router.route(&request(&bench, 1)).expect("routes");

    assert_eq!(reply.slabs, 1);
    assert_eq!(reply.rounds as u64, steps);
    assert!(reply.response.converged);
    assert_eq!(
        reply.response.positions,
        direct.xy.as_slice().to_vec(),
        "K=1 routed stack must reproduce the direct engine bit-for-bit"
    );
    let ext = reply.response.vol.as_ref().expect("volumetric reply");
    assert_eq!(ext.z, direct.z, "depths must be bit-identical too");
    assert_monotone(&reply.max_density_trace);
    // In-process slabs merge their kernel timers into the reply.
    assert!(reply.kernels.ftcs.calls > 0);
}

#[test]
fn k2_in_process_is_bit_identical_to_k1() {
    let bench = hot_stack(73);
    let k1 = VolRouter::in_process(VolRouterConfig { slabs: 1 })
        .route(&request(&bench, 2))
        .expect("K=1 routes");

    let k2 = VolRouter::in_process(VolRouterConfig { slabs: 2 })
        .route(&request(&bench, 2))
        .expect("K=2 routes");

    assert_eq!(k2.slabs, 2);
    assert_eq!(k1.rounds, k2.rounds);
    assert_eq!(
        k1.response.positions, k2.response.positions,
        "slab count must not perturb a single bit of the placement"
    );
    assert_eq!(
        k1.response.vol.as_ref().expect("vol").z,
        k2.response.vol.as_ref().expect("vol").z
    );
    assert_eq!(
        k1.response.vol.as_ref().expect("vol").field,
        k2.response.vol.as_ref().expect("vol").field,
        "the stitched density field must match the K=1 field exactly"
    );
    assert_monotone(&k2.max_density_trace);
    assert_eq!(k1.max_density_trace, k2.max_density_trace);
}

#[test]
fn k2_over_tcp_is_bit_identical_to_k1_and_preserves_the_maximum_principle() {
    let bench = hot_stack(79);
    let req = request(&bench, 3);

    let k1 = VolRouter::in_process(VolRouterConfig { slabs: 1 })
        .route(&req)
        .expect("K=1 routes");

    let server_a = CtlServer::start(CtlConfig::default()).expect("server a");
    let server_b = CtlServer::start(CtlConfig::default()).expect("server b");
    let router = VolRouter::new(
        VolRouterConfig { slabs: 2 },
        vec![
            ShardBackend::Tcp(server_a.local_addr()),
            ShardBackend::Tcp(server_b.local_addr()),
        ],
    );
    let reply = router.route(&req).expect("K=2 routes over TCP");
    server_a.shutdown();
    server_b.shutdown();

    assert_eq!(reply.slabs, 2);
    assert!(reply.response.converged);
    assert_eq!(
        reply.response.positions, k1.response.positions,
        "f64s travel as bit patterns, so TCP slabs must match K=1 exactly"
    );
    assert_eq!(
        reply.response.vol.as_ref().expect("vol").z,
        k1.response.vol.as_ref().expect("vol").z
    );
    assert_eq!(
        reply.response.vol.as_ref().expect("vol").field,
        k1.response.vol.as_ref().expect("vol").field
    );
    assert_monotone(&reply.max_density_trace);
}

#[test]
fn awkward_partitions_stay_exact() {
    // Three tiers, two slabs: K does not divide the stack (slabs own 2
    // and 1 tiers) and the 2-tier halo is thicker than the thin slab.
    // Requesting more slabs than tiers clamps to one slab per tier.
    let bench = hot_stack(83);
    let req = request(&bench, 4);
    let k1 = VolRouter::in_process(VolRouterConfig { slabs: 1 })
        .route(&req)
        .expect("K=1 routes");

    for slabs in [2usize, 3, 5] {
        let reply = VolRouter::in_process(VolRouterConfig { slabs })
            .route(&req)
            .expect("routes");
        assert_eq!(reply.slabs, slabs.min(bench.layers()));
        assert_eq!(
            reply.response.positions, k1.response.positions,
            "K={slabs} placement diverged from K=1"
        );
        assert_eq!(
            reply.response.vol.as_ref().expect("vol").field,
            k1.response.vol.as_ref().expect("vol").field,
            "K={slabs} field diverged from K=1"
        );
    }
}

#[test]
fn through_stack_macros_wall_every_slab_identically() {
    let bench = VolCircuitSpec::with_size("vol_e2e_macro", 3, 150, 89)
        .with_macros(2)
        .with_hotspot(1)
        .generate();
    let req = request(&bench, 5);
    let k1 = VolRouter::in_process(VolRouterConfig { slabs: 1 })
        .route(&req)
        .expect("K=1 routes");
    let k3 = VolRouter::in_process(VolRouterConfig { slabs: 3 })
        .route(&req)
        .expect("K=3 routes");

    assert_eq!(
        k1.response.positions, k3.response.positions,
        "macro walls must carve every slab the same way"
    );
    // Macros never move, whichever slab carried them.
    for m in bench.netlist.macro_ids() {
        assert_eq!(
            k3.response.positions[m.index()],
            bench.placement.xy.get(m),
            "macro {m} moved"
        );
    }
}

#[test]
fn router_refuses_what_it_cannot_run_exactly() {
    let bench = hot_stack(97);
    let router = VolRouter::in_process(VolRouterConfig::default());

    // Spectral stacks jump through time analytically and cannot honor
    // the one-step halo contract.
    let mut spectral = request(&bench, 6);
    spectral.config = spectral.config.with_solver(SolverKind::Spectral);
    assert_eq!(
        router.route(&spectral).unwrap_err(),
        VolRouteError::SpectralUnsupported
    );

    // Volumetric routing is global-diffusion only.
    let mut local = request(&bench, 7);
    local.kind = JobKind::Local;
    assert_eq!(router.route(&local).unwrap_err(), VolRouteError::NotGlobal);

    // A planar request belongs on the ShardRouter.
    let mut planar = request(&bench, 8);
    planar.vol = None;
    assert_eq!(
        router.route(&planar).unwrap_err(),
        VolRouteError::NotVolumetric
    );

    // The router owns splatting and round-chaining, so the extension
    // must be a self-contained full-stack job: no pre-splatted field,
    // no exact-step override, no sub-region.
    let mut pre_split = request(&bench, 9);
    if let Some(v) = pre_split.vol.as_mut() {
        v.exact_steps = Some(1);
    }
    assert!(matches!(
        router.route(&pre_split).unwrap_err(),
        VolRouteError::BadExtension(_)
    ));

    let mut short_z = request(&bench, 10);
    if let Some(v) = short_z.vol.as_mut() {
        v.z.pop();
    }
    assert!(matches!(
        router.route(&short_z).unwrap_err(),
        VolRouteError::BadExtension(_)
    ));
}

#[test]
fn one_slab_per_tier_is_bit_identical_to_k1() {
    // Slabs as thin as one tier are where a narrower halo loses reads:
    // every slab boundary is one tier from the next. The router always
    // ships two ghost tiers, so the stack must match K=1 exactly.
    for seed in [73u64, 79, 101] {
        let bench = hot_stack(seed);
        let req = request(&bench, seed);
        let k1 = VolRouter::in_process(VolRouterConfig { slabs: 1 })
            .route(&req)
            .expect("K=1 routes");
        let k3 = VolRouter::in_process(VolRouterConfig {
            slabs: bench.layers(),
        })
        .route(&req)
        .expect("one slab per tier routes");

        assert_eq!(k3.slabs, bench.layers());
        assert_eq!(k3.rounds, k1.rounds, "seed {seed}: round count diverged");
        assert_eq!(
            k3.response.positions, k1.response.positions,
            "seed {seed}: placement diverged from K=1"
        );
        let (e1, e3) = (k1.response.vol.expect("vol"), k3.response.vol.expect("vol"));
        assert_eq!(e3.z, e1.z, "seed {seed}: depths diverged from K=1");
        assert_eq!(e3.field, e1.field, "seed {seed}: field diverged from K=1");
        assert_eq!(k3.max_density_trace, k1.max_density_trace);
    }
}

#[test]
fn dead_slab_backend_fails_over_to_a_spare_bit_identically() {
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().expect("addr");
        drop(l);
        addr
    };
    let bench = hot_stack(109);
    let req = request(&bench, 14);
    let k1 = VolRouter::in_process(VolRouterConfig { slabs: 1 })
        .route(&req)
        .expect("K=1 routes");

    let router = VolRouter::with_spares(
        VolRouterConfig { slabs: 2 },
        vec![ShardBackend::InProcess, ShardBackend::Tcp(dead)],
        vec![ShardBackend::InProcess],
    );
    let reply = router.route(&req).expect("the spare takes over slab 1");

    assert_eq!(
        reply.failovers,
        vec![ShardFailover {
            shard: 1,
            from: ShardBackend::Tcp(dead),
            to: ShardBackend::InProcess,
        }],
        "one failover, in the first round, and the spare keeps the slab"
    );
    assert!(reply.response.converged);
    assert_eq!(
        reply.response.positions, k1.response.positions,
        "which backend ran a slab must not change a bit of the placement"
    );
    let (ek, e1) = (
        reply.response.vol.expect("vol"),
        k1.response.vol.expect("vol"),
    );
    assert_eq!(ek.z, e1.z);
    assert_eq!(ek.field, e1.field);
    assert_eq!(reply.max_density_trace, k1.max_density_trace);
}

#[test]
fn dead_slab_backend_fails_the_whole_job() {
    // Exact stitching is impossible without every region, so unlike the
    // planar ShardRouter there is no degraded partial result.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().expect("addr");
        drop(l);
        addr
    };
    let bench = hot_stack(101);
    let router = VolRouter::new(
        VolRouterConfig { slabs: 2 },
        vec![ShardBackend::InProcess, ShardBackend::Tcp(dead)],
    );
    match router.route(&request(&bench, 11)) {
        Err(VolRouteError::Backend { slab: 1, message }) => {
            assert!(message.contains("connect"), "unexpected error: {message}");
        }
        other => panic!("expected a backend failure, got {other:?}"),
    }
}

#[test]
fn volumetric_job_over_tcp_runs_directly_and_omits_the_field() {
    // A client can skip the router and send a full-stack job straight to
    // a server. The reply carries the migrated depths; the evolved field
    // ships back only when the request shipped one in (the router's
    // sub-job shape), so plain clients don't pay for it.
    let bench = hot_stack(103);
    let req = request(&bench, 12);

    let (direct, steps) = direct_run(&bench);

    let server = CtlServer::start(CtlConfig::default()).expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).expect("connects");
    let reply = client
        .request(&req, PayloadEncoding::Binary)
        .expect("transport");
    server.shutdown();

    let resp = match reply {
        Reply::Ok(resp) => resp,
        Reply::Rejected(e) => panic!("rejected: {} {}", e.code.as_str(), e.message),
    };
    assert!(resp.converged);
    assert_eq!(resp.steps, steps);
    assert_eq!(
        resp.positions,
        direct.xy.as_slice().to_vec(),
        "a wire round trip must not perturb the volumetric run"
    );
    let ext = resp.vol.expect("volumetric reply carries the extension");
    assert_eq!(ext.z, direct.z);
    assert!(ext.field.is_none(), "field not requested, must not ship");
}

#[test]
fn volumetric_job_streams_progress_without_perturbing_the_run() {
    // A streamed volumetric request gets one progress frame per step,
    // the frames carry the maximum principle's monotone max density, and
    // watching the run does not change its placement.
    let bench = hot_stack(109);
    let server = CtlServer::start(CtlConfig::default()).expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).expect("connects");
    let plain = client
        .request(&request(&bench, 14), PayloadEncoding::Binary)
        .expect("transport");
    let mut streamed = request(&bench, 14);
    streamed.progress_stride = 1;
    let mut frames = Vec::new();
    let watched = client
        .request_streaming(&streamed, PayloadEncoding::Binary, |p| frames.push(*p))
        .expect("transport");
    server.shutdown();

    let (Reply::Ok(plain), Reply::Ok(watched)) = (plain, watched) else {
        panic!("volumetric jobs rejected");
    };
    assert!(
        !frames.is_empty(),
        "a streamed volumetric job sent no progress"
    );
    assert_eq!(frames.len() as u64, watched.steps, "one frame per step");
    for (i, p) in frames.iter().enumerate() {
        assert_eq!((p.id, p.step, p.round), (14, i as u64 + 1, 1));
    }
    let trace: Vec<f64> = frames.iter().map(|p| p.max_density).collect();
    for w in trace.windows(2) {
        assert!(w[1] <= w[0], "max density rose between frames: {trace:?}");
    }
    assert_eq!(watched.positions, plain.positions);
    assert_eq!(
        watched.vol.expect("vol").z,
        plain.vol.expect("vol").z,
        "progress frames must not perturb the depths"
    );
}

#[test]
fn local_job_with_vol_extension_is_rejected_by_the_server() {
    let bench = hot_stack(107);
    let mut req = request(&bench, 13);
    req.kind = JobKind::Local;

    let server = CtlServer::start(CtlConfig::default()).expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).expect("connects");
    let reply = client
        .request(&req, PayloadEncoding::Binary)
        .expect("transport");
    server.shutdown();

    match reply {
        Reply::Rejected(e) => {
            assert_eq!(e.code, dpm_serve::ErrorCode::InvalidConfig);
            assert!(
                e.message.contains("global"),
                "unexpected message: {}",
                e.message
            );
        }
        Reply::Ok(_) => panic!("a Local job with a vol extension must be rejected"),
    }
}

#[test]
fn in_process_slabs_reject_an_unstable_config() {
    // No wire and no server admission check in between: the executor
    // itself answers invalid_config instead of running a diverging
    // stencil.
    let bench = hot_stack(103);
    let mut req = request(&bench, 12);
    req.config.dt = 0.9;
    let router = VolRouter::in_process(VolRouterConfig { slabs: 2 });
    match router.route(&req) {
        Err(VolRouteError::Backend { message, .. }) => {
            assert!(
                message.starts_with("invalid_config"),
                "unexpected error: {message}"
            );
        }
        other => panic!("expected a backend failure, got {other:?}"),
    }
}
