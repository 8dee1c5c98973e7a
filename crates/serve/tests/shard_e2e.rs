//! End-to-end tests for the sharded routing path: K = 1
//! bit-identicality with the direct engine (in-process and through the
//! wire), the maximum-principle invariant across K = 4 halo-exchange
//! rounds, and graceful degradation when a shard backend is dead.

use std::net::{SocketAddr, TcpListener};

use dpm_ctl::{CtlConfig, CtlServer};
use dpm_diffusion::{DiffusionConfig, KernelTimers, LocalDiffusion};
use dpm_gen::{Benchmark, CircuitSpec, InflationSpec};
use dpm_place::{BinGrid, DensityMap};
use dpm_serve::shard::{ShardBackend, ShardRouter, ShardRouterConfig};
use dpm_serve::wire::{JobKind, JobRequest};

fn hot_bench(cells: usize, seed: u64) -> Benchmark {
    let mut b = CircuitSpec::with_size("shard_e2e", cells, seed).generate();
    b.inflate(&InflationSpec::centered(0.3, 0.25, seed ^ 0xD1E));
    b
}

fn request(bench: &Benchmark, id: u64) -> JobRequest {
    JobRequest {
        id,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Local,
        design: format!("shard_e2e_{id}"),
        config: DiffusionConfig::default(),
        netlist: bench.netlist.clone(),
        die: bench.die.clone(),
        placement: bench.placement.clone(),
        vol: None,
        trace: None,
    }
}

/// An address that refuses connections: bind an ephemeral port, then
/// drop the listener.
fn dead_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr");
    drop(listener);
    addr
}

#[test]
fn k1_in_process_is_bit_identical_to_direct_engine() {
    let bench = hot_bench(180, 41);
    let req = request(&bench, 1);

    let mut direct = bench.placement.clone();
    let direct_result =
        LocalDiffusion::new(req.config.clone()).run(&bench.netlist, &bench.die, &mut direct);
    assert!(direct_result.steps > 0, "workload must do real work");

    let router = ShardRouter::in_process(ShardRouterConfig {
        shards: 1,
        ..ShardRouterConfig::default()
    });
    let reply = router.route(&req);

    assert_eq!(reply.shards, 1);
    assert_eq!(reply.halo_exchanges, 1);
    assert!(reply.outcomes[0].error.is_none());
    assert_eq!(reply.response.steps, direct_result.steps as u64);
    assert_eq!(
        reply.response.positions,
        direct.as_slice().to_vec(),
        "K=1 sharded placement must be bit-identical to the direct engine"
    );
    // The merged kernel timers actually carry the run's work.
    assert!(reply.kernels.ftcs.calls > 0);
    assert_eq!(reply.shard_service_hist.count, 1);
}

#[test]
fn k1_over_tcp_is_bit_identical_to_direct_engine() {
    let bench = hot_bench(150, 43);
    let req = request(&bench, 2);

    let mut direct = bench.placement.clone();
    LocalDiffusion::new(req.config.clone()).run(&bench.netlist, &bench.die, &mut direct);

    let server = CtlServer::start(CtlConfig::default()).expect("server starts");
    let router = ShardRouter::new(
        ShardRouterConfig {
            shards: 1,
            ..ShardRouterConfig::default()
        },
        vec![ShardBackend::Tcp(server.local_addr())],
    );
    let reply = router.route(&req);
    server.shutdown();

    assert!(
        reply.outcomes[0].error.is_none(),
        "{:?}",
        reply.outcomes[0].error
    );
    assert_eq!(
        reply.response.positions,
        direct.as_slice().to_vec(),
        "K=1 routed through TCP must stay bit-identical (f64 bit patterns on the wire)"
    );
}

#[test]
fn spectral_solver_rides_through_the_shard_router() {
    // The router clones the request config into every shard sub-job, so
    // the solver choice must survive sharding. With K=1 the halo covers
    // the whole grid and the parent die is reused, making the routed
    // spectral run bit-identical to a direct in-process spectral run —
    // which itself differs from FTCS on a workload that does real work.
    use dpm_diffusion::{GlobalDiffusion, SolverKind};

    let bench = hot_bench(180, 53);
    let mut req = request(&bench, 9);
    req.kind = JobKind::Global;
    req.config = req.config.with_solver(SolverKind::Spectral);

    let mut direct = bench.placement.clone();
    let direct_result =
        GlobalDiffusion::new(req.config.clone()).run(&bench.netlist, &bench.die, &mut direct);
    assert!(direct_result.steps > 0, "workload must do real work");

    let mut ftcs = bench.placement.clone();
    GlobalDiffusion::new(req.config.clone().with_solver(SolverKind::Ftcs)).run(
        &bench.netlist,
        &bench.die,
        &mut ftcs,
    );
    assert_ne!(
        direct.as_slice().to_vec(),
        ftcs.as_slice().to_vec(),
        "solvers must be distinguishable on this workload"
    );

    let router = ShardRouter::in_process(ShardRouterConfig {
        shards: 1,
        ..ShardRouterConfig::default()
    });
    let reply = router.route(&req);
    assert!(reply.outcomes[0].error.is_none());
    assert_eq!(
        reply.response.positions,
        direct.as_slice().to_vec(),
        "K=1 routed spectral run must be bit-identical to the direct spectral engine"
    );
}

#[test]
fn k4_never_increases_max_density_at_any_halo_exchange() {
    let mut bench = CircuitSpec::with_size("shard_e2e", 400, 47).generate();
    bench.inflate(&InflationSpec::centered(0.15, 0.35, 47 ^ 0xD1E));
    let mut req = request(&bench, 3);
    // W1 = 0 judges raw bin density and Δ = 0 keeps windows open until
    // every bin is at or below d_max, so "max bin density ≤ d_max" is
    // the criterion the routed run actually chases. Capping each
    // shard-local pass at 30 steps forces convergence to happen across
    // halo-exchange rounds rather than inside a single fan-out.
    req.config = req
        .config
        .with_windows(0, 2)
        .with_delta(0.0)
        .with_d_max(1.1)
        .with_max_steps(30);
    let grid = BinGrid::new(bench.die.outline(), req.config.bin_size);
    let initial_max =
        DensityMap::from_placement(&bench.netlist, &bench.placement, grid.clone()).max_density();
    assert!(
        initial_max > req.config.d_max,
        "workload must start overfull (got {initial_max})"
    );

    let router = ShardRouter::in_process(ShardRouterConfig {
        shards: 4,
        max_halo_rounds: 12,
    });
    let reply = router.route(&req);

    assert_eq!(reply.shards, 4);
    assert!(
        reply.halo_exchanges >= 2,
        "step cap must force multiple halo exchanges: {}",
        reply.halo_exchanges
    );
    for o in &reply.outcomes {
        assert!(o.error.is_none(), "shard {} failed: {:?}", o.shard, o.error);
    }
    // The maximum principle across the stitch: the measured global max
    // bin density never rises at any accepted halo-exchange round...
    let trace = &reply.max_density_trace;
    assert!(trace.len() >= 2, "at least one accepted round: {trace:?}");
    for w in trace.windows(2) {
        assert!(
            w[1] <= w[0],
            "max density rose across a halo exchange: {trace:?}"
        );
    }
    assert_eq!(trace[0], initial_max);
    // ...and the final placement resolves the hot spot to at most d_max.
    let final_placement = {
        let mut p = bench.placement.clone();
        for (c, &pos) in bench
            .netlist
            .cell_ids()
            .zip(reply.response.positions.iter())
        {
            p.set(c, pos);
        }
        p
    };
    let final_max =
        DensityMap::from_placement(&bench.netlist, &final_placement, grid).max_density();
    assert_eq!(final_max, *trace.last().unwrap());
    assert!(
        final_max <= req.config.d_max,
        "K=4 run must reduce max bin density to <= d_max: {final_max} > {}",
        req.config.d_max
    );
    // Telemetry merged from all four shards.
    assert!(reply.kernels.ftcs.calls > 0);
    assert!(reply.shard_service_hist.count >= 4);
}

#[test]
fn dead_shard_degrades_to_unmigrated_region_not_job_failure() {
    let die = dpm_place::Die::new(288.0, 144.0, 12.0);
    // Two piles, one per half of the die, so both shards own work.
    let mut b = dpm_netlist::NetlistBuilder::new();
    for i in 0..240 {
        b.add_cell(format!("c{i}"), 6.0, 12.0, dpm_netlist::CellKind::Movable);
    }
    let nl = b.build().expect("valid");
    let mut placement = dpm_place::Placement::new(nl.num_cells());
    for (i, c) in nl.cell_ids().enumerate() {
        let (base_x, j) = if i < 120 { (30.0, i) } else { (210.0, i - 120) };
        placement.set(
            c,
            dpm_geom::Point::new(base_x + (j % 8) as f64 * 3.0, 40.0 + (j / 8) as f64 * 3.0),
        );
    }
    let req = JobRequest {
        id: 4,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Local,
        design: "degraded".into(),
        config: DiffusionConfig::default()
            .with_bin_size(24.0)
            .with_windows(1, 2),
        netlist: nl.clone(),
        die: die.clone(),
        placement: placement.clone(),
        vol: None,
        trace: None,
    };

    // Shard 0 healthy in-process, shard 1 routed to a dead port.
    let router = ShardRouter::new(
        ShardRouterConfig {
            shards: 2,
            max_halo_rounds: 2,
        },
        vec![ShardBackend::InProcess, ShardBackend::Tcp(dead_addr())],
    );
    let reply = router.route(&req);

    // The job still answered, with a per-shard error...
    assert_eq!(reply.shards, 2);
    assert!(reply.outcomes[0].error.is_none());
    let err = reply.outcomes[1]
        .error
        .as_ref()
        .expect("dead shard reports an error");
    assert!(err.contains("connect"), "unexpected error: {err}");
    // ...the dead shard's region is returned unmigrated...
    let partition = dpm_diffusion::ShardPartition::new(&die, req.config.bin_size, 2, 2);
    let owners = partition.assign_owners(&nl, &placement);
    let mut dead_cells = 0usize;
    for (i, c) in nl.cell_ids().enumerate() {
        if owners[i] == 1 {
            dead_cells += 1;
            assert_eq!(
                reply.response.positions[c.index()],
                placement.get(c),
                "cell {c} in the dead shard moved"
            );
        }
    }
    assert!(
        dead_cells > 0,
        "shard 1 must own cells for this test to mean anything"
    );
    // ...while the healthy shard still migrated its hot spot.
    assert!(reply.outcomes[0].steps > 0, "healthy shard did no work");
    assert!(reply.response.total_movement > 0.0);
}

#[test]
fn killed_backend_fails_over_to_warm_spare_with_no_unmigrated_region() {
    // The same two-pile workload as the degradation test, but the router
    // has a warm spare: instead of leaving the dead backend's region
    // unmigrated, the shard retries on the spare within the round and
    // the final placement is bit-identical to an all-healthy run.
    let die = dpm_place::Die::new(288.0, 144.0, 12.0);
    let mut b = dpm_netlist::NetlistBuilder::new();
    for i in 0..240 {
        b.add_cell(format!("c{i}"), 6.0, 12.0, dpm_netlist::CellKind::Movable);
    }
    let nl = b.build().expect("valid");
    let mut placement = dpm_place::Placement::new(nl.num_cells());
    for (i, c) in nl.cell_ids().enumerate() {
        let (base_x, j) = if i < 120 { (30.0, i) } else { (210.0, i - 120) };
        placement.set(
            c,
            dpm_geom::Point::new(base_x + (j % 8) as f64 * 3.0, 40.0 + (j / 8) as f64 * 3.0),
        );
    }
    let req = JobRequest {
        id: 6,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Local,
        design: "failover".into(),
        config: DiffusionConfig::default()
            .with_bin_size(24.0)
            .with_windows(1, 2),
        netlist: nl.clone(),
        die: die.clone(),
        placement: placement.clone(),
        vol: None,
        trace: None,
    };
    let cfg = ShardRouterConfig {
        shards: 2,
        max_halo_rounds: 2,
    };

    // Reference: both shards healthy, in-process.
    let healthy = ShardRouter::in_process(cfg.clone()).route(&req);
    for o in &healthy.outcomes {
        assert!(o.error.is_none());
    }

    // Shard 1's assigned backend is dead; one healthy TCP spare.
    let spare = CtlServer::start(CtlConfig::default()).expect("spare starts");
    let spare_addr = spare.local_addr();
    let dead = dead_addr();
    let router = ShardRouter::with_spares(
        cfg,
        vec![ShardBackend::InProcess, ShardBackend::Tcp(dead)],
        vec![ShardBackend::Tcp(spare_addr)],
    );
    let reply = router.route(&req);
    spare.shutdown();

    // Every shard finished error-free: the spare absorbed the failure.
    assert_eq!(reply.shards, 2);
    for o in &reply.outcomes {
        assert!(
            o.error.is_none(),
            "shard {} still failed despite the spare: {:?}",
            o.shard,
            o.error
        );
    }
    // The replacement is reported, and sticks for later rounds (the
    // spare is consumed exactly once, not once per round).
    assert_eq!(reply.failovers.len(), 1, "{:?}", reply.failovers);
    assert_eq!(reply.failovers[0].shard, 1);
    assert_eq!(reply.failovers[0].from, ShardBackend::Tcp(dead));
    assert_eq!(reply.failovers[0].to, ShardBackend::Tcp(spare_addr));
    // No unmigrated region: the result is bit-identical to the healthy
    // run (the wire is bit-exact, so which backend ran shard 1 cannot
    // matter), and in particular shard 1's pile actually moved.
    assert_eq!(
        reply.response.positions, healthy.response.positions,
        "failover run must be bit-identical to the all-healthy run"
    );
    assert!(reply.outcomes[1].steps > 0, "spare-run shard did no work");
    assert!(healthy.failovers.is_empty());
}

#[test]
fn router_reports_progress_frames_from_streamed_tcp_shards() {
    let bench = hot_bench(200, 53);
    let mut req = request(&bench, 5);
    req.progress_stride = 4;

    let server_a = CtlServer::start(CtlConfig::default()).expect("server a");
    let server_b = CtlServer::start(CtlConfig::default()).expect("server b");
    let router = ShardRouter::new(
        ShardRouterConfig {
            shards: 2,
            max_halo_rounds: 3,
        },
        vec![
            ShardBackend::Tcp(server_a.local_addr()),
            ShardBackend::Tcp(server_b.local_addr()),
        ],
    );
    let reply = router.route(&req);
    server_a.shutdown();
    server_b.shutdown();

    for o in &reply.outcomes {
        assert!(o.error.is_none(), "shard {} failed: {:?}", o.shard, o.error);
    }
    assert!(
        reply.progress_frames > 0,
        "streamed shard requests must surface progress frames"
    );
    // The sub-jobs ran on the TCP backends, which bill their kernels in
    // their own stats; this process ran none.
    assert_eq!(reply.kernels, KernelTimers::default());
}

#[test]
fn routing_one_job_repeatedly_reports_the_same_kernels() {
    // A route's kernel timers cover only the sub-jobs this process ran,
    // so they cannot grow with a backend's lifetime work.
    let bench = hot_bench(200, 61);
    let server = CtlServer::start(CtlConfig::default()).expect("server");
    let router = ShardRouter::new(
        ShardRouterConfig {
            shards: 2,
            max_halo_rounds: 2,
        },
        vec![ShardBackend::Tcp(server.local_addr())],
    );
    let kernels: Vec<_> = (0..3)
        .map(|i| {
            let reply = router.route(&request(&bench, 20 + i));
            for o in &reply.outcomes {
                assert!(o.error.is_none(), "shard {} failed: {:?}", o.shard, o.error);
            }
            reply.kernels
        })
        .collect();
    server.shutdown();
    assert_eq!(kernels[0], kernels[1]);
    assert_eq!(kernels[1], kernels[2]);
}

#[test]
fn in_process_shards_stream_progress_and_export_job_spans() {
    // In-process shards run the same executor as a TCP backend, so they
    // observe the same way: progress frames count, and a traced route
    // carries the shards' job spans, each nested under its dispatch.
    let bench = hot_bench(200, 59);
    let router = ShardRouter::in_process(ShardRouterConfig {
        shards: 2,
        max_halo_rounds: 3,
    });
    let plain = router.route(&request(&bench, 6));
    assert_eq!(plain.progress_frames, 0, "no stride, no frames");

    let mut req = request(&bench, 6);
    req.progress_stride = 4;
    req.trace = Some(dpm_obs::TraceContext {
        trace_id: 0x1A_9C0C,
        span_id: 0x5EED,
        parent_id: 0,
    });
    let observed = router.route(&req);
    assert_eq!(
        observed.response.positions, plain.response.positions,
        "observation must not perturb the placement"
    );
    assert!(observed.progress_frames > 0, "in-process shards stream too");

    let spans = &observed.response.spans;
    let dispatches: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "shard.dispatch")
        .map(|s| s.span_id)
        .collect();
    let jobs: Vec<_> = spans.iter().filter(|s| s.name == "job.local").collect();
    assert!(jobs.len() >= 2, "both shards contribute a job span");
    assert!(jobs.iter().all(|j| dispatches.contains(&j.parent_id)));
}

#[test]
fn in_process_shards_reject_an_unstable_config_and_leave_the_placement_unmigrated() {
    // The in-process backend skips the wire and the server's admission
    // check, so the executor itself must refuse a dt outside the FTCS
    // stability bound rather than run a diverging stencil.
    let bench = hot_bench(180, 43);
    let mut req = request(&bench, 9);
    req.config.dt = 0.9;
    let router = ShardRouter::in_process(ShardRouterConfig {
        shards: 2,
        max_halo_rounds: 2,
    });
    let reply = router.route(&req);
    assert_eq!(reply.shards, 2);
    for (s, outcome) in reply.outcomes.iter().enumerate() {
        let err = outcome.error.as_ref().expect("shard must fail");
        assert!(err.starts_with("invalid_config"), "shard {s}: {err}");
        assert_eq!(outcome.steps, 0, "shard {s} ran the engine");
    }
    assert_eq!(reply.response.positions, bench.placement.as_slice());
    assert_eq!(reply.response.total_movement, 0.0);
}
