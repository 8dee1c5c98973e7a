//! Shard-routing benchmark: one migration job fanned out over K TCP
//! backends with density halo exchange.
//!
//! Boots K [`Server`]s on ephemeral ports, routes a set of generated
//! hot-spot jobs through a [`ShardRouter`], and reports per-shard
//! service latency (the router's merged `dpm-obs` histogram) and
//! end-to-end routed latency percentiles, plus a 1-shard-vs-K-shard
//! comparison of final max bin density and raw overflow on identical
//! requests — the K = 1 route is bit-identical to a direct engine run,
//! so it doubles as the unsharded baseline.
//!
//! Every job streams progress frames from its TCP shards, and the
//! router's maximum-principle invariant is asserted on each reply: the
//! measured max density trace never rises across an accepted
//! halo-exchange round.
//!
//! A volumetric leg then routes one hot-spot tier stack through a
//! 2-slab [`VolRouter`] over the first two TCP servers, asserts that
//! the routed placement and depths are bit-identical to a direct
//! [`VolumetricDiffusion`] run and that the stitched max-density trace
//! never rises, and reports the run under `"volumetric"`.
//!
//! Usage: `cargo run --release --bin perf_shard [-- <output-path>]
//! [--smoke]`
//!
//! `--smoke` boots a 2-shard router, replays one streamed request and
//! runs the volumetric leg (used by `scripts/ci.sh`, which grep-pins
//! the emitted JSON).

use std::time::Instant;

use dpm_diffusion::{DiffusionConfig, SolverKind, VolumetricDiffusion};
use dpm_gen::{Benchmark, CircuitSpec, InflationSpec, VolCircuitSpec};
use dpm_obs::{Histogram, HistogramSnapshot};
use dpm_place::{BinGrid, DensityMap, Placement};
use dpm_serve::shard::{ShardBackend, ShardRouter, ShardRouterConfig};
use dpm_serve::wire::{JobKind, JobRequest, VolRequestExt};
use dpm_serve::zslab::{VolRouter, VolRouterConfig};
use dpm_serve::{ServeConfig, Server};

struct LoadSpec {
    /// Shard count K (one TCP server per shard).
    shards: usize,
    /// Jobs routed through the sharded and the 1-shard router.
    jobs: usize,
    /// Cells per circuit preset (jobs cycle through these).
    circuit_cells: &'static [usize],
    /// Halo-exchange round cap per job.
    max_halo_rounds: usize,
}

const FULL: LoadSpec = LoadSpec {
    shards: 4,
    jobs: 6,
    circuit_cells: &[400, 600],
    max_halo_rounds: 8,
};

const SMOKE: LoadSpec = LoadSpec {
    shards: 2,
    jobs: 1,
    circuit_cells: &[400],
    max_halo_rounds: 4,
};

/// Progress stride for the streamed shard sub-requests.
const STREAM_STRIDE: u32 = 4;

/// The volumetric leg: slab count, stack height and cell count.
const VOL_SLABS: usize = 2;
const VOL_TIERS: usize = 3;
const VOL_CELLS: usize = 300;

fn hot_bench(cells: usize, seed: u64) -> Benchmark {
    let mut b = CircuitSpec::with_size("shard", cells, seed).generate();
    b.inflate(&InflationSpec::centered(0.15, 0.35, seed ^ 0x5A4D));
    b
}

fn request(bench: &Benchmark, id: u64) -> JobRequest {
    JobRequest {
        id,
        deadline_ms: 0,
        progress_stride: STREAM_STRIDE,
        kind: JobKind::Local,
        design: format!("shard_job_{id}"),
        // W1 = 0 judges raw bin density and Δ = 0 keeps diffusing until
        // every bin is at or below d_max, so the density comparison
        // below measures the criterion the engines actually chase.
        config: DiffusionConfig::default()
            .with_windows(0, 2)
            .with_delta(0.0)
            .with_d_max(1.1),
        netlist: bench.netlist.clone(),
        die: bench.die.clone(),
        placement: bench.placement.clone(),
        vol: None,
        trace: None,
    }
}

fn hist_json(name: &str, s: &HistogramSnapshot) -> String {
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

fn latency_json(name: &str, ns: &[u64]) -> String {
    let h = Histogram::new(&Histogram::latency_bounds());
    for &v in ns {
        h.record(v);
    }
    hist_json(name, &h.snapshot())
}

/// Max bin density and raw (W = 0) overflow of `positions` applied to
/// the request's netlist.
fn density_of(req: &JobRequest, positions: &[dpm_geom::Point]) -> (f64, f64) {
    let mut p = Placement::new(req.netlist.num_cells());
    for (c, &pos) in req.netlist.cell_ids().zip(positions) {
        p.set(c, pos);
    }
    let grid = BinGrid::new(req.die.outline(), req.config.bin_size);
    let map = DensityMap::from_placement(&req.netlist, &p, grid);
    (
        map.max_density(),
        map.total_local_overflow(0, req.config.d_max),
    )
}

/// Routes one hot-spot tier stack through a `VOL_SLABS`-slab router
/// over `backends`, checks it bit for bit against a direct
/// [`VolumetricDiffusion`] run, and returns the leg's JSON object.
fn volumetric_leg(backends: &[ShardBackend]) -> String {
    let bench = VolCircuitSpec::with_size("shard_vol", VOL_TIERS, VOL_CELLS, 0x5EED)
        .with_hotspot(1)
        .generate();
    // The z-slab halo exchange is FTCS-only.
    let config = DiffusionConfig::default().with_solver(SolverKind::Ftcs);
    let req = JobRequest {
        id: 0,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Global,
        design: "shard_vol".into(),
        config: config.clone(),
        netlist: bench.netlist.clone(),
        die: bench.die.clone(),
        placement: bench.placement.xy.clone(),
        vol: Some(VolRequestExt {
            nz: VOL_TIERS as u32,
            z0: 0,
            global_nz: VOL_TIERS as u32,
            exact_steps: None,
            z: bench.placement.z.clone(),
            field: None,
        }),
        trace: None,
    };
    let mut direct = bench.placement.clone();
    let direct_run =
        VolumetricDiffusion::new(config, VOL_TIERS).run(&bench.netlist, &bench.die, &mut direct);

    let router = VolRouter::new(VolRouterConfig { slabs: VOL_SLABS }, backends.to_vec());
    let sent = Instant::now();
    let reply = router.route(&req).expect("volumetric route succeeds");
    let wall = sent.elapsed();
    assert_eq!(reply.slabs, VOL_SLABS, "stack clamped the slab count");
    assert_eq!(
        reply.response.positions,
        direct.xy.as_slice(),
        "routed placement diverged from the direct volumetric run"
    );
    let ext = reply.response.vol.as_ref().expect("volumetric reply");
    assert_eq!(
        ext.z, direct.z,
        "routed depths diverged from the direct run"
    );
    assert_eq!(reply.rounds, direct_run.steps, "round count diverged");
    let trace = &reply.max_density_trace;
    for w in trace.windows(2) {
        assert!(w[1] <= w[0], "max density rose across a slab exchange");
    }
    eprintln!(
        "  volumetric: {VOL_CELLS} cells on {VOL_TIERS} tiers, {VOL_SLABS} slabs, {} rounds, max density {:.3} -> {:.3}, bit-identical to the direct run",
        reply.rounds,
        trace[0],
        trace[trace.len() - 1]
    );
    format!(
        "{{\"slabs\": {VOL_SLABS}, \"tiers\": {VOL_TIERS}, \"cells\": {VOL_CELLS}, \"rounds\": {}, \"wall_ms\": {:.3}, \"bit_identical\": true, \"initial_max_density\": {:.4}, \"final_max_density\": {:.4}}}",
        reply.rounds,
        wall.as_secs_f64() * 1e3,
        trace[0],
        trace[trace.len() - 1]
    )
}

fn main() {
    let mut out_path = "BENCH_shard.json".to_string();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let spec = if smoke { &SMOKE } else { &FULL };
    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    eprintln!(
        "perf_shard{}: {} job(s) over {} shard(s), {cores} hardware thread(s)",
        if smoke { " (smoke)" } else { "" },
        spec.jobs,
        spec.shards
    );

    let servers: Vec<Server> = (0..spec.shards)
        .map(|_| Server::start("127.0.0.1:0", ServeConfig::default()).expect("server binds"))
        .collect();
    let backends: Vec<ShardBackend> = servers
        .iter()
        .map(|s| ShardBackend::Tcp(s.local_addr()))
        .collect();
    let sharded = ShardRouter::new(
        ShardRouterConfig {
            shards: spec.shards,
            max_halo_rounds: spec.max_halo_rounds,
        },
        backends.clone(),
    );
    let single = ShardRouter::new(
        ShardRouterConfig {
            shards: 1,
            ..ShardRouterConfig::default()
        },
        vec![backends[0]],
    );

    let mut e2e_ns: Vec<u64> = Vec::with_capacity(spec.jobs);
    let mut shard_hist = HistogramSnapshot::empty(&Histogram::latency_bounds());
    let mut halo_exchanges = 0usize;
    let mut progress_frames = 0u64;
    let mut density_rows: Vec<String> = Vec::with_capacity(spec.jobs);
    let t0 = Instant::now();
    for i in 0..spec.jobs {
        let cells = spec.circuit_cells[i % spec.circuit_cells.len()];
        let bench = hot_bench(cells, 0x5EED + i as u64);
        let req = request(&bench, i as u64 + 1);

        let sent = Instant::now();
        let reply = sharded.route(&req);
        e2e_ns.push(sent.elapsed().as_nanos() as u64);
        for o in &reply.outcomes {
            assert!(o.error.is_none(), "shard {} failed: {:?}", o.shard, o.error);
        }
        let trace = &reply.max_density_trace;
        for w in trace.windows(2) {
            assert!(w[1] <= w[0], "max density rose across a halo exchange");
        }
        assert!(reply.halo_exchanges > 0, "job ran no halo exchange");
        halo_exchanges += reply.halo_exchanges;
        progress_frames += reply.progress_frames;
        shard_hist.merge(&reply.shard_service_hist);

        let baseline = single.route(&req);
        assert!(
            baseline.outcomes[0].error.is_none(),
            "baseline failed: {:?}",
            baseline.outcomes[0].error
        );
        let (initial_max, initial_ovf) = density_of(&req, req.placement.as_slice());
        let (max_1, ovf_1) = density_of(&req, &baseline.response.positions);
        let (max_k, ovf_k) = density_of(&req, &reply.response.positions);
        assert!(
            max_k <= initial_max,
            "sharded route raised max density: {max_k} > {initial_max}"
        );
        density_rows.push(format!(
            "{{\"job\": {}, \"cells\": {cells}, \"initial\": {{\"max_density\": {initial_max:.4}, \"overflow\": {initial_ovf:.4}}}, \"one_shard\": {{\"max_density\": {max_1:.4}, \"overflow\": {ovf_1:.4}}}, \"sharded\": {{\"max_density\": {max_k:.4}, \"overflow\": {ovf_k:.4}, \"halo_exchanges\": {}}}}}",
            i + 1,
            reply.halo_exchanges,
        ));
        eprintln!(
            "  job {}: {cells} cells, max density {initial_max:.3} -> {max_1:.3} (1 shard) / {max_k:.3} ({} shards, {} exchange(s))",
            i + 1,
            spec.shards,
            reply.halo_exchanges
        );
    }
    let wall = t0.elapsed();
    let volumetric = volumetric_leg(&backends[..VOL_SLABS]);
    for s in servers {
        s.shutdown();
    }
    assert!(halo_exchanges > 0, "no halo exchanges ran");
    assert!(
        progress_frames > 0,
        "streamed shard requests produced no progress frames"
    );

    let json = format!(
        "{{\n  \"bench\": \"perf_shard\",\n  \"mode\": \"{mode}\",\n  \"hardware_threads\": {cores},\n  \"shards\": {shards},\n  \"config\": {{\"jobs\": {jobs}, \"halo_bins\": 2, \"max_halo_rounds\": {rounds}, \"circuit_cells\": {cells:?}, \"d_max\": 1.1}},\n  \"wall_seconds\": {wall:.3},\n  \"halo_exchanges\": {halo_exchanges},\n  \"progress_frames\": {progress_frames},\n  \"latency\": {{\n    {shard_lat},\n    {e2e_lat}\n  }},\n  \"density\": [\n    {density}\n  ],\n  \"volumetric\": {volumetric},\n  \"note\": \"Each job is routed twice on identical requests: once over K TCP shard backends with halo exchange, once through a 1-shard router (bit-identical to a direct engine run). shard_service covers every successful per-shard sub-request (one sample per shard per exchange, merged dpm-obs histograms); e2e is the client-side wall time of the whole routed job. Density rows compare final max bin density and raw overflow; the router enforces that the sharded max never exceeds the initial max. The volumetric leg routes one tier stack over the first two TCP servers as 2 z-slabs and is asserted bit-identical to a direct VolumetricDiffusion run.\"\n}}\n",
        mode = if smoke { "smoke" } else { "full" },
        shards = spec.shards,
        jobs = spec.jobs,
        rounds = spec.max_halo_rounds,
        cells = spec.circuit_cells,
        wall = wall.as_secs_f64(),
        shard_lat = hist_json("shard_service", &shard_hist),
        e2e_lat = latency_json("e2e", &e2e_ns),
        density = density_rows.join(",\n    "),
    );
    std::fs::write(&out_path, &json).expect("write BENCH_shard.json");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
