//! Volumetric migration: relieve a 3D-IC hotspot through the tier axis.
//!
//! Generates a 3-tier stack whose middle tier is packed far past
//! capacity while its neighbors have headroom — the situation a planar
//! migrator cannot fix without blowing up wirelength, because the spare
//! area is *above and below* the hotspot, not beside it. Runs the 3D
//! diffusion engine directly, prints the per-tier density before and
//! after, and counts the cells that changed tier. Then routes the same
//! job through a 2-slab [`VolRouter`](diffuplace::serve::VolRouter) and
//! checks the placement is bit-identical — slab count is an operational
//! knob, not a quality knob, and the slab count is the router's only
//! knob: every slab ships two ghost tiers, the one exact width, through
//! the same halo-exchange loop the planar shard router runs.
//!
//! Run with: `cargo run --release --example volumetric_hotspot`

use diffuplace::diffusion::{splat_volume, DiffusionConfig, SolverKind, VolumetricDiffusion};
use diffuplace::gen::VolCircuitSpec;
use diffuplace::place::BinGrid;
use diffuplace::serve::wire::{JobKind, JobRequest, VolRequestExt};
use diffuplace::serve::{VolRouter, VolRouterConfig};

/// Max bin density of each tier of a volumetric placement.
fn tier_maxima(
    bench: &diffuplace::gen::VolBenchmark,
    vp: &diffuplace::diffusion::VolPlacement,
    bin_size: f64,
) -> Vec<f64> {
    let grid = BinGrid::new(bench.die.outline(), bin_size);
    let nz = bench.layers();
    let (field, _) = splat_volume(&bench.netlist, vp, &grid, nz);
    let nxy = grid.len();
    (0..nz)
        .map(|t| {
            field[t * nxy..(t + 1) * nxy]
                .iter()
                .fold(0.0f64, |m, &d| m.max(d))
        })
        .collect()
}

fn main() {
    // Three tiers, 400 cells each; tier 1 generated as a dense central
    // pile with staggered depths (a z-symmetric spike would sit at a
    // zero of the vertical gradient and could only spread in-plane).
    let bench = VolCircuitSpec::small(42).with_hotspot(1).generate();
    let cfg = DiffusionConfig::default().with_solver(SolverKind::Ftcs);
    let nz = bench.layers();

    println!(
        "stack: {} tiers, {} cells, die {:.0}x{:.0}",
        nz,
        bench.netlist.num_cells(),
        bench.die.outline().width(),
        bench.die.outline().height()
    );
    let before = tier_maxima(&bench, &bench.placement, cfg.bin_size);
    println!("max bin density per tier before migration:");
    for (t, m) in before.iter().enumerate() {
        println!(
            "  tier {t}: {m:>5.2}{}",
            if *m > cfg.d_max { "  <- overfull" } else { "" }
        );
    }

    // Direct 3D run.
    let mut vp = bench.placement.clone();
    let start_z = vp.z.clone();
    let result = VolumetricDiffusion::new(cfg.clone(), nz).run(&bench.netlist, &bench.die, &mut vp);
    println!(
        "\ndirect 3D run: {} steps, converged: {}",
        result.steps, result.converged
    );

    let after = tier_maxima(&bench, &vp, cfg.bin_size);
    println!("max bin density per tier after migration:");
    for (t, m) in after.iter().enumerate() {
        println!("  tier {t}: {m:>5.2}");
    }
    // Depth is continuous: the splat interpolates a cell between the
    // two tiers its z sits between, so even sub-tier drift offloads
    // real area onto the neighbors (visible above as tiers 0 and 2
    // absorbing density). Count the cells that drifted vertically.
    let (mut drifted, mut max_dz) = (0usize, 0.0f64);
    for c in bench.netlist.movable_cell_ids() {
        let dz = (vp.z[c.index()] - start_z[c.index()]).abs();
        max_dz = max_dz.max(dz);
        if dz > 0.05 {
            drifted += 1;
        }
    }
    println!("cells that migrated vertically (|dz| > 0.05 tiers): {drifted}, max |dz| {max_dz:.2} — the z axis is a real relief valve");

    // The same job through the z-slab router: two slabs with two ghost
    // tiers each, halo-exchange rounds of one exact FTCS step each.
    // Bit-identical by contract.
    let req = JobRequest {
        id: 1,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Global,
        design: "volumetric_hotspot".into(),
        config: cfg,
        netlist: bench.netlist.clone(),
        die: bench.die.clone(),
        placement: bench.placement.xy.clone(),
        vol: Some(VolRequestExt {
            nz: nz as u32,
            z0: 0,
            global_nz: nz as u32,
            exact_steps: None,
            z: bench.placement.z.clone(),
            field: None,
        }),
        trace: None,
    };
    let router = VolRouter::in_process(VolRouterConfig { slabs: 2 });
    let reply = router.route(&req).expect("volumetric job routes");
    let routed_xy = reply.response.positions;
    let routed_z = reply.response.vol.expect("volumetric reply").z;
    assert_eq!(
        routed_xy,
        vp.xy.as_slice().to_vec(),
        "slab routing changed the placement"
    );
    assert_eq!(routed_z, vp.z, "slab routing changed the depths");
    println!(
        "\n2-slab routed run: {} rounds across {} slabs — bit-identical to the direct run",
        reply.rounds, reply.slabs
    );
    let trace = &reply.max_density_trace;
    println!(
        "max live density trace: {:.2} -> {:.2} (monotone non-increasing over {} samples)",
        trace.first().expect("non-empty"),
        trace.last().expect("non-empty"),
        trace.len()
    );
}
