//! Input extremes for the grid kernels and the runners built on them:
//! a 1×1 grid (bin larger than the die), single-row, single-column and
//! two-column grids, every cell stacked in one bin, and cells hanging
//! partly outside the die. These reach grids too small for any
//! lane-eligible bin (every bin takes the per-bin path of the FTCS and
//! velocity kernels), the clamped gathers of advection, and degenerate
//! DCT lengths.
//!
//! Every case must finish without panicking and leave finite positions,
//! and live density must be conserved by the FTCS engine, the spectral
//! solver and the single-tier volumetric runner.

use dpm_diffusion::{
    DiffusionConfig, DiffusionEngine, GlobalDiffusion, LocalDiffusion, SolverKind, SpectralSolver,
    VolJobSpec, VolPlacement, VolumetricDiffusion,
};
use dpm_geom::Point;
use dpm_netlist::{CellKind, Netlist, NetlistBuilder};
use dpm_place::{BinGrid, DensityMap, Die, Placement};

struct Case {
    name: &'static str,
    netlist: Netlist,
    die: Die,
    placement: Placement,
    bin_size: f64,
}

/// Movable 4×12 cells at the given lower-left corners on a `w`×`h` die
/// with 12-unit rows.
fn case(name: &'static str, (w, h): (f64, f64), bin_size: f64, at: &[(f64, f64)]) -> Case {
    let mut b = NetlistBuilder::new();
    for i in 0..at.len() {
        b.add_cell(format!("c{i}"), 4.0, 12.0, CellKind::Movable);
    }
    let netlist = b.build().expect("valid netlist");
    let mut placement = Placement::new(netlist.num_cells());
    for (c, &(x, y)) in netlist.cell_ids().zip(at) {
        placement.set(c, Point::new(x, y));
    }
    let die = Die::new(w, h, 12.0);
    Case {
        name,
        netlist,
        die,
        placement,
        bin_size,
    }
}

/// A `w`×`h` pile of lower-left corners starting at `(x0, y0)`.
fn pile(x0: f64, y0: f64, w: usize, h: usize) -> Vec<(f64, f64)> {
    (0..w * h)
        .map(|i| (x0 + (i % w) as f64 * 1.5, y0 + (i / w) as f64 * 1.5))
        .collect()
}

fn cases() -> Vec<Case> {
    // Corners, edges and the centre; most cells straddle the outline.
    let xs = [-2.0, 94.0, 30.0, 50.0, -3.0, 93.0, -2.0, 94.5, 47.0, 48.0];
    let ys = [10.0, 50.0, -5.0, 90.0, -3.0, 93.0, 91.0, -6.0, 47.0, 48.0];
    let edges: Vec<_> = xs.into_iter().zip(ys).collect();
    vec![
        case("one_bin", (24.0, 24.0), 48.0, &pile(4.0, 2.0, 3, 3)),
        case("one_column", (12.0, 240.0), 12.0, &pile(2.0, 100.0, 2, 8)),
        case("one_row", (240.0, 12.0), 12.0, &pile(100.0, 0.0, 8, 1)),
        case("two_columns", (24.0, 240.0), 12.0, &pile(6.0, 100.0, 2, 8)),
        case("one_hot_bin", (96.0, 96.0), 12.0, &[(40.0, 40.0); 40]),
        case("partly_outside", (96.0, 96.0), 12.0, &edges),
    ]
}

fn config(c: &Case, solver: SolverKind) -> DiffusionConfig {
    DiffusionConfig::default()
        .with_bin_size(c.bin_size)
        .with_solver(solver)
        .with_threads(1)
        .with_max_steps(300)
        .with_max_rounds(20)
}

fn density_map(c: &Case) -> DensityMap {
    let grid = BinGrid::new(c.die.outline(), c.bin_size);
    DensityMap::from_placement(&c.netlist, &c.placement, grid)
}

fn assert_close(c: &Case, what: &str, got: f64, want: f64) {
    let ok = (got - want).abs() <= 1e-9 * want.abs().max(1.0);
    assert!(ok, "{}: {what} {got} != {want}", c.name);
}

fn assert_finite(c: &Case, runner: &str, placement: &Placement) {
    for (i, p) in placement.as_slice().iter().enumerate() {
        let ok = p.x.is_finite() && p.y.is_finite();
        assert!(ok, "{}/{runner}: cell {i} at {p:?}", c.name);
    }
}

#[test]
fn extreme_grids_have_the_expected_shape() {
    let shapes: Vec<_> = cases()
        .iter()
        .map(|c| (density_map(c).grid().nx(), density_map(c).grid().ny()))
        .collect();
    assert_eq!(shapes, [(1, 1), (1, 20), (20, 1), (2, 20), (8, 8), (8, 8)]);
}

#[test]
fn ftcs_engine_conserves_live_density_and_keeps_velocities_finite() {
    for c in cases() {
        let mut e = DiffusionEngine::from_density_map(&density_map(&c));
        let mass = e.total_live_density();
        assert!(mass > 0.0, "{}: empty field", c.name);
        let (nx, ny) = (e.nx() as f64, e.ny() as f64);
        for _ in 0..40 {
            e.compute_velocities();
            // Inside, on and beyond every grid edge: the gather
            // clamps to the edge bins.
            for x in [-1.0, 0.0, 0.25, nx / 2.0, nx - 0.5, nx, nx + 1.0] {
                for y in [-1.0, 0.0, 0.25, ny / 2.0, ny - 0.5, ny, ny + 1.0] {
                    let v = e.velocity_at(Point::new(x, y));
                    assert!(v.x.is_finite() && v.y.is_finite(), "{}: ({x}, {y})", c.name);
                }
            }
            e.step_density(0.2);
        }
        assert_close(&c, "live mass", e.total_live_density(), mass);
        assert!(e.densities().iter().all(|d| d.is_finite()), "{}", c.name);
    }
}

#[test]
fn spectral_solver_conserves_live_density() {
    for c in cases() {
        let map = density_map(&c);
        let (nx, ny) = (map.grid().nx(), map.grid().ny());
        let mass: f64 = map.densities().iter().sum();
        let mut solver = SpectralSolver::new(nx, ny, map.densities());
        let mut out = vec![0.0; nx * ny];
        for t in [0.0, 0.5, 40.0] {
            solver.density_at(t, &mut out);
            assert!(out.iter().all(|d| d.is_finite()), "{}: t = {t}", c.name);
            assert_close(&c, "spectral mass", out.iter().sum(), mass);
        }
    }
}

#[test]
fn planar_runners_finish_with_finite_positions() {
    for c in cases() {
        for solver in [SolverKind::Ftcs, SolverKind::Spectral] {
            let mut p = c.placement.clone();
            GlobalDiffusion::new(config(&c, solver)).run(&c.netlist, &c.die, &mut p);
            assert_finite(&c, solver.as_str(), &p);
        }
        let mut p = c.placement.clone();
        LocalDiffusion::new(config(&c, SolverKind::Ftcs)).run(&c.netlist, &c.die, &mut p);
        assert_finite(&c, "local", &p);
    }
}

#[test]
fn single_tier_volumetric_runner_finishes_and_conserves_live_density() {
    for c in cases() {
        let placement = || VolPlacement {
            xy: c.placement.clone(),
            z: vec![0.5; c.netlist.num_cells()],
        };
        for solver in [SolverKind::Ftcs, SolverKind::Spectral] {
            let mut vp = placement();
            let r =
                VolumetricDiffusion::new(config(&c, solver), 1).run(&c.netlist, &c.die, &mut vp);
            assert_finite(&c, "volumetric", &vp.xy);
            assert!(vp.z.iter().all(|z| z.is_finite()), "{}: depths", c.name);
            assert!(r.field.iter().all(|d| d.is_finite()), "{}: field", c.name);
        }

        // A shipped-in field with a fixed step count is neither
        // manipulated nor cut short, so its mass must come back intact.
        let field = density_map(&c).densities().to_vec();
        let mass: f64 = field.iter().sum();
        let job = VolJobSpec {
            field: Some(field),
            exact_steps: Some(25),
            ..VolJobSpec::full(1)
        };
        let runner = VolumetricDiffusion::new(config(&c, SolverKind::Ftcs), 1);
        let mut vp = placement();
        let r = runner.run_job(&job, &c.netlist, &c.die, &mut vp, &|| false);
        assert_eq!(r.steps, 25, "{}", c.name);
        assert_finite(&c, "volumetric job", &vp.xy);
        assert_close(&c, "volumetric mass", r.field.iter().sum(), mass);
    }
}
