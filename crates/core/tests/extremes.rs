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
//!
//! DIFF(L) advects only the cells centred in a live bin at each round's
//! start. Its degenerate windows get their own cases: every bin frozen
//! but one, no bin frozen, cells centred exactly on a window edge, and
//! the 1×1 grid. Each round's reported live count must match the windows
//! rebuilt from the public API, and every cell left off must stay put.

use dpm_diffusion::{
    identify_windows, DiffusionConfig, DiffusionEngine, DiffusionObserver, GlobalDiffusion,
    LocalDiffusion, NoopObserver, RoundEvent, SolverKind, SpectralSolver, StepEvent, VolJobSpec,
    VolPlacement, VolumetricDiffusion,
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
        let r = runner.run_job_observed(
            &job,
            &c.netlist,
            &c.die,
            &mut vp,
            &|| false,
            &mut NoopObserver,
        );
        assert_eq!(r.steps, 25, "{}", c.name);
        assert_finite(&c, "volumetric job", &vp.xy);
        assert_close(&c, "volumetric mass", r.field.iter().sum(), mass);
    }
}

/// What a DIFF(L) run reports: each round's live-cell count and the
/// placement after each step, tagged with its round.
#[derive(Default)]
struct LocalRounds {
    live: Vec<usize>,
    steps: Vec<(usize, Placement)>,
}

impl DiffusionObserver for LocalRounds {
    fn on_round(&mut self, event: &RoundEvent) {
        self.live.push(event.live_cells);
    }

    fn on_step(&mut self, event: &StepEvent<'_>) {
        self.steps.push((event.round, event.placement.clone()));
    }
}

/// Runs DIFF(L) on `c` and checks every round against the windows
/// rebuilt from the round's starting placement: the reported live count
/// is the number of cells centred in a live bin, and each other cell
/// ends the round where it started, bit for bit. Returns the live
/// counts.
fn assert_local_rounds_list_the_live_cells(c: &Case, cfg: &DiffusionConfig) -> Vec<usize> {
    let mut p = c.placement.clone();
    let mut obs = LocalRounds::default();
    let r = LocalDiffusion::new(cfg.clone()).run_observed(
        &c.netlist,
        &c.die,
        &mut p,
        &|| false,
        &mut obs,
    );
    assert_eq!(
        obs.live.len(),
        r.rounds,
        "{}: one live count per round",
        c.name
    );
    let grid = BinGrid::new(c.die.outline(), cfg.bin_size);
    let mut start = c.placement.clone();
    for (round, &live) in (1..).zip(&obs.live) {
        let map = DensityMap::from_placement(&c.netlist, &start, grid.clone());
        let frozen = identify_windows(&map, cfg.w1, cfg.w2, cfg.d_max);
        let end = obs
            .steps
            .iter()
            .rev()
            .find(|(r, _)| *r == round)
            .map_or(&start, |(_, p)| p)
            .clone();
        let mut listed = 0;
        for id in c.netlist.movable_cell_ids() {
            let b = grid.bin_of_point(start.cell_center(&c.netlist, id));
            if !frozen[b.k * grid.nx() + b.j] {
                listed += 1;
            } else {
                let (a, z) = (start.get(id), end.get(id));
                let same = a.x.to_bits() == z.x.to_bits() && a.y.to_bits() == z.y.to_bits();
                assert!(
                    same,
                    "{} round {round}: frozen cell {id} moved {a:?} -> {z:?}",
                    c.name
                );
            }
        }
        assert_eq!(live, listed, "{} round {round}: live cells", c.name);
        start = end;
    }
    obs.live
}

/// Config for the DIFF(L) window cases: judge raw bin density (W1 = 0)
/// and open a window of Chebyshev radius `w2`.
fn windowed(c: &Case, w2: usize) -> DiffusionConfig {
    config(c, SolverKind::Ftcs).with_windows(0, w2)
}

/// Forty 4×12 cells stacked inside bin (3, 3) of an 8×8 grid of 12-unit
/// bins, four cold cells in far corners, plus `extra` corners.
fn hot_bin_case(name: &'static str, extra: &[(f64, f64)]) -> Case {
    let mut at = vec![(40.0, 36.0); 40];
    at.extend([(4.0, 4.0), (80.0, 80.0), (4.0, 80.0), (80.0, 4.0)]);
    at.extend_from_slice(extra);
    case(name, (96.0, 96.0), 12.0, &at)
}

#[test]
fn local_lists_the_live_cells_on_every_extreme_grid() {
    for c in cases() {
        assert_local_rounds_list_the_live_cells(&c, &config(&c, SolverKind::Ftcs));
    }
}

#[test]
fn local_with_every_bin_frozen_but_one_lists_only_that_bins_cells() {
    let c = hot_bin_case("one_live_bin", &[]);
    let cfg = windowed(&c, 0);
    let frozen = identify_windows(&density_map(&c), cfg.w1, cfg.w2, cfg.d_max);
    assert_eq!(frozen.iter().filter(|&&f| !f).count(), 1, "one live bin");
    let live = assert_local_rounds_list_the_live_cells(&c, &cfg);
    assert_eq!(
        live.first(),
        Some(&40),
        "the hot bin's cells, not the cold ones"
    );
}

#[test]
fn local_with_no_bin_frozen_lists_every_cell() {
    // A window radius as wide as the grid opens every bin.
    let c = hot_bin_case("no_frozen_bin", &[]);
    let cfg = windowed(&c, 8);
    let frozen = identify_windows(&density_map(&c), cfg.w1, cfg.w2, cfg.d_max);
    assert!(frozen.iter().all(|&f| !f), "every bin live");
    let live = assert_local_rounds_list_the_live_cells(&c, &cfg);
    assert!(!live.is_empty());
    assert!(live.iter().all(|&n| n == c.netlist.num_cells()), "{live:?}");
}

#[test]
fn local_decides_a_window_edge_centre_by_the_bin_it_floors_into() {
    // W2 = 1 opens bins 2..=4 in x and y around the hot bin (3, 3).
    // Centres exactly on the window's vertical edges: x = 24 floors into
    // live bin 2 and x = 60 into frozen bin 5. Centres on its horizontal
    // edges: y = 24 floors into live row 2 and y = 60 into frozen row 5.
    let edges = [(22.0, 36.0), (58.0, 36.0), (40.0, 18.0), (40.0, 54.0)];
    let c = hot_bin_case("window_edge", &edges);
    let cfg = windowed(&c, 1);
    let frozen = identify_windows(&density_map(&c), cfg.w1, cfg.w2, cfg.d_max);
    let grid = density_map(&c).grid().clone();
    let live_at = |x: f64, y: f64| {
        let b = grid.bin_of_point(Point::new(x, y));
        !frozen[b.k * grid.nx() + b.j]
    };
    assert!(live_at(24.0, 42.0) && !live_at(60.0, 42.0));
    assert!(live_at(42.0, 24.0) && !live_at(42.0, 60.0));
    let live = assert_local_rounds_list_the_live_cells(&c, &cfg);
    assert_eq!(
        live.first(),
        Some(&42),
        "the hot cells and the two low edges"
    );
}

#[test]
fn local_on_a_one_bin_grid_lists_all_or_nothing() {
    // Twenty 4×12 cells overfill the 24×24 die, which one bin covers.
    let c = case(
        "one_bin_overfull",
        (24.0, 24.0),
        48.0,
        &pile(4.0, 2.0, 5, 4),
    );
    assert_eq!(
        (density_map(&c).grid().nx(), density_map(&c).grid().ny()),
        (1, 1)
    );
    for w2 in [0, 1] {
        let live = assert_local_rounds_list_the_live_cells(&c, &windowed(&c, w2));
        assert_eq!(
            live.first(),
            Some(&20),
            "W2 = {w2}: the one bin is overfull"
        );
        assert!(live.iter().all(|&n| n == 0 || n == 20), "{live:?}");
    }
}
