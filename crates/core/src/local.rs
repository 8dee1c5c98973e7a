//! Robust local diffusion with dynamic density update (paper Algorithm 3).

use crate::advect::{advect_cells, CellCache, LiveCells};
use crate::global::DiffusionResult;
use crate::observe::{lap, DiffusionObserver, KernelKind, NoopObserver, RoundEvent, RunRecorder};
use crate::window::identify_windows_into;
use crate::{DiffusionConfig, DiffusionEngine, StepRecord};
use dpm_netlist::Netlist;
use dpm_par::ThreadPool;
use dpm_place::{BinGrid, DensityMap, Die, Placement};

/// Algorithm 3: robust local diffusion.
///
/// Each *round*:
///
/// 1. measure the real placement density (dynamic density update,
///    Section VI-B);
/// 2. identify local diffusion windows around overfull regions
///    (Algorithm 2) and freeze everything else;
/// 3. run `N_U` diffusion steps confined to the windows, each advect
///    visiting only the cells centred in a live bin at the round's
///    start (the others cannot move this round; DESIGN.md §20);
///
/// and the loop stops when the measured local overflow no longer
/// improves — the paper's stopping rule — or when no window is overfull
/// at all (converged).
///
/// Compared to [`GlobalDiffusion`](crate::GlobalDiffusion) this moves far
/// fewer cells (the paper reports ~70% less total movement) because cells
/// in already-legal regions are never touched, and it needs no initial
/// density manipulation: window identification guarantees minimal
/// spreading.
///
/// # Examples
///
/// ```
/// use dpm_geom::Point;
/// use dpm_netlist::{NetlistBuilder, CellKind};
/// use dpm_place::{Die, Placement};
/// use dpm_diffusion::{DiffusionConfig, LocalDiffusion};
///
/// let mut b = NetlistBuilder::new();
/// for i in 0..24 {
///     b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::Movable);
/// }
/// let nl = b.build()?;
/// let die = Die::new(96.0, 96.0, 12.0);
/// let mut p = Placement::new(nl.num_cells());
/// for (i, c) in nl.cell_ids().enumerate() {
///     p.set(c, Point::new(36.0 + (i % 4) as f64 * 2.5, 36.0 + (i / 4) as f64 * 2.0));
/// }
/// // W1 = 0 judges raw bin density; W2 = 1 lets the hot bin's direct
/// // neighborhood absorb the overflow.
/// let cfg = DiffusionConfig::default()
///     .with_bin_size(24.0)
///     .with_update_period(10)
///     .with_windows(0, 1);
/// let result = LocalDiffusion::new(cfg).run(&nl, &die, &mut p);
/// assert!(result.steps > 0);
/// # Ok::<(), dpm_netlist::BuildNetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LocalDiffusion {
    cfg: DiffusionConfig,
}

impl LocalDiffusion {
    /// Minimum relative measured-overflow improvement per round to keep
    /// going (guards against chasing an asymptotic tail).
    const MIN_RELATIVE_IMPROVEMENT: f64 = 0.02;

    /// Creates a local-diffusion runner with the given parameters.
    pub fn new(cfg: DiffusionConfig) -> Self {
        Self { cfg }
    }

    /// The configuration this runner uses.
    pub fn config(&self) -> &DiffusionConfig {
        &self.cfg
    }

    /// Runs robust local diffusion, mutating `placement` in place.
    ///
    /// The round loop reuses one density map, one engine and one set of
    /// analysis buffers across rounds (the dynamic density update runs
    /// every round — reallocating them per round dominated small-window
    /// runs), and every kernel runs on the configured worker pool.
    pub fn run(&self, netlist: &Netlist, die: &Die, placement: &mut Placement) -> DiffusionResult {
        self.run_observed(netlist, die, placement, &|| false, &mut NoopObserver)
    }

    /// Runs robust local diffusion with a cancellation hook and an
    /// attached [`DiffusionObserver`].
    ///
    /// `should_stop` is polled between rounds *and* between the `N_U`
    /// diffusion steps inside a round, so a deadline can cut a long round
    /// short. On cancellation the loop exits immediately with
    /// [`DiffusionResult::cancelled`] set; the placement keeps the partial
    /// progress (every completed step left it consistent). A hook that
    /// never fires reproduces [`run`](Self::run) exactly — the hook is
    /// consulted only between steps and never changes the arithmetic.
    ///
    /// On top of the per-step and per-kernel callbacks that
    /// [`GlobalDiffusion::run_observed`](crate::GlobalDiffusion::run_observed)
    /// emits, local diffusion calls [`DiffusionObserver::on_round`] at
    /// each executed round boundary, after the dynamic density update
    /// measured the real placement and the round's windows and live-cell
    /// list were built. Observers see only shared
    /// references to post-step state and cannot perturb the dynamics —
    /// observed and plain runs produce bit-identical placements.
    pub fn run_observed(
        &self,
        netlist: &Netlist,
        die: &Die,
        placement: &mut Placement,
        should_stop: &dyn Fn() -> bool,
        observer: &mut dyn DiffusionObserver,
    ) -> DiffusionResult {
        assert!(self.cfg.w2 >= self.cfg.w1, "W2 must be at least W1");
        let grid = BinGrid::new(die.outline(), self.cfg.bin_size);
        let pool = ThreadPool::new(self.cfg.threads);
        let mut rec = RunRecorder::new(observer, pool.threads());
        let mut steps = 0usize;
        let mut rounds = 0usize;
        let mut converged = false;
        let mut cancelled = false;
        let mut best_overflow = f64::INFINITY;

        // Round-loop buffers, allocated once and reused.
        let mut map = rec.time(KernelKind::Splat, || {
            DensityMap::from_placement_with_pool(netlist, placement, grid.clone(), &pool)
        });
        let mut engine = DiffusionEngine::from_density_map(&map);
        engine.set_up(&self.cfg, false);
        let tau = self.cfg.dt * self.cfg.diffusivity;
        let cells = CellCache::new(netlist, &grid);
        let mut live = LiveCells::default();
        let mut avg: Vec<f64> = Vec::new();
        let mut frozen: Vec<bool> = Vec::new();

        while rounds < self.cfg.max_rounds {
            if should_stop() {
                cancelled = true;
                break;
            }
            // Dynamic density update: measure the *real* placement.
            if rounds > 0 {
                rec.time(KernelKind::Splat, || {
                    map.recompute_with_pool(netlist, placement, &pool)
                });
                engine.reload_from_density_map(&map);
            }
            map.windowed_average_into(self.cfg.w1, &mut avg);
            let (measured, max_local) = map.local_overflow_from(&avg, self.cfg.d_max);

            // Identify windows around overfull regions. Convergence
            // mirrors global diffusion's criterion: every neighborhood
            // average within `Δ` of the target ("close to legal" — the
            // detailed legalizer finishes from there).
            identify_windows_into(&map, &avg, self.cfg.w2, self.cfg.d_max, &mut frozen);
            if frozen.iter().all(|&f| f) || max_local <= self.cfg.delta {
                converged = true;
                break;
            }

            // Stop when the measured overflow no longer meaningfully
            // improves — chasing the convergence tail only over-spreads
            // (the paper stops as soon as overflow ticks up, for the same
            // reason).
            if rounds > 0 && measured >= best_overflow * (1.0 - Self::MIN_RELATIVE_IMPROVEMENT) {
                break;
            }
            best_overflow = best_overflow.min(measured);
            rounds += 1;

            // Only cells centred in a live bin can move this round
            // (DESIGN.md §20). The list build is billed to the round's
            // first advect.
            engine.set_frozen_mask(&frozen);
            let ((), mut list_elapsed) = lap(|| live.rebuild(&engine, &grid, &cells, placement));
            rec.observer.on_round(&RoundEvent {
                round: rounds,
                measured_overflow: measured,
                max_window_overflow: max_local,
                steps_so_far: steps,
                live_cells: live.len(),
            });

            for i in 0..self.cfg.n_u {
                if steps >= self.cfg.max_steps {
                    break;
                }
                if i > 0 && should_stop() {
                    cancelled = true;
                    break;
                }
                rec.time(KernelKind::Velocity, || engine.compute_velocities());
                let (advect, advect_elapsed) =
                    lap(|| advect_cells(&engine, &grid, &cells, placement, &self.cfg, Some(&live)));
                let advect_elapsed = advect_elapsed + std::mem::take(&mut list_elapsed);
                rec.record(KernelKind::Advect, advect_elapsed, rec.threads, 1);
                rec.time(KernelKind::Ftcs, || engine.step_density(tau));
                let record = StepRecord {
                    step: steps,
                    sweeps: 1,
                    movement: advect.total_movement,
                    computed_overflow: engine.total_overflow(self.cfg.d_max),
                    max_density: engine.max_live_density(),
                    measured_overflow: if i == 0 { Some(measured) } else { None },
                };
                rec.step(record, rounds, placement, netlist);
                steps += 1;
            }
            if cancelled || steps >= self.cfg.max_steps {
                break;
            }
        }

        DiffusionResult {
            steps,
            rounds,
            converged,
            cancelled,
            telemetry: rec.telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::env_config;
    use crate::GlobalDiffusion;
    use dpm_geom::Point;
    use dpm_netlist::{CellKind, NetlistBuilder};
    use dpm_place::MovementStats;

    /// `n` cells clustered densely (staggered) around `at` in a 144×144
    /// die. With 24-unit bins, 100 cells of area 72 concentrated within
    /// ~2×2 bins give a windowed (W1 = 1) average well above 1.0.
    fn pile(n: usize, at: Point) -> (Netlist, Die, Placement) {
        let mut b = NetlistBuilder::new();
        for i in 0..n {
            b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::Movable);
        }
        let nl = b.build().expect("valid");
        let die = Die::new(144.0, 144.0, 12.0);
        let mut p = Placement::new(nl.num_cells());
        for (i, c) in nl.cell_ids().enumerate() {
            let dx = (i % 10) as f64 * 3.6;
            let dy = (i / 10) as f64 * 3.0;
            p.set(c, Point::new(at.x + dx, at.y + dy));
        }
        (nl, die, p)
    }

    /// A hot cluster in one corner plus a loose, legal far region.
    fn pile_plus_legal() -> (Netlist, Die, Placement, Vec<dpm_netlist::CellId>) {
        let mut b = NetlistBuilder::new();
        for i in 0..100 {
            b.add_cell(format!("hot{i}"), 6.0, 12.0, CellKind::Movable);
        }
        let mut legal = Vec::new();
        for i in 0..4 {
            legal.push(b.add_cell(format!("cold{i}"), 6.0, 12.0, CellKind::Movable));
        }
        let nl = b.build().expect("valid");
        let die = Die::new(144.0, 144.0, 12.0);
        let mut p = Placement::new(nl.num_cells());
        for (i, c) in nl.cell_ids().take(100).enumerate() {
            let dx = (i % 10) as f64 * 3.6;
            let dy = (i / 10) as f64 * 3.0;
            p.set(c, Point::new(26.0 + dx, 26.0 + dy));
        }
        for (i, &c) in legal.iter().enumerate() {
            p.set(c, Point::new(100.0 + i as f64 * 8.0, 120.0));
        }
        (nl, die, p, legal)
    }

    fn cfg() -> DiffusionConfig {
        env_config()
            .with_bin_size(24.0)
            .with_update_period(10)
            .with_windows(1, 2)
    }

    /// A 300-cell hot pile near one corner of a 720×720 die (30×30 bins
    /// of 24) on a loose lattice of 884 legal cells: the windows open
    /// around the pile and leave most cells frozen.
    fn hot_corner_in_legal_field() -> (Netlist, Die, Placement) {
        let mut b = NetlistBuilder::new();
        let mut corners = Vec::new();
        for i in 0..300 {
            b.add_cell(format!("hot{i}"), 6.0, 12.0, CellKind::Movable);
            corners.push(Point::new(
                60.0 + (i % 15) as f64 * 3.6,
                60.0 + (i / 15) as f64 * 3.0,
            ));
        }
        for k in 0..30 {
            for j in 0..30 {
                if (2..6).contains(&j) && (2..6).contains(&k) {
                    continue;
                }
                b.add_cell(format!("cold{j}_{k}"), 6.0, 12.0, CellKind::Movable);
                corners.push(Point::new(3.0 + j as f64 * 23.8, 5.0 + k as f64 * 23.6));
            }
        }
        let nl = b.build().expect("valid");
        let p: Placement = corners.into_iter().collect();
        (nl, Die::new(720.0, 720.0, 12.0), p)
    }

    /// Algorithm 3 rebuilt from the primitives, advecting through the
    /// walk over every cell (frozen bins respected) instead of the live
    /// list. Returns the step and round counts and, per round, how many
    /// cells start it centred in a live bin.
    fn oracle_run(
        cfg: &DiffusionConfig,
        nl: &Netlist,
        die: &Die,
        p: &mut Placement,
    ) -> (usize, usize, Vec<usize>) {
        let grid = BinGrid::new(die.outline(), cfg.bin_size);
        let mut map = DensityMap::from_placement(nl, p, grid.clone());
        let mut engine = DiffusionEngine::from_density_map(&map);
        engine.set_conservative_boundaries(!cfg.paper_boundaries);
        engine.set_threads(cfg.threads);
        let cells = CellCache::new(nl, &grid);
        let every = LiveCells::every(&cells);
        let (mut steps, mut rounds, mut best) = (0, 0, f64::INFINITY);
        let mut live_counts = Vec::new();
        while rounds < cfg.max_rounds {
            if rounds > 0 {
                map = DensityMap::from_placement(nl, p, grid.clone());
                engine.reload_from_density_map(&map);
            }
            let avg = map.windowed_average(cfg.w1);
            let (measured, max_local) = map.local_overflow_from(&avg, cfg.d_max);
            let frozen = crate::identify_windows(&map, cfg.w1, cfg.w2, cfg.d_max);
            if frozen.iter().all(|&f| f) || max_local <= cfg.delta {
                break;
            }
            let floor = best * (1.0 - LocalDiffusion::MIN_RELATIVE_IMPROVEMENT);
            if rounds > 0 && measured >= floor {
                break;
            }
            best = best.min(measured);
            rounds += 1;
            engine.set_frozen_mask(&frozen);
            live_counts.push(
                nl.movable_cell_ids()
                    .filter(|&id| {
                        let b = grid.bin_of_point(p.cell_center(nl, id));
                        engine.is_live(b.j, b.k)
                    })
                    .count(),
            );
            for _ in 0..cfg.n_u {
                if steps >= cfg.max_steps {
                    break;
                }
                engine.compute_velocities();
                advect_cells(&engine, &grid, &cells, p, cfg, Some(&every));
                engine.step_density(cfg.dt * cfg.diffusivity);
                steps += 1;
            }
            if steps >= cfg.max_steps {
                break;
            }
        }
        (steps, rounds, live_counts)
    }

    #[test]
    fn run_matches_the_full_walk_oracle_at_every_thread_count() {
        // Three steps per round: several rounds before the pile spreads.
        let cfg = cfg().with_update_period(3);
        let (nl, die, p0) = hot_corner_in_legal_field();
        let mut want = p0.clone();
        let (steps, rounds, live) = oracle_run(&cfg, &nl, &die, &mut want);
        assert!(rounds >= 2, "only {rounds} round(s)");
        for &n in &live {
            assert!(
                n < nl.num_cells() / 2,
                "{n} of {} cells live",
                nl.num_cells()
            );
        }
        /// Records each round's live-cell count.
        struct LiveCounts(Vec<usize>);
        impl crate::DiffusionObserver for LiveCounts {
            fn on_round(&mut self, event: &RoundEvent) {
                self.0.push(event.live_cells);
            }
        }
        for threads in [1, 2, 4] {
            let mut got = p0.clone();
            let mut counts = LiveCounts(Vec::new());
            let r = LocalDiffusion::new(cfg.clone().with_threads(threads)).run_observed(
                &nl,
                &die,
                &mut got,
                &|| false,
                &mut counts,
            );
            assert_eq!((r.steps, r.rounds), (steps, rounds), "{threads} threads");
            assert_eq!(
                got, want,
                "{threads} threads: placement differs from oracle"
            );
            assert_eq!(counts.0, live, "{threads} threads: live cells per round");
            assert!(r.telemetry.records().iter().all(|rec| rec.sweeps == 1));
        }
    }

    #[test]
    fn resolves_hot_spot() {
        let (nl, die, mut p) = pile(100, Point::new(30.0, 30.0));
        let grid = BinGrid::new(die.outline(), 24.0);
        let initial =
            DensityMap::from_placement(&nl, &p, grid.clone()).total_local_overflow(1, 1.0);
        let r = LocalDiffusion::new(cfg()).run(&nl, &die, &mut p);
        assert!(r.steps > 0);
        assert!(r.rounds >= 1);
        let residual = DensityMap::from_placement(&nl, &p, grid).total_local_overflow(1, 1.0);
        assert!(
            residual < initial / 2.0,
            "residual overflow {residual} not halved from {initial}"
        );
    }

    #[test]
    fn cells_in_legal_regions_never_move() {
        let (nl, die, mut p, legal) = pile_plus_legal();
        let before = p.clone();
        LocalDiffusion::new(cfg()).run(&nl, &die, &mut p);
        for &c in &legal {
            assert_eq!(p.get(c), before.get(c), "cold cell {c} moved");
        }
    }

    #[test]
    fn local_moves_less_than_global() {
        let (nl, die, mut pl, _) = pile_plus_legal();
        let p0 = pl.clone();
        LocalDiffusion::new(cfg()).run(&nl, &die, &mut pl);
        let ml = MovementStats::between(&nl, &p0, &pl);

        let mut pg = p0.clone();
        GlobalDiffusion::new(cfg()).run(&nl, &die, &mut pg);
        let mg = MovementStats::between(&nl, &p0, &pg);

        // With the default loose stopping band both variants do little
        // work on this small case; the robust claim is that local never
        // does *substantially more* (its hard guarantee — not touching
        // legal regions — is covered by cells_in_legal_regions_never_move).
        assert!(
            ml.total <= mg.total * 1.5,
            "local ({}) should not move much more than global ({})",
            ml.total,
            mg.total
        );
    }

    #[test]
    fn legal_input_converges_immediately() {
        let mut b = NetlistBuilder::new();
        for i in 0..4 {
            b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::Movable);
        }
        let nl = b.build().expect("valid");
        let die = Die::new(144.0, 144.0, 12.0);
        let mut p = Placement::new(nl.num_cells());
        for (i, c) in nl.cell_ids().enumerate() {
            p.set(c, Point::new(i as f64 * 30.0, 60.0));
        }
        let before = p.clone();
        let r = LocalDiffusion::new(cfg()).run(&nl, &die, &mut p);
        assert!(r.converged);
        assert_eq!(r.steps, 0);
        assert_eq!(p, before);
    }

    #[test]
    fn cancellation_mid_round_stops_with_partial_progress() {
        use std::cell::Cell;

        let (nl, die, mut p) = pile(100, Point::new(30.0, 30.0));
        let p0 = p.clone();
        // Allow three hook polls, then cancel: the run stops inside the
        // first round's N_U-step loop.
        let polls = Cell::new(3usize);
        let stop = || {
            if polls.get() == 0 {
                true
            } else {
                polls.set(polls.get() - 1);
                false
            }
        };
        let r =
            LocalDiffusion::new(cfg()).run_observed(&nl, &die, &mut p, &stop, &mut NoopObserver);
        assert!(r.cancelled);
        assert!(!r.converged);
        assert!(r.steps >= 1, "at least one step before cancellation");
        assert!(r.steps < 10, "cancelled well before N_U steps: {}", r.steps);
        assert!(MovementStats::between(&nl, &p0, &p).total > 0.0);
    }

    #[test]
    fn never_firing_hook_matches_run_exactly() {
        let (nl, die, mut p1) = pile(100, Point::new(30.0, 30.0));
        let (_, _, mut p2) = pile(100, Point::new(30.0, 30.0));
        let r1 = LocalDiffusion::new(cfg()).run(&nl, &die, &mut p1);
        let r2 = LocalDiffusion::new(cfg()).run_observed(
            &nl,
            &die,
            &mut p2,
            &|| false,
            &mut NoopObserver,
        );
        assert_eq!((r1.steps, r1.rounds), (r2.steps, r2.rounds));
        assert!(!r2.cancelled);
        assert_eq!(p1, p2);
    }

    #[test]
    fn observed_run_is_bit_identical_to_plain_run() {
        struct Watcher {
            steps: usize,
            rounds: usize,
            step_rounds_seen: Vec<usize>,
            live_cells: Vec<usize>,
        }
        impl crate::DiffusionObserver for Watcher {
            fn on_step(&mut self, event: &crate::StepEvent<'_>) {
                self.steps += 1;
                self.step_rounds_seen.push(event.round);
            }
            fn on_round(&mut self, event: &crate::RoundEvent) {
                assert_eq!(event.round, self.rounds + 1, "rounds arrive in order");
                assert!(event.measured_overflow >= 0.0);
                self.rounds += 1;
                self.live_cells.push(event.live_cells);
            }
        }

        let (nl, die, mut p1) = pile(100, Point::new(30.0, 30.0));
        let (_, _, mut p2) = pile(100, Point::new(30.0, 30.0));
        let r1 = LocalDiffusion::new(cfg()).run(&nl, &die, &mut p1);
        let mut obs = Watcher {
            steps: 0,
            rounds: 0,
            step_rounds_seen: Vec::new(),
            live_cells: Vec::new(),
        };
        let r2 = LocalDiffusion::new(cfg()).run_observed(&nl, &die, &mut p2, &|| false, &mut obs);
        let (_, _, mut p3) = pile(100, Point::new(30.0, 30.0));
        let (_, _, oracle_live) = oracle_run(&cfg(), &nl, &die, &mut p3);
        assert_eq!(obs.live_cells, oracle_live, "live cells per round");
        assert_eq!(p1, p2, "observer must not perturb the dynamics");
        assert_eq!((r1.steps, r1.rounds), (r2.steps, r2.rounds));
        assert_eq!(obs.steps, r2.steps, "one on_step per step");
        assert_eq!(obs.rounds, r2.rounds, "one on_round per executed round");
        // Every step event is tagged with a round that has already been
        // announced via on_round.
        assert!(obs
            .step_rounds_seen
            .iter()
            .all(|&r| r >= 1 && r <= obs.rounds));
    }

    #[test]
    fn round_cap_is_respected() {
        let (nl, die, mut p) = pile(100, Point::new(30.0, 30.0));
        let r = LocalDiffusion::new(cfg().with_max_rounds(2)).run(&nl, &die, &mut p);
        assert!(r.rounds <= 2);
        assert!(r.rounds >= 1);
    }

    #[test]
    fn telemetry_records_measured_overflow_each_round() {
        let (nl, die, mut p) = pile(100, Point::new(30.0, 30.0));
        let r = LocalDiffusion::new(cfg()).run(&nl, &die, &mut p);
        let checkpoints = r.telemetry.measured_checkpoints();
        assert_eq!(checkpoints.len(), r.rounds);
        // Measured overflow decreases round over round.
        for w in checkpoints.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9, "measured overflow rose: {w:?}");
        }
    }
}
