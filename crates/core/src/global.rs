//! Global diffusion-based legalization (paper Algorithm 1).

use crate::advect::{advect_cells, CellCache};
use crate::observe::{DiffusionObserver, KernelEvent, KernelKind, NoopObserver, StepEvent};
use crate::spectral::SpectralSolver;
use crate::{
    manipulate_density, DiffusionConfig, DiffusionEngine, SolverKind, StepRecord, Telemetry,
};
use dpm_netlist::Netlist;
use dpm_par::ThreadPool;
use dpm_place::{BinGrid, DensityMap, Die, Placement};
use std::time::Instant;

/// Outcome of a diffusion run ([`GlobalDiffusion`] or
/// [`LocalDiffusion`](crate::LocalDiffusion)).
#[derive(Debug, Clone)]
pub struct DiffusionResult {
    /// Total number of diffusion steps executed. Under
    /// [`SolverKind::Spectral`] this counts advect/re-jump iterations:
    /// each one covers a geometrically growing stride of FTCS-step
    /// budget, so the count is roughly logarithmic in the diffusion
    /// time an FTCS run would have stepped through.
    pub steps: usize,
    /// Number of local-diffusion rounds (1 for global diffusion).
    pub rounds: usize,
    /// `true` if the stopping criterion was met before the step/round cap.
    pub converged: bool,
    /// `true` if the run was cut short by a cancellation hook (see
    /// [`GlobalDiffusion::run_with_cancel`]). The placement holds the
    /// partial progress made up to the cancellation point.
    pub cancelled: bool,
    /// Per-step telemetry (movement, overflow — the paper's Figs. 9–10).
    pub telemetry: Telemetry,
}

/// Algorithm 1: global diffusion.
///
/// The whole chip diffuses: the initial density map is (optionally)
/// manipulated so the equilibrium equals the target density (Eq. 8), then
/// the engine alternates velocity computation, cell advection, and FTCS
/// density steps until the maximum *computed* density drops to
/// `d_max + Δ`.
///
/// # Examples
///
/// ```
/// use dpm_geom::Point;
/// use dpm_netlist::{NetlistBuilder, CellKind};
/// use dpm_place::{Die, Placement, DensityMap, BinGrid};
/// use dpm_diffusion::{DiffusionConfig, GlobalDiffusion};
///
/// let mut b = NetlistBuilder::new();
/// for i in 0..24 {
///     b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::Movable);
/// }
/// let nl = b.build()?;
/// let die = Die::new(96.0, 96.0, 12.0);
/// let mut p = Placement::new(nl.num_cells());
/// for (i, c) in nl.cell_ids().enumerate() {
///     // A dense, slightly staggered pile around (36, 36).
///     p.set(c, Point::new(36.0 + (i % 4) as f64 * 2.5, 36.0 + (i / 4) as f64 * 2.0));
/// }
/// let result = GlobalDiffusion::new(DiffusionConfig::default().with_bin_size(24.0))
///     .run(&nl, &die, &mut p);
/// assert!(result.converged);
/// assert!(result.steps > 0);
/// # Ok::<(), dpm_netlist::BuildNetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GlobalDiffusion {
    cfg: DiffusionConfig,
}

impl GlobalDiffusion {
    /// Creates a global-diffusion runner with the given parameters.
    pub fn new(cfg: DiffusionConfig) -> Self {
        Self { cfg }
    }

    /// The configuration this runner uses.
    pub fn config(&self) -> &DiffusionConfig {
        &self.cfg
    }

    /// Runs global diffusion, mutating `placement` in place.
    ///
    /// Returns telemetry and whether the density target was reached within
    /// [`DiffusionConfig::max_steps`].
    pub fn run(&self, netlist: &Netlist, die: &Die, placement: &mut Placement) -> DiffusionResult {
        self.run_with_cancel(netlist, die, placement, &|| false)
    }

    /// Runs global diffusion with a cancellation hook.
    ///
    /// `should_stop` is polled between diffusion steps; once it returns
    /// `true` the loop exits before the next step, leaving the placement
    /// in its current (partially migrated, still consistent) state and
    /// setting [`DiffusionResult::cancelled`]. This is how `dpm-serve`
    /// enforces per-request deadlines: the hook compares `Instant::now()`
    /// against the request deadline, costing one branch per step.
    ///
    /// A hook that always returns `false` makes this identical to
    /// [`run`](Self::run) — the hook never influences the arithmetic, only
    /// whether the next step happens, so cancellation cannot perturb
    /// determinism.
    pub fn run_with_cancel(
        &self,
        netlist: &Netlist,
        die: &Die,
        placement: &mut Placement,
        should_stop: &dyn Fn() -> bool,
    ) -> DiffusionResult {
        self.run_observed(netlist, die, placement, should_stop, &mut NoopObserver)
    }

    /// Runs global diffusion with a cancellation hook and an attached
    /// [`DiffusionObserver`].
    ///
    /// The observer is notified after every completed step
    /// ([`DiffusionObserver::on_step`]) and every timed kernel
    /// invocation ([`DiffusionObserver::on_kernel`]); it sees only
    /// shared references to post-step state, so attaching one cannot
    /// change the run's arithmetic — `run`, `run_with_cancel` and
    /// `run_observed` produce bit-identical placements for the same
    /// input (see `observed_run_is_bit_identical_to_plain_run`).
    pub fn run_observed(
        &self,
        netlist: &Netlist,
        die: &Die,
        placement: &mut Placement,
        should_stop: &dyn Fn() -> bool,
        observer: &mut dyn DiffusionObserver,
    ) -> DiffusionResult {
        let grid = BinGrid::new(die.outline(), self.cfg.bin_size);
        let pool = ThreadPool::new(self.cfg.threads);
        let splat_start = Instant::now();
        let map = DensityMap::from_placement_with_pool(netlist, placement, grid.clone(), &pool);
        let splat_elapsed = splat_start.elapsed();
        let mut engine = DiffusionEngine::from_density_map(&map);
        engine.set_conservative_boundaries(!self.cfg.paper_boundaries);
        engine.set_threads(self.cfg.threads);
        engine.set_lanes(self.cfg.lanes);
        engine
            .kernel_timers_mut()
            .splat
            .record(splat_elapsed, pool.threads());
        observer.on_kernel(&KernelEvent {
            kernel: KernelKind::Splat,
            elapsed: splat_elapsed,
            threads: pool.threads(),
        });

        if self.cfg.manipulate {
            let mut d = engine.densities().to_vec();
            let wall = engine.wall_mask().to_vec();
            manipulate_density(&mut d, Some(&wall), self.cfg.d_max);
            engine.load_densities(&d);
        }

        let cells = CellCache::new(netlist, &grid);
        let mut telemetry = Telemetry::new();
        let mut steps = 0;
        let mut converged = engine.max_live_density() <= self.cfg.d_max + self.cfg.delta;
        let mut cancelled = false;

        // The spectral jump models the pure heat equation with
        // zero-flux boundaries: walls/frozen bins break the DCT
        // diagonalization, and the paper's mirror boundary rule is a
        // different operator, so those runs keep the FTCS stepper.
        let use_spectral = self.cfg.solver == SolverKind::Spectral
            && !self.cfg.paper_boundaries
            && !engine.wall_mask().iter().any(|&w| w)
            && !engine.frozen_mask().iter().any(|&f| f);

        if use_spectral {
            // Closed-form evolution: the field no longer needs
            // stepping — iterations exist only so cells can follow the
            // changing velocity field. Strides double geometrically
            // (in units of the FTCS step budget): early iterations
            // resolve the fast transient finely, later ones jump whole
            // swaths of diffusion time in one inverse transform.
            let tau = self.cfg.dt * self.cfg.diffusivity;
            let mut solver = SpectralSolver::new(engine.nx(), engine.ny(), engine.densities());
            let mut field = vec![0.0; engine.nx() * engine.ny()];
            let mut elapsed_budget = 0usize;
            while !converged && elapsed_budget < self.cfg.max_steps {
                if should_stop() {
                    cancelled = true;
                    break;
                }
                let stride = (1usize << steps.min(20)).min(self.cfg.max_steps - elapsed_budget);
                let velocity_start = Instant::now();
                engine.compute_velocities();
                observer.on_kernel(&KernelEvent {
                    kernel: KernelKind::Velocity,
                    elapsed: velocity_start.elapsed(),
                    threads: pool.threads(),
                });
                let advect_start = Instant::now();
                // One advect call covers the whole stride: velocities
                // act for stride·Δt, still clamped per call by
                // max_step_displacement.
                let mut strided = self.cfg.clone();
                strided.dt = self.cfg.dt * stride as f64;
                let advect = advect_cells(&engine, &grid, &cells, placement, &strided, false);
                let advect_elapsed = advect_start.elapsed();
                engine
                    .kernel_timers_mut()
                    .advect
                    .record(advect_elapsed, pool.threads());
                observer.on_kernel(&KernelEvent {
                    kernel: KernelKind::Advect,
                    elapsed: advect_elapsed,
                    threads: pool.threads(),
                });
                // The jump replaces the FTCS sweep, so its time lands
                // in the ftcs timer slot (recorded with the pool width
                // the run was configured for, though transforms are
                // serial by construction).
                let jump_start = Instant::now();
                elapsed_budget += stride;
                solver.density_at(elapsed_budget as f64 * tau * 0.5, &mut field);
                engine.load_densities(&field);
                let jump_elapsed = jump_start.elapsed();
                engine
                    .kernel_timers_mut()
                    .ftcs
                    .record(jump_elapsed, pool.threads());
                observer.on_kernel(&KernelEvent {
                    kernel: KernelKind::Ftcs,
                    elapsed: jump_elapsed,
                    threads: pool.threads(),
                });
                steps += 1;
                let max_density = engine.max_live_density();
                let record = StepRecord {
                    step: steps - 1,
                    movement: advect.total_movement,
                    computed_overflow: engine.total_overflow(self.cfg.d_max),
                    max_density,
                    measured_overflow: None,
                };
                telemetry.push(record);
                observer.on_step(&StepEvent {
                    record,
                    round: 1,
                    placement,
                    netlist,
                });
                converged = max_density <= self.cfg.d_max + self.cfg.delta;
            }
        } else {
            while !converged && steps < self.cfg.max_steps {
                if should_stop() {
                    cancelled = true;
                    break;
                }
                let velocity_start = Instant::now();
                engine.compute_velocities();
                observer.on_kernel(&KernelEvent {
                    kernel: KernelKind::Velocity,
                    elapsed: velocity_start.elapsed(),
                    threads: pool.threads(),
                });
                let advect_start = Instant::now();
                let advect = advect_cells(&engine, &grid, &cells, placement, &self.cfg, false);
                let advect_elapsed = advect_start.elapsed();
                engine
                    .kernel_timers_mut()
                    .advect
                    .record(advect_elapsed, pool.threads());
                observer.on_kernel(&KernelEvent {
                    kernel: KernelKind::Advect,
                    elapsed: advect_elapsed,
                    threads: pool.threads(),
                });
                let ftcs_start = Instant::now();
                engine.step_density(self.cfg.dt * self.cfg.diffusivity);
                observer.on_kernel(&KernelEvent {
                    kernel: KernelKind::Ftcs,
                    elapsed: ftcs_start.elapsed(),
                    threads: pool.threads(),
                });
                steps += 1;
                let max_density = engine.max_live_density();
                let record = StepRecord {
                    step: steps - 1,
                    movement: advect.total_movement,
                    computed_overflow: engine.total_overflow(self.cfg.d_max),
                    max_density,
                    measured_overflow: None,
                };
                telemetry.push(record);
                observer.on_step(&StepEvent {
                    record,
                    round: 1,
                    placement,
                    netlist,
                });
                converged = max_density <= self.cfg.d_max + self.cfg.delta;
            }
        }

        telemetry.set_kernels(*engine.kernel_timers());
        DiffusionResult {
            steps,
            rounds: 1,
            converged,
            cancelled,
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_geom::Point;
    use dpm_netlist::{CellKind, NetlistBuilder};
    use dpm_place::MovementStats;

    /// `n` cells clustered in a tight grid of points around `at` (cells
    /// slightly staggered so the velocity field can separate them).
    fn pile(n: usize, at: Point) -> (Netlist, Die, Placement) {
        let mut b = NetlistBuilder::new();
        for i in 0..n {
            b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::Movable);
        }
        let nl = b.build().expect("valid");
        let die = Die::new(96.0, 96.0, 12.0);
        let mut p = Placement::new(nl.num_cells());
        for (i, c) in nl.cell_ids().enumerate() {
            let dx = (i % 4) as f64 * 2.5;
            let dy = (i / 4) as f64 * 2.0;
            p.set(c, Point::new(at.x + dx, at.y + dy));
        }
        (nl, die, p)
    }

    fn cfg() -> DiffusionConfig {
        DiffusionConfig::default().with_bin_size(24.0)
    }

    #[test]
    fn converges_on_overfull_pile() {
        let (nl, die, mut p) = pile(24, Point::new(36.0, 36.0));
        let r = GlobalDiffusion::new(cfg()).run(&nl, &die, &mut p);
        assert!(r.converged, "did not converge in {} steps", r.steps);
        assert!(r.steps > 0);
        assert_eq!(r.rounds, 1);
        // Real measured density must also be (close to) legal.
        let grid = BinGrid::new(die.outline(), 24.0);
        let dm = DensityMap::from_placement(&nl, &p, grid);
        assert!(
            dm.max_density() < 1.5,
            "measured density {}",
            dm.max_density()
        );
    }

    #[test]
    fn already_legal_placement_is_untouched() {
        // Cells spread out, every bin under target.
        let mut b = NetlistBuilder::new();
        for i in 0..4 {
            b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::Movable);
        }
        let nl = b.build().expect("valid");
        let die = Die::new(96.0, 96.0, 12.0);
        let mut p = Placement::new(nl.num_cells());
        for (i, c) in nl.cell_ids().enumerate() {
            p.set(c, Point::new(i as f64 * 24.0, i as f64 * 24.0));
        }
        let before = p.clone();
        let r = GlobalDiffusion::new(cfg()).run(&nl, &die, &mut p);
        assert!(r.converged);
        assert_eq!(r.steps, 0);
        assert_eq!(p, before);
    }

    #[test]
    fn overflow_trends_downward() {
        // The computed overflow decreases overall; the paper's boundary
        // rule permits tiny per-step wobble (it is not conservative), so
        // allow 1% per-step noise but require a strict overall decrease.
        let (nl, die, mut p) = pile(24, Point::new(36.0, 36.0));
        let r = GlobalDiffusion::new(cfg()).run(&nl, &die, &mut p);
        let series = r.telemetry.overflow_series();
        assert!(series.len() >= 2);
        for w in series.windows(2) {
            assert!(
                w[1] <= w[0] * 1.01 + 1e-9,
                "overflow jumped: {} -> {}",
                w[0],
                w[1]
            );
        }
        assert!(
            *series.last().expect("non-empty") < series[0],
            "no overall improvement: {series:?}"
        );
    }

    #[test]
    fn manipulation_limits_over_spreading() {
        // Eq. 8 exists to stop diffusion from spreading further than
        // legalization needs: with empty bins lifted to the target
        // density, the run converges once the overflow is absorbed,
        // instead of continuing to flatten the whole die. The observable
        // claim: cells move strictly less with manipulation on, while the
        // measured placement still improves versus the initial pile.
        let (nl, die, mut p1) = pile(24, Point::new(36.0, 36.0));
        let p0 = p1.clone();
        let grid = BinGrid::new(die.outline(), 24.0);
        let initial = DensityMap::from_placement(&nl, &p0, grid.clone()).max_density();

        let r1 = GlobalDiffusion::new(cfg().with_manipulation(true)).run(&nl, &die, &mut p1);
        assert!(r1.converged);
        let m_with = MovementStats::between(&nl, &p0, &p1);
        let final_with = DensityMap::from_placement(&nl, &p1, grid.clone()).max_density();

        let mut p2 = p0.clone();
        let r2 = GlobalDiffusion::new(cfg().with_manipulation(false)).run(&nl, &die, &mut p2);
        assert!(r2.converged);
        let m_without = MovementStats::between(&nl, &p0, &p2);

        assert!(m_with.total > 0.0, "manipulation run must move cells");
        assert!(
            m_with.total < m_without.total,
            "manipulation should limit spreading: {} vs {}",
            m_with.total,
            m_without.total
        );
        assert!(
            final_with < initial,
            "measured density must improve: {final_with} vs {initial}"
        );
    }

    #[test]
    fn cells_diffuse_around_macros() {
        let mut b = NetlistBuilder::new();
        let m = b.add_cell("m", 24.0, 48.0, CellKind::FixedMacro);
        for i in 0..30 {
            b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::Movable);
        }
        let nl = b.build().expect("valid");
        let die = Die::new(96.0, 96.0, 12.0);
        let mut p = Placement::new(nl.num_cells());
        p.set(m, Point::new(48.0, 24.0));
        for (i, c) in nl.movable_cell_ids().enumerate() {
            let dx = (i % 3) as f64 * 4.0;
            let dy = (i / 3) as f64 * 1.5;
            p.set(c, Point::new(28.0 + dx, 30.0 + dy));
        }
        let r = GlobalDiffusion::new(cfg()).run(&nl, &die, &mut p);
        assert!(r.steps > 0);
        // No movable cell's center may end inside the macro.
        let macro_rect = p.cell_rect(&nl, m);
        for c in nl.movable_cell_ids() {
            let center = p.cell_center(&nl, c);
            assert!(
                !macro_rect.contains(center)
                    || (center.x - macro_rect.llx).abs() < 1e-9
                    || (macro_rect.urx - center.x).abs() < 1e-9,
                "cell {c} center {center} inside macro {macro_rect}"
            );
        }
    }

    #[test]
    fn cancellation_stops_mid_run_and_preserves_partial_progress() {
        use std::cell::Cell;

        // Reference run to know the uncancelled step count. Pinned to
        // FTCS: the spectral jump converges this tiny workload in a
        // couple of iterations, leaving nothing to cancel mid-run (the
        // spectral cancellation contract is covered on a finer grid by
        // `spectral_cancellation_stops_mid_run`).
        let cfg = || cfg().with_solver(SolverKind::Ftcs);
        let (nl, die, mut p_ref) = pile(24, Point::new(36.0, 36.0));
        let full = GlobalDiffusion::new(cfg()).run(&nl, &die, &mut p_ref);
        assert!(!full.cancelled);
        assert!(full.steps > 2, "workload too small to cancel mid-run");

        // Cancel after two steps.
        let (nl, die, mut p) = pile(24, Point::new(36.0, 36.0));
        let p0 = p.clone();
        let budget = Cell::new(2usize);
        let r = GlobalDiffusion::new(cfg()).run_with_cancel(&nl, &die, &mut p, &|| {
            if budget.get() == 0 {
                true
            } else {
                budget.set(budget.get() - 1);
                false
            }
        });
        assert!(r.cancelled);
        assert!(!r.converged);
        assert_eq!(r.steps, 2);
        assert_eq!(r.telemetry.len(), 2);
        // Partial progress: cells moved, placement not reverted.
        assert!(MovementStats::between(&nl, &p0, &p).total > 0.0);
    }

    #[test]
    fn never_firing_hook_is_identical_to_run() {
        let (nl, die, mut p1) = pile(24, Point::new(36.0, 36.0));
        let (_, _, mut p2) = pile(24, Point::new(36.0, 36.0));
        let r1 = GlobalDiffusion::new(cfg()).run(&nl, &die, &mut p1);
        let r2 = GlobalDiffusion::new(cfg()).run_with_cancel(&nl, &die, &mut p2, &|| false);
        assert_eq!(r1.steps, r2.steps);
        assert!(!r2.cancelled);
        assert_eq!(p1, p2);
    }

    /// Counts every callback and sanity-checks the event payloads.
    #[derive(Default)]
    struct CountingObserver {
        steps: usize,
        rounds: usize,
        kernels: usize,
        last_max_density: f64,
    }

    impl crate::DiffusionObserver for CountingObserver {
        fn on_step(&mut self, event: &crate::StepEvent<'_>) {
            assert_eq!(event.record.step, self.steps, "steps arrive in order");
            self.steps += 1;
            self.last_max_density = event.record.max_density;
        }
        fn on_round(&mut self, _event: &crate::RoundEvent) {
            self.rounds += 1;
        }
        fn on_kernel(&mut self, _event: &crate::KernelEvent) {
            self.kernels += 1;
        }
    }

    #[test]
    fn observed_run_is_bit_identical_to_plain_run() {
        let (nl, die, mut p1) = pile(24, Point::new(36.0, 36.0));
        let (_, _, mut p2) = pile(24, Point::new(36.0, 36.0));
        let r1 = GlobalDiffusion::new(cfg()).run(&nl, &die, &mut p1);
        let mut obs = CountingObserver::default();
        let r2 = GlobalDiffusion::new(cfg()).run_observed(&nl, &die, &mut p2, &|| false, &mut obs);
        assert_eq!(p1, p2, "observer must not perturb the dynamics");
        assert_eq!(r1.steps, r2.steps);
        assert_eq!(obs.steps, r2.steps, "one on_step per step");
        assert_eq!(obs.rounds, 0, "global diffusion emits no round events");
        // One splat plus velocity/advect/ftcs per step.
        assert_eq!(obs.kernels, 1 + 3 * r2.steps);
        assert!(
            obs.last_max_density <= cfg().d_max + cfg().delta,
            "final observed max density is the converged one"
        );
    }

    #[test]
    fn step_cap_is_respected() {
        let (nl, die, mut p) = pile(24, Point::new(36.0, 36.0));
        let r = GlobalDiffusion::new(cfg().with_max_steps(3)).run(&nl, &die, &mut p);
        assert!(r.steps <= 3);
    }

    #[test]
    fn telemetry_length_matches_steps() {
        let (nl, die, mut p) = pile(24, Point::new(36.0, 36.0));
        let r = GlobalDiffusion::new(cfg()).run(&nl, &die, &mut p);
        assert_eq!(r.telemetry.len(), r.steps);
        assert!(r.telemetry.total_movement() > 0.0);
    }

    #[test]
    fn spectral_mode_converges_in_fewer_iterations() {
        let (nl, die, mut p_ftcs) = pile(24, Point::new(36.0, 36.0));
        let ftcs =
            GlobalDiffusion::new(cfg().with_solver(SolverKind::Ftcs)).run(&nl, &die, &mut p_ftcs);
        let (_, _, mut p_spec) = pile(24, Point::new(36.0, 36.0));
        let spec = GlobalDiffusion::new(cfg().with_solver(SolverKind::Spectral)).run(
            &nl,
            &die,
            &mut p_spec,
        );
        assert!(
            spec.converged,
            "spectral did not converge in {} iters",
            spec.steps
        );
        assert!(
            spec.steps < ftcs.steps,
            "spectral iterations ({}) should undercut FTCS steps ({})",
            spec.steps,
            ftcs.steps
        );
        // Both end legal-ish on the real measured density.
        let grid = BinGrid::new(die.outline(), 24.0);
        let dm = DensityMap::from_placement(&nl, &p_spec, grid);
        assert!(dm.max_density() < 1.5, "measured {}", dm.max_density());
    }

    #[test]
    fn spectral_mode_emits_ftcs_shaped_telemetry() {
        let (nl, die, mut p) = pile(24, Point::new(36.0, 36.0));
        let mut obs = CountingObserver::default();
        let r = GlobalDiffusion::new(cfg().with_solver(SolverKind::Spectral).with_threads(2))
            .run_observed(&nl, &die, &mut p, &|| false, &mut obs);
        assert!(r.converged);
        assert_eq!(r.telemetry.len(), r.steps);
        assert_eq!(obs.steps, r.steps);
        assert_eq!(obs.kernels, 1 + 3 * r.steps, "splat + 3 kernels per iter");
        let k = r.telemetry.kernels();
        assert_eq!(k.ftcs.calls as usize, r.steps, "one jump per iteration");
        assert_eq!(k.velocity.calls as usize, r.steps);
        assert_eq!(k.advect.calls as usize, r.steps);
        assert_eq!(k.splat.calls, 1);
        // Overflow trends downward under the jump too (heat semigroup
        // maximum principle).
        let series = r.telemetry.overflow_series();
        assert!(series.len() >= 2);
        assert!(*series.last().expect("non-empty") < series[0]);
    }

    #[test]
    fn spectral_with_macros_falls_back_to_ftcs_bit_identically() {
        let build = || {
            let mut b = NetlistBuilder::new();
            let m = b.add_cell("m", 24.0, 48.0, CellKind::FixedMacro);
            for i in 0..30 {
                b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::Movable);
            }
            let nl = b.build().expect("valid");
            let die = Die::new(96.0, 96.0, 12.0);
            let mut p = Placement::new(nl.num_cells());
            p.set(m, Point::new(48.0, 24.0));
            for (i, c) in nl.movable_cell_ids().enumerate() {
                let dx = (i % 3) as f64 * 4.0;
                let dy = (i / 3) as f64 * 1.5;
                p.set(c, Point::new(28.0 + dx, 30.0 + dy));
            }
            (nl, die, p)
        };
        let (nl, die, mut p1) = build();
        let r1 = GlobalDiffusion::new(cfg().with_solver(SolverKind::Ftcs)).run(&nl, &die, &mut p1);
        let (_, _, mut p2) = build();
        let r2 =
            GlobalDiffusion::new(cfg().with_solver(SolverKind::Spectral)).run(&nl, &die, &mut p2);
        // The macro raises a wall, so the spectral run must take the
        // masked FTCS path and match the FTCS run exactly.
        assert_eq!(r1.steps, r2.steps);
        assert_eq!(p1, p2, "masked fallback must be bit-identical to FTCS");
    }

    #[test]
    fn spectral_cancellation_stops_mid_run() {
        use std::cell::Cell;
        // A finer grid (8×8 bins) keeps the slowest modes alive long
        // enough that the geometric stride ramp needs several
        // iterations — there is a mid-run to cancel.
        let spectral_cfg = || {
            DiffusionConfig::default()
                .with_bin_size(12.0)
                .with_delta(0.05)
                .with_solver(SolverKind::Spectral)
        };
        let (nl, die, mut p_ref) = pile(24, Point::new(36.0, 36.0));
        let full = GlobalDiffusion::new(spectral_cfg()).run(&nl, &die, &mut p_ref);
        assert!(full.steps > 2, "workload too small to cancel mid-run");
        let (nl, die, mut p) = pile(24, Point::new(36.0, 36.0));
        let budget = Cell::new(2usize);
        let r = GlobalDiffusion::new(spectral_cfg()).run_with_cancel(&nl, &die, &mut p, &|| {
            if budget.get() == 0 {
                true
            } else {
                budget.set(budget.get() - 1);
                false
            }
        });
        assert!(r.cancelled);
        assert_eq!(r.steps, 2);
        assert_eq!(r.telemetry.len(), 2);
    }

    #[test]
    fn kernel_timers_cover_every_step() {
        let (nl, die, mut p) = pile(24, Point::new(36.0, 36.0));
        let r = GlobalDiffusion::new(cfg().with_threads(2)).run(&nl, &die, &mut p);
        let k = r.telemetry.kernels();
        assert_eq!(k.ftcs.calls as usize, r.steps);
        assert_eq!(k.velocity.calls as usize, r.steps);
        assert_eq!(k.advect.calls as usize, r.steps);
        assert_eq!(k.splat.calls, 1, "one initial density splat");
        assert_eq!(k.ftcs.max_threads, 2);
    }
}
