//! Global diffusion-based legalization (paper Algorithm 1).

use crate::observe::{DiffusionObserver, KernelKind, NoopObserver, RunRecorder};
use crate::stride::{Advect, StrideLoop};
use crate::{DiffusionConfig, DiffusionEngine, Telemetry};
use dpm_netlist::Netlist;
use dpm_par::ThreadPool;
use dpm_place::{BinGrid, DensityMap, Die, Placement};

/// Outcome of a diffusion run ([`GlobalDiffusion`] or
/// [`LocalDiffusion`](crate::LocalDiffusion)).
#[derive(Debug, Clone)]
pub struct DiffusionResult {
    /// Total number of diffusion steps executed: one velocity
    /// computation and one advect each. [`LocalDiffusion`](crate::LocalDiffusion)
    /// steps 1:1 with FTCS sweeps. [`GlobalDiffusion`] counts strides,
    /// under either solver: each covers a geometrically growing stride
    /// of FTCS-sweep budget (1, 2, 4, …), so the count is roughly
    /// logarithmic in the diffusion time the run stepped through.
    pub steps: usize,
    /// Number of local-diffusion rounds (1 for global diffusion).
    pub rounds: usize,
    /// `true` if the stopping criterion was met before the step/round cap.
    pub converged: bool,
    /// `true` if the run was cut short by a cancellation hook (see
    /// [`GlobalDiffusion::run_observed`]). The placement holds the
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
/// Unlike the paper, which advects once per FTCS step, the run moves
/// cells once per *stride* of `s = 2^k` sweeps (capped by what is left of
/// [`DiffusionConfig::max_steps`]): `⌊s/2⌋` sweeps, one velocity sample
/// at the stride's midpoint, one advect for `s·Δt`, then the remaining
/// sweeps. The spectral solver runs the same strides but samples at the
/// stride's start (DESIGN.md §19).
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
        self.run_observed(netlist, die, placement, &|| false, &mut NoopObserver)
    }

    /// Runs global diffusion with a cancellation hook and an attached
    /// [`DiffusionObserver`].
    ///
    /// `should_stop` is polled before each stride and between the FTCS
    /// sweeps inside one (a late stride can be thousands of sweeps).
    /// Once it returns `true` the run skips the rest of the stride,
    /// leaving the placement in its current (partially migrated, still
    /// consistent) state and setting [`DiffusionResult::cancelled`]. A
    /// stride whose advect already ran still counts as a step. This is
    /// how `dpm-serve` enforces per-request deadlines: the hook compares
    /// `Instant::now()` against the request deadline, costing one branch
    /// per sweep. A hook that always returns `false` makes this identical
    /// to [`run`](Self::run) — the hook never influences the arithmetic,
    /// only whether the next step happens, so cancellation cannot perturb
    /// determinism.
    ///
    /// The observer is notified after every step
    /// ([`DiffusionObserver::on_step`]) and every timed kernel
    /// invocation ([`DiffusionObserver::on_kernel`]; one
    /// [`KernelKind::Ftcs`] event per stride bills all of its sweeps or
    /// its spectral jump, and a spectral run opens with one 0-call field
    /// event for its forward transform); it sees only
    /// shared references to post-step state, so attaching one cannot
    /// change the run's arithmetic — `run` and `run_observed` produce
    /// bit-identical placements for the same input (see
    /// `observed_run_is_bit_identical_to_plain_run`).
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
        let mut rec = RunRecorder::new(observer, pool.threads());
        let map = rec.time(KernelKind::Splat, || {
            DensityMap::from_placement_with_pool(netlist, placement, grid.clone(), &pool)
        });
        let mut engine = DiffusionEngine::from_density_map(&map);
        engine.set_up(&self.cfg, self.cfg.manipulate);
        let strides = StrideLoop {
            cap: self.cfg.max_steps,
            doubling: true,
            converge: true,
            should_stop,
        };
        let advect = Advect::Planar(placement);
        strides.run(&mut engine, rec, &self.cfg, netlist, &grid, advect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advect::{advect_cells, CellCache};
    use crate::config::env_config;
    use crate::{manipulate_density, SolverKind};
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
        env_config().with_bin_size(24.0)
    }

    /// 8×8 bins: the slowest modes live long enough that the doubling
    /// strides need several steps to converge the pile.
    fn fine_cfg() -> DiffusionConfig {
        env_config().with_bin_size(12.0).with_delta(0.05)
    }

    /// An FTCS run with a density target the pile can never reach, so it
    /// spends its whole `max_steps` budget (or stops on its hook).
    fn unreachable_cfg() -> DiffusionConfig {
        DiffusionConfig {
            d_max: 0.01,
            ..cfg().with_solver(SolverKind::Ftcs)
        }
    }

    /// The strides `run` takes for `steps` steps under `max_steps`.
    fn schedule(steps: usize, max_steps: usize) -> Vec<usize> {
        let mut left = max_steps;
        (0..steps)
            .map(|i| {
                let stride = (1usize << i.min(20)).min(left);
                left -= stride;
                stride
            })
            .collect()
    }

    /// The FTCS stride schedule rebuilt from engine primitives, one
    /// explicit loop: `⌊s/2⌋` sweeps, velocity, one advect for `s·Δt`,
    /// the remaining sweeps. `on_field` sees the field before the first
    /// sweep and after every sweep. Returns the step count and whether
    /// the run converged.
    fn oracle_run(
        cfg: &DiffusionConfig,
        nl: &Netlist,
        die: &Die,
        p: &mut Placement,
        on_field: &mut dyn FnMut(&DiffusionEngine),
    ) -> (usize, bool) {
        let grid = BinGrid::new(die.outline(), cfg.bin_size);
        let map = DensityMap::from_placement(nl, p, grid.clone());
        let mut engine = DiffusionEngine::from_density_map(&map);
        engine.set_conservative_boundaries(!cfg.paper_boundaries);
        engine.set_threads(cfg.threads);
        if cfg.manipulate {
            let mut d = engine.densities().to_vec();
            let wall = engine.wall_mask().to_vec();
            manipulate_density(&mut d, Some(&wall), cfg.d_max);
            engine.load_densities(&d);
        }
        on_field(&engine);
        let cells = CellCache::new(nl, &grid);
        let target = cfg.d_max + cfg.delta;
        let tau = cfg.dt * cfg.diffusivity;
        let (mut swept, mut steps) = (0, 0);
        let mut converged = engine.max_live_density() <= target;
        while !converged && swept < cfg.max_steps {
            let s = (1usize << steps).min(cfg.max_steps - swept);
            for _ in 0..s / 2 {
                engine.step_density(tau);
                on_field(&engine);
            }
            engine.compute_velocities();
            let strided = DiffusionConfig {
                dt: cfg.dt * s as f64,
                ..cfg.clone()
            };
            advect_cells(&engine, &grid, &cells, p, &strided, None);
            for _ in s / 2..s {
                engine.step_density(tau);
                on_field(&engine);
            }
            swept += s;
            steps += 1;
            converged = engine.max_live_density() <= target;
        }
        (steps, converged)
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
        // FTCS on the finer grid of `spectral_cancellation_stops_mid_run`:
        // the doubling strides converge the 4×4-bin pile in at most two,
        // leaving nothing to cancel mid-run.
        let cfg = || fine_cfg().with_solver(SolverKind::Ftcs);
        let (nl, die, mut p_ref) = pile(24, Point::new(36.0, 36.0));
        let full = GlobalDiffusion::new(cfg()).run(&nl, &die, &mut p_ref);
        assert!(!full.cancelled);
        assert!(full.steps > 2, "workload too small to cancel mid-run");

        // Cancel after two steps: strides 1 and 2 poll once each, at
        // their start.
        let (nl, die, mut p) = pile(24, Point::new(36.0, 36.0));
        let p0 = p.clone();
        let budget = Cell::new(2usize);
        let stop = || {
            if budget.get() == 0 {
                true
            } else {
                budget.set(budget.get() - 1);
                false
            }
        };
        let r =
            GlobalDiffusion::new(cfg()).run_observed(&nl, &die, &mut p, &stop, &mut NoopObserver);
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
        let r2 = GlobalDiffusion::new(cfg()).run_observed(
            &nl,
            &die,
            &mut p2,
            &|| false,
            &mut NoopObserver,
        );
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
        // One splat (plus the forward transform under the spectral
        // solver, which `DPM_SOLVER` may pick) and velocity/advect/ftcs
        // per step.
        let forward = usize::from(cfg().solver == SolverKind::Spectral);
        assert_eq!(obs.kernels, 1 + forward + 3 * r2.steps);
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
        // Both solvers run the same strides, so what separates them is
        // the field update: one transform per stride against one FTCS
        // sweep per unit of budget.
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
            ftcs.converged,
            "FTCS did not converge in {} strides",
            ftcs.steps
        );
        assert!(
            spec.converged,
            "spectral did not converge in {} iters",
            spec.steps
        );
        let transforms = spec.telemetry.kernels().ftcs.calls;
        let sweeps = ftcs.telemetry.kernels().ftcs.calls;
        assert_eq!(transforms as usize, spec.steps, "one transform per stride");
        assert_eq!(
            sweeps as usize,
            schedule(ftcs.steps, cfg().max_steps).iter().sum::<usize>()
        );
        assert!(
            transforms < sweeps,
            "spectral transforms ({transforms}) should undercut FTCS sweeps ({sweeps})"
        );
        // Both end legal-ish on the real measured density.
        let grid = BinGrid::new(die.outline(), 24.0);
        for p in [&p_ftcs, &p_spec] {
            let dm = DensityMap::from_placement(&nl, p, grid.clone());
            assert!(dm.max_density() < 1.5, "measured {}", dm.max_density());
        }
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
        assert_eq!(
            obs.kernels,
            2 + 3 * r.steps,
            "splat + forward transform + 3 kernels per iter"
        );
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
            env_config()
                .with_bin_size(12.0)
                .with_delta(0.05)
                .with_solver(SolverKind::Spectral)
        };
        let (nl, die, mut p_ref) = pile(24, Point::new(36.0, 36.0));
        let full = GlobalDiffusion::new(spectral_cfg()).run(&nl, &die, &mut p_ref);
        assert!(full.steps > 2, "workload too small to cancel mid-run");
        let (nl, die, mut p) = pile(24, Point::new(36.0, 36.0));
        let budget = Cell::new(2usize);
        let stop = || {
            if budget.get() == 0 {
                true
            } else {
                budget.set(budget.get() - 1);
                false
            }
        };
        let r = GlobalDiffusion::new(spectral_cfg()).run_observed(
            &nl,
            &die,
            &mut p,
            &stop,
            &mut NoopObserver,
        );
        assert!(r.cancelled);
        assert_eq!(r.steps, 2);
        assert_eq!(r.telemetry.len(), 2);
    }

    #[test]
    fn kernel_timers_cover_every_step() {
        let (nl, die, mut p) = pile(24, Point::new(36.0, 36.0));
        let cfg = fine_cfg().with_solver(SolverKind::Ftcs).with_threads(2);
        let r = GlobalDiffusion::new(cfg.clone()).run(&nl, &die, &mut p);
        assert!(r.steps > 2, "workload too small to stride");
        let k = r.telemetry.kernels();
        // One sweep per unit of every stride's budget.
        let sweeps: usize = schedule(r.steps, cfg.max_steps).iter().sum();
        assert_eq!(k.ftcs.calls as usize, sweeps);
        assert_eq!(k.velocity.calls as usize, r.steps);
        assert_eq!(k.advect.calls as usize, r.steps);
        assert_eq!(k.splat.calls, 1, "one initial density splat");
        assert_eq!(k.ftcs.max_threads, 2);
    }

    #[test]
    fn step_records_carry_each_strides_sweeps() {
        // A sweep budget of 12 with a pile that does not converge in it:
        // strides 1, 2, 4, then the 5 sweeps left.
        let (nl, die, mut p) = pile(200, Point::new(36.0, 36.0));
        let cfg = cfg().with_max_steps(12).with_threads(1);
        let r = GlobalDiffusion::new(cfg).run(&nl, &die, &mut p);
        assert!(!r.converged);
        let sweeps: Vec<usize> = r.telemetry.records().iter().map(|rec| rec.sweeps).collect();
        assert_eq!(sweeps, [1, 2, 4, 5]);
    }

    #[test]
    fn run_matches_primitive_oracle_at_every_thread_count() {
        for base in [cfg(), fine_cfg(), fine_cfg().with_paper_boundaries(true)] {
            let base = base.with_solver(SolverKind::Ftcs);
            let (nl, die, p0) = pile(24, Point::new(36.0, 36.0));
            let mut expected = p0.clone();
            let (steps, converged) = oracle_run(&base, &nl, &die, &mut expected, &mut |_| {});
            assert!(converged);
            for threads in [1, 2, 4] {
                let mut p = p0.clone();
                let r =
                    GlobalDiffusion::new(base.clone().with_threads(threads)).run(&nl, &die, &mut p);
                assert_eq!(r.steps, steps, "{threads} threads");
                assert_eq!(r.converged, converged);
                assert_eq!(
                    p, expected,
                    "{threads} threads: placement differs from oracle"
                );
            }
        }
    }

    #[test]
    fn budget_caps_the_last_stride() {
        // Five sweeps of budget: strides 1, 2, then 2 (not 4).
        let (nl, die, mut p) = pile(24, Point::new(36.0, 36.0));
        let r = GlobalDiffusion::new(unreachable_cfg().with_max_steps(5)).run(&nl, &die, &mut p);
        assert!(!r.converged);
        assert_eq!(r.steps, 3);
        assert_eq!(schedule(r.steps, 5), [1, 2, 2]);
        let k = r.telemetry.kernels();
        assert_eq!(k.ftcs.calls, 5);
        assert_eq!(k.advect.calls, 3);
        let (_, _, mut expected) = pile(24, Point::new(36.0, 36.0));
        let cfg = unreachable_cfg().with_max_steps(5);
        assert_eq!(
            oracle_run(&cfg, &nl, &die, &mut expected, &mut |_| {}),
            (3, false)
        );
        assert_eq!(p, expected);
    }

    #[test]
    fn strided_run_conserves_mass_and_obeys_maximum_principle() {
        // `run` matches the oracle bit for bit (above), so the oracle's
        // field is the run's field: check it after every sweep.
        let cfg = fine_cfg().with_solver(SolverKind::Ftcs);
        let (nl, die, mut p) = pile(24, Point::new(36.0, 36.0));
        let mut first: Option<(f64, f64, f64)> = None;
        let mut prev_max = f64::INFINITY;
        let mut fields = 0;
        let (steps, _) = oracle_run(&cfg, &nl, &die, &mut p, &mut |e| {
            let d = e.densities();
            let mass: f64 = d.iter().sum();
            let max = d.iter().copied().fold(f64::MIN, f64::max);
            let min = d.iter().copied().fold(f64::MAX, f64::min);
            let (mass0, max0, min0) = *first.get_or_insert((mass, max, min));
            assert!(
                (mass - mass0).abs() <= 1e-9 * mass0,
                "mass {mass} vs {mass0}"
            );
            assert!(
                max <= max0 + 1e-12 && max <= prev_max + 1e-12,
                "max rose to {max}"
            );
            assert!(min >= min0 - 1e-12, "min fell to {min}");
            prev_max = max;
            fields += 1;
        });
        assert!(steps > 2);
        let sweeps: usize = schedule(steps, cfg.max_steps).iter().sum();
        assert_eq!(fields, 1 + sweeps);
        // And on the run itself: the computed peak never rises across
        // strides.
        let (_, _, mut p) = pile(24, Point::new(36.0, 36.0));
        let r = GlobalDiffusion::new(cfg).run(&nl, &die, &mut p);
        let peaks: Vec<f64> = r
            .telemetry
            .records()
            .iter()
            .map(|s| s.max_density)
            .collect();
        assert!(peaks.windows(2).all(|w| w[1] <= w[0]), "{peaks:?}");
    }

    #[test]
    fn hook_firing_mid_stride_skips_the_rest_of_it() {
        use std::cell::Cell;
        // Polls: one per stride start, then one between consecutive
        // sweeps of each half. Stride 3 (8 sweeps) starts at poll 6;
        // polls 7–9 fall between its first four sweeps, 10–12 between
        // its last four.
        let run = |fire_at: usize| {
            let (nl, die, mut p) = pile(24, Point::new(36.0, 36.0));
            let polls = Cell::new(0usize);
            let stop = || {
                polls.set(polls.get() + 1);
                polls.get() >= fire_at
            };
            let r = GlobalDiffusion::new(unreachable_cfg()).run_observed(
                &nl,
                &die,
                &mut p,
                &stop,
                &mut NoopObserver,
            );
            assert_eq!(
                polls.get(),
                fire_at,
                "the run stops polling once the hook fires"
            );
            (r, p)
        };
        let capped = |max_steps: usize| {
            let (nl, die, mut p) = pile(24, Point::new(36.0, 36.0));
            GlobalDiffusion::new(unreachable_cfg().with_max_steps(max_steps))
                .run(&nl, &die, &mut p);
            p
        };

        // Before stride 3's advect: its velocity and advect are skipped,
        // so the placement is the one after strides 1, 2, 4.
        let (r, p) = run(8);
        assert!(r.cancelled && !r.converged);
        assert_eq!(r.steps, 3);
        assert_eq!(r.telemetry.len(), 3);
        let k = r.telemetry.kernels();
        assert_eq!(
            (k.ftcs.calls, k.velocity.calls, k.advect.calls),
            (7 + 2, 3, 3)
        );
        assert_eq!(p, capped(7));

        // After stride 3's advect: the step counts, its remaining sweeps
        // are skipped, and the placement is the full stride's (sweeps
        // after the advect never move cells).
        let (r, p) = run(10);
        assert!(r.cancelled && !r.converged);
        assert_eq!(r.steps, 4);
        assert_eq!(r.telemetry.len(), 4);
        let k = r.telemetry.kernels();
        assert_eq!(
            (k.ftcs.calls, k.velocity.calls, k.advect.calls),
            (7 + 4 + 1, 4, 4)
        );
        assert_eq!(p, capped(15));
        assert!(p
            .as_slice()
            .iter()
            .all(|q| q.x.is_finite() && q.y.is_finite()));
    }
}
