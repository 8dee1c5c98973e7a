//! The stride loop of paper Algorithm 1, shared by every runner that
//! diffuses one field to a target: [`GlobalDiffusion`](crate::GlobalDiffusion),
//! [`VolumetricDiffusion`](crate::VolumetricDiffusion) and
//! [`FieldMigration`](crate::FieldMigration).
//!
//! Each stride samples the velocity field (Eq. 5), advects the cells
//! (Eq. 7) and advances the density (Eq. 4) by FTCS sweeps or by the
//! spectral jump that stands in for them (DESIGN.md §19). The runners
//! differ only in their [`StrideLoop`] settings and the [`Advect`] that
//! moves their cells.

use crate::advect::{advect_cells, AdvectOutcome, CellCache};
use crate::observe::{lap, KernelKind, RunRecorder};
use crate::spectral::SpectralSolver;
use crate::vol::{advect_cells3, VolJobSpec, VolPlacement};
use crate::{DiffusionConfig, DiffusionEngine, DiffusionResult, SolverKind, StepRecord};
use dpm_netlist::Netlist;
use dpm_place::{BinGrid, Placement};
use std::time::Duration;

/// One stride loop: how its strides grow and when it stops.
pub(crate) struct StrideLoop<'a> {
    /// FTCS-sweep budget the loop may step through.
    pub(crate) cap: usize,
    /// FTCS strides double (1, 2, 4, … sweeps) instead of staying one
    /// sweep each. Spectral strides always double.
    pub(crate) doubling: bool,
    /// Stop once the peak live density reaches `d_max + Δ`. A loop that
    /// does not test convergence runs its whole budget and always sweeps
    /// FTCS, so its field is a function of the field it started from,
    /// sweep for sweep (chained exact-step volumetric jobs rely on it).
    pub(crate) converge: bool,
    /// Polled before each stride and between the FTCS sweeps inside
    /// one; once it returns `true` the loop stops.
    pub(crate) should_stop: &'a dyn Fn() -> bool,
}

/// The cells a stride loop moves, and the advect that moves them.
pub(crate) enum Advect<'a> {
    /// A planar placement, moved by `advect_cells` on the run's pool.
    Planar(&'a mut Placement),
    /// A volumetric placement in global depths, moved serially by
    /// `advect_cells3` over the job's region of the stack.
    Volumetric(&'a mut VolPlacement, &'a VolJobSpec),
}

impl Advect<'_> {
    /// Moves the cells one advect of `cfg.dt` and records the call.
    fn run(
        &mut self,
        engine: &DiffusionEngine,
        grid: &BinGrid,
        cells: &CellCache,
        cfg: &DiffusionConfig,
        rec: &mut RunRecorder,
    ) -> AdvectOutcome {
        match self {
            Advect::Planar(placement) => rec.time(KernelKind::Advect, || {
                advect_cells(engine, grid, cells, placement, cfg, None)
            }),
            Advect::Volumetric(placement, job) => {
                let (out, elapsed) = lap(|| {
                    advect_cells3(engine, grid, cells, placement, cfg, job.z0, job.global_nz)
                });
                rec.record(KernelKind::Advect, elapsed, 1, 1);
                out
            }
        }
    }

    /// The planar positions, which observers see after each step.
    fn planar(&self) -> &Placement {
        match self {
            Advect::Planar(placement) => placement,
            Advect::Volumetric(placement, _) => &placement.xy,
        }
    }
}

impl StrideLoop<'_> {
    /// Runs the loop on a set-up engine and returns the run's
    /// result (one round).
    ///
    /// A stride of `s` sweeps (capped by what is left of the budget)
    /// advances the field to its sample point, computes velocities there,
    /// advects the cells once for `s·Δt`, then finishes the stride's sweeps.
    /// FTCS samples the stride's midpoint, so a one-sweep stride samples its
    /// start. Under [`SolverKind::Spectral`] a converging run on a grid with
    /// no walls or frozen bins jumps the field in closed form instead and
    /// samples each stride's start. Cancellation mid-stride skips the rest
    /// of the stride; a stride whose advect ran still counts as a step.
    pub(crate) fn run(
        self,
        engine: &mut DiffusionEngine,
        mut rec: RunRecorder,
        cfg: &DiffusionConfig,
        netlist: &Netlist,
        grid: &BinGrid,
        mut advect: Advect,
    ) -> DiffusionResult {
        let target = cfg.d_max + cfg.delta;
        let should_stop = self.should_stop;
        let cells = CellCache::new(netlist, grid);
        let mut steps = 0;
        let mut converged = self.converge && engine.max_live_density() <= target;
        let mut cancelled = false;

        // The spectral jump models the pure heat equation with zero-flux
        // boundaries: walls/frozen bins break the DCT diagonalization, and
        // the paper's mirror boundary rule is a different operator, so those
        // runs keep the FTCS stepper.
        let spectral = self.converge
            && cfg.solver == SolverKind::Spectral
            && !cfg.paper_boundaries
            && !engine.wall_mask().iter().any(|&w| w)
            && !engine.frozen_mask().iter().any(|&f| f);
        let tau = cfg.dt * cfg.diffusivity;
        let mut field = StrideField::new(engine, tau, spectral, &mut rec);
        let doubling = self.doubling || spectral;

        // Doubling strides resolve the fast transient finely, and later
        // ones cover whole swaths of diffusion time with one velocity
        // sample and one advect (DESIGN.md §19).
        while !converged && field.at < self.cap {
            if should_stop() {
                cancelled = true;
                break;
            }
            let stride = if doubling { 1 << steps.min(20) } else { 1 };
            let stride = stride.min(self.cap - field.at);
            let start = field.at;
            let (sampled, mut field_elapsed) =
                lap(|| field.advance(engine, field.sample_point(stride), should_stop));
            if !sampled {
                field.record(&mut rec, start, field_elapsed);
                cancelled = true;
                break;
            }
            rec.time(KernelKind::Velocity, || engine.compute_velocities());
            // One advect call covers the whole stride: velocities act for
            // stride·Δt, still clamped per call by max_step_displacement.
            let mut strided = cfg.clone();
            strided.dt = cfg.dt * stride as f64;
            let moved = advect.run(engine, grid, &cells, &strided, &mut rec);
            let (finished, rest) = lap(|| field.advance(engine, start + stride, should_stop));
            field_elapsed += rest;
            // One event bills both halves of the stride's field update.
            field.record(&mut rec, start, field_elapsed);
            steps += 1;
            let (max_density, computed_overflow) = engine.peak_and_overflow(cfg.d_max);
            let record = StepRecord {
                step: steps - 1,
                sweeps: field.at - start,
                movement: moved.total_movement,
                computed_overflow,
                max_density,
                measured_overflow: None,
            };
            rec.step(record, 1, advect.planar(), netlist);
            if !finished {
                cancelled = true;
                break;
            }
            converged = self.converge && max_density <= target;
        }

        DiffusionResult {
            steps,
            rounds: 1,
            converged,
            cancelled,
            telemetry: rec.telemetry,
        }
    }
}

/// The density field a diffusion stride advances: FTCS sweeps, or the
/// spectral closed-form jump standing in for them.
struct StrideField {
    /// FTCS-sweep budget the density has advanced through.
    at: usize,
    /// `D·Δt`: one FTCS sweep advances diffusion time by `τ/2`.
    tau: f64,
    /// The closed-form solver and its output buffer, when the spectral
    /// jump replaces the sweeps.
    spectral: Option<(SpectralSolver, Vec<f64>)>,
}

impl StrideField {
    /// A field at budget 0 that sweeps `engine` by FTCS steps of `tau`
    /// or, when `spectral`, jumps it from its current density through a
    /// [`SpectralSolver`] over the engine's grid, planar or volumetric.
    /// Building that solver runs its forward transform, which `rec` bills
    /// to the field as one serial [`KernelKind::Ftcs`] event of 0 calls.
    fn new(engine: &DiffusionEngine, tau: f64, spectral: bool, rec: &mut RunRecorder) -> Self {
        let spectral = spectral.then(|| {
            let (solver, elapsed) =
                lap(|| SpectralSolver::with_dims(engine.dims(), engine.densities()));
            rec.record(KernelKind::Ftcs, elapsed, 1, 0);
            (solver, vec![0.0; engine.densities().len()])
        });
        Self {
            at: 0,
            tau,
            spectral,
        }
    }

    /// The budget at which a stride of `stride` sweeps starting here
    /// samples velocity. FTCS samples the stride's midpoint. The
    /// spectral jump samples its start: a mid-stride field would cost a
    /// second inverse transform per stride.
    fn sample_point(&self, stride: usize) -> usize {
        match self.spectral {
            None => self.at + stride / 2,
            Some(_) => self.at,
        }
    }

    /// Advances the engine's density to budget `to` (a no-op when it is
    /// already there). FTCS polls `should_stop` between sweeps and
    /// returns `false` if it fired, leaving the sweeps done so far; the
    /// spectral jump is one transform and always finishes.
    fn advance(
        &mut self,
        engine: &mut DiffusionEngine,
        to: usize,
        should_stop: &dyn Fn() -> bool,
    ) -> bool {
        match &mut self.spectral {
            None => {
                let from = self.at;
                while self.at < to {
                    if self.at > from && should_stop() {
                        return false;
                    }
                    engine.step_density(self.tau);
                    self.at += 1;
                }
            }
            Some((solver, buf)) if self.at < to => {
                solver.density_at(to as f64 * self.tau * 0.5, buf);
                engine.load_densities(buf);
                self.at = to;
            }
            Some(_) => {}
        }
        true
    }

    /// Records the field's advance since budget `start`, which took
    /// `elapsed`, as one [`KernelKind::Ftcs`] event: one call per FTCS
    /// sweep on the run's pool, or one serial spectral jump (the jump
    /// samples at the stride's start, so a stride makes at most one).
    fn record(&self, rec: &mut RunRecorder, start: usize, elapsed: Duration) {
        let (calls, threads) = match self.spectral {
            None => ((self.at - start) as u64, rec.threads),
            Some(_) => (u64::from(self.at > start), 1),
        };
        rec.record(KernelKind::Ftcs, elapsed, threads, calls);
    }
}
