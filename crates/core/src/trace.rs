//! Cell-trajectory tracing (the paper's Fig. 3).
//!
//! Diffusion moves a cell along a smooth, non-direct route whose steps
//! shrink as the field approaches equilibrium. [`TracedRun`] captures
//! those routes for a chosen set of cells so they can be plotted or
//! asserted on.
//!
//! Tracing is implemented as a [`DiffusionObserver`] attached to the
//! ordinary [`GlobalDiffusion`](crate::GlobalDiffusion) runner — there
//! is no second copy of the diffusion loop, so a traced run is the
//! plain run by construction (see `trace_matches_untraced_run`).

use crate::observe::{DiffusionObserver, StepEvent};
use crate::{DiffusionConfig, DiffusionResult, GlobalDiffusion};
use dpm_geom::Point;
use dpm_netlist::{CellId, Netlist};
use dpm_place::{Die, Placement};

/// A global-diffusion run that records the per-step positions of
/// selected cells.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The run outcome (steps, convergence, telemetry).
    pub result: DiffusionResult,
    /// For each traced cell, its center position at step 0, 1, ….
    pub trajectories: Vec<Trajectory>,
}

/// One cell's migration route.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// The traced cell.
    pub cell: CellId,
    /// Center positions, one per step (plus the initial position).
    pub points: Vec<Point>,
}

impl Trajectory {
    /// Total path length (sum of step distances).
    pub fn path_length(&self) -> f64 {
        self.points.windows(2).map(|w| (w[1] - w[0]).length()).sum()
    }

    /// Net displacement from start to finish.
    pub fn net_displacement(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(&a), Some(&b)) => (b - a).length(),
            _ => 0.0,
        }
    }

    /// The per-step movement distances.
    pub fn step_lengths(&self) -> Vec<f64> {
        self.points
            .windows(2)
            .map(|w| (w[1] - w[0]).length())
            .collect()
    }
}

/// The observer behind [`trace_global_diffusion`]: appends each traced
/// cell's post-step center to its trajectory.
struct TraceObserver<'a> {
    trajectories: &'a mut Vec<Trajectory>,
}

impl DiffusionObserver for TraceObserver<'_> {
    fn on_step(&mut self, event: &StepEvent<'_>) {
        for t in self.trajectories.iter_mut() {
            t.points
                .push(event.placement.cell_center(event.netlist, t.cell));
        }
    }
}

/// Runs global diffusion exactly like
/// [`GlobalDiffusion::run`](crate::GlobalDiffusion::run) while recording
/// the trajectory of each cell in `traced`.
///
/// # Examples
///
/// ```
/// use dpm_geom::Point;
/// use dpm_netlist::{NetlistBuilder, CellKind};
/// use dpm_place::{Die, Placement};
/// use dpm_diffusion::{trace_global_diffusion, DiffusionConfig};
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
/// let first = nl.cell_ids().next().expect("cells");
/// let run = trace_global_diffusion(
///     &DiffusionConfig::default().with_bin_size(24.0),
///     &nl,
///     &die,
///     &mut p,
///     &[first],
/// );
/// assert_eq!(run.trajectories.len(), 1);
/// assert_eq!(run.trajectories[0].points.len(), run.result.steps + 1);
/// # Ok::<(), dpm_netlist::BuildNetlistError>(())
/// ```
pub fn trace_global_diffusion(
    cfg: &DiffusionConfig,
    netlist: &Netlist,
    die: &Die,
    placement: &mut Placement,
    traced: &[CellId],
) -> TracedRun {
    let mut trajectories: Vec<Trajectory> = traced
        .iter()
        .map(|&cell| Trajectory {
            cell,
            points: vec![placement.cell_center(netlist, cell)],
        })
        .collect();

    let result = GlobalDiffusion::new(cfg.clone()).run_observed(
        netlist,
        die,
        placement,
        &|| false,
        &mut TraceObserver {
            trajectories: &mut trajectories,
        },
    );

    TracedRun {
        result,
        trajectories,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::env_config;
    use dpm_netlist::{CellKind, NetlistBuilder};

    fn hotspot() -> (Netlist, Die, Placement) {
        let mut b = NetlistBuilder::new();
        for i in 0..30 {
            b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::Movable);
        }
        let nl = b.build().expect("valid");
        let die = Die::new(144.0, 144.0, 12.0);
        let mut p = Placement::new(nl.num_cells());
        for (i, c) in nl.cell_ids().enumerate() {
            p.set(
                c,
                Point::new(48.0 + (i % 5) as f64 * 2.0, 48.0 + (i / 5) as f64 * 2.0),
            );
        }
        (nl, die, p)
    }

    #[test]
    fn trace_matches_untraced_run() {
        let (nl, die, p0) = hotspot();
        let cfg = env_config().with_bin_size(24.0);
        let mut p1 = p0.clone();
        let traced = trace_global_diffusion(&cfg, &nl, &die, &mut p1, &[]);
        let mut p2 = p0.clone();
        let plain = crate::GlobalDiffusion::new(cfg).run(&nl, &die, &mut p2);
        assert_eq!(p1, p2, "tracing must not change the dynamics");
        assert_eq!(traced.result.steps, plain.steps);
    }

    #[test]
    fn trajectory_covers_every_step() {
        let (nl, die, mut p) = hotspot();
        let cell = nl.cell_ids().next().expect("cells");
        let cfg = env_config().with_bin_size(24.0);
        let run = trace_global_diffusion(&cfg, &nl, &die, &mut p, &[cell]);
        assert!(run.result.steps > 0);
        let t = &run.trajectories[0];
        assert_eq!(t.points.len(), run.result.steps + 1);
        assert!(t.path_length() >= t.net_displacement() - 1e-12);
    }

    #[test]
    fn steps_shrink_toward_equilibrium() {
        // The paper's Fig. 3 observation: movement magnitude decays as
        // the field flattens. Compare the first and last third of the
        // trajectory of a hot cell.
        let (nl, die, mut p) = hotspot();
        let cell = nl.cell_ids().nth(12).expect("center-ish cell");
        let cfg = env_config().with_bin_size(24.0).with_delta(0.02);
        let run = trace_global_diffusion(&cfg, &nl, &die, &mut p, &[cell]);
        let steps = run.trajectories[0].step_lengths();
        if steps.len() >= 9 {
            let third = steps.len() / 3;
            let head: f64 = steps[..third].iter().sum();
            let tail: f64 = steps[steps.len() - third..].iter().sum();
            assert!(
                tail <= head + 1e-9,
                "movement grew toward the end: {head} -> {tail}"
            );
        }
    }
}
