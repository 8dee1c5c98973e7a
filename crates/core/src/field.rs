//! Field-driven placement migration: diffusion on arbitrary scalar
//! fields.
//!
//! Legalization diffuses *area density*, but the paper's introduction
//! lists other design-closure fields migration should relieve: routing
//! congestion, crosstalk noise, heat. All of them reduce to the same
//! mechanism — blend the offending per-bin field into the density the
//! engine evolves, and cells drift out of the hot regions. This module
//! packages that mechanism: [`FieldMigration`] runs a bounded number of
//! diffusion steps on `area_density + weight · normalized(field)` and
//! moves cells along the blended gradients.

use crate::observe::{lap, RunRecorder};
use crate::stride::{Advect, StrideLoop};
use crate::{DiffusionConfig, DiffusionEngine, DiffusionResult, KernelKind, NoopObserver};
use dpm_netlist::Netlist;
use dpm_place::{BinGrid, DensityMap, Die, Placement};

/// Migration driven by an external per-bin scalar field.
///
/// # Examples
///
/// Relieve a synthetic hot spot (e.g. a thermal map):
///
/// ```
/// use dpm_diffusion::{DiffusionConfig, FieldMigration};
/// use dpm_gen::CircuitSpec;
/// use dpm_place::BinGrid;
///
/// let bench = CircuitSpec::small(4).generate();
/// let cfg = DiffusionConfig::default().with_bin_size(2.5 * bench.die.row_height());
/// let grid = BinGrid::new(bench.die.outline(), cfg.bin_size);
///
/// // A field that is hot in the die center.
/// let center = grid.region().center();
/// let field: Vec<f64> = grid
///     .iter()
///     .map(|idx| {
///         let d = grid.bin_center(idx).distance(center);
///         (1.0 - d / 200.0).max(0.0)
///     })
///     .collect();
///
/// let mut placement = bench.placement.clone();
/// let run = FieldMigration::new(cfg)
///     .with_weight(0.8)
///     .with_steps(20)
///     .run(&bench.netlist, &bench.die, &mut placement, &field);
/// assert_eq!(run.steps, 20);
/// ```
#[derive(Debug, Clone)]
pub struct FieldMigration {
    cfg: DiffusionConfig,
    weight: f64,
    steps: usize,
}

impl FieldMigration {
    /// Creates a field migrator with weight 1.0 and 30 steps.
    pub fn new(cfg: DiffusionConfig) -> Self {
        Self {
            cfg,
            weight: 1.0,
            steps: 30,
        }
    }

    /// Sets how strongly the external field counts relative to area
    /// density (the field is first normalized to peak 1.0).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or not finite.
    pub fn with_weight(mut self, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "weight must be non-negative"
        );
        self.weight = weight;
        self
    }

    /// Sets the number of migration steps (field relief is a bounded
    /// perturbation, not a run-to-equilibrium).
    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// Runs the migration: `steps` diffusion steps on the blended field,
    /// advecting cells, then returns the telemetry. The placement is
    /// *not* legalized — run a detailed legalizer afterwards, exactly as
    /// after density-driven diffusion.
    ///
    /// # Panics
    ///
    /// Panics if `field.len()` does not match the bin grid implied by the
    /// configuration's bin size over this die.
    pub fn run(
        &self,
        netlist: &Netlist,
        die: &Die,
        placement: &mut Placement,
        field: &[f64],
    ) -> DiffusionResult {
        let grid = BinGrid::new(die.outline(), self.cfg.bin_size);
        assert_eq!(
            field.len(),
            grid.len(),
            "field has {} bins, grid has {}",
            field.len(),
            grid.len()
        );
        // The splat is serial; the other kernels run on the engine's pool.
        let (map, splat_elapsed) =
            lap(|| DensityMap::from_placement(netlist, placement, grid.clone()));
        let peak = field.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
        let blended: Vec<f64> = map
            .densities()
            .iter()
            .zip(field)
            .map(|(&d, &f)| d + self.weight * (f / peak).max(0.0))
            .collect();
        let mut engine = DiffusionEngine::from_raw(
            grid.nx(),
            grid.ny(),
            blended,
            Some(map.fixed_mask().to_vec()),
        );
        engine.set_up(&self.cfg, false);
        let mut noop = NoopObserver;
        let mut rec = RunRecorder::new(&mut noop, engine.threads());
        rec.record(KernelKind::Splat, splat_elapsed, 1, 1);

        // A bounded perturbation: exactly `steps` one-sweep FTCS steps.
        let strides = StrideLoop {
            cap: self.steps,
            doubling: false,
            converge: false,
            should_stop: &|| false,
        };
        let advect = Advect::Planar(placement);
        let run = strides.run(&mut engine, rec, &self.cfg, netlist, &grid, advect);
        DiffusionResult {
            converged: true,
            ..run
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::env_config;
    use dpm_geom::Point;
    use dpm_netlist::{CellKind, NetlistBuilder};

    fn uniform_bench() -> (Netlist, Die, Placement, BinGrid, DiffusionConfig) {
        // A 6x6 grid of cells spread uniformly — area density alone gives
        // no gradients, so any movement must come from the external field.
        let mut b = NetlistBuilder::new();
        for i in 0..36 {
            b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::Movable);
        }
        let nl = b.build().expect("valid");
        let die = Die::new(144.0, 144.0, 12.0);
        let mut p = Placement::new(nl.num_cells());
        for (i, c) in nl.cell_ids().enumerate() {
            p.set(
                c,
                Point::new((i % 6) as f64 * 24.0 + 6.0, (i / 6) as f64 * 24.0),
            );
        }
        let cfg = env_config().with_bin_size(24.0);
        let grid = BinGrid::new(die.outline(), 24.0);
        (nl, die, p, grid, cfg)
    }

    #[test]
    fn zero_field_moves_nothing_on_uniform_placement() {
        let (nl, die, mut p, grid, cfg) = uniform_bench();
        let before = p.clone();
        let field = vec![0.0; grid.len()];
        FieldMigration::new(cfg)
            .with_steps(10)
            .run(&nl, &die, &mut p, &field);
        // Uniform density + zero field ⇒ zero gradients everywhere.
        for c in nl.movable_cell_ids() {
            assert!(
                (p.get(c) - before.get(c)).length() < 0.5,
                "cell {c} drifted"
            );
        }
    }

    #[test]
    fn hot_field_pushes_cells_away() {
        let (nl, die, mut p, grid, cfg) = uniform_bench();
        let center = grid.region().center();
        let field: Vec<f64> = grid
            .iter()
            .map(|idx| {
                if grid.bin_center(idx).distance(center) < 40.0 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let before = p.clone();
        FieldMigration::new(cfg)
            .with_weight(1.5)
            .with_steps(30)
            .run(&nl, &die, &mut p, &field);
        // Cells near the hot center move outward; average distance to the
        // center grows.
        let avg_d = |q: &Placement| {
            nl.movable_cell_ids()
                .map(|c| q.cell_center(&nl, c).distance(center))
                .sum::<f64>()
                / 36.0
        };
        assert!(
            avg_d(&p) > avg_d(&before) + 1.0,
            "field did not push cells out: {} -> {}",
            avg_d(&before),
            avg_d(&p)
        );
    }

    #[test]
    fn weight_scales_the_effect() {
        let (nl, die, p0, grid, cfg) = uniform_bench();
        let center = grid.region().center();
        let field: Vec<f64> = grid
            .iter()
            .map(|idx| {
                if grid.bin_center(idx).distance(center) < 40.0 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let movement = |weight: f64| {
            let mut p = p0.clone();
            let r = FieldMigration::new(cfg.clone())
                .with_weight(weight)
                .with_steps(20)
                .run(&nl, &die, &mut p, &field);
            r.telemetry.total_movement()
        };
        let weak = movement(0.2);
        let strong = movement(2.0);
        assert!(
            strong > weak,
            "stronger field must move more: {weak} vs {strong}"
        );
    }

    #[test]
    fn reports_one_call_of_each_kernel_per_step() {
        let (nl, die, mut p, grid, cfg) = uniform_bench();
        let field = vec![1.0; grid.len()];
        let r = FieldMigration::new(cfg)
            .with_steps(7)
            .run(&nl, &die, &mut p, &field);
        let k = r.telemetry.kernels();
        assert_eq!((k.velocity.calls, k.advect.calls, k.ftcs.calls), (7, 7, 7));
        assert_eq!(k.splat.calls, 1, "one initial density splat");
    }

    #[test]
    #[should_panic(expected = "bins")]
    fn wrong_field_size_rejected() {
        let (nl, die, mut p, _, cfg) = uniform_bench();
        FieldMigration::new(cfg).run(&nl, &die, &mut p, &[1.0, 2.0]);
    }
}
