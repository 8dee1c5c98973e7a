//! `GEM`-like computational-geometry migration: density-gradient grid
//! stretching, then detailed legalization.
//!
//! Luo, Ren, Alpert & Pan (ICCAD 2005, reference \[18\] of the paper)
//! spread cells "as if they are tethered to an expanding grid", with the
//! stretching guided by the density gradient. This module implements that
//! description with alternating one-dimensional bin-boundary stretches
//! (the same family as FastPlace's cell shifting): per bin-row, dense
//! bins receive proportionally more width, and cells map linearly from
//! the old bin interval to the new one; then the same along columns.

use crate::detailed::detailed_legalize;
use crate::Legalizer;
use dpm_geom::Point;
use dpm_netlist::Netlist;
use dpm_place::{BinGrid, DensityMap, Die, Placement};

/// Bin edge length in row heights (GEM uses coarser grids than
/// diffusion — part of why it is faster).
const BIN_ROWS: f64 = 4.0;

/// The grid-stretch legalizer (`GEM`-like in the ISPD comparison tables).
///
/// # Examples
///
/// ```
/// use dpm_gen::{CircuitSpec, InflationSpec};
/// use dpm_legalize::{GemLegalizer, Legalizer};
///
/// let mut bench = CircuitSpec::small(19).generate();
/// bench.inflate(&InflationSpec::center_width(0.1, 1.6));
/// let outcome = GemLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
/// assert!(outcome.is_legal);
/// ```
#[derive(Debug, Clone)]
pub struct GemLegalizer {
    /// Target density.
    d_max: f64,
    /// Maximum stretch iterations.
    max_iters: usize,
    /// Softening constant added to every bin's demand so empty bins keep
    /// some width.
    softness: f64,
}

impl Default for GemLegalizer {
    fn default() -> Self {
        Self {
            d_max: 1.0,
            max_iters: 12,
            softness: 0.25,
        }
    }
}

impl GemLegalizer {
    /// Creates the legalizer with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// One horizontal stretch pass: returns `true` if anything moved.
    fn stretch_x(&self, netlist: &Netlist, placement: &mut Placement, map: &DensityMap) -> bool {
        let grid = map.grid();
        let nx = grid.nx();
        let region = grid.region();
        let mut moved = false;
        // New boundaries per bin-row.
        let mut new_bounds = vec![0.0f64; nx + 1];
        let mut row_of: Vec<Vec<(dpm_netlist::CellId, Point)>> = vec![Vec::new(); grid.ny()];
        for cell in netlist.movable_cell_ids() {
            let c = placement.cell_center(netlist, cell);
            let b = grid.bin_of_point(c);
            row_of[b.k].push((cell, c));
        }
        #[allow(clippy::needless_range_loop)]
        for k in 0..grid.ny() {
            // Demand per bin in this bin-row.
            let mut total = 0.0;
            let mut demand = Vec::with_capacity(nx);
            for j in 0..nx {
                let i = k * nx + j;
                let d = map.densities()[i].max(0.0) + self.softness;
                demand.push(d);
                total += d;
            }
            new_bounds[0] = region.llx;
            for j in 0..nx {
                new_bounds[j + 1] = new_bounds[j] + region.width() * demand[j] / total;
            }
            for &(cell, center) in &row_of[k] {
                let j = grid.bin_of_point(center).j;
                let old_lo = region.llx + j as f64 * grid.bin_width();
                let frac = ((center.x - old_lo) / grid.bin_width()).clamp(0.0, 1.0);
                let new_x = new_bounds[j] + frac * (new_bounds[j + 1] - new_bounds[j]);
                if (new_x - center.x).abs() > 1e-12 {
                    moved = true;
                    let c = netlist.cell(cell);
                    let pos = placement.get(cell);
                    placement.set(cell, Point::new(new_x - c.width / 2.0, pos.y));
                }
            }
        }
        moved
    }

    /// One vertical stretch pass.
    fn stretch_y(&self, netlist: &Netlist, placement: &mut Placement, map: &DensityMap) -> bool {
        let grid = map.grid();
        let ny = grid.ny();
        let nx = grid.nx();
        let region = grid.region();
        let mut moved = false;
        let mut new_bounds = vec![0.0f64; ny + 1];
        let mut col_of: Vec<Vec<(dpm_netlist::CellId, Point)>> = vec![Vec::new(); nx];
        for cell in netlist.movable_cell_ids() {
            let c = placement.cell_center(netlist, cell);
            let b = grid.bin_of_point(c);
            col_of[b.j].push((cell, c));
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..nx {
            let mut total = 0.0;
            let mut demand = Vec::with_capacity(ny);
            for k in 0..ny {
                let i = k * nx + j;
                let d = map.densities()[i].max(0.0) + self.softness;
                demand.push(d);
                total += d;
            }
            new_bounds[0] = region.lly;
            for k in 0..ny {
                new_bounds[k + 1] = new_bounds[k] + region.height() * demand[k] / total;
            }
            for &(cell, center) in &col_of[j] {
                let k = grid.bin_of_point(center).k;
                let old_lo = region.lly + k as f64 * grid.bin_height();
                let frac = ((center.y - old_lo) / grid.bin_height()).clamp(0.0, 1.0);
                let new_y = new_bounds[k] + frac * (new_bounds[k + 1] - new_bounds[k]);
                if (new_y - center.y).abs() > 1e-12 {
                    moved = true;
                    let c = netlist.cell(cell);
                    let pos = placement.get(cell);
                    placement.set(cell, Point::new(pos.x, new_y - c.height / 2.0));
                }
            }
        }
        moved
    }
}

impl Legalizer for GemLegalizer {
    fn name(&self) -> &str {
        "GEM"
    }

    fn legalize_in_place(&self, netlist: &Netlist, die: &Die, placement: &mut Placement) {
        let bin = BIN_ROWS * die.row_height();
        for _ in 0..self.max_iters {
            let grid = BinGrid::new(die.outline(), bin);
            let map = DensityMap::from_placement(netlist, placement, grid);
            if map.max_density() <= self.d_max {
                break;
            }
            let mx = self.stretch_x(netlist, placement, &map);
            let grid = BinGrid::new(die.outline(), bin);
            let map = DensityMap::from_placement(netlist, placement, grid);
            let my = self.stretch_y(netlist, placement, &map);
            if !mx && !my {
                break;
            }
        }
        detailed_legalize(netlist, die, placement);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util;
    use dpm_place::{DensityMap, MovementStats};

    #[test]
    fn legalizes_inflated_benchmark() {
        let mut bench = test_util::inflated_small(61);
        let outcome =
            GemLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        assert!(outcome.is_legal, "{outcome}");
    }

    #[test]
    fn legalizes_hotspot_benchmark() {
        let mut bench = test_util::hotspot_small(62);
        let outcome =
            GemLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        assert!(outcome.is_legal, "{outcome}");
    }

    #[test]
    fn respects_macros() {
        let mut bench = test_util::with_macros(63);
        let outcome =
            GemLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        assert!(outcome.is_legal, "{outcome}");
    }

    #[test]
    fn stretching_reduces_max_density() {
        let mut bench = test_util::hotspot_small(64);
        let bin = 4.0 * bench.die.row_height();
        let before = DensityMap::from_placement(
            &bench.netlist,
            &bench.placement,
            BinGrid::new(bench.die.outline(), bin),
        )
        .max_density();
        let gem = GemLegalizer::new();
        let grid = BinGrid::new(bench.die.outline(), bin);
        let map = DensityMap::from_placement(&bench.netlist, &bench.placement, grid);
        gem.stretch_x(&bench.netlist, &mut bench.placement, &map);
        let grid = BinGrid::new(bench.die.outline(), bin);
        let map = DensityMap::from_placement(&bench.netlist, &bench.placement, grid);
        gem.stretch_y(&bench.netlist, &mut bench.placement, &map);
        let after = DensityMap::from_placement(
            &bench.netlist,
            &bench.placement,
            BinGrid::new(bench.die.outline(), bin),
        )
        .max_density();
        assert!(
            after < before,
            "stretching did not spread: {before} -> {after}"
        );
    }

    #[test]
    fn legal_input_barely_moves() {
        let bench = dpm_gen::CircuitSpec::small(65).generate();
        let mut p = bench.placement.clone();
        GemLegalizer::new().legalize(&bench.netlist, &bench.die, &mut p);
        let m = MovementStats::between(&bench.netlist, &bench.placement, &p);
        // Uniform density: the stretch map is near-identity, and detailed
        // legalization finds everything already legal.
        let die_span = bench.die.outline().width();
        assert!(m.max < die_span / 4.0, "legal input moved too much: {m}");
    }
}
