//! The `FLOW` baseline: min-cost network-flow spreading, then detailed
//! legalization.
//!
//! Modeled after Brenner, Pauli & Vygen (ISPD 2004, reference \[3\] of the
//! paper): bins become flow-network nodes, overfull bins are sources and
//! free capacity sinks, and the min-cost flow over the 4-neighbor grid
//! decides how much cell *area* migrates between adjacent bins. Cells are
//! then physically moved along the flow arcs — the discrete, "rippling"
//! movement whose order-destroying behavior diffusion improves on.

use crate::detailed::detailed_legalize;
use crate::Legalizer;
use dpm_geom::{clamp, Point};
use dpm_mcmf::FlowNetwork;
use dpm_netlist::{CellId, Netlist};
use dpm_place::{BinGrid, DensityMap, Die, Placement};

/// Bin edge length in row heights.
const BIN_ROWS: f64 = 2.5;

/// The min-cost-flow legalizer (`FLOW` in the paper's tables).
///
/// # Examples
///
/// ```
/// use dpm_gen::{CircuitSpec, InflationSpec};
/// use dpm_legalize::{FlowLegalizer, Legalizer};
///
/// let mut bench = CircuitSpec::small(17).generate();
/// bench.inflate(&InflationSpec::random_width(0.1, 1.6, 5));
/// let outcome = FlowLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
/// assert!(outcome.is_legal);
/// ```
#[derive(Debug, Clone)]
pub struct FlowLegalizer {
    /// Target density.
    d_max: f64,
}

impl Default for FlowLegalizer {
    fn default() -> Self {
        Self { d_max: 1.0 }
    }
}

impl FlowLegalizer {
    /// Creates the legalizer with default parameters (bins of 2.5 row
    /// heights, target density 1.0).
    pub fn new() -> Self {
        Self::default()
    }
}

impl Legalizer for FlowLegalizer {
    fn name(&self) -> &str {
        "FLOW"
    }

    fn legalize_in_place(&self, netlist: &Netlist, die: &Die, placement: &mut Placement) {
        let grid = BinGrid::new(die.outline(), BIN_ROWS * die.row_height());
        let map = DensityMap::from_placement(netlist, placement, grid.clone());
        let bin_area = grid.bin_area();
        let nx = grid.nx();
        let ny = grid.ny();
        let n = nx * ny;

        // --- Build and solve the flow network -------------------------
        let s = n;
        let t = n + 1;
        let mut net = FlowNetwork::new(n + 2);
        let mut grid_edges = Vec::new();
        let mut any_overflow = false;
        for k in 0..ny {
            for j in 0..nx {
                let i = k * nx + j;
                if map.fixed_mask()[i] {
                    continue;
                }
                let d = map.densities()[i];
                let excess = ((d - self.d_max) * bin_area).round() as i64;
                if excess > 0 {
                    net.add_edge(s, i, excess, 0);
                    any_overflow = true;
                } else if excess < 0 {
                    net.add_edge(i, t, -excess, 0);
                }
                // 4-neighbor arcs (east and north; both directions).
                for (dj, dk) in [(1isize, 0isize), (0, 1)] {
                    let (jj, kk) = (j as isize + dj, k as isize + dk);
                    if jj < 0 || kk < 0 || jj >= nx as isize || kk >= ny as isize {
                        continue;
                    }
                    let other = kk as usize * nx + jj as usize;
                    if map.fixed_mask()[other] {
                        continue;
                    }
                    grid_edges.push(net.add_edge(i, other, i64::MAX / 8, 1));
                    grid_edges.push(net.add_edge(other, i, i64::MAX / 8, 1));
                }
            }
        }
        if !any_overflow {
            detailed_legalize(netlist, die, placement);
            return;
        }
        net.min_cost_max_flow(s, t)
            .expect("grid network is well-formed");

        // --- Realize the flow by moving cells along arcs ---------------
        // Per-bin cell lists (movable cells by current center).
        let mut bin_cells: Vec<Vec<CellId>> = vec![Vec::new(); n];
        for cell in netlist.movable_cell_ids() {
            let b = grid.bin_of_point(placement.cell_center(netlist, cell));
            bin_cells[grid.flat(b)].push(cell);
        }
        // Remaining area to ship per arc.
        let mut remaining: Vec<(usize, usize, f64)> = grid_edges
            .iter()
            .map(|&e| {
                let st = net.edge_state(e);
                (st.from, st.to, st.flow as f64)
            })
            .filter(|&(_, _, f)| f > 0.0)
            .collect();

        // Multiple passes: an arc can only ship once its tail bin holds
        // cells (which may arrive via another arc in a previous pass).
        for _pass in 0..16 {
            let mut progressed = false;
            for arc in remaining.iter_mut() {
                let (from, to, ref mut need) = *arc;
                if *need <= 0.0 {
                    continue;
                }
                let to_idx = grid.unflat(to);
                let target_rect = grid.bin_rect(to_idx);
                while *need > 0.0 {
                    // Nearest cell in the source bin to the target bin.
                    let Some((li, &cell)) = bin_cells[from].iter().enumerate().min_by(|a, b| {
                        let da = placement
                            .cell_center(netlist, *a.1)
                            .distance(target_rect.center());
                        let db = placement
                            .cell_center(netlist, *b.1)
                            .distance(target_rect.center());
                        da.total_cmp(&db)
                    }) else {
                        break;
                    };
                    let c = netlist.cell(cell);
                    let area = c.width * c.height;
                    // Move the cell center to the nearest interior point
                    // of the target bin.
                    let center = placement.cell_center(netlist, cell);
                    let inset = 1e-3;
                    let new_center = Point::new(
                        clamp(center.x, target_rect.llx + inset, target_rect.urx - inset),
                        clamp(center.y, target_rect.lly + inset, target_rect.ury - inset),
                    );
                    placement.set(
                        cell,
                        Point::new(new_center.x - c.width / 2.0, new_center.y - c.height / 2.0),
                    );
                    bin_cells[from].swap_remove(li);
                    bin_cells[to].push(cell);
                    *need -= area;
                    progressed = true;
                }
            }
            if !progressed {
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
    use dpm_place::MovementStats;

    #[test]
    fn legalizes_inflated_benchmark() {
        let mut bench = test_util::inflated_small(51);
        let outcome =
            FlowLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        assert!(outcome.is_legal, "{outcome}");
    }

    #[test]
    fn legalizes_hotspot_benchmark() {
        let mut bench = test_util::hotspot_small(52);
        let outcome =
            FlowLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        assert!(outcome.is_legal, "{outcome}");
    }

    #[test]
    fn respects_macros() {
        let mut bench = test_util::with_macros(53);
        let outcome =
            FlowLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        assert!(outcome.is_legal, "{outcome}");
    }

    #[test]
    fn legal_input_short_circuits() {
        let bench = dpm_gen::CircuitSpec::small(54).generate();
        let mut p = bench.placement.clone();
        FlowLegalizer::new().legalize(&bench.netlist, &bench.die, &mut p);
        let m = MovementStats::between(&bench.netlist, &bench.placement, &p);
        assert_eq!(m.moved, 0, "legal placement disturbed: {m}");
    }

    #[test]
    fn deterministic() {
        let mut a = test_util::hotspot_small(55);
        let mut b = test_util::hotspot_small(55);
        FlowLegalizer::new().legalize(&a.netlist, &a.die, &mut a.placement);
        FlowLegalizer::new().legalize(&b.netlist, &b.die, &mut b.placement);
        assert_eq!(a.placement, b.placement);
    }
}
