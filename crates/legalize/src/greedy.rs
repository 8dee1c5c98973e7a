//! The `GREED` baseline: sequential nearest-gap (slide-and-spiral)
//! legalization.
//!
//! The paper describes GREED as: sort all the cells, place them
//! sequentially; try the original location first, and if it is occupied
//! perform a spiral search outward for the nearest legal location. Its
//! characteristic failure mode — and the reason diffusion beats it — is
//! that cells processed late find their neighborhoods full and get
//! launched far away, destroying relative order.

use crate::occupancy::{row_segments, snapped_rows, RowOccupancy};
use crate::Legalizer;
use dpm_geom::{Point, Rect};
use dpm_netlist::Netlist;
use dpm_place::{Die, Placement};

/// The greedy spiral-search legalizer (`GREED` in the paper's tables).
///
/// # Examples
///
/// ```
/// use dpm_gen::{CircuitSpec, InflationSpec};
/// use dpm_legalize::{GreedyLegalizer, Legalizer};
///
/// let mut bench = CircuitSpec::small(9).generate();
/// bench.inflate(&InflationSpec::random_width(0.1, 1.6, 2));
/// let outcome = GreedyLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
/// assert!(outcome.is_legal);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GreedyLegalizer {
    _private: (),
}

impl GreedyLegalizer {
    /// Creates the legalizer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Legalizer for GreedyLegalizer {
    fn name(&self) -> &str {
        "GREED"
    }

    fn legalize_in_place(&self, netlist: &Netlist, die: &Die, placement: &mut Placement) {
        let macros: Vec<Rect> = netlist
            .macro_ids()
            .map(|m| placement.cell_rect(netlist, m))
            .collect();
        let mut rows: Vec<RowOccupancy> = row_segments(die, &macros)
            .into_iter()
            .map(RowOccupancy::new)
            .collect();
        let row_of_snap = snapped_rows(die);

        // Process cells in x order (stable, deterministic).
        let mut order: Vec<_> = netlist.movable_cell_ids().collect();
        order.sort_by(|&a, &b| {
            let pa = placement.get(a);
            let pb = placement.get(b);
            pa.x.total_cmp(&pb.x)
                .then(pa.y.total_cmp(&pb.y))
                .then(a.cmp(&b))
        });

        for cell in order {
            let w = netlist.cell(cell).width;
            let pos = placement.get(cell);
            let home_row = row_of_snap[die.snap_row(pos.y)];

            // Spiral over rows by increasing vertical distance; within a
            // row take the nearest horizontal fit. Stop as soon as the
            // best candidate cannot be beaten by rows further out.
            let mut best: Option<(f64, usize, f64)> = None; // (cost, row, x)
            let n_rows = rows.len();
            for radius in 0..n_rows {
                let dy = radius as f64 * die.row_height();
                if let Some((cost, _, _)) = best {
                    if dy > cost {
                        break;
                    }
                }
                let mut candidates = Vec::new();
                if radius == 0 {
                    candidates.push(home_row);
                } else {
                    if home_row >= radius {
                        candidates.push(home_row - radius);
                    }
                    if home_row + radius < n_rows {
                        candidates.push(home_row + radius);
                    }
                }
                for r in candidates {
                    if let Some(x) = rows[r].nearest_fit(pos.x, w) {
                        let cost = dy + (x - pos.x).abs();
                        if best.map(|(c, _, _)| cost < c).unwrap_or(true) {
                            best = Some((cost, r, x));
                        }
                    }
                }
            }

            if let Some((_, r, x)) = best {
                rows[r].insert(x, w);
                placement.set(cell, Point::new(x, die.row(r).y));
            }
            // No fit anywhere: leave the cell; the legality check will
            // report it (only happens on infeasibly full dies).
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util;
    use dpm_place::{check_legality, MovementStats};

    #[test]
    fn legalizes_inflated_benchmark() {
        let mut bench = test_util::inflated_small(31);
        let outcome =
            GreedyLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        assert!(outcome.is_legal, "{outcome}");
    }

    #[test]
    fn legalizes_hotspot_benchmark() {
        let mut bench = test_util::hotspot_small(32);
        let outcome =
            GreedyLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        assert!(outcome.is_legal, "{outcome}");
    }

    #[test]
    fn respects_macros() {
        let mut bench = test_util::with_macros(33);
        let outcome =
            GreedyLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        assert!(outcome.is_legal, "{outcome}");
        // No cell overlaps any macro.
        let report = check_legality(&bench.netlist, &bench.die, &bench.placement, 0);
        assert_eq!(report.violation_count, 0);
    }

    #[test]
    fn legal_input_is_a_fixpoint_up_to_snapping() {
        let bench = dpm_gen::CircuitSpec::small(34).generate();
        let mut p = bench.placement.clone();
        GreedyLegalizer::new().legalize(&bench.netlist, &bench.die, &mut p);
        let m = MovementStats::between(&bench.netlist, &bench.placement, &p);
        assert_eq!(m.moved, 0, "legal cells moved: {m}");
    }

    #[test]
    fn deterministic() {
        let mut a = test_util::inflated_small(35);
        let mut b = test_util::inflated_small(35);
        GreedyLegalizer::new().legalize(&a.netlist, &a.die, &mut a.placement);
        GreedyLegalizer::new().legalize(&b.netlist, &b.die, &mut b.placement);
        assert_eq!(a.placement, b.placement);
    }
}
