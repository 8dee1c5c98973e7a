//! Row occupancy tracking shared by the gap-searching legalizers.

use dpm_geom::Rect;
use dpm_place::Die;

/// Occupied intervals of one standard-cell row, kept sorted by start.
///
/// Supports the two queries the greedy/Tetris legalizers need: "where is
/// the free gap of width `w` nearest to `x`?" and "what is the leftmost
/// free position of width `w`?".
#[derive(Debug, Clone, Default)]
pub(crate) struct RowOccupancy {
    /// Sorted, non-overlapping occupied `[start, end)` intervals.
    occupied: Vec<(f64, f64)>,
    /// Usable `[start, end)` segments of the row (die minus macros).
    segments: Vec<(f64, f64)>,
}

impl RowOccupancy {
    pub fn new(segments: Vec<(f64, f64)>) -> Self {
        Self {
            occupied: Vec::new(),
            segments,
        }
    }

    /// Total free width remaining.
    #[allow(dead_code)] // part of the occupancy API; exercised in tests
    pub fn free_width(&self) -> f64 {
        let seg: f64 = self.segments.iter().map(|&(s, e)| e - s).sum();
        let occ: f64 = self.occupied.iter().map(|&(s, e)| e - s).sum();
        seg - occ
    }

    /// Marks `[start, start + w)` occupied.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the interval overlaps an existing one.
    pub fn insert(&mut self, start: f64, w: f64) {
        let end = start + w;
        let idx = self.occupied.partition_point(|&(s, _)| s < start);
        debug_assert!(
            idx == 0 || self.occupied[idx - 1].1 <= start + 1e-9,
            "overlap with previous interval"
        );
        debug_assert!(
            idx == self.occupied.len() || end <= self.occupied[idx].0 + 1e-9,
            "overlap with next interval"
        );
        self.occupied.insert(idx, (start, end));
    }

    /// The legal x-position of width `w` nearest to `x`, or `None` if the
    /// row has no gap that wide.
    pub fn nearest_fit(&self, x: f64, w: f64) -> Option<f64> {
        let mut best: Option<f64> = None;
        let mut best_d = f64::INFINITY;
        for gap in self.gaps() {
            let (gs, ge) = gap;
            if ge - gs < w - 1e-9 {
                continue;
            }
            // Closest position for the cell's left edge within the gap
            // (the upper bound can dip a hair below `gs` when the gap
            // width equals `w` up to float noise).
            let pos = x.clamp(gs, (ge - w).max(gs));
            let d = (pos - x).abs();
            if d < best_d {
                best_d = d;
                best = Some(pos);
            }
        }
        best
    }

    /// The leftmost position with at least `w` free, at or after `from`.
    #[allow(dead_code)] // part of the occupancy API; exercised in tests
    pub fn leftmost_fit(&self, from: f64, w: f64) -> Option<f64> {
        for (gs, ge) in self.gaps() {
            let start = gs.max(from);
            if ge - start >= w - 1e-9 {
                return Some(start);
            }
        }
        None
    }

    /// Iterates over free gaps (segment minus occupied), in x order.
    fn gaps(&self) -> Vec<(f64, f64)> {
        let mut gaps = Vec::new();
        for &(ss, se) in &self.segments {
            let mut cursor = ss;
            for &(os, oe) in &self.occupied {
                if oe <= ss || os >= se {
                    continue;
                }
                if os > cursor {
                    gaps.push((cursor, os.min(se)));
                }
                cursor = cursor.max(oe);
                if cursor >= se {
                    break;
                }
            }
            if cursor < se {
                gaps.push((cursor, se));
            }
        }
        gaps
    }
}

/// Builds the usable segments of every row: the die span minus macro
/// footprints.
pub(crate) fn row_segments(die: &Die, macros: &[Rect]) -> Vec<Vec<(f64, f64)>> {
    let mut out = Vec::with_capacity(die.num_rows());
    for row in die.rows() {
        let row_rect = Rect::new(row.llx, row.y, row.urx, row.y + die.row_height());
        let mut segs = vec![(row.llx, row.urx)];
        for mr in macros {
            if !mr.intersects(&row_rect) {
                continue;
            }
            let mut next = Vec::new();
            for (s, e) in segs {
                let cut_lo = mr.llx.max(s);
                let cut_hi = mr.urx.min(e);
                if cut_lo >= e || cut_hi <= s {
                    next.push((s, e));
                    continue;
                }
                if cut_lo - s > 1e-9 {
                    next.push((s, cut_lo));
                }
                if e - cut_hi > 1e-9 {
                    next.push((cut_hi, e));
                }
            }
            segs = next;
        }
        out.push(segs);
    }
    out
}

/// The row each snapped row index reads back as: a cell at height `y`
/// belongs to row `table[die.snap_row(y)]`, which is
/// `die.row_of_y(die.snap_y(y) + 1e-9)` (the nearest row's edge, read
/// a hair above it) with one division per cell instead of two.
pub(crate) fn snapped_rows(die: &Die) -> Vec<usize> {
    die.rows()
        .iter()
        .map(|r| die.row_of_y(r.y + 1e-9))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> RowOccupancy {
        RowOccupancy::new(vec![(0.0, 100.0)])
    }

    #[test]
    fn empty_row_fits_anywhere() {
        let r = row();
        assert_eq!(r.nearest_fit(40.0, 10.0), Some(40.0));
        assert_eq!(r.leftmost_fit(0.0, 10.0), Some(0.0));
        assert_eq!(r.free_width(), 100.0);
    }

    #[test]
    fn nearest_fit_avoids_occupied() {
        let mut r = row();
        r.insert(40.0, 20.0); // occupies 40..60
                              // Asking for x=45: nearest valid left edge is 30 (ends at 40).
        let pos = r.nearest_fit(45.0, 10.0).expect("fits");
        assert_eq!(pos, 30.0);
        // Asking for x=58 prefers the right side (60).
        let pos = r.nearest_fit(58.0, 10.0).expect("fits");
        assert_eq!(pos, 60.0);
    }

    #[test]
    fn gap_too_small_is_skipped() {
        let mut r = RowOccupancy::new(vec![(0.0, 30.0)]);
        r.insert(0.0, 12.0);
        r.insert(20.0, 10.0);
        // Gap 12..20 is 8 wide; a 10-wide cell cannot fit anywhere.
        assert_eq!(r.nearest_fit(14.0, 10.0), None);
        assert_eq!(r.nearest_fit(14.0, 8.0), Some(12.0));
    }

    #[test]
    fn leftmost_fit_respects_from() {
        let mut r = row();
        r.insert(0.0, 10.0);
        assert_eq!(r.leftmost_fit(0.0, 5.0), Some(10.0));
        assert_eq!(r.leftmost_fit(50.0, 5.0), Some(50.0));
    }

    #[test]
    fn snapped_rows_match_the_two_division_lookup() {
        // A dyadic die and one whose row height and origin are not exact
        // in binary, so some row edges `lly + i * h` round away from the
        // edge `row_of_y` divides back to.
        for die in [
            Die::new(100.0, 36.0, 12.0),
            Die::with_origin(-3.3, -7.1, 50.0, 28.3, 0.7),
        ] {
            let table = snapped_rows(&die);
            assert_eq!(table.len(), die.num_rows());
            let h = die.row_height();
            let lly = die.outline().lly;
            let mut ys = vec![
                lly - 10.0 * h,
                lly - 1e-9,
                die.outline().ury,
                die.outline().ury + 10.0 * h,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ];
            for i in 0..=die.num_rows() {
                let edge = lly + i as f64 * h;
                ys.extend([edge, edge.next_up(), edge.next_down()]);
                ys.extend([edge + 1e-9, edge - 1e-9]);
                for half in [edge + 0.5 * h, edge - 0.5 * h] {
                    ys.extend([half, half.next_up(), half.next_down()]);
                }
            }
            for y in ys {
                assert_eq!(
                    table[die.snap_row(y)],
                    die.row_of_y(die.snap_y(y) + 1e-9),
                    "y = {y:e} on a die with row height {h}"
                );
            }
        }
    }

    #[test]
    fn segments_split_by_macro() {
        let die = Die::new(100.0, 36.0, 12.0);
        let macros = vec![Rect::new(40.0, 0.0, 60.0, 24.0)];
        let segs = row_segments(&die, &macros);
        assert_eq!(segs[0], vec![(0.0, 40.0), (60.0, 100.0)]);
        assert_eq!(segs[1], vec![(0.0, 40.0), (60.0, 100.0)]);
        assert_eq!(segs[2], vec![(0.0, 100.0)]);
    }

    #[test]
    fn occupancy_with_segments() {
        let mut r = RowOccupancy::new(vec![(0.0, 40.0), (60.0, 100.0)]);
        // A 50-wide cell fits nowhere (no segment is wide enough).
        assert_eq!(r.nearest_fit(10.0, 50.0), None);
        r.insert(0.0, 40.0);
        // First segment full; nearest fit lands in the second.
        assert_eq!(r.nearest_fit(10.0, 10.0), Some(60.0));
        assert_eq!(r.free_width(), 40.0);
    }
}
