//! Legality checking: row alignment, die containment, overlap freedom.

use crate::{Die, Placement};
use dpm_geom::Rect;
use dpm_netlist::{CellId, Netlist};
use std::collections::HashSet;
use std::fmt;

/// A single legality violation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Violation {
    /// The cell extends beyond the die outline.
    OutsideDie {
        /// The offending cell.
        cell: CellId,
    },
    /// The cell's lower edge is not on a row boundary.
    NotRowAligned {
        /// The offending cell.
        cell: CellId,
        /// Distance from the nearest row boundary.
        offset: f64,
    },
    /// Two movable cells overlap.
    CellOverlap {
        /// First cell (lower id).
        a: CellId,
        /// Second cell.
        b: CellId,
        /// Overlap area.
        area: f64,
    },
    /// A movable cell overlaps a fixed macro.
    MacroOverlap {
        /// The movable cell.
        cell: CellId,
        /// The macro.
        macro_cell: CellId,
        /// Overlap area.
        area: f64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::OutsideDie { cell } => write!(f, "cell {cell} extends outside the die"),
            Violation::NotRowAligned { cell, offset } => {
                write!(f, "cell {cell} is {offset} off the nearest row boundary")
            }
            Violation::CellOverlap { a, b, area } => {
                write!(f, "cells {a} and {b} overlap by area {area}")
            }
            Violation::MacroOverlap {
                cell,
                macro_cell,
                area,
            } => {
                write!(f, "cell {cell} overlaps macro {macro_cell} by area {area}")
            }
        }
    }
}

/// Result of [`check_legality`]: the list of violations found (possibly
/// truncated) and summary statistics.
#[derive(Debug, Clone, Default)]
pub struct LegalityReport {
    /// Violations found, up to the caller's limit.
    pub violations: Vec<Violation>,
    /// Total number of violations (even when `violations` is truncated).
    pub violation_count: usize,
    /// Total pairwise overlap area between movable cells.
    pub total_overlap_area: f64,
}

impl LegalityReport {
    /// `true` if the placement is fully legal.
    #[inline]
    pub fn is_legal(&self) -> bool {
        self.violation_count == 0
    }
}

impl fmt::Display for LegalityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_legal() {
            write!(f, "legal placement")
        } else {
            write!(
                f,
                "{} violations, total overlap area {:.3}",
                self.violation_count, self.total_overlap_area
            )
        }
    }
}

/// Tolerance (in placement units) for row alignment and containment checks.
pub(crate) const EPS: f64 = 1e-6;

/// Checks a placement for legality: every movable cell inside the die, on a
/// row boundary, and not overlapping any other movable cell or macro.
///
/// At most `max_reported` violations are materialized into the report (the
/// count is always exact). Macros and pads are exempt from the row and
/// containment checks. A cell with a NaN coordinate lies outside the die.
///
/// # Examples
///
/// ```
/// use dpm_geom::Point;
/// use dpm_netlist::{NetlistBuilder, CellKind};
/// use dpm_place::{check_legality, Die, Placement};
///
/// let mut b = NetlistBuilder::new();
/// let u = b.add_cell("u", 4.0, 12.0, CellKind::Movable);
/// let v = b.add_cell("v", 4.0, 12.0, CellKind::Movable);
/// let nl = b.build()?;
/// let die = Die::new(100.0, 48.0, 12.0);
/// let mut p = Placement::new(2);
/// p.set(u, Point::new(0.0, 0.0));
/// p.set(v, Point::new(2.0, 0.0)); // overlaps u
/// let report = check_legality(&nl, &die, &p, 10);
/// assert!(!report.is_legal());
/// assert_eq!(report.violation_count, 1);
/// # Ok::<(), dpm_netlist::BuildNetlistError>(())
/// ```
pub fn check_legality(
    netlist: &Netlist,
    die: &Die,
    placement: &Placement,
    max_reported: usize,
) -> LegalityReport {
    let mut report = LegalityReport::default();
    let outline = die.outline();

    let push = |report: &mut LegalityReport, v: Violation| {
        if report.violations.len() < max_reported {
            report.violations.push(v);
        }
        report.violation_count += 1;
    };

    // Containment and row alignment. Each movable cell is bucketed into
    // every row its vertical span touches, so that unaligned or
    // multi-row-tall cells still get overlap-checked.
    let mut spans: Vec<(u32, u32, f64)> = Vec::with_capacity(netlist.num_cells());
    let mut row_start = vec![0usize; die.num_rows() + 1];
    for cell in netlist.movable_cell_ids() {
        let r = placement.cell_rect(netlist, cell);
        let inside = r.llx >= outline.llx - EPS
            && r.urx <= outline.urx + EPS
            && r.lly >= outline.lly - EPS
            && r.ury <= outline.ury + EPS;
        if !inside {
            push(&mut report, Violation::OutsideDie { cell });
        }
        let off = (r.lly - die.row(die.snap_row(r.lly)).y).abs();
        if off > EPS {
            push(&mut report, Violation::NotRowAligned { cell, offset: off });
        }
        let (lo, hi) = (die.row_of_y(r.lly + EPS), die.row_of_y(r.ury - EPS));
        for row in lo..=hi {
            row_start[row + 1] += 1;
        }
        spans.push((lo as u32, hi as u32, r.urx));
    }

    // One flat array of (llx order key, cell, urx bits), row by row.
    for row in 0..die.num_rows() {
        row_start[row + 1] += row_start[row];
    }
    let mut fill = row_start.clone();
    let mut by_row = vec![(0u64, CellId::new(0), 0u64); row_start[die.num_rows()]];
    for (cell, &(lo, hi, urx)) in netlist.movable_cell_ids().zip(&spans) {
        let entry = (order_key(placement.get(cell).x), cell, urx.to_bits());
        for row in lo as usize..=hi as usize {
            by_row[fill[row]] = entry;
            fill[row] += 1;
        }
    }
    drop((fill, spans));

    // Pairwise overlap within each row (sweep over x). Cells enter a row
    // in id order and the sort is by (llx, id), the order a stable sort
    // by llx gives. Only a pair that passes the x test reads the rects.
    let mut seen_pairs: Option<HashSet<(CellId, CellId)>> = None;
    for row in 0..die.num_rows() {
        let bucket = &mut by_row[row_start[row]..row_start[row + 1]];
        bucket.sort_unstable();
        for (i, &(_, a, urx)) in bucket.iter().enumerate() {
            let urx = f64::from_bits(urx);
            for &(llx, b, _) in &bucket[i + 1..] {
                if from_order_key(llx) >= urx - EPS {
                    break;
                }
                let (ra, rb) = (
                    placement.cell_rect(netlist, a),
                    placement.cell_rect(netlist, b),
                );
                let area = ra.overlap_area(&rb);
                let pair = (a.min(b), a.max(b));
                if area > EPS && seen_pairs.get_or_insert_with(HashSet::new).insert(pair) {
                    report.total_overlap_area += area;
                    push(
                        &mut report,
                        Violation::CellOverlap {
                            a: pair.0,
                            b: pair.1,
                            area,
                        },
                    );
                }
            }
        }
    }

    // Overlap with macros.
    let macros: Vec<(CellId, Rect)> = netlist
        .macro_ids()
        .map(|m| (m, placement.cell_rect(netlist, m)))
        .collect();
    if !macros.is_empty() {
        for cell in netlist.movable_cell_ids() {
            let r = placement.cell_rect(netlist, cell);
            for &(m, mr) in &macros {
                let area = r.overlap_area(&mr);
                if area > EPS {
                    push(
                        &mut report,
                        Violation::MacroOverlap {
                            cell,
                            macro_cell: m,
                            area,
                        },
                    );
                }
            }
        }
    }

    report
}

/// A key whose unsigned order is `f64::total_cmp`'s.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | (1 << 63))
}

/// The `x` of [`order_key`]`(x)`.
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key ^ (1 << 63)
    } else {
        !key
    })
}

/// `check_legality` before its flat row pass, with a `Vec` per row and a
/// stable sort by llx. Kept verbatim as the oracle the flat pass must
/// match; it still passes a cell with a NaN coordinate.
#[cfg(test)]
mod reference {
    use super::{LegalityReport, Violation, EPS};
    use crate::{Die, Placement};
    use dpm_geom::Rect;
    use dpm_netlist::{CellId, CellKind, Netlist};

    pub fn check_legality(
        netlist: &Netlist,
        die: &Die,
        placement: &Placement,
        max_reported: usize,
    ) -> LegalityReport {
        let mut report = LegalityReport::default();
        let outline = die.outline();

        let push = |report: &mut LegalityReport, v: Violation| {
            if report.violations.len() < max_reported {
                report.violations.push(v);
            }
            report.violation_count += 1;
        };

        // Containment and row alignment.
        let mut by_row: Vec<Vec<(CellId, Rect)>> = vec![Vec::new(); die.num_rows()];
        for cell in netlist.cell_ids() {
            if netlist.cell(cell).kind != CellKind::Movable {
                continue;
            }
            let r = placement.cell_rect(netlist, cell);
            if r.llx < outline.llx - EPS
                || r.urx > outline.urx + EPS
                || r.lly < outline.lly - EPS
                || r.ury > outline.ury + EPS
            {
                push(&mut report, Violation::OutsideDie { cell });
            }
            let snapped = die.snap_y(r.lly);
            let off = (r.lly - snapped).abs();
            if off > EPS {
                push(&mut report, Violation::NotRowAligned { cell, offset: off });
            }
            // Bucket into every row the cell's vertical span touches so that
            // unaligned or multi-row-tall cells still get overlap-checked.
            let row_lo = die.row_of_y(r.lly + EPS);
            let row_hi = die.row_of_y(r.ury - EPS);
            #[allow(clippy::needless_range_loop)]
            for row in row_lo..=row_hi {
                by_row[row].push((cell, r));
            }
        }

        // Pairwise overlap within each row bucket (sweep over sorted x).
        let mut seen_pairs = std::collections::HashSet::new();
        for bucket in &mut by_row {
            bucket.sort_by(|a, b| a.1.llx.total_cmp(&b.1.llx));
            for i in 0..bucket.len() {
                let (a, ra) = bucket[i];
                for &(b, rb) in bucket.iter().skip(i + 1) {
                    if rb.llx >= ra.urx - EPS {
                        break;
                    }
                    let area = ra.overlap_area(&rb);
                    if area > EPS && seen_pairs.insert((a.min(b), a.max(b))) {
                        report.total_overlap_area += area;
                        push(
                            &mut report,
                            Violation::CellOverlap {
                                a: a.min(b),
                                b: a.max(b),
                                area,
                            },
                        );
                    }
                }
            }
        }

        // Overlap with macros.
        let macros: Vec<(CellId, Rect)> = netlist
            .macro_ids()
            .map(|m| (m, placement.cell_rect(netlist, m)))
            .collect();
        if !macros.is_empty() {
            for cell in netlist.cell_ids() {
                if netlist.cell(cell).kind != CellKind::Movable {
                    continue;
                }
                let r = placement.cell_rect(netlist, cell);
                for &(m, mr) in &macros {
                    let area = r.overlap_area(&mr);
                    if area > EPS {
                        push(
                            &mut report,
                            Violation::MacroOverlap {
                                cell,
                                macro_cell: m,
                                area,
                            },
                        );
                    }
                }
            }
        }

        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_geom::Point;
    use dpm_netlist::{CellKind, NetlistBuilder};
    use dpm_rng::Rng;

    fn setup(cells: &[(f64, f64)]) -> (Netlist, Die, Placement) {
        let mut b = NetlistBuilder::new();
        for (i, _) in cells.iter().enumerate() {
            b.add_cell(format!("c{i}"), 4.0, 12.0, CellKind::Movable);
        }
        let nl = b.build().expect("valid");
        let die = Die::new(100.0, 48.0, 12.0);
        let mut p = Placement::new(nl.num_cells());
        for (i, &(x, y)) in cells.iter().enumerate() {
            p.set(CellId::new(i as u32), Point::new(x, y));
        }
        (nl, die, p)
    }

    #[test]
    fn legal_placement_passes() {
        let (nl, die, p) = setup(&[(0.0, 0.0), (4.0, 0.0), (0.0, 12.0)]);
        let r = check_legality(&nl, &die, &p, 10);
        assert!(r.is_legal(), "{r}");
    }

    #[test]
    fn abutting_cells_are_legal() {
        let (nl, die, p) = setup(&[(0.0, 0.0), (4.0, 0.0), (8.0, 0.0)]);
        assert!(check_legality(&nl, &die, &p, 10).is_legal());
    }

    #[test]
    fn overlap_detected_once_per_pair() {
        let (nl, die, p) = setup(&[(0.0, 0.0), (2.0, 0.0)]);
        let r = check_legality(&nl, &die, &p, 10);
        assert_eq!(r.violation_count, 1);
        assert!((r.total_overlap_area - 2.0 * 12.0).abs() < 1e-9);
        assert!(matches!(r.violations[0], Violation::CellOverlap { .. }));
    }

    #[test]
    fn misaligned_cell_flagged() {
        let (nl, die, p) = setup(&[(0.0, 3.0)]);
        let r = check_legality(&nl, &die, &p, 10);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::NotRowAligned { .. })));
    }

    #[test]
    fn outside_die_flagged() {
        let (nl, die, p) = setup(&[(98.0, 0.0)]);
        let r = check_legality(&nl, &die, &p, 10);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::OutsideDie { .. })));
    }

    #[test]
    fn macro_overlap_flagged() {
        let mut b = NetlistBuilder::new();
        let c = b.add_cell("c", 4.0, 12.0, CellKind::Movable);
        let m = b.add_cell("m", 24.0, 24.0, CellKind::FixedMacro);
        let nl = b.build().expect("valid");
        let die = Die::new(100.0, 48.0, 12.0);
        let mut p = Placement::new(2);
        p.set(c, Point::new(10.0, 12.0));
        p.set(m, Point::new(8.0, 12.0));
        let r = check_legality(&nl, &die, &p, 10);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::MacroOverlap { .. })));
    }

    #[test]
    fn report_truncation_keeps_exact_count() {
        let cells: Vec<(f64, f64)> = (0..10).map(|i| (i as f64 * 0.5, 0.0)).collect();
        let (nl, die, p) = setup(&cells);
        let r = check_legality(&nl, &die, &p, 3);
        assert_eq!(r.violations.len(), 3);
        assert!(r.violation_count > 3);
    }

    /// An illegal placement of the kind diffusion leaves: rows packed
    /// with gaps, then displaced by a smooth field plus jitter, so that
    /// cells overlap their neighbours and many sit off their rows. Mixed
    /// in: two- and three-row-tall cells, cells whose height is no row
    /// multiple, cells pushed off the die, cells moved onto another
    /// cell's position, three macros, two pads, and on odd seeds the
    /// cells in a shuffled order.
    fn diffused_case(seed: u64) -> (Netlist, Die, Placement) {
        let mut rng = Rng::seed_from_u64(seed);
        let die = Die::with_origin(-5.0, 3.0, 400.0, 240.0, 12.0);
        let mut cells: Vec<(f64, f64, CellKind, Point)> = Vec::new();
        for row in 0..die.num_rows() {
            let mut x = -5.0;
            while x < 390.0 {
                let w = rng.random_range(2.0..9.0);
                let h = match rng.random_range(0..40) {
                    0 => 24.0,
                    1 => 36.0,
                    2 => 17.5,
                    _ => 12.0,
                };
                let y = die.row(row).y;
                let dx = 6.0 * (x / 37.0 + seed as f64).sin() + rng.random_range(-1.0..1.0);
                let dy = if rng.random_bool(0.3) {
                    rng.random_range(-6.0..6.0)
                } else {
                    0.0
                };
                cells.push((w, h, CellKind::Movable, Point::new(x + dx, y + dy)));
                x += w + rng.random_range(0.0..2.5);
            }
        }
        for _ in 0..5 {
            let k = rng.random_range(0..cells.len());
            cells[k].3.x += if rng.random_bool(0.5) { -30.0 } else { 420.0 };
        }
        for _ in 0..40 {
            let (a, b) = (
                rng.random_range(0..cells.len()),
                rng.random_range(0..cells.len()),
            );
            cells[a].3 = cells[b].3;
        }
        for _ in 0..3 {
            let at = Point::new(rng.random_range(0.0..340.0), rng.random_range(3.0..180.0));
            cells.push((48.0, 36.0, CellKind::FixedMacro, at));
        }
        cells.push((1.0, 1.0, CellKind::Pad, Point::new(-5.0, 3.0)));
        cells.push((1.0, 1.0, CellKind::Pad, Point::new(394.0, 242.0)));
        if seed % 2 == 1 {
            rng.shuffle(&mut cells);
        }
        let mut b = NetlistBuilder::new();
        for (i, &(w, h, kind, _)) in cells.iter().enumerate() {
            b.add_cell(format!("c{i}"), w, h, kind);
        }
        let nl = b.build().expect("valid");
        let mut p = Placement::new(nl.num_cells());
        for (i, &(_, _, _, at)) in cells.iter().enumerate() {
            p.set(CellId::new(i as u32), at);
        }
        (nl, die, p)
    }

    #[test]
    fn matches_reference_on_illegal_placements() {
        for seed in 0..16 {
            let (nl, die, p) = diffused_case(seed);
            for limit in [0, 7, usize::MAX] {
                let want = reference::check_legality(&nl, &die, &p, limit);
                let got = check_legality(&nl, &die, &p, limit);
                let what = format!("seed {seed}, limit {limit}");
                assert!(want.violation_count > 100, "{what}: {want}");
                assert_eq!(got.violation_count, want.violation_count, "{what}");
                assert_eq!(
                    format!("{:?}", got.violations),
                    format!("{:?}", want.violations),
                    "{what}"
                );
                assert_eq!(
                    got.total_overlap_area.to_bits(),
                    want.total_overlap_area.to_bits(),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn order_key_sorts_as_total_cmp_and_round_trips() {
        let mut xs = vec![
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1.5,
            -1.5,
            f64::MAX,
            f64::MIN,
        ];
        let mut rng = Rng::seed_from_u64(3);
        xs.extend((0..200).map(|_| rng.random_range(-1e6..1e6)));
        for &a in &xs {
            assert_eq!(from_order_key(order_key(a)).to_bits(), a.to_bits());
            for &b in &xs {
                assert_eq!(order_key(a).cmp(&order_key(b)), a.total_cmp(&b));
            }
        }
    }

    #[test]
    fn nan_position_is_outside_the_die() {
        let (nl, die, mut p) = setup(&[(0.0, 0.0), (8.0, 0.0), (16.0, 0.0)]);
        p.set(CellId::new(0), Point::new(f64::NAN, 0.0));
        p.set(CellId::new(1), Point::new(f64::INFINITY, 0.0));
        p.set(CellId::new(2), Point::new(16.0, f64::NAN));
        let r = check_legality(&nl, &die, &p, 10);
        let outside: Vec<_> = r
            .violations
            .iter()
            .filter_map(|v| match v {
                Violation::OutsideDie { cell } => Some(cell.index()),
                _ => None,
            })
            .collect();
        assert_eq!(outside, vec![0, 1, 2], "{:?}", r.violations);
    }

    #[test]
    fn display_formats() {
        let v = Violation::OutsideDie {
            cell: CellId::new(1),
        };
        assert!(v.to_string().contains("outside"));
        let mut rep = LegalityReport::default();
        assert_eq!(rep.to_string(), "legal placement");
        rep.violation_count = 2;
        assert!(rep.to_string().contains("2 violations"));
    }
}
