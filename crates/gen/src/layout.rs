//! The layout steps both generators share: sizing the die, sampling
//! macro positions, creating pads and ringing them around the die,
//! cutting rows into free segments, growing the die until the cells
//! fit, and packing cells into those segments.
//!
//! [`CircuitSpec`](crate::CircuitSpec) lays out one planar die with
//! them and [`VolCircuitSpec`](crate::VolCircuitSpec) a stack of tiers
//! over the same die. Only [`sample_macros`] draws from the RNG, so
//! where a generator calls it fixes its circuits; the crate's
//! `generators_are_pinned_bit_for_bit` test holds both to their
//! outputs.

use dpm_geom::{Point, Rect};
use dpm_netlist::{CellId, CellKind, NetlistBuilder};
use dpm_place::Die;
use dpm_rng::Rng;

/// Free `(start, end)` spans of one row.
pub(crate) type Segments = Vec<(f64, f64)>;

/// A die sized so cells of total `area` fill `utilization` of it: at
/// least 4 rows of `row_height`, close to square, its width rounded up.
/// Returns the die and its row count.
pub(crate) fn size_die(area: f64, utilization: f64, row_height: f64) -> (Die, usize) {
    let die_area = area / utilization;
    let side = die_area.sqrt();
    let rows = ((side / row_height).ceil() as usize).max(4);
    let height = rows as f64 * row_height;
    let width = (die_area / height).ceil();
    (Die::new(width, height, row_height), rows)
}

/// Adds `count` fixed macros to `b` and rejection-samples an interior
/// position for each on a die `width` wide with `rows` rows of
/// `row_height`, so macros never overlap each other (overlapping
/// blockages would double-count density and are not legalizable).
pub(crate) fn sample_macros(
    rng: &mut Rng,
    b: &mut NetlistBuilder,
    count: usize,
    width: f64,
    rows: usize,
    row_height: f64,
) -> Vec<(CellId, Rect)> {
    let mut macros: Vec<(CellId, Rect)> = Vec::new();
    for m in 0..count {
        let mw = (width * rng.random_range(0.06..0.12)).max(2.0 * row_height);
        let mh = (rng.random_range(4..10) as f64) * row_height;
        let id = b.add_cell(format!("macro{m}"), mw, mh, CellKind::FixedMacro);
        let mut placed = None;
        for _ in 0..64 {
            let mx = rng.random_range(0.1..0.8) * (width - mw);
            let row =
                rng.random_range(1..rows.saturating_sub((mh / row_height) as usize + 1).max(2));
            let rect = Rect::from_origin_size(Point::new(mx, row as f64 * row_height), mw, mh);
            if macros
                .iter()
                .all(|&(_, other)| !rect.inflated(1.0).intersects(&other))
            {
                placed = Some(rect);
                break;
            }
        }
        // A macro that cannot be placed without overlap (tiny die,
        // many macros) parks in a corner sliver shrunk to fit.
        let rect = placed.unwrap_or_else(|| {
            Rect::from_origin_size(Point::new(0.0, row_height), mw.min(width / 4.0), mh)
        });
        macros.push((id, rect));
    }
    macros
}

/// Adds `count` unit-size I/O pads to `b`.
pub(crate) fn add_pads(b: &mut NetlistBuilder, count: usize) -> Vec<CellId> {
    (0..count)
        .map(|p| b.add_cell(format!("pad{p}"), 1.0, 1.0, CellKind::Pad))
        .collect()
}

/// Positions for `count` pads spaced evenly around the boundary of
/// `outline`, counter-clockwise from its lower-left corner, each kept
/// inside the outline (pads are one unit square and occupy no
/// placement area).
pub(crate) fn pad_ring(outline: Rect, count: usize) -> impl Iterator<Item = Point> {
    let (w, h) = (outline.width(), outline.height());
    let perimeter = 2.0 * (w + h);
    (0..count).map(move |i| {
        let d = i as f64 / count.max(1) as f64 * perimeter;
        let pos = if d < w {
            Point::new(outline.llx + d, outline.lly)
        } else if d < w + h {
            Point::new(outline.urx - 1.0, outline.lly + (d - w))
        } else if d < 2.0 * w + h {
            Point::new(outline.urx - (d - w - h) - 1.0, outline.ury - 1.0)
        } else {
            Point::new(outline.llx, outline.ury - (d - 2.0 * w - h) - 1.0)
        };
        pos.clamped(
            outline.llx,
            outline.urx - 1.0,
            outline.lly,
            outline.ury - 1.0,
        )
    })
}

/// Each row of `die` as free segments: the row's span with every macro
/// span cut out.
pub(crate) fn free_segments(die: &Die, macros: &[(CellId, Rect)]) -> Vec<Segments> {
    let mut segments = Vec::with_capacity(die.num_rows());
    for row in die.rows() {
        let row_rect = Rect::new(row.llx, row.y, row.urx, row.y + die.row_height());
        let mut segs = vec![(row.llx, row.urx)];
        for &(_, mr) in macros {
            if !mr.intersects(&row_rect) {
                continue;
            }
            let mut next = Vec::new();
            for (s, e) in segs {
                if mr.llx <= s && mr.urx >= e {
                    continue; // fully blocked
                } else if mr.llx > s && mr.urx < e {
                    next.push((s, mr.llx));
                    next.push((mr.urx, e));
                } else if mr.llx > s && mr.llx < e {
                    next.push((s, mr.llx));
                } else if mr.urx > s && mr.urx < e {
                    next.push((mr.urx, e));
                } else {
                    next.push((s, e));
                }
            }
            segs = next;
        }
        segments.push(segs);
    }
    segments
}

/// Runs `place` on `die`, growing the die 10% wider and two rows taller
/// after each miss, up to 12 times: macros consume die area the
/// utilization-based sizing did not account for. Returns the die the
/// cells fit on and their placement.
///
/// # Panics
///
/// Panics if the cells still do not fit after the last growth.
pub(crate) fn grow_until_placed<P>(
    mut die: Die,
    mut place: impl FnMut(&Die) -> Option<P>,
) -> (Die, P) {
    for _ in 0..12 {
        if let Some(p) = place(&die) {
            return (die, p);
        }
        let o = die.outline();
        let row_height = die.row_height();
        die = Die::new(o.width() * 1.1, o.height() + row_height * 2.0, row_height);
    }
    panic!("die growth must eventually fit the cells");
}

/// Packs cells left to right into the free segments of one row after
/// another of `die`, from `start_row` on, wrapping cyclically through
/// the die. Each cell is `(id, gap, width, pitch)`: it starts `gap` or
/// more past where the previous cell's `pitch` ended, inside one
/// segment, and `place` gets its lower-left corner. Returns `false` once
/// the rows are used up.
pub(crate) fn pack_rows(
    die: &Die,
    segments: &[Segments],
    start_row: usize,
    cells: impl IntoIterator<Item = (CellId, f64, f64, f64)>,
    mut place: impl FnMut(CellId, Point),
) -> bool {
    let rows = segments.len();
    let row_at = |visit: usize| (start_row + visit) % rows;
    let first_start = |row: usize| segments[row].first().map(|&(s, _)| s).unwrap_or(0.0);
    let (mut visit, mut seg, mut x) = (0, 0, first_start(start_row));
    for (id, gap, width, pitch) in cells {
        x += gap;
        loop {
            if visit >= rows {
                return false;
            }
            let segs = &segments[row_at(visit)];
            if seg >= segs.len() {
                visit += 1;
                seg = 0;
                x = first_start(row_at(visit));
                continue;
            }
            let (s, e) = segs[seg];
            if x < s {
                x = s;
            }
            if x + width <= e {
                place(id, Point::new(x, die.row(row_at(visit)).y));
                x += pitch;
                break;
            }
            seg += 1;
            if let Some(&(ns, _)) = segs.get(seg) {
                x = ns;
            }
        }
    }
    true
}
