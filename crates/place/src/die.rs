//! Die (placement image) geometry: outline and standard-cell rows.

use dpm_geom::{floor_index, Rect};

/// One standard-cell row: a horizontal strip of the die where cells of one
/// row height may be placed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Row index from the bottom of the die.
    pub index: usize,
    /// Lower edge of the row.
    pub y: f64,
    /// Left end of the row.
    pub llx: f64,
    /// Right end of the row.
    pub urx: f64,
}

impl Row {
    /// Usable width of the row.
    #[inline]
    pub fn width(&self) -> f64 {
        self.urx - self.llx
    }
}

/// The placement region: a rectangular outline divided into equal-height
/// standard-cell rows.
///
/// Fixed macros are *not* part of the die itself — they are cells of kind
/// [`FixedMacro`](dpm_netlist::CellKind::FixedMacro) in the netlist, and
/// density computation and legality checking subtract them from the usable
/// area.
///
/// # Examples
///
/// ```
/// use dpm_place::Die;
///
/// let die = Die::new(100.0, 60.0, 12.0);
/// assert_eq!(die.num_rows(), 5);
/// assert_eq!(die.row(2).y, 24.0);
/// assert_eq!(die.row_of_y(25.0), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Die {
    outline: Rect,
    row_height: f64,
    rows: Vec<Row>,
}

impl Die {
    /// Creates a die of the given width and height with rows of
    /// `row_height`, anchored at the origin.
    ///
    /// The die height is truncated down to a whole number of rows.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is non-positive or the die is shorter than
    /// one row.
    pub fn new(width: f64, height: f64, row_height: f64) -> Self {
        Self::with_origin(0.0, 0.0, width, height, row_height)
    }

    /// Creates a die with an explicit lower-left corner.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is non-positive or the die is shorter than
    /// one row.
    pub fn with_origin(llx: f64, lly: f64, width: f64, height: f64, row_height: f64) -> Self {
        assert!(
            width > 0.0 && height > 0.0,
            "die dimensions must be positive"
        );
        assert!(row_height > 0.0, "row height must be positive");
        let n_rows = (height / row_height).floor() as usize;
        assert!(n_rows >= 1, "die must fit at least one row");
        let rows = (0..n_rows)
            .map(|i| Row {
                index: i,
                y: lly + i as f64 * row_height,
                llx,
                urx: llx + width,
            })
            .collect();
        Self {
            outline: Rect::new(llx, lly, llx + width, lly + n_rows as f64 * row_height),
            row_height,
            rows,
        }
    }

    /// The die outline (trimmed to a whole number of rows).
    #[inline]
    pub fn outline(&self) -> Rect {
        self.outline
    }

    /// Height of each standard-cell row.
    #[inline]
    pub fn row_height(&self) -> f64 {
        self.row_height
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The row with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_rows()`.
    #[inline]
    pub fn row(&self, index: usize) -> Row {
        self.rows[index]
    }

    /// All rows, bottom to top.
    #[inline]
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The index of the row containing vertical coordinate `y`, clamped to
    /// the die (coordinates below the die map to row 0, above to the top
    /// row).
    pub fn row_of_y(&self, y: f64) -> usize {
        let rel = (y - self.outline.lly) / self.row_height;
        floor_index(rel, self.rows.len())
    }

    /// The index of the row whose bottom edge is nearest `y`, halfway
    /// cases rounding up, clamped to the die (NaN maps to row 0).
    ///
    /// This is `rel.round()` of the offset in rows, computed with one
    /// division and no branch: baseline x86-64 has no rounding
    /// instruction, so `f64::round` is a libm call.
    #[inline]
    pub fn snap_row(&self, y: f64) -> usize {
        let top = self.rows.len() - 1;
        // `max` maps NaN to 0. Clamped to the rows, the offset's integer
        // part is exact and so is the fraction beside it. (`i64` converts
        // in one instruction each way, `usize` does not.)
        let rel = ((y - self.outline.lly) / self.row_height)
            .max(0.0)
            .min(top as f64);
        let whole = rel as i64;
        (whole + i64::from(rel - whole as f64 >= 0.5)) as usize
    }

    /// Snaps a y coordinate to the bottom edge of the nearest row (by the
    /// cell's lower edge).
    pub fn snap_y(&self, y: f64) -> f64 {
        self.rows[self.snap_row(y)].y
    }

    /// Total placement area of the die.
    #[inline]
    pub fn area(&self) -> f64 {
        self.outline.area()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_tile_the_die() {
        let die = Die::new(50.0, 37.0, 12.0);
        // 37 / 12 -> 3 full rows; outline trimmed to 36.
        assert_eq!(die.num_rows(), 3);
        assert_eq!(die.outline().ury, 36.0);
        assert_eq!(die.row(0).y, 0.0);
        assert_eq!(die.row(1).y, 12.0);
        assert_eq!(die.row(2).y, 24.0);
        for r in die.rows() {
            assert_eq!(r.width(), 50.0);
        }
    }

    #[test]
    fn row_of_y_clamps() {
        let die = Die::new(10.0, 36.0, 12.0);
        assert_eq!(die.row_of_y(-5.0), 0);
        assert_eq!(die.row_of_y(0.0), 0);
        assert_eq!(die.row_of_y(11.9), 0);
        assert_eq!(die.row_of_y(12.0), 1);
        assert_eq!(die.row_of_y(100.0), 2);
    }

    #[test]
    fn snap_y_rounds_to_nearest_row() {
        let die = Die::new(10.0, 36.0, 12.0);
        assert_eq!(die.snap_y(5.0), 0.0);
        assert_eq!(die.snap_y(7.0), 12.0);
        assert_eq!(die.snap_y(35.0), 24.0);
        assert_eq!(die.snap_y(-3.0), 0.0);
    }

    #[test]
    fn snap_row_matches_libm_round() {
        let die = Die::with_origin(3.0, -7.5, 40.0, 36.0 * 12.0, 12.0);
        let reference = |y: f64| {
            let rel = (y - die.outline().lly) / die.row_height();
            (rel.round().max(0.0) as usize).min(die.num_rows() - 1)
        };
        let mut ys = vec![
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -0.0,
            1e300,
            2f64.powi(53) * 12.0,
            2f64.powi(64) * 12.0,
        ];
        for k in -3..40 {
            let edge = -7.5 + 12.0 * k as f64;
            for d in [
                -6.0,
                6.0,
                -0.0,
                0.0,
                1e-9,
                -1e-9,
                5.999_999_999,
                6.000_000_001,
            ] {
                ys.push(edge + d);
                ys.push(f64::from_bits((edge + d).to_bits() + 1));
                ys.push(f64::from_bits((edge + d).to_bits().wrapping_sub(1)));
            }
        }
        let mut rng = dpm_rng::Rng::seed_from_u64(0x5EA7);
        ys.extend((0..4000).map(|_| rng.random_range(-40.0..480.0)));
        for y in ys {
            assert_eq!(die.snap_row(y), reference(y), "y = {y:e}");
        }
    }

    #[test]
    fn with_origin_offsets_rows() {
        let die = Die::with_origin(10.0, 20.0, 40.0, 24.0, 12.0);
        assert_eq!(die.row(0).y, 20.0);
        assert_eq!(die.row(0).llx, 10.0);
        assert_eq!(die.row(0).urx, 50.0);
        assert_eq!(die.row_of_y(33.0), 1);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn too_short_die_panics() {
        let _ = Die::new(10.0, 5.0, 12.0);
    }
}
