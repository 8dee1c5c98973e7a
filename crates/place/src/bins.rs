//! Uniform bin grids over the die.
//!
//! The diffusion formulation (paper Section IV) works in *bin coordinates*:
//! the die is divided into equal bins of size `bin × bin`, coordinates are
//! scaled so each bin has unit width/height, and a continuous location
//! `(x, y)` lies in bin `(⌊x⌋, ⌊y⌋)`. [`BinGrid`] owns that coordinate
//! transform and the `(j, k) ↔ flat index` arithmetic every grid-shaped
//! buffer in the workspace shares.

use dpm_geom::{floor_index, Point, Rect};

/// Integer coordinates of a bin: column `j` (x) and row `k` (y).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BinIdx {
    /// Column (x) index.
    pub j: usize,
    /// Row (y) index.
    pub k: usize,
}

impl BinIdx {
    /// Creates a bin index.
    #[inline]
    pub const fn new(j: usize, k: usize) -> Self {
        Self { j, k }
    }

    /// Chebyshev (L∞) distance between two bins — the paper's notion of a
    /// bin being "within a distance of W" of another (Algorithm 2).
    #[inline]
    pub fn chebyshev_distance(self, other: BinIdx) -> usize {
        let dj = self.j.abs_diff(other.j);
        let dk = self.k.abs_diff(other.k);
        dj.max(dk)
    }
}

/// A uniform grid of `nx × ny` square-ish bins covering a region.
///
/// # Examples
///
/// ```
/// use dpm_geom::{Point, Rect};
/// use dpm_place::{BinGrid, BinIdx};
///
/// let grid = BinGrid::new(Rect::new(0.0, 0.0, 100.0, 60.0), 20.0);
/// assert_eq!((grid.nx(), grid.ny()), (5, 3));
/// assert_eq!(grid.bin_of_point(Point::new(45.0, 25.0)), BinIdx::new(2, 1));
/// assert_eq!(grid.bin_rect(BinIdx::new(2, 1)), Rect::new(40.0, 20.0, 60.0, 40.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BinGrid {
    region: Rect,
    bin_w: f64,
    bin_h: f64,
    nx: usize,
    ny: usize,
}

impl BinGrid {
    /// Creates a grid over `region` with bins of (approximately) the given
    /// size.
    ///
    /// The bin count per axis is `ceil(extent / bin_size)` (at least 1) and
    /// the actual bin dimensions are stretched so the bins exactly tile the
    /// region.
    ///
    /// # Panics
    ///
    /// Panics if `bin_size` is not positive or the region is degenerate.
    pub fn new(region: Rect, bin_size: f64) -> Self {
        assert!(bin_size > 0.0, "bin size must be positive");
        assert!(
            region.width() > 0.0 && region.height() > 0.0,
            "region must have area"
        );
        let nx = (region.width() / bin_size).ceil().max(1.0) as usize;
        let ny = (region.height() / bin_size).ceil().max(1.0) as usize;
        Self {
            region,
            bin_w: region.width() / nx as f64,
            bin_h: region.height() / ny as f64,
            nx,
            ny,
        }
    }

    /// Creates a grid with an exact number of bins per axis.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero or the region is degenerate.
    pub fn with_counts(region: Rect, nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "bin counts must be positive");
        assert!(
            region.width() > 0.0 && region.height() > 0.0,
            "region must have area"
        );
        Self {
            region,
            bin_w: region.width() / nx as f64,
            bin_h: region.height() / ny as f64,
            nx,
            ny,
        }
    }

    /// The covered region.
    #[inline]
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Bin width in world units.
    #[inline]
    pub fn bin_width(&self) -> f64 {
        self.bin_w
    }

    /// Bin height in world units.
    #[inline]
    pub fn bin_height(&self) -> f64 {
        self.bin_h
    }

    /// Area of one bin.
    #[inline]
    pub fn bin_area(&self) -> f64 {
        self.bin_w * self.bin_h
    }

    /// Number of bin columns.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of bin rows.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of bins.
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// `true` if the grid has no bins (never happens for constructed grids).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat index of bin `(j, k)`, row-major.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the index is out of range.
    #[inline]
    pub fn flat(&self, idx: BinIdx) -> usize {
        debug_assert!(
            idx.j < self.nx && idx.k < self.ny,
            "bin {idx:?} out of range"
        );
        idx.k * self.nx + idx.j
    }

    /// Bin coordinates for a flat index.
    #[inline]
    pub fn unflat(&self, flat: usize) -> BinIdx {
        BinIdx::new(flat % self.nx, flat / self.nx)
    }

    /// The bin containing a world point, clamped to the grid.
    pub fn bin_of_point(&self, p: Point) -> BinIdx {
        BinIdx::new(
            floor_index((p.x - self.region.llx) / self.bin_w, self.nx),
            floor_index((p.y - self.region.lly) / self.bin_h, self.ny),
        )
    }

    /// The world rectangle of bin `(j, k)`.
    pub fn bin_rect(&self, idx: BinIdx) -> Rect {
        let llx = self.region.llx + idx.j as f64 * self.bin_w;
        let lly = self.region.lly + idx.k as f64 * self.bin_h;
        Rect::new(llx, lly, llx + self.bin_w, lly + self.bin_h)
    }

    /// The world center of bin `(j, k)`.
    pub fn bin_center(&self, idx: BinIdx) -> Point {
        Point::new(
            self.region.llx + (idx.j as f64 + 0.5) * self.bin_w,
            self.region.lly + (idx.k as f64 + 0.5) * self.bin_h,
        )
    }

    /// Converts a world point into continuous *bin coordinates* where each
    /// bin has unit size and bin `(j, k)` spans `[j, j+1) × [k, k+1)`.
    ///
    /// This is the scaling the paper assumes ("the coordinate system is
    /// scaled so that the width and height of each bin is one").
    #[inline]
    pub fn to_bin_coords(&self, p: Point) -> Point {
        Point::new(
            (p.x - self.region.llx) / self.bin_w,
            (p.y - self.region.lly) / self.bin_h,
        )
    }

    /// Converts continuous bin coordinates back into world coordinates.
    #[inline]
    pub fn to_world_coords(&self, p: Point) -> Point {
        Point::new(
            self.region.llx + p.x * self.bin_w,
            self.region.lly + p.y * self.bin_h,
        )
    }

    /// Iterates over all bin indices, row-major.
    pub fn iter(&self) -> impl Iterator<Item = BinIdx> + '_ {
        let nx = self.nx;
        (0..self.len()).map(move |f| BinIdx::new(f % nx, f / nx))
    }

    /// The range of bins overlapped by a world rectangle (inclusive on both
    /// ends), clamped to the grid; `None` if the rectangle lies fully
    /// outside.
    pub fn bins_overlapping(&self, r: &Rect) -> Option<(BinIdx, BinIdx)> {
        if !self.region.intersects(r) {
            return None;
        }
        let lo = self.bin_of_point(Point::new(r.llx, r.lly));
        // Subtract a hair so a rect ending exactly on a bin edge does not
        // claim the next bin.
        let hi = self.bin_of_point(Point::new(
            (r.urx - 1e-12).max(r.llx),
            (r.ury - 1e-12).max(r.lly),
        ));
        Some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> BinGrid {
        BinGrid::new(Rect::new(0.0, 0.0, 100.0, 60.0), 20.0)
    }

    #[test]
    fn construction_counts() {
        let g = grid();
        assert_eq!(g.nx(), 5);
        assert_eq!(g.ny(), 3);
        assert_eq!(g.len(), 15);
        assert_eq!(g.bin_area(), 400.0);
    }

    #[test]
    fn uneven_region_stretches_bins() {
        let g = BinGrid::new(Rect::new(0.0, 0.0, 90.0, 50.0), 20.0);
        assert_eq!(g.nx(), 5); // ceil(90/20)
        assert_eq!(g.ny(), 3); // ceil(50/20)
        assert!((g.bin_width() - 18.0).abs() < 1e-12);
        assert!((g.bin_height() - 50.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn flat_round_trip() {
        let g = grid();
        for k in 0..g.ny() {
            for j in 0..g.nx() {
                let idx = BinIdx::new(j, k);
                assert_eq!(g.unflat(g.flat(idx)), idx);
            }
        }
    }

    #[test]
    fn bin_of_point_clamps() {
        let g = grid();
        assert_eq!(g.bin_of_point(Point::new(-5.0, -5.0)), BinIdx::new(0, 0));
        assert_eq!(g.bin_of_point(Point::new(500.0, 500.0)), BinIdx::new(4, 2));
        assert_eq!(g.bin_of_point(Point::new(20.0, 0.0)), BinIdx::new(1, 0));
    }

    #[test]
    fn bin_rect_and_center() {
        let g = grid();
        let idx = BinIdx::new(3, 2);
        assert_eq!(g.bin_rect(idx), Rect::new(60.0, 40.0, 80.0, 60.0));
        assert_eq!(g.bin_center(idx), Point::new(70.0, 50.0));
    }

    #[test]
    fn coordinate_transform_round_trips() {
        let g = grid();
        let p = Point::new(37.0, 44.0);
        let b = g.to_bin_coords(p);
        assert!((b.x - 1.85).abs() < 1e-12);
        assert!((b.y - 2.2).abs() < 1e-12);
        let back = g.to_world_coords(b);
        assert!((back.x - p.x).abs() < 1e-9);
        assert!((back.y - p.y).abs() < 1e-9);
    }

    #[test]
    fn overlap_range() {
        let g = grid();
        let (lo, hi) = g
            .bins_overlapping(&Rect::new(15.0, 5.0, 45.0, 25.0))
            .expect("overlaps");
        assert_eq!(lo, BinIdx::new(0, 0));
        assert_eq!(hi, BinIdx::new(2, 1));
        // Rect ending exactly on bin edge does not spill into next bin.
        let (lo, hi) = g
            .bins_overlapping(&Rect::new(0.0, 0.0, 20.0, 20.0))
            .expect("overlaps");
        assert_eq!(lo, BinIdx::new(0, 0));
        assert_eq!(hi, BinIdx::new(0, 0));
        assert!(g
            .bins_overlapping(&Rect::new(200.0, 200.0, 300.0, 300.0))
            .is_none());
    }

    #[test]
    fn chebyshev_distance() {
        assert_eq!(BinIdx::new(2, 2).chebyshev_distance(BinIdx::new(4, 1)), 2);
        assert_eq!(BinIdx::new(0, 0).chebyshev_distance(BinIdx::new(0, 0)), 0);
        assert_eq!(BinIdx::new(5, 5).chebyshev_distance(BinIdx::new(2, 9)), 4);
    }

    #[test]
    fn iter_visits_all_bins_once() {
        let g = grid();
        let all: Vec<BinIdx> = g.iter().collect();
        assert_eq!(all.len(), g.len());
        assert_eq!(all[0], BinIdx::new(0, 0));
        assert_eq!(all[g.len() - 1], BinIdx::new(4, 2));
    }
}
