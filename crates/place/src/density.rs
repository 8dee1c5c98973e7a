//! Per-bin placement density.
//!
//! The paper (Section IV-A) defines the density of bin `(j, k)` as the sum
//! of cell-area overlaps with the bin, normalized by the bin area, so a bin
//! exactly filled by cells has density 1.0. Bins covered by fixed macros
//! are marked *fixed*: their density is pinned at 1.0 and the diffusion
//! equation treats them as walls.

use crate::{BinGrid, BinIdx, Placement};
use dpm_geom::Rect;
use dpm_netlist::Netlist;
use dpm_par::{parallel_for_chunks, ThreadPool};
use std::ops::Range;

/// Bin columns whose overlap widths [`splat_rect`] buffers at a time; a
/// wider rect takes several passes over its rows.
const SPLAT_COLS: usize = 8;

/// Calls `add(flat, area / bin_area)` for every bin of `grid` in `rows`
/// that `r` overlaps, where `area` is the overlap of `r` with the bin.
///
/// This is the one splat kernel: the density map's movable and macro
/// passes, [`DensityMap::move_cell`] and the volumetric splat all call
/// it. It takes one overlap width per bin column and one height per bin
/// row, and each term gets the same `w > 0 && h > 0` test, product and
/// division as `bin_rect(idx).overlap_area(r) / bin_area`, so every term
/// has the same bits. A rect outside the region or outside `rows` adds
/// nothing; zero-area overlaps add `0.0`.
///
/// # Examples
///
/// ```
/// use dpm_geom::Rect;
/// use dpm_place::{splat_rect, BinGrid};
///
/// let grid = BinGrid::new(Rect::new(0.0, 0.0, 40.0, 40.0), 10.0);
/// let mut d = vec![0.0; grid.len()];
/// splat_rect(&grid, &Rect::new(5.0, 5.0, 15.0, 15.0), 0..grid.ny(), |f, t| d[f] += t);
/// assert_eq!(&d[..2], &[0.25, 0.25]);
/// assert_eq!(d.iter().sum::<f64>(), 1.0);
/// ```
pub fn splat_rect(grid: &BinGrid, r: &Rect, rows: Range<usize>, mut add: impl FnMut(usize, f64)) {
    let region = grid.region();
    if !region.intersects(r) {
        return;
    }
    let (k_lo, k_hi) = grid.row_span(r);
    let (k0, k1) = (k_lo.max(rows.start), (k_hi + 1).min(rows.end));
    if k0 >= k1 {
        return;
    }
    let (j_lo, j_hi) = grid.col_span(r);
    let (bin_w, bin_h, bin_area, nx) = (
        grid.bin_width(),
        grid.bin_height(),
        grid.bin_area(),
        grid.nx(),
    );
    let mut widths = [0.0; SPLAT_COLS];
    let mut j0 = j_lo;
    while j0 <= j_hi {
        let cols = (j_hi + 1 - j0).min(SPLAT_COLS);
        for (i, w) in widths[..cols].iter_mut().enumerate() {
            let llx = region.llx + (j0 + i) as f64 * bin_w;
            *w = (llx + bin_w).min(r.urx) - llx.max(r.llx);
        }
        for k in k0..k1 {
            let lly = region.lly + k as f64 * bin_h;
            let h = (lly + bin_h).min(r.ury) - lly.max(r.lly);
            let row = k * nx + j0;
            for (i, &w) in widths[..cols].iter().enumerate() {
                let a = if w > 0.0 && h > 0.0 { w * h } else { 0.0 };
                add(row + i, a / bin_area);
            }
        }
        j0 += cols;
    }
}

/// A snapshot of placement density over a [`BinGrid`].
///
/// # Examples
///
/// ```
/// use dpm_geom::Rect;
/// use dpm_geom::Point;
/// use dpm_netlist::{NetlistBuilder, CellKind};
/// use dpm_place::{BinGrid, BinIdx, DensityMap, Placement};
///
/// let mut b = NetlistBuilder::new();
/// let c = b.add_cell("c", 10.0, 10.0, CellKind::Movable);
/// let nl = b.build()?;
/// let mut p = Placement::new(1);
/// p.set(c, Point::new(0.0, 0.0));
///
/// let grid = BinGrid::new(Rect::new(0.0, 0.0, 40.0, 40.0), 10.0);
/// let d = DensityMap::from_placement(&nl, &p, grid);
/// assert_eq!(d.density(BinIdx::new(0, 0)), 1.0);
/// assert_eq!(d.density(BinIdx::new(1, 0)), 0.0);
/// # Ok::<(), dpm_netlist::BuildNetlistError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMap {
    grid: BinGrid,
    density: Vec<f64>,
    fixed: Vec<bool>,
}

impl DensityMap {
    /// Fraction of a bin a fixed macro must cover before the bin is treated
    /// as a wall for diffusion purposes.
    pub const FIXED_COVER_THRESHOLD: f64 = 0.5;

    /// Computes the density of every bin from the current placement.
    ///
    /// Movable cells contribute their overlap area; fixed macros mark bins
    /// whose coverage exceeds [`Self::FIXED_COVER_THRESHOLD`] as fixed with
    /// density 1.0 (the paper assumes macros overlap bins completely; the
    /// threshold generalizes that to partial boundary bins). Pads occupy no
    /// area.
    pub fn from_placement(netlist: &Netlist, placement: &Placement, grid: BinGrid) -> Self {
        Self::from_placement_with_pool(netlist, placement, grid, &ThreadPool::single())
    }

    /// Like [`from_placement`](Self::from_placement) but splats movable
    /// cells in parallel on `pool`. Results are bit-identical to the
    /// serial path at every thread count (see [`recompute_with_pool`]).
    ///
    /// [`recompute_with_pool`]: Self::recompute_with_pool
    pub fn from_placement_with_pool(
        netlist: &Netlist,
        placement: &Placement,
        grid: BinGrid,
        pool: &ThreadPool,
    ) -> Self {
        let mut map = Self {
            density: vec![0.0; grid.len()],
            fixed: vec![false; grid.len()],
            grid,
        };
        map.recompute_with_pool(netlist, placement, pool);
        map
    }

    /// Recomputes densities in place from `placement` (the *dynamic density
    /// update* of paper Section VI-B), reusing the existing grid.
    pub fn recompute(&mut self, netlist: &Netlist, placement: &Placement) {
        self.recompute_with_pool(netlist, placement, &ThreadPool::single());
    }

    /// Like [`recompute`](Self::recompute) but splats movable cells in
    /// parallel on `pool`.
    ///
    /// Macros go first, serially. Then the density buffer is split into
    /// one contiguous band of bin rows per pool worker (at most one band
    /// per row). Each band walks the netlist once, in order, skips the
    /// cells whose bin rows miss it and adds the rest into its own rows
    /// through [`splat_rect`]. The partition follows the thread count,
    /// but no bin's sum depends on it: every bin still adds its terms in
    /// netlist order, so densities are bit-identical at every thread
    /// count. Nothing is allocated per call beyond what spawning the
    /// pool's scoped workers takes (none at one thread).
    pub fn recompute_with_pool(
        &mut self,
        netlist: &Netlist,
        placement: &Placement,
        pool: &ThreadPool,
    ) {
        let Self {
            grid,
            density,
            fixed,
        } = self;
        density.fill(0.0);
        fixed.fill(false);
        let (nx, ny) = (grid.nx(), grid.ny());

        // Macros pin the bins they cover past the threshold at density 1
        // and mark them fixed; lesser covers add area. There are few
        // macros, so this pass stays serial.
        for cell in netlist.macro_ids() {
            let r = placement.cell_rect(netlist, cell);
            splat_rect(grid, &r, 0..ny, |f, cover| {
                if cover >= Self::FIXED_COVER_THRESHOLD {
                    fixed[f] = true;
                    density[f] = 1.0;
                } else {
                    density[f] += cover;
                }
            });
        }

        // Movable cells add their overlap area. Area stacked on a macro
        // bin is counted too, so the overflow metrics see it and
        // legalization must move it off the blockage.
        let band_rows = ny.div_ceil(pool.threads().min(ny));
        let grid = &*grid;
        parallel_for_chunks(pool, density, band_rows * nx, |range, out| {
            let rows = range.start / nx..range.end / nx;
            for c in netlist.movable_cell_ids() {
                let r = placement.cell_rect(netlist, c);
                splat_rect(grid, &r, rows.clone(), |f, t| out[f - range.start] += t);
            }
        });
    }

    /// Incrementally updates the map for one movable cell that moved from
    /// `old_rect` to `new_rect` (both in world coordinates).
    ///
    /// Equivalent to a full [`recompute`](Self::recompute) but `O(bins
    /// touched by the two rectangles)` — the operation incremental
    /// optimizers (and the dynamic density update on large designs) need.
    /// Contributions landing on fixed (macro) bins are tracked the same
    /// way `recompute` tracks them.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpm_geom::{Point, Rect};
    /// use dpm_netlist::{NetlistBuilder, CellKind, CellId};
    /// use dpm_place::{BinGrid, DensityMap, Placement};
    ///
    /// let mut b = NetlistBuilder::new();
    /// let c = b.add_cell("c", 10.0, 10.0, CellKind::Movable);
    /// let nl = b.build()?;
    /// let mut p = Placement::new(1);
    /// let grid = BinGrid::new(Rect::new(0.0, 0.0, 40.0, 40.0), 10.0);
    /// let mut map = DensityMap::from_placement(&nl, &p, grid);
    ///
    /// let old = p.cell_rect(&nl, c);
    /// p.set(c, Point::new(30.0, 30.0));
    /// map.move_cell(&old, &p.cell_rect(&nl, c));
    ///
    /// let fresh = DensityMap::from_placement(&nl, &p, map.grid().clone());
    /// assert_eq!(map.densities(), fresh.densities());
    /// # Ok::<(), dpm_netlist::BuildNetlistError>(())
    /// ```
    pub fn move_cell(&mut self, old_rect: &Rect, new_rect: &Rect) {
        self.add_rect(old_rect, -1.0);
        self.add_rect(new_rect, 1.0);
    }

    fn add_rect(&mut self, r: &Rect, sign: f64) {
        // `sign * (a / A)` has the bits of `(sign * a) / A`: negation is
        // exact and commutes with the division.
        let density = &mut self.density;
        splat_rect(&self.grid, r, 0..self.grid.ny(), |f, t| {
            density[f] += sign * t;
        });
    }

    /// The underlying grid.
    #[inline]
    pub fn grid(&self) -> &BinGrid {
        &self.grid
    }

    /// Density of bin `(j, k)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the index is out of range.
    #[inline]
    pub fn density(&self, idx: BinIdx) -> f64 {
        self.density[self.grid.flat(idx)]
    }

    /// `true` if the bin is covered by a fixed macro.
    #[inline]
    pub fn is_fixed(&self, idx: BinIdx) -> bool {
        self.fixed[self.grid.flat(idx)]
    }

    /// Raw density buffer, row-major.
    #[inline]
    pub fn densities(&self) -> &[f64] {
        &self.density
    }

    /// Raw fixed-bin mask, row-major.
    #[inline]
    pub fn fixed_mask(&self) -> &[bool] {
        &self.fixed
    }

    /// Maximum bin density over non-fixed bins.
    pub fn max_density(&self) -> f64 {
        self.density
            .iter()
            .zip(&self.fixed)
            .filter(|(_, &f)| !f)
            .map(|(&d, _)| d)
            .fold(0.0, f64::max)
    }

    /// Mean density over non-fixed bins (0 if every bin is fixed).
    pub fn average_density(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (d, f) in self.density.iter().zip(&self.fixed) {
            if !f {
                sum += d;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Total overflow `Σ max(d − d_max, 0)` over non-fixed bins.
    pub fn total_overflow(&self, d_max: f64) -> f64 {
        self.density
            .iter()
            .zip(&self.fixed)
            .filter(|(_, &f)| !f)
            .map(|(&d, _)| (d - d_max).max(0.0))
            .sum()
    }

    /// Maximum overflow `max(d − d_max, 0)` over non-fixed bins.
    pub fn max_overflow(&self, d_max: f64) -> f64 {
        (self.max_density() - d_max).max(0.0)
    }

    /// Windowed average density `d'` per bin: the mean density of all
    /// non-fixed bins within Chebyshev distance `w` (paper Algorithm 2,
    /// analysis window `W1`).
    ///
    /// Fixed bins get the value 1.0.
    pub fn windowed_average(&self, w: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.windowed_average_into(w, &mut out);
        out
    }

    /// [`windowed_average`](Self::windowed_average) into a caller-owned
    /// buffer, so a loop that re-analyzes every round (local diffusion's
    /// dynamic density update) allocates once instead of per call. The
    /// buffer is resized to fit.
    pub fn windowed_average_into(&self, w: usize, out: &mut Vec<f64>) {
        let nx = self.grid.nx();
        let ny = self.grid.ny();
        out.clear();
        out.resize(self.density.len(), 0.0);
        for k in 0..ny {
            for j in 0..nx {
                let f = k * nx + j;
                if self.fixed[f] {
                    out[f] = 1.0;
                    continue;
                }
                let j_lo = j.saturating_sub(w);
                let j_hi = (j + w).min(nx - 1);
                let k_lo = k.saturating_sub(w);
                let k_hi = (k + w).min(ny - 1);
                let mut sum = 0.0;
                let mut n = 0usize;
                for kk in k_lo..=k_hi {
                    for jj in j_lo..=j_hi {
                        let g = kk * nx + jj;
                        if !self.fixed[g] {
                            sum += self.density[g];
                            n += 1;
                        }
                    }
                }
                out[f] = if n == 0 { 0.0 } else { sum / n as f64 };
            }
        }
    }

    /// Total and maximum local overflow computed from an already-built
    /// windowed-average buffer (as produced by
    /// [`windowed_average_into`](Self::windowed_average_into)), so callers
    /// needing both metrics run the window scan once.
    ///
    /// # Panics
    ///
    /// Panics if `avg` does not cover the grid.
    pub fn local_overflow_from(&self, avg: &[f64], d_max: f64) -> (f64, f64) {
        assert_eq!(
            avg.len(),
            self.density.len(),
            "windowed-average buffer length mismatch"
        );
        let mut total = 0.0;
        let mut max = 0.0f64;
        for (&d, &f) in avg.iter().zip(&self.fixed) {
            if !f {
                let over = (d - d_max).max(0.0);
                total += over;
                max = max.max(over);
            }
        }
        (total, max)
    }

    /// Total *local* overflow: `Σ max(d' − d_max, 0)` with `d'` the
    /// windowed average — the overflow measure the paper uses for the
    /// DIFF(G)/DIFF(L) comparison (Section VII-B).
    pub fn total_local_overflow(&self, w: usize, d_max: f64) -> f64 {
        self.windowed_average(w)
            .iter()
            .zip(&self.fixed)
            .filter(|(_, &f)| !f)
            .map(|(&d, _)| (d - d_max).max(0.0))
            .sum()
    }

    /// Maximum *local* overflow over bins.
    pub fn max_local_overflow(&self, w: usize, d_max: f64) -> f64 {
        self.windowed_average(w)
            .iter()
            .zip(&self.fixed)
            .filter(|(_, &f)| !f)
            .map(|(&d, _)| (d - d_max).max(0.0))
            .fold(0.0, f64::max)
    }
}

/// The density splat as it stood before the banded pass: a serial macro
/// pass, then a per-call cell list bucketed into fixed 8-row stripes,
/// one stripe per task, plus the per-bin `move_cell` update. Kept
/// verbatim as the oracle the banded pass must match bit for bit.
#[cfg(test)]
mod reference {
    use super::DensityMap;
    use crate::{BinIdx, Placement};
    use dpm_netlist::{CellKind, Netlist};
    use dpm_par::{parallel_for_chunks, ThreadPool};

    /// Bin rows per parallel splat stripe. Fixed (independent of the thread
    /// count): each stripe of the density buffer is written by exactly one
    /// worker, and within a stripe cells contribute in netlist order — the
    /// same per-bin accumulation order as the serial pass, so results are
    /// bit-identical at any thread count.
    const STRIPE_ROWS: usize = 8;

    pub(super) fn recompute_with_pool(
        map: &mut DensityMap,
        netlist: &Netlist,
        placement: &Placement,
        pool: &ThreadPool,
    ) {
        map.density.iter_mut().for_each(|d| *d = 0.0);
        map.fixed.iter_mut().for_each(|f| *f = false);
        let bin_area = map.grid.bin_area();

        // Macros first: they pin bins at density 1 and mark them fixed.
        // There are few macros; this pass stays serial.
        for cell in netlist.macro_ids() {
            let r = placement.cell_rect(netlist, cell);
            let Some((lo, hi)) = map.grid.bins_overlapping(&r) else {
                continue;
            };
            for k in lo.k..=hi.k {
                for j in lo.j..=hi.j {
                    let idx = BinIdx::new(j, k);
                    let cover = map.grid.bin_rect(idx).overlap_area(&r) / bin_area;
                    if cover >= DensityMap::FIXED_COVER_THRESHOLD {
                        let f = map.grid.flat(idx);
                        map.fixed[f] = true;
                        map.density[f] = 1.0;
                    } else {
                        let f = map.grid.flat(idx);
                        map.density[f] += cover;
                    }
                }
            }
        }

        // Movable cells contribute area overlap. Pre-resolve each cell's
        // rect and bin span once, then bucket the cells by the stripes
        // they touch (a small CSR: counts → prefix-sum starts → fill in
        // cell order) so each stripe owner walks only its own cells
        // instead of scanning the whole list. Bucket entries keep cell
        // order, so every bin still accumulates contributions in netlist
        // order — bit-identical to the serial pass — and each stripe's
        // writes stay confined to the chunk it owns, so no merge pass is
        // needed.
        let cells: Vec<(dpm_geom::Rect, BinIdx, BinIdx)> = netlist
            .cell_ids()
            .filter(|&c| netlist.cell(c).kind == CellKind::Movable)
            .filter_map(|c| {
                let r = placement.cell_rect(netlist, c);
                let (lo, hi) = map.grid.bins_overlapping(&r)?;
                Some((r, lo, hi))
            })
            .collect();
        let grid = &map.grid;
        let nx = grid.nx();
        let stripes = grid.ny().div_ceil(STRIPE_ROWS);
        let mut counts = vec![0u32; stripes];
        for (_, lo, hi) in &cells {
            for c in counts
                .iter_mut()
                .take(hi.k / STRIPE_ROWS + 1)
                .skip(lo.k / STRIPE_ROWS)
            {
                *c += 1;
            }
        }
        let mut starts = Vec::with_capacity(stripes + 1);
        let mut acc = 0u32;
        starts.push(0u32);
        for &c in &counts {
            acc += c;
            starts.push(acc);
        }
        let mut fill = starts.clone();
        let mut bucket = vec![0u32; acc as usize];
        for (c, (_, lo, hi)) in cells.iter().enumerate() {
            for s in lo.k / STRIPE_ROWS..=hi.k / STRIPE_ROWS {
                bucket[fill[s] as usize] = c as u32;
                fill[s] += 1;
            }
        }
        parallel_for_chunks(pool, &mut map.density, STRIPE_ROWS * nx, |range, out| {
            let k0 = range.start / nx;
            let k1 = range.end / nx; // exclusive
            let s = k0 / STRIPE_ROWS;
            for &c in &bucket[starts[s] as usize..starts[s + 1] as usize] {
                let (r, lo, hi) = &cells[c as usize];
                for k in lo.k.max(k0)..=hi.k.min(k1 - 1) {
                    for j in lo.j..=hi.j {
                        let idx = BinIdx::new(j, k);
                        // Area stacked on a macro bin is counted too, so
                        // the overflow metrics see it and legalization
                        // must move it off the blockage.
                        out[(k - k0) * nx + j] += grid.bin_rect(idx).overlap_area(r) / bin_area;
                    }
                }
            }
        });
    }

    pub(super) fn move_cell(
        map: &mut DensityMap,
        old_rect: &dpm_geom::Rect,
        new_rect: &dpm_geom::Rect,
    ) {
        add_rect(map, old_rect, -1.0);
        add_rect(map, new_rect, 1.0);
    }

    fn add_rect(map: &mut DensityMap, r: &dpm_geom::Rect, sign: f64) {
        let bin_area = map.grid.bin_area();
        let Some((lo, hi)) = map.grid.bins_overlapping(r) else {
            return;
        };
        for k in lo.k..=hi.k {
            for j in lo.j..=hi.j {
                let idx = BinIdx::new(j, k);
                let f = map.grid.flat(idx);
                map.density[f] += sign * map.grid.bin_rect(idx).overlap_area(r) / bin_area;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_geom::{Point, Rect};
    use dpm_netlist::{CellKind, NetlistBuilder};

    fn one_cell_world(w: f64, h: f64, at: Point) -> (Netlist, Placement, BinGrid) {
        let mut b = NetlistBuilder::new();
        let c = b.add_cell("c", w, h, CellKind::Movable);
        let nl = b.build().expect("valid");
        let mut p = Placement::new(1);
        p.set(c, at);
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 40.0, 40.0), 10.0);
        (nl, p, grid)
    }

    #[test]
    fn cell_spanning_bins_splits_area() {
        // 10x10 cell centered on the corner of four bins.
        let (nl, p, grid) = one_cell_world(10.0, 10.0, Point::new(5.0, 5.0));
        let d = DensityMap::from_placement(&nl, &p, grid);
        assert!((d.density(BinIdx::new(0, 0)) - 0.25).abs() < 1e-12);
        assert!((d.density(BinIdx::new(1, 0)) - 0.25).abs() < 1e-12);
        assert!((d.density(BinIdx::new(0, 1)) - 0.25).abs() < 1e-12);
        assert!((d.density(BinIdx::new(1, 1)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn total_density_equals_total_area() {
        let (nl, p, grid) = one_cell_world(17.0, 9.0, Point::new(3.0, 12.0));
        let bin_area = grid.bin_area();
        let d = DensityMap::from_placement(&nl, &p, grid);
        let total: f64 = d.densities().iter().sum::<f64>() * bin_area;
        assert!((total - 17.0 * 9.0).abs() < 1e-9);
    }

    #[test]
    fn macro_marks_fixed_bins() {
        let mut b = NetlistBuilder::new();
        let m = b.add_cell("m", 20.0, 20.0, CellKind::FixedMacro);
        let nl = b.build().expect("valid");
        let mut p = Placement::new(1);
        p.set(m, Point::new(10.0, 10.0));
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 40.0, 40.0), 10.0);
        let d = DensityMap::from_placement(&nl, &p, grid);
        for k in 1..=2 {
            for j in 1..=2 {
                assert!(
                    d.is_fixed(BinIdx::new(j, k)),
                    "bin ({j},{k}) should be fixed"
                );
                assert_eq!(d.density(BinIdx::new(j, k)), 1.0);
            }
        }
        assert!(!d.is_fixed(BinIdx::new(0, 0)));
        assert_eq!(d.density(BinIdx::new(0, 0)), 0.0);
    }

    #[test]
    fn overflow_metrics() {
        let (nl, p, grid) = one_cell_world(20.0, 10.0, Point::new(0.0, 0.0));
        // Two bins at 1.0 density each... inflate: place a second density by
        // overlapping cell entirely in one bin? Use overflow vs d_max=0.5.
        let d = DensityMap::from_placement(&nl, &p, grid);
        assert!((d.max_density() - 1.0).abs() < 1e-12);
        assert!((d.total_overflow(0.5) - 1.0).abs() < 1e-12); // 2 bins x 0.5 over
        assert!((d.max_overflow(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(d.total_overflow(1.0), 0.0);
    }

    #[test]
    fn windowed_average_smooths() {
        let (nl, p, grid) = one_cell_world(10.0, 10.0, Point::new(0.0, 0.0));
        let d = DensityMap::from_placement(&nl, &p, grid);
        let w1 = d.windowed_average(1);
        // Bin (0,0) has density 1; its 2x2 neighborhood average is 0.25.
        assert!((w1[0] - 0.25).abs() < 1e-12);
        // Window 0 reproduces raw density.
        let w0 = d.windowed_average(0);
        assert_eq!(w0, d.densities());
    }

    #[test]
    fn recompute_tracks_movement() {
        let (nl, mut p, grid) = one_cell_world(10.0, 10.0, Point::new(0.0, 0.0));
        let mut d = DensityMap::from_placement(&nl, &p, grid);
        assert_eq!(d.density(BinIdx::new(0, 0)), 1.0);
        p.set(dpm_netlist::CellId::new(0), Point::new(30.0, 30.0));
        d.recompute(&nl, &p);
        assert_eq!(d.density(BinIdx::new(0, 0)), 0.0);
        assert_eq!(d.density(BinIdx::new(3, 3)), 1.0);
    }

    #[test]
    fn incremental_move_matches_recompute() {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 7.0, 9.0, CellKind::Movable);
        let c = b.add_cell("c", 13.0, 11.0, CellKind::Movable);
        let nl = b.build().expect("valid");
        let mut p = Placement::new(2);
        p.set(a, Point::new(3.0, 4.0));
        p.set(c, Point::new(21.0, 17.0));
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 40.0, 40.0), 10.0);
        let mut map = DensityMap::from_placement(&nl, &p, grid.clone());

        // Move both cells incrementally, including a partially off-grid
        // overlap case.
        for (cell, to) in [(a, Point::new(28.5, 2.5)), (c, Point::new(0.0, 30.0))] {
            let old = p.cell_rect(&nl, cell);
            p.set(cell, to);
            map.move_cell(&old, &p.cell_rect(&nl, cell));
        }
        let fresh = DensityMap::from_placement(&nl, &p, grid);
        for (m, f) in map.densities().iter().zip(fresh.densities()) {
            assert!((m - f).abs() < 1e-12, "incremental {m} vs fresh {f}");
        }
    }

    #[test]
    fn parallel_splat_is_bit_identical_to_serial() {
        // ~3000 cells at ragged fractional positions on a 64x64-bin grid
        // with two macros; every pool size must reproduce the serial
        // density buffer exactly, bit for bit.
        let mut b = NetlistBuilder::new();
        let m1 = b.add_cell("m1", 85.0, 120.0, CellKind::FixedMacro);
        let m2 = b.add_cell("m2", 60.0, 55.0, CellKind::FixedMacro);
        for i in 0..3000 {
            b.add_cell(
                format!("c{i}"),
                3.0 + (i % 7) as f64,
                4.0 + (i % 5) as f64,
                CellKind::Movable,
            );
        }
        let nl = b.build().expect("valid");
        let mut p = Placement::new(nl.num_cells());
        p.set(m1, Point::new(300.0, 200.0));
        p.set(m2, Point::new(100.0, 450.0));
        for (i, c) in nl.movable_cell_ids().enumerate() {
            let h = (i * 2654435761usize) % 1_000_000;
            p.set(
                c,
                Point::new((h % 1000) as f64 * 0.62, (h / 1000) as f64 * 0.62),
            );
        }
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 640.0, 640.0), 10.0);
        let reference = DensityMap::from_placement(&nl, &p, grid.clone());
        for threads in [2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let par = DensityMap::from_placement_with_pool(&nl, &p, grid.clone(), &pool);
            assert_eq!(
                reference.densities(),
                par.densities(),
                "threads = {threads}"
            );
            assert_eq!(
                reference.fixed_mask(),
                par.fixed_mask(),
                "threads = {threads}"
            );
        }
    }

    /// A random design for the splat oracle tests: a grid of `nx`×`ny`
    /// bins at a random origin and bin size, and up to 300 cells, some of
    /// them macros (covering bins on both sides of
    /// [`DensityMap::FIXED_COVER_THRESHOLD`], or exactly at it) or pads.
    /// Movable cells include near-zero-width and -height ones, ones wider
    /// than [`SPLAT_COLS`] bins, ones snapped to bin edges, and ones
    /// partly or wholly outside the region. The netlist is in row-major
    /// spatial order, shuffled when `shuffle` is set.
    fn random_design(
        rng: &mut dpm_rng::Rng,
        nx: usize,
        ny: usize,
        shuffle: bool,
    ) -> (Netlist, Placement, BinGrid) {
        let (bw, bh) = (rng.random_range(0.7..3.3), rng.random_range(0.7..3.3));
        let (x0, y0) = (rng.random_range(-20.0..20.0), rng.random_range(-20.0..20.0));
        let region = Rect::new(x0, y0, x0 + nx as f64 * bw, y0 + ny as f64 * bh);
        let grid = BinGrid::with_counts(region, nx, ny);
        let mut specs = Vec::new();
        for _ in 0..rng.random_range(0..300usize) {
            let roll = rng.random_f64();
            let (kind, w, h) = if roll < 0.08 {
                let (w, h) = (
                    rng.random_range(0.3..2.5) * bw,
                    rng.random_range(0.3..2.5) * bh,
                );
                (CellKind::FixedMacro, w, h)
            } else if roll < 0.1 {
                // Covers exactly half a bin when snapped to its corner.
                (CellKind::FixedMacro, 0.5 * bw, bh)
            } else if roll < 0.14 {
                (CellKind::Pad, 1.0, 1.0)
            } else if roll < 0.18 {
                // As thin as a netlist allows (zero-width rects are
                // splatted directly in the `move_cell` test).
                (CellKind::Movable, 1e-300, rng.random_range(0.5..2.0) * bh)
            } else if roll < 0.2 {
                (CellKind::Movable, rng.random_range(0.5..2.0) * bw, 1e-12)
            } else if roll < 0.3 {
                let cols = rng.random_range(SPLAT_COLS..3 * SPLAT_COLS) as f64;
                (
                    CellKind::Movable,
                    cols * bw,
                    rng.random_range(0.1..1.5) * bh,
                )
            } else {
                let (w, h) = (
                    rng.random_range(0.05..2.5) * bw,
                    rng.random_range(0.05..3.5) * bh,
                );
                (CellKind::Movable, w, h)
            };
            let (mut x, mut y) = (
                rng.random_range(x0 - w - 2.0 * bw..region.urx + 2.0 * bw),
                rng.random_range(y0 - h - 2.0 * bh..region.ury + 2.0 * bh),
            );
            if rng.random_bool(0.3) {
                // Snap to a bin corner: cells that start, end or sit
                // exactly on band and bin edges.
                x = x0 + rng.random_range(0..nx + 1) as f64 * bw;
                y = y0 + rng.random_range(0..ny + 1) as f64 * bh;
            }
            specs.push((kind, w, h, Point::new(x, y)));
        }
        specs.sort_by(|a, b| (a.3.y, a.3.x).partial_cmp(&(b.3.y, b.3.x)).expect("finite"));
        if shuffle {
            rng.shuffle(&mut specs);
        }
        let mut b = NetlistBuilder::new();
        for (i, &(kind, w, h, _)) in specs.iter().enumerate() {
            b.add_cell(format!("c{i}"), w, h, kind);
        }
        let nl = b.build().expect("valid");
        let p: Placement = specs.iter().map(|s| s.3).collect();
        (nl, p, grid)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|d| d.to_bits()).collect()
    }

    #[test]
    fn banded_splat_matches_stripe_oracle_bit_for_bit() {
        let mut rng = dpm_rng::Rng::seed_from_u64(0x5EED_5A17);
        let pools: Vec<ThreadPool> = [1, 2, 3, 4, 8].map(ThreadPool::new).to_vec();
        let mut shapes = vec![(1, 1), (1, 9), (9, 1), (2, 2), (3, 1), (1, 3), (17, 13)];
        for _ in 0..90 {
            shapes.push((rng.random_range(1..24usize), rng.random_range(1..24usize)));
        }
        for (trial, &(nx, ny)) in shapes.iter().enumerate() {
            let (nl, p, grid) = random_design(&mut rng, nx, ny, trial % 2 == 0);
            let mut want = DensityMap::from_placement(&nl, &p, grid.clone());
            reference::recompute_with_pool(&mut want, &nl, &p, &ThreadPool::single());
            for pool in &pools {
                let got = DensityMap::from_placement_with_pool(&nl, &p, grid.clone(), pool);
                let ctx = format!("trial {trial}, {nx}x{ny}, {} threads", pool.threads());
                assert_eq!(bits(got.densities()), bits(want.densities()), "{ctx}");
                assert_eq!(got.fixed_mask(), want.fixed_mask(), "{ctx}");
            }
        }
    }

    #[test]
    fn move_cell_matches_oracle_and_fresh_recompute() {
        let mut rng = dpm_rng::Rng::seed_from_u64(0xC0FFEE);
        for trial in 0..40 {
            let (nx, ny) = (rng.random_range(1..16usize), rng.random_range(1..16usize));
            let (nl, mut p, grid) = random_design(&mut rng, nx, ny, true);
            let mut map = DensityMap::from_placement(&nl, &p, grid.clone());
            let mut want = map.clone();
            let region = grid.region();
            for c in nl.movable_cell_ids().take(40) {
                let old = p.cell_rect(&nl, c);
                p.set(
                    c,
                    Point::new(
                        rng.random_range(region.llx - 5.0..region.urx + 2.0),
                        rng.random_range(region.lly - 5.0..region.ury + 2.0),
                    ),
                );
                let new = p.cell_rect(&nl, c);
                map.move_cell(&old, &new);
                reference::move_cell(&mut want, &old, &new);
                assert_eq!(
                    bits(map.densities()),
                    bits(want.densities()),
                    "trial {trial}"
                );
            }
            // Arbitrary rect pairs, zero-width and zero-height ones included.
            for _ in 0..20 {
                let rect = |rng: &mut dpm_rng::Rng| {
                    let (x, y) = (
                        rng.random_range(region.llx - 5.0..region.urx + 2.0),
                        rng.random_range(region.lly - 5.0..region.ury + 2.0),
                    );
                    let w = if rng.random_bool(0.3) {
                        0.0
                    } else {
                        rng.random_range(0.0..30.0)
                    };
                    let h = if rng.random_bool(0.3) {
                        0.0
                    } else {
                        rng.random_range(0.0..9.0)
                    };
                    Rect::new(x, y, x + w, y + h)
                };
                let (old, new) = (rect(&mut rng), rect(&mut rng));
                let (mut got, mut want) = (map.clone(), map.clone());
                got.move_cell(&old, &new);
                reference::move_cell(&mut want, &old, &new);
                assert_eq!(
                    bits(got.densities()),
                    bits(want.densities()),
                    "trial {trial}"
                );
            }
            let fresh = DensityMap::from_placement(&nl, &p, grid);
            for (m, f) in map.densities().iter().zip(fresh.densities()) {
                assert!(
                    (m - f).abs() < 1e-9 * (1.0 + f.abs()),
                    "trial {trial}: incremental {m} vs fresh {f}"
                );
            }
        }
    }

    #[test]
    fn bins_overlapping_is_the_corner_bins() {
        let mut rng = dpm_rng::Rng::seed_from_u64(7);
        let grid = BinGrid::with_counts(Rect::new(-3.0, 2.0, 17.0, 9.0), 7, 5);
        for _ in 0..2000 {
            let (x, y) = (rng.random_range(-8.0..22.0), rng.random_range(-3.0..14.0));
            let r = Rect::new(
                x,
                y,
                x + rng.random_range(0.0..9.0),
                y + rng.random_range(0.0..6.0),
            );
            let corners = grid.region().intersects(&r).then(|| {
                (
                    grid.bin_of_point(Point::new(r.llx, r.lly)),
                    grid.bin_of_point(Point::new(
                        (r.urx - 1e-12).max(r.llx),
                        (r.ury - 1e-12).max(r.lly),
                    )),
                )
            });
            assert_eq!(grid.bins_overlapping(&r), corners, "{r:?}");
        }
    }

    #[test]
    fn windowed_average_into_reuses_buffer() {
        let (nl, p, grid) = one_cell_world(10.0, 10.0, Point::new(0.0, 0.0));
        let d = DensityMap::from_placement(&nl, &p, grid);
        let mut buf = vec![99.0; 3]; // wrong size on purpose
        d.windowed_average_into(1, &mut buf);
        assert_eq!(buf, d.windowed_average(1));
        let (total, max) = d.local_overflow_from(&buf, 0.2);
        assert!((total - d.total_local_overflow(1, 0.2)).abs() < 1e-12);
        assert!((max - d.max_local_overflow(1, 0.2)).abs() < 1e-12);
    }

    #[test]
    fn average_density_ignores_fixed() {
        let mut b = NetlistBuilder::new();
        let m = b.add_cell("m", 20.0, 40.0, CellKind::FixedMacro);
        let c = b.add_cell("c", 10.0, 10.0, CellKind::Movable);
        let nl = b.build().expect("valid");
        let mut p = Placement::new(2);
        p.set(m, Point::new(20.0, 0.0)); // right half fixed
        p.set(c, Point::new(0.0, 0.0));
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 40.0, 40.0), 10.0);
        let d = DensityMap::from_placement(&nl, &p, grid);
        // 8 non-fixed bins, one at density 1.0.
        assert!((d.average_density() - 1.0 / 8.0).abs() < 1e-12);
    }
}
