//! Die partitioning for horizontal sharding of the migration service.
//!
//! The paper's local diffusion (Algorithm 2/3) confines work to windows
//! around overfull bins, which makes a *region of the die* the natural
//! unit of horizontal scale: density fields decompose cleanly over
//! rectangular regions as long as boundary conditions are exchanged.
//! This module supplies the geometry half of that story:
//!
//! - [`ShardPartition`] splits a die's bin grid into K rectangular shard
//!   regions aligned to bin boundaries, each carrying an H-bin **halo**
//!   — a ring of neighbor bins whose cells are copied in as read-only
//!   ghosts so every shard sees the density context just beyond its own
//!   edge;
//! - [`ShardPartition::extract_problem`] cuts one shard out as a
//!   self-contained sub-problem (sub-netlist, sub-die, sub-placement)
//!   that any diffusion runner — or a remote `dpm-serve` server — can
//!   process without knowing it is a shard;
//! - [`stitch_positions`] merges a shard's result back into the global
//!   placement, writing **owned cells only**: every cell is owned by
//!   exactly one shard (the one whose core region contains its center),
//!   and whatever a shard did to its ghost copies is discarded — the
//!   neighbor that owns them has the authoritative answer.
//!
//! The routing loop that alternates shard-local diffusion passes with
//! halo refreshes lives in `dpm-serve`'s `ShardRouter`; this module is
//! deliberately transport-free.

use dpm_geom::{floor_index, Point, Rect};
use dpm_netlist::{CellId, CellKind, Netlist, NetlistBuilder};
use dpm_place::{BinGrid, BinIdx, Die, Placement};

/// A half-open rectangular block of bins: columns `[j0, j1)`, rows
/// `[k0, k1)` of a [`BinGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinRect {
    /// First column (inclusive).
    pub j0: usize,
    /// First row (inclusive).
    pub k0: usize,
    /// Past-the-end column.
    pub j1: usize,
    /// Past-the-end row.
    pub k1: usize,
}

impl BinRect {
    /// Width in bins.
    #[inline]
    pub fn width(&self) -> usize {
        self.j1.saturating_sub(self.j0)
    }

    /// Height in bins.
    #[inline]
    pub fn height(&self) -> usize {
        self.k1.saturating_sub(self.k0)
    }

    /// Number of bins covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.width() * self.height()
    }

    /// `true` if the block covers no bins.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the block contains bin `b`.
    #[inline]
    pub fn contains(&self, b: BinIdx) -> bool {
        b.j >= self.j0 && b.j < self.j1 && b.k >= self.k0 && b.k < self.k1
    }

    /// The block grown by `h` bins on every side, clamped to an
    /// `nx × ny` grid. A block already touching a grid edge simply stops
    /// there — a shard narrower than the halo width ends up with a halo
    /// covering the whole axis, which is valid (just not useful).
    pub fn expanded(&self, h: usize, nx: usize, ny: usize) -> BinRect {
        BinRect {
            j0: self.j0.saturating_sub(h),
            k0: self.k0.saturating_sub(h),
            j1: (self.j1 + h).min(nx),
            k1: (self.k1 + h).min(ny),
        }
    }

    /// World rectangle covered by the block. Edges that coincide with
    /// the grid boundary reuse the grid region's own coordinates
    /// bit-for-bit, so a block covering the whole grid reproduces
    /// `grid.region()` exactly.
    pub fn world_rect(&self, grid: &BinGrid) -> Rect {
        let region = grid.region();
        let llx = if self.j0 == 0 {
            region.llx
        } else {
            region.llx + self.j0 as f64 * grid.bin_width()
        };
        let lly = if self.k0 == 0 {
            region.lly
        } else {
            region.lly + self.k0 as f64 * grid.bin_height()
        };
        let urx = if self.j1 == grid.nx() {
            region.urx
        } else {
            region.llx + self.j1 as f64 * grid.bin_width()
        };
        let ury = if self.k1 == grid.ny() {
            region.ury
        } else {
            region.lly + self.k1 as f64 * grid.bin_height()
        };
        Rect::new(llx, lly, urx, ury)
    }
}

/// One shard of a [`ShardPartition`]: the exclusively-owned `core`
/// block plus the halo-expanded block the shard actually sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRegion {
    /// Shard index within the partition.
    pub index: usize,
    /// Bins this shard owns exclusively. Cores tile the grid: every bin
    /// belongs to exactly one core.
    pub core: BinRect,
    /// `core` grown by the halo width and clamped to the grid; always
    /// contains `core`. Cells in `halo \ core` enter the shard's
    /// sub-problem as read-only ghosts.
    pub halo: BinRect,
}

/// A partition of a die's bin grid into K rectangular shard regions
/// with H-bin halos.
///
/// The requested shard count is factored into a `kx × ky` grid of
/// near-square regions; each axis is split into contiguous chunks whose
/// sizes differ by at most one bin, so dies that do not divide evenly
/// still partition cleanly. If the grid has fewer bins than requested
/// shards on an axis the count is clamped — [`len`](Self::len) reports
/// the number of shards actually created.
///
/// # Examples
///
/// ```
/// use dpm_place::Die;
/// use dpm_diffusion::ShardPartition;
///
/// let die = Die::new(192.0, 96.0, 12.0);
/// let part = ShardPartition::new(&die, 24.0, 4, 2);
/// assert_eq!(part.len(), 4);
/// // Cores tile the grid: every bin is owned by exactly one shard.
/// let owners: Vec<usize> = part
///     .grid()
///     .iter()
///     .map(|b| part.owner_of_bin(b))
///     .collect();
/// assert!(owners.iter().all(|&o| o < 4));
/// ```
#[derive(Debug, Clone)]
pub struct ShardPartition {
    grid: BinGrid,
    halo_bins: usize,
    kx: usize,
    ky: usize,
    shards: Vec<ShardRegion>,
}

/// Splits `n` items into `k` contiguous chunks with sizes differing by
/// at most one; chunk `c` spans `[c*n/k, (c+1)*n/k)`.
#[inline]
fn chunk_bounds(n: usize, k: usize, c: usize) -> (usize, usize) {
    (c * n / k, (c + 1) * n / k)
}

/// Which chunk of `k` over `n` items contains item `i`.
#[inline]
fn chunk_of(n: usize, k: usize, i: usize) -> usize {
    // (i*k)/n inverts the floor-division bounds up to boundary rounding;
    // fix up with a bounded scan.
    let mut c = (i * k / n).min(k - 1);
    loop {
        let (lo, hi) = chunk_bounds(n, k, c);
        if i < lo {
            c -= 1;
        } else if i >= hi {
            c += 1;
        } else {
            return c;
        }
    }
}

impl ShardPartition {
    /// Partitions `die` (binned at `bin_size`, exactly like the
    /// diffusion runners) into `shards` regions with `halo_bins`-wide
    /// halos.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `bin_size` is not positive.
    pub fn new(die: &Die, bin_size: f64, shards: usize, halo_bins: usize) -> Self {
        assert!(shards >= 1, "shard count must be positive");
        let grid = BinGrid::new(die.outline(), bin_size);
        let (nx, ny) = (grid.nx(), grid.ny());

        // Factor the shard count into the divisor pair that keeps the
        // most shards after clamping to the grid, breaking ties toward
        // near-square regions.
        let mut best = (1usize, 1usize);
        let mut best_count = 0usize;
        let mut best_aspect = f64::INFINITY;
        for a in 1..=shards {
            if !shards.is_multiple_of(a) {
                continue;
            }
            let b = shards / a;
            let (ax, by) = (a.min(nx), b.min(ny));
            let count = ax * by;
            let aspect = (nx as f64 / ax as f64 - ny as f64 / by as f64).abs();
            if count > best_count || (count == best_count && aspect < best_aspect) {
                best = (ax, by);
                best_count = count;
                best_aspect = aspect;
            }
        }
        let (kx, ky) = best;

        let mut regions = Vec::with_capacity(kx * ky);
        for cy in 0..ky {
            let (k0, k1) = chunk_bounds(ny, ky, cy);
            for cx in 0..kx {
                let (j0, j1) = chunk_bounds(nx, kx, cx);
                let core = BinRect { j0, k0, j1, k1 };
                regions.push(ShardRegion {
                    index: regions.len(),
                    core,
                    halo: core.expanded(halo_bins, nx, ny),
                });
            }
        }
        Self {
            grid,
            halo_bins,
            kx,
            ky,
            shards: regions,
        }
    }

    /// The bin grid the partition is aligned to — identical to the grid
    /// the diffusion runners build for the same die and bin size.
    #[inline]
    pub fn grid(&self) -> &BinGrid {
        &self.grid
    }

    /// Halo width in bins.
    #[inline]
    pub fn halo_bins(&self) -> usize {
        self.halo_bins
    }

    /// Number of shards actually created (may be less than requested on
    /// tiny grids).
    #[inline]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `true` if the partition has no shards (never happens — there is
    /// always at least one).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard regions, indexed by shard id.
    #[inline]
    pub fn shards(&self) -> &[ShardRegion] {
        &self.shards
    }

    /// The shard whose core owns bin `b`.
    #[inline]
    pub fn owner_of_bin(&self, b: BinIdx) -> usize {
        let cx = chunk_of(self.grid.nx(), self.kx, b.j);
        let cy = chunk_of(self.grid.ny(), self.ky, b.k);
        cy * self.kx + cx
    }

    /// The shard that owns a world point (by its containing bin; points
    /// outside the grid clamp to the nearest bin, like
    /// [`BinGrid::bin_of_point`]).
    #[inline]
    pub fn owner_of_point(&self, p: Point) -> usize {
        self.owner_of_bin(self.grid.bin_of_point(p))
    }

    /// Assigns every cell to the shard whose core contains its center —
    /// the ownership rule: exactly one shard per cell. Returns one owner
    /// index per cell, in cell-id order.
    pub fn assign_owners(&self, netlist: &Netlist, placement: &Placement) -> Vec<usize> {
        netlist
            .cell_ids()
            .map(|c| self.owner_of_point(placement.cell_center(netlist, c)))
            .collect()
    }

    /// Cuts shard `shard` out as a self-contained sub-problem, or `None`
    /// if the shard owns no cells (nothing to migrate there).
    ///
    /// The sub-problem contains, in this order:
    ///
    /// 1. every cell **owned** by the shard (center in the core), in
    ///    global cell-id order;
    /// 2. every **ghost**: movable cells and pads whose center lies in
    ///    the halo ring, plus fixed macros overlapping the halo region
    ///    at all (so density walls near the boundary stay correct).
    ///
    /// Positions stay in world coordinates — the sub-die is a window of
    /// the parent die, so no translation is ever applied and a
    /// round-trip through a shard is exact. Nets are not copied:
    /// diffusion is density-driven and never reads connectivity.
    ///
    /// The sub-die spans the halo region, snapped outward to whole
    /// parent rows (a [`Die`] must hold whole rows); a shard whose halo
    /// covers the entire grid reuses the parent die unchanged, which
    /// makes the single-shard case bit-identical to running the engine
    /// directly.
    pub fn extract_problem(
        &self,
        shard: usize,
        netlist: &Netlist,
        die: &Die,
        placement: &Placement,
        owners: &[usize],
    ) -> Option<ShardProblem> {
        let region = self.shards[shard];
        let halo_rect = region.halo.world_rect(&self.grid);

        let mut members: Vec<CellId> = Vec::new();
        let mut owned = 0usize;
        for (i, c) in netlist.cell_ids().enumerate() {
            if owners[i] == shard {
                members.push(c);
                owned += 1;
            }
        }
        if owned == 0 {
            return None;
        }
        for (i, c) in netlist.cell_ids().enumerate() {
            if owners[i] == shard {
                continue;
            }
            let cell = netlist.cell(c);
            let is_ghost = match cell.kind {
                CellKind::FixedMacro => placement.cell_rect(netlist, c).intersects(&halo_rect),
                CellKind::Movable | CellKind::Pad => region
                    .halo
                    .contains(self.grid.bin_of_point(placement.cell_center(netlist, c))),
            };
            if is_ghost {
                members.push(c);
            }
        }

        let full_grid = BinRect {
            j0: 0,
            k0: 0,
            j1: self.grid.nx(),
            k1: self.grid.ny(),
        };
        let sub_die = if region.halo == full_grid {
            die.clone()
        } else {
            let outline = die.outline();
            let rh = die.row_height();
            let r0 = (((halo_rect.lly - outline.lly) / rh + 1e-9).floor() as usize)
                .min(die.num_rows() - 1);
            let r1 = ((((halo_rect.ury - outline.lly) / rh - 1e-9).ceil() as usize).max(r0 + 1))
                .min(die.num_rows());
            let lly = outline.lly + r0 as f64 * rh;
            // Half a row of slack keeps with_origin's whole-row floor
            // from losing a row to float noise.
            let height = (r1 - r0) as f64 * rh + rh * 0.5;
            Die::with_origin(halo_rect.llx, lly, halo_rect.width(), height, rh)
        };

        let mut b = NetlistBuilder::with_capacity(members.len(), 0, 0);
        let mut sub_placement = Placement::new(members.len());
        for (local, &c) in members.iter().enumerate() {
            let cell = netlist.cell(c);
            let id = b.add_cell_with_delay(
                cell.name.clone(),
                cell.width,
                cell.height,
                cell.kind,
                cell.delay,
            );
            debug_assert_eq!(id.index(), local);
            sub_placement.set(id, placement.get(c));
        }
        let sub_netlist = b.build().expect("cells without nets always build");

        Some(ShardProblem {
            shard,
            netlist: sub_netlist,
            die: sub_die,
            placement: sub_placement,
            cell_map: members,
            owned,
        })
    }
}

/// One shard's self-contained migration sub-problem, produced by
/// [`ShardPartition::extract_problem`].
#[derive(Debug, Clone)]
pub struct ShardProblem {
    /// Index of the shard this problem was cut from.
    pub shard: usize,
    /// Sub-netlist: owned cells first (global cell-id order), then
    /// ghosts. Carries no nets — diffusion never reads connectivity.
    pub netlist: Netlist,
    /// The shard's window of the parent die (halo region snapped to
    /// whole rows), in parent world coordinates.
    pub die: Die,
    /// Positions of the sub-netlist's cells, world coordinates.
    pub placement: Placement,
    /// Local cell index → global [`CellId`]; the first
    /// [`owned`](Self::owned) entries are the owned cells.
    pub cell_map: Vec<CellId>,
    /// Number of owned cells at the head of
    /// [`cell_map`](Self::cell_map); the rest are read-only ghosts.
    pub owned: usize,
}

/// Merges a shard's result back into the global placement: writes the
/// post-migration position of every **owned** cell and discards ghost
/// movement (the owning neighbor shard has the authoritative position).
/// Returns the number of positions written.
///
/// `positions` must hold one point per sub-problem cell, in the
/// sub-netlist's cell order — exactly what a diffusion run (or a
/// `dpm-serve` `JobResponse`) produces for the sub-problem.
///
/// # Panics
///
/// Panics if `positions` does not match the sub-problem's cell count.
pub fn stitch_positions(problem: &ShardProblem, positions: &[Point], out: &mut Placement) -> usize {
    assert_eq!(
        positions.len(),
        problem.cell_map.len(),
        "shard result has a different cell count than its sub-problem"
    );
    for (local, &global) in problem.cell_map.iter().take(problem.owned).enumerate() {
        out.set(global, positions[local]);
    }
    problem.owned
}

/// One z-slab of a [`ZSlabPartition`]: a contiguous run of tiers owned
/// exclusively by one backend, plus the halo-expanded run of tiers the
/// backend actually sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZSlab {
    /// Slab index within the partition.
    pub index: usize,
    /// First owned tier (inclusive). Cores tile `[0, nz)`: every tier
    /// belongs to exactly one slab.
    pub z0: usize,
    /// Past-the-end owned tier.
    pub z1: usize,
    /// First visible tier: `z0` minus the halo width, clamped to 0.
    pub h0: usize,
    /// Past-the-end visible tier: `z1` plus the halo width, clamped to
    /// the tier count.
    pub h1: usize,
}

impl ZSlab {
    /// Number of owned tiers (always at least 1).
    #[inline]
    pub fn core_layers(&self) -> usize {
        self.z1 - self.z0
    }

    /// Number of visible tiers (core plus clamped halo).
    #[inline]
    pub fn visible_layers(&self) -> usize {
        self.h1 - self.h0
    }

    /// Whether tier `z` is owned by this slab.
    #[inline]
    pub fn owns(&self, z: usize) -> bool {
        z >= self.z0 && z < self.z1
    }

    /// Whether tier `z` is visible to this slab (owned or halo).
    #[inline]
    pub fn sees(&self, z: usize) -> bool {
        z >= self.h0 && z < self.h1
    }
}

/// Splits a volumetric grid's tier stack into `K` contiguous z-slabs,
/// each carrying an `H`-tier halo above and below — the z-axis analogue
/// of [`ShardPartition`] for 3D-IC migration, where each backend owns a
/// stack of whole tiers and sees `H` extra tiers of read-only density
/// context on each side.
///
/// Tiers are distributed by the same balanced rule as the planar
/// partition (`chunk_bounds`), so slab sizes differ by at most one tier
/// when `K` does not divide `nz`. A halo thicker than a neighbor slab
/// simply clamps at the stack boundary — the slab then sees the whole
/// stack, which is valid (just not useful for scaling).
///
/// # Examples
///
/// ```
/// use dpm_diffusion::ZSlabPartition;
///
/// let part = ZSlabPartition::new(5, 2, 1);
/// assert_eq!(part.len(), 2);
/// let lower = part.slabs()[0];
/// assert_eq!((lower.z0, lower.z1), (0, 2));
/// assert_eq!((lower.h0, lower.h1), (0, 3));
/// assert_eq!(part.owner_of_layer(2), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ZSlabPartition {
    nz: usize,
    halo_layers: usize,
    slabs: Vec<ZSlab>,
}

impl ZSlabPartition {
    /// Partitions an `nz`-tier stack into `shards` z-slabs with an
    /// `halo_layers`-tier halo. The slab count is clamped to `[1, nz]`
    /// so every slab owns at least one whole tier.
    ///
    /// # Panics
    ///
    /// Panics if `nz` is zero.
    pub fn new(nz: usize, shards: usize, halo_layers: usize) -> Self {
        assert!(nz > 0, "a volumetric stack needs at least one tier");
        let k = shards.clamp(1, nz);
        let slabs = (0..k)
            .map(|c| {
                let (z0, z1) = chunk_bounds(nz, k, c);
                ZSlab {
                    index: c,
                    z0,
                    z1,
                    h0: z0.saturating_sub(halo_layers),
                    h1: (z1 + halo_layers).min(nz),
                }
            })
            .collect();
        Self {
            nz,
            halo_layers,
            slabs,
        }
    }

    /// Number of tiers in the partitioned stack.
    #[inline]
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Halo width in tiers.
    #[inline]
    pub fn halo_layers(&self) -> usize {
        self.halo_layers
    }

    /// Number of slabs actually created (may be less than requested on
    /// short stacks).
    #[inline]
    pub fn len(&self) -> usize {
        self.slabs.len()
    }

    /// `true` if the partition has no slabs (never happens — there is
    /// always at least one).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slabs.is_empty()
    }

    /// The slabs, indexed by slab id, ordered bottom tier first.
    #[inline]
    pub fn slabs(&self) -> &[ZSlab] {
        &self.slabs
    }

    /// The slab whose core owns tier `z`.
    #[inline]
    pub fn owner_of_layer(&self, z: usize) -> usize {
        chunk_of(self.nz, self.slabs.len(), z)
    }

    /// The slab that owns a cell at depth `z` (tier units, tier `t`
    /// spanning `[t, t+1)`). Depths outside the stack clamp to the
    /// nearest tier, like [`BinGrid::bin_of_point`] does in-plane.
    #[inline]
    pub fn owner_of_depth(&self, z: f64) -> usize {
        self.owner_of_layer(floor_index(z, self.nz))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identify_windows_into;
    use dpm_place::DensityMap;

    /// `n` movable cells staggered around `at`.
    fn pile(b: &mut NetlistBuilder, p: &mut Vec<(usize, Point)>, n: usize, at: Point) {
        for i in 0..n {
            let id = b.add_cell(format!("c{}", p.len()), 6.0, 12.0, CellKind::Movable);
            p.push((
                id.index(),
                Point::new(at.x + (i % 8) as f64 * 3.0, at.y + (i / 8) as f64 * 3.0),
            ));
        }
    }

    fn design(piles: &[Point], per_pile: usize, die: Die) -> (Netlist, Die, Placement) {
        let mut b = NetlistBuilder::new();
        let mut pts = Vec::new();
        for &at in piles {
            pile(&mut b, &mut pts, per_pile, at);
        }
        let nl = b.build().expect("valid");
        let mut placement = Placement::new(nl.num_cells());
        for (c, (i, pt)) in nl.cell_ids().zip(pts) {
            assert_eq!(c.index(), i);
            placement.set(c, pt);
        }
        (nl, die, placement)
    }

    #[test]
    fn single_shard_is_a_pass_through() {
        let (nl, die, placement) =
            design(&[Point::new(30.0, 30.0)], 40, Die::new(144.0, 144.0, 12.0));
        let part = ShardPartition::new(&die, 24.0, 1, 2);
        assert_eq!(part.len(), 1);
        let region = part.shards()[0];
        assert_eq!(region.core.len(), part.grid().len());
        assert_eq!(region.halo, region.core);

        let owners = part.assign_owners(&nl, &placement);
        assert!(owners.iter().all(|&o| o == 0));
        let problem = part
            .extract_problem(0, &nl, &die, &placement, &owners)
            .expect("all cells owned");
        // Bit-identical pass-through: same die, every cell in order,
        // every position preserved.
        assert_eq!(problem.die.outline(), die.outline());
        assert_eq!(problem.die.num_rows(), die.num_rows());
        assert_eq!(problem.owned, nl.num_cells());
        assert_eq!(problem.cell_map.len(), nl.num_cells());
        for (local, &global) in problem.cell_map.iter().enumerate() {
            assert_eq!(local, global.index());
            let sub = problem.netlist.cell(CellId::new(local as u32));
            let orig = nl.cell(global);
            assert_eq!(sub.name, orig.name);
            assert_eq!(
                (sub.width, sub.height, sub.kind),
                (orig.width, orig.height, orig.kind)
            );
        }
        assert_eq!(problem.placement.as_slice(), placement.as_slice());
    }

    #[test]
    fn uneven_grid_tiles_exactly_once() {
        // 7 × 5 bins split 3 ways: the die does not divide evenly by K.
        let die = Die::new(168.0, 120.0, 12.0);
        let part = ShardPartition::new(&die, 24.0, 3, 1);
        assert_eq!((part.grid().nx(), part.grid().ny()), (7, 5));
        assert_eq!(part.len(), 3);
        // Every bin owned by exactly one core, and owner_of_bin agrees
        // with direct core containment.
        let mut per_shard = vec![0usize; part.len()];
        for b in part.grid().iter() {
            let owners: Vec<usize> = part
                .shards()
                .iter()
                .filter(|s| s.core.contains(b))
                .map(|s| s.index)
                .collect();
            assert_eq!(owners.len(), 1, "bin {b:?} owned by {owners:?}");
            assert_eq!(part.owner_of_bin(b), owners[0]);
            per_shard[owners[0]] += 1;
        }
        // Chunks differ by at most one column.
        let widths: Vec<usize> = part.shards().iter().map(|s| s.core.width()).collect();
        let (min, max) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
        assert!(max - min <= 1, "uneven split too lopsided: {widths:?}");
        assert_eq!(per_shard.iter().sum::<usize>(), part.grid().len());
    }

    #[test]
    fn halo_wider_than_shard_clamps_to_grid() {
        // 4 × 1-wide shards with a 3-bin halo: the halo swallows the
        // whole axis and must clamp instead of underflowing.
        let die = Die::new(96.0, 48.0, 12.0);
        let part = ShardPartition::new(&die, 24.0, 4, 3);
        assert_eq!((part.grid().nx(), part.grid().ny()), (4, 2));
        assert_eq!(part.len(), 4);
        for s in part.shards() {
            assert!(s.core.width() <= part.halo_bins());
            assert!(s.halo.j0 == 0 || s.halo.j0 >= s.core.j0.saturating_sub(3));
            assert!(s.halo.j1 <= part.grid().nx());
            assert!(s.halo.k1 <= part.grid().ny());
            for b in part.grid().iter() {
                if s.core.contains(b) {
                    assert!(s.halo.contains(b), "halo must contain its own core");
                }
            }
        }
        // Sub-problems still extract: every cell lands somewhere and the
        // ghosts of each shard include the neighbors' piles.
        let (nl, die, placement) =
            design(&[Point::new(10.0, 10.0), Point::new(60.0, 10.0)], 24, die);
        let owners = part.assign_owners(&nl, &placement);
        let mut owned_total = 0;
        for s in 0..part.len() {
            if let Some(p) = part.extract_problem(s, &nl, &die, &placement, &owners) {
                owned_total += p.owned;
                // Halo spans the whole grid here, so every other cell is
                // a ghost.
                assert_eq!(p.cell_map.len(), nl.num_cells());
            }
        }
        assert_eq!(owned_total, nl.num_cells());
    }

    #[test]
    fn window_straddling_a_shard_boundary_is_visible_to_both_shards() {
        // 8 × 4 bins split into two 4-column shards; a pile straddling
        // the x = 96 boundary (columns 3 and 4).
        let die = Die::new(192.0, 96.0, 12.0);
        let (nl, die, placement) = design(&[Point::new(84.0, 40.0)], 64, die);
        let part = ShardPartition::new(&die, 24.0, 2, 3);
        assert_eq!((part.grid().nx(), part.grid().ny()), (8, 4));
        assert_eq!(part.len(), 2);

        let map = DensityMap::from_placement(&nl, &placement, part.grid().clone());
        let mut avg = Vec::new();
        map.windowed_average_into(1, &mut avg);
        let mut frozen = Vec::new();
        identify_windows_into(&map, &avg, 1, 1.0, &mut frozen);

        let unfrozen: Vec<BinIdx> = part
            .grid()
            .iter()
            .filter(|&b| !frozen[part.grid().flat(b)])
            .collect();
        assert!(!unfrozen.is_empty(), "the pile must open a window");
        // The window straddles the boundary...
        assert!(unfrozen.iter().any(|b| part.shards()[0].core.contains(*b)));
        assert!(unfrozen.iter().any(|b| part.shards()[1].core.contains(*b)));
        // ...and with a halo at least as wide as the window reach, every
        // window bin is inside BOTH shards' halo regions, so each
        // sub-problem sees the full straddling window.
        for b in &unfrozen {
            assert!(
                part.shards()[0].halo.contains(*b),
                "{b:?} outside shard 0 halo"
            );
            assert!(
                part.shards()[1].halo.contains(*b),
                "{b:?} outside shard 1 halo"
            );
        }
        // Both sub-problems therefore carry ghost copies of the other
        // side's pile cells.
        let owners = part.assign_owners(&nl, &placement);
        for s in 0..2 {
            let p = part
                .extract_problem(s, &nl, &die, &placement, &owners)
                .expect("both shards own pile cells");
            assert!(p.owned > 0);
            assert!(
                p.cell_map.len() > p.owned,
                "shard {s} must see ghosts across the boundary"
            );
        }
    }

    #[test]
    fn ownership_is_exclusive_and_stitch_round_trips() {
        let die = Die::new(192.0, 96.0, 12.0);
        let (nl, die, placement) =
            design(&[Point::new(30.0, 30.0), Point::new(150.0, 50.0)], 32, die);
        let part = ShardPartition::new(&die, 24.0, 4, 2);
        let owners = part.assign_owners(&nl, &placement);
        assert_eq!(owners.len(), nl.num_cells());
        assert!(owners.iter().all(|&o| o < part.len()));

        // Extract every shard and stitch the *unchanged* sub-positions
        // back: the global placement must be reproduced exactly, each
        // cell written by exactly its owner.
        let mut out = Placement::new(nl.num_cells());
        let mut written = 0usize;
        for s in 0..part.len() {
            if let Some(problem) = part.extract_problem(s, &nl, &die, &placement, &owners) {
                let positions: Vec<Point> = problem.placement.as_slice().to_vec();
                written += stitch_positions(&problem, &positions, &mut out);
                // The sub-die must contain every owned cell's center.
                for &c in problem.cell_map.iter().take(problem.owned) {
                    let center = placement.cell_center(&nl, c);
                    assert!(
                        problem.die.outline().contains(center),
                        "owned cell {c} center outside shard {s} die"
                    );
                }
            }
        }
        assert_eq!(written, nl.num_cells());
        assert_eq!(out.as_slice(), placement.as_slice());
    }

    #[test]
    fn macros_near_the_boundary_become_ghost_walls() {
        let mut b = NetlistBuilder::new();
        // A macro sitting right on the two-shard boundary of a 192-wide
        // die, plus a movable pile in shard 0.
        let m = b.add_cell("blk", 36.0, 24.0, CellKind::FixedMacro);
        for i in 0..16 {
            b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::Movable);
        }
        let nl = b.build().expect("valid");
        let die = Die::new(192.0, 96.0, 12.0);
        let mut placement = Placement::new(nl.num_cells());
        placement.set(m, Point::new(100.0, 36.0)); // center x = 118 → shard 1
        for (i, c) in nl.cell_ids().skip(1).enumerate() {
            placement.set(
                c,
                Point::new(30.0 + (i % 4) as f64 * 4.0, 30.0 + (i / 4) as f64 * 4.0),
            );
        }
        let part = ShardPartition::new(&die, 24.0, 2, 1);
        let owners = part.assign_owners(&nl, &placement);
        assert_eq!(owners[0], 1, "macro center is in shard 1");
        let p0 = part
            .extract_problem(0, &nl, &die, &placement, &owners)
            .expect("shard 0 owns the pile");
        // The macro overlaps shard 0's halo region, so it must ride
        // along as a ghost wall even though its center is elsewhere.
        assert!(
            p0.cell_map.contains(&m),
            "boundary macro missing from shard 0 ghosts"
        );
        assert!(p0.cell_map.iter().position(|&c| c == m).unwrap() >= p0.owned);
    }

    #[test]
    fn more_shards_than_bins_clamps() {
        let die = Die::new(48.0, 24.0, 12.0); // 2 × 1 bins
        let part = ShardPartition::new(&die, 24.0, 16, 1);
        assert!(part.len() <= part.grid().len());
        assert!(!part.is_empty());
        let covered: usize = part.shards().iter().map(|s| s.core.len()).sum();
        assert_eq!(covered, part.grid().len());
    }

    #[test]
    fn z_slab_cores_tile_the_stack_when_k_divides() {
        let part = ZSlabPartition::new(6, 3, 1);
        assert_eq!(part.len(), 3);
        let sizes: Vec<usize> = part.slabs().iter().map(|s| s.core_layers()).collect();
        assert_eq!(sizes, vec![2, 2, 2]);
        for z in 0..6 {
            let owner = part.owner_of_layer(z);
            assert!(part.slabs()[owner].owns(z));
            for (i, s) in part.slabs().iter().enumerate() {
                assert_eq!(s.owns(z), i == owner, "tier {z} owned by exactly one slab");
            }
        }
    }

    #[test]
    fn z_slab_handles_k_not_dividing_layer_count() {
        let part = ZSlabPartition::new(7, 3, 1);
        let sizes: Vec<usize> = part.slabs().iter().map(|s| s.core_layers()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 7, "cores must tile the stack");
        assert!(sizes.iter().all(|&s| s == 2 || s == 3), "balanced split");
        // Slabs are contiguous bottom-to-top.
        for w in part.slabs().windows(2) {
            assert_eq!(w[0].z1, w[1].z0);
        }
    }

    #[test]
    fn z_slab_halo_thicker_than_a_slab_clamps_to_the_stack() {
        // 4 tiers, 4 slabs of 1 tier each, halo of 3 tiers: every slab
        // sees the whole stack, and nothing under/overflows.
        let part = ZSlabPartition::new(4, 4, 3);
        for s in part.slabs() {
            assert_eq!((s.h0, s.h1), (0, 4), "halo clamps to the stack");
            assert_eq!(s.core_layers(), 1);
            assert_eq!(s.visible_layers(), 4);
        }
        // Ownership is still exclusive even though visibility overlaps.
        for z in 0..4 {
            assert_eq!(part.owner_of_layer(z), z);
        }
    }

    #[test]
    fn z_slab_clamps_more_slabs_than_tiers() {
        let part = ZSlabPartition::new(3, 16, 1);
        assert_eq!(part.len(), 3, "every slab owns at least one tier");
        assert!(!part.is_empty());
    }

    #[test]
    fn z_slab_depth_ownership_clamps_out_of_range() {
        let part = ZSlabPartition::new(5, 2, 2);
        assert_eq!(part.owner_of_depth(-1.0), 0);
        assert_eq!(part.owner_of_depth(0.5), 0);
        assert_eq!(part.owner_of_depth(1.99), 0);
        assert_eq!(part.owner_of_depth(2.0), 1, "tier 2 belongs to slab 1");
        assert_eq!(part.owner_of_depth(99.0), 1);
        // A cell exactly on the slab boundary depth belongs to the upper
        // slab — its containing tier is tier 2.
        assert!(part.slabs()[1].owns(2));
        // Both slabs see the boundary tiers through their halos.
        assert!(part.slabs()[0].sees(3) && part.slabs()[1].sees(1));
    }
}
