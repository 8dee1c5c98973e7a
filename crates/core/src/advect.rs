//! Cell advection through the diffusion velocity field (paper Eq. 7).

use crate::cpu::{has_avx2, Simd};
use crate::{DiffusionConfig, DiffusionEngine};
use dpm_geom::{clamp, floor_index, Point, Vector};
use dpm_netlist::{CellId, Netlist};
use dpm_par::tree_reduce;
use dpm_place::{BinGrid, Placement};

/// Movable cells per parallel advection chunk. Fixed (independent of the
/// thread count) so partial `AdvectOutcome` sums fold identically at any
/// parallelism — the bit-identical guarantee of the kernel runtime.
///
/// Sized so the per-chunk overhead (one pool dispatch plus one partial
/// outcome) stays small against the per-cell work: at 2048 the chunks
/// were fine enough that 4 threads ran *slower* than 1 on a 256×256 /
/// 100k-cell advect (0.982×); 4096 keeps dozens of chunks in flight on
/// realistic designs while halving the fixed costs.
const CELL_CHUNK: usize = 4096;

/// Result of advecting all cells through one time step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdvectOutcome {
    /// Sum of the Euclidean world-space displacements this step. Each
    /// cell's term is within 2 ulp of `hypot`, so the sum may differ
    /// from a `hypot`-based sum in its last bits.
    pub total_movement: f64,
    /// Number of cells that moved.
    pub moved_cells: usize,
}

/// One movable cell of a [`CellCache`]: its id and its half extents in
/// world units (center ↔ lower-left corner) and in bin units (the
/// region clamp).
///
/// Each extent is exactly the expression the per-step kernels used to
/// evaluate for every cell on every step, so caching them changes no
/// bit of any result.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CachedCell {
    pub id: CellId,
    /// `width / 2.0`.
    pub half_w: f64,
    /// `height / 2.0`.
    pub half_h: f64,
    /// `width / (2.0 * bin_w)`.
    pub half_w_bins: f64,
    /// `height / (2.0 * bin_h)`.
    pub half_h_bins: f64,
}

/// The per-job advect input: every movable cell, in ascending id order,
/// with its extents — shared by the planar and volumetric kernels.
///
/// A job's netlist and bin grid never change between steps, so the
/// runners build this once per job instead of re-walking the netlist's
/// cell records on every step. Because ids ascend, the fixed
/// [`CELL_CHUNK`] chunks of `cells` own disjoint, ascending ranges of the
/// placement's position slice; `bounds` records where those ranges
/// start, so each parallel chunk can write its moves straight into its
/// own sub-slice.
#[derive(Debug, Clone)]
pub(crate) struct CellCache {
    cells: Vec<CachedCell>,
    /// Chunk `c` owns positions `bounds[c]..bounds[c + 1]`; empty when
    /// there are no movable cells.
    bounds: Vec<usize>,
}

impl CellCache {
    /// Caches the movable cells of `netlist` for advection on `grid`.
    ///
    /// The runners build it after their density map and engine: built
    /// before them, it measured about 5% more peak RSS on the end-to-end
    /// benchmark, from where it landed in the heap job after job.
    pub(crate) fn new(netlist: &Netlist, grid: &BinGrid) -> Self {
        // Sized up front: the movable-id filter hides the length from
        // `collect`, whose doubling would leave the buffer up to twice
        // the cache. The cell count bounds it without a counting pass
        // over the netlist; fixed cells are few.
        let mut cells = Vec::with_capacity(netlist.num_cells());
        cells.extend(netlist.movable_cell_ids().map(|id| {
            let cell = netlist.cell(id);
            CachedCell {
                id,
                half_w: cell.width / 2.0,
                half_h: cell.height / 2.0,
                half_w_bins: cell.width / (2.0 * grid.bin_width()),
                half_h_bins: cell.height / (2.0 * grid.bin_height()),
            }
        }));
        let mut bounds = Vec::new();
        if !cells.is_empty() {
            bounds.push(0);
            bounds.extend(
                cells
                    .iter()
                    .skip(CELL_CHUNK)
                    .step_by(CELL_CHUNK)
                    .map(|c| c.id.index()),
            );
            bounds.push(netlist.num_cells());
        }
        Self { cells, bounds }
    }

    /// The cached cells, ascending by id.
    pub(crate) fn cells(&self) -> &[CachedCell] {
        &self.cells
    }
}

/// The cells a local-diffusion round can move: the [`CellCache`] cells
/// whose centre bin is neither wall nor frozen when the round starts,
/// grouped by the cache's fixed [`CELL_CHUNK`] chunks.
///
/// Local diffusion rebuilds it once per round, right after installing
/// the round's frozen mask, and [`advect_cells`] then visits only the
/// listed cells. A cell left off stays put for the whole round: its
/// centre starts in a wall or frozen bin, both masks are fixed for the
/// round, so every step of the full walk would have returned it
/// unmoved. The list is therefore exact, not an approximation
/// (DESIGN.md §20).
#[derive(Debug, Clone, Default)]
pub(crate) struct LiveCells {
    /// Chunk-local indices of the listed cells, ascending within each
    /// chunk.
    cells: Vec<u32>,
    /// Chunk `c` lists `cells[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
}

impl LiveCells {
    /// Rebuilds the list from `engine`'s current wall and frozen masks
    /// and the cells' current positions, reusing the buffers.
    ///
    /// # Panics
    ///
    /// Panics if `placement` does not cover the netlist `cache` was
    /// built from.
    pub(crate) fn rebuild(
        &mut self,
        engine: &DiffusionEngine,
        grid: &BinGrid,
        cache: &CellCache,
        placement: &Placement,
    ) {
        self.rebuild_with(Simd::detect(), engine, grid, cache, placement);
    }

    /// [`rebuild`](Self::rebuild) through the compiled copy `simd`: the
    /// lane kernel's centre bins on whole blocks of four cells where it
    /// runs, [`centre_bin`] on the rest. Both find every cell's bin bit
    /// for bit.
    fn rebuild_with(
        &mut self,
        simd: Simd,
        engine: &DiffusionEngine,
        grid: &BinGrid,
        cache: &CellCache,
        placement: &Placement,
    ) {
        let lanes = uses_lanes(simd, engine);
        let positions = placement.as_slice();
        self.cells.clear();
        self.starts.clear();
        self.starts.push(0);
        for chunk in cache.cells.chunks(CELL_CHUNK) {
            let mut done = 0;
            if lanes {
                #[cfg(target_arch = "x86_64")]
                {
                    // SAFETY: `uses_lanes` holds only where `has_avx2()`
                    // does, the one feature the kernel enables.
                    done = unsafe {
                        lanes::list_live(engine, grid, positions, chunk, &mut self.cells)
                    };
                }
            }
            self.cells.extend(
                chunk[done..]
                    .iter()
                    .zip(done as u32..)
                    .filter_map(|(cell, i)| {
                        let (_, (j, k)) =
                            centre_bin(engine, grid, cell, positions[cell.id.index()]);
                        engine.is_live(j, k).then_some(i)
                    }),
            );
            self.starts.push(self.cells.len());
        }
    }

    /// Number of listed cells: the cells each of the round's advects
    /// visits.
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// A list of every cached cell, live or not: the full walk that
    /// respects frozen bins, which the list must match bit for bit.
    #[cfg(test)]
    pub(crate) fn every(cache: &CellCache) -> Self {
        let mut list = Self::default();
        list.starts.push(0);
        for chunk in cache.cells.chunks(CELL_CHUNK) {
            list.cells.extend(0..chunk.len() as u32);
            list.starts.push(list.cells.len());
        }
        list
    }
}

/// Whether the copy `simd` of [`advect_cells`]' per-chunk loop runs the
/// lane kernel on `engine`'s grid: the portable copy runs [`step_cell`]
/// on one cell at a time; the AVX2 copy runs the lane kernel
/// (`lanes::advect_chunk`, four cells per step with explicit gathers)
/// wherever its 32-bit bin indices reach every bin, and [`step_cell`]
/// for the lanes it hands back and for the rest.
///
/// # Panics
///
/// Panics if the copy is [`Simd::Avx2`] on a CPU without AVX2.
fn uses_lanes(simd: Simd, engine: &DiffusionEngine) -> bool {
    assert!(simd == Simd::Portable || has_avx2(), "no AVX2 on this CPU");
    simd == Simd::Avx2 && i32::try_from(engine.nx() * engine.ny()).is_ok()
}

/// Moves movable cells one step along the velocity field:
/// `x(n+1) = x(n) + v(x(n), y(n)) · Δt` (Eq. 7), with the velocity taken
/// at the cell *center*, bilinearly interpolated when
/// [`DiffusionConfig::interpolate`] is set.
///
/// With `live` set to `None` (global diffusion and field migration) it
/// visits every cached cell; with `Some(list)` (local diffusion) it
/// visits only the listed cells of each chunk.
///
/// Rules enforced, in order:
///
/// 1. cells whose center sits in a wall bin do not move; with a live
///    list, neither do cells whose center sits in a frozen bin (the list
///    leaves off every cell that starts the round in one, and a listed
///    cell that advects into one stops there);
/// 2. the per-step displacement is clamped to
///    [`DiffusionConfig::max_step_displacement`] bins (CFL);
/// 3. a move whose destination bin is a wall is projected onto the axis
///    that stays outside the wall (cells slide around macros, never onto
///    them);
/// 4. the cell is clamped so its outline stays inside the grid region.
///
/// Each cell's step depends only on its *own* position and the (fixed)
/// velocity field, so cells advect in parallel on the engine's worker
/// pool. The [`CellCache`] splits the placement's positions into one
/// disjoint sub-slice per fixed [`CELL_CHUNK`] chunk of cells; each chunk
/// moves its cells in place and sums its own partial outcome, and the
/// partials fold in a fixed-shape tree. There is no move buffer and no
/// second pass, and chunk boundaries never depend on the thread count,
/// so results are bit-identical at every parallelism. A cell the list
/// leaves off would have added nothing to its chunk's partial, so the
/// partials, and the fold, are the same as the full walk's.
///
/// # Panics
///
/// Panics if `placement` does not cover the netlist `cells` was built
/// from, or if `live` was built from another cache.
pub(crate) fn advect_cells(
    engine: &DiffusionEngine,
    grid: &BinGrid,
    cells: &CellCache,
    placement: &mut Placement,
    cfg: &DiffusionConfig,
    live: Option<&LiveCells>,
) -> AdvectOutcome {
    advect_with(Simd::detect(), engine, grid, cells, placement, cfg, live)
}

/// [`advect_cells`] through the compiled copy `simd`.
///
/// An interpolating run on an AVX2 CPU advects through the lane kernel
/// (DESIGN.md §23); every other run keeps the per-cell loop. Both give
/// the same bits, so the copy is never part of a result.
///
/// # Panics
///
/// As [`advect_cells`] and [`uses_lanes`].
fn advect_with(
    simd: Simd,
    engine: &DiffusionEngine,
    grid: &BinGrid,
    cells: &CellCache,
    placement: &mut Placement,
    cfg: &DiffusionConfig,
    live: Option<&LiveCells>,
) -> AdvectOutcome {
    let lanes = cfg.interpolate && uses_lanes(simd, engine);
    let mut rest = placement.as_mut_slice();
    assert_eq!(
        rest.len(),
        cells.bounds.last().copied().unwrap_or(rest.len()),
        "placement does not cover the cached netlist"
    );
    if let Some(list) = live {
        assert_eq!(
            list.starts.len(),
            cells.cells.len().div_ceil(CELL_CHUNK) + 1,
            "live list was built from another cache"
        );
    }
    let mut partials = vec![AdvectOutcome::default(); cells.cells.len().div_ceil(CELL_CHUNK)];
    let chunks = cells
        .bounds
        .windows(2)
        .zip(cells.cells.chunks(CELL_CHUNK))
        .enumerate()
        .map(|(c, (span, chunk))| {
            let (owned, tail) = std::mem::take(&mut rest).split_at_mut(span[1] - span[0]);
            rest = tail;
            let listed = live.map(|list| &list.cells[list.starts[c]..list.starts[c + 1]]);
            (span[0], owned, chunk, listed)
        });
    engine.pool().for_each(
        chunks.zip(&mut partials),
        |((base, positions, chunk, listed), partial)| {
            if lanes {
                #[cfg(target_arch = "x86_64")]
                {
                    // SAFETY: `uses_lanes` holds only where `has_avx2()`
                    // does, the one feature the kernel enables.
                    *partial = unsafe {
                        lanes::advect_chunk(engine, grid, cfg, base, positions, chunk, listed)
                    };
                    return;
                }
            }
            if let Some(listed) = listed {
                *partial = advect_listed(engine, grid, cfg, base, positions, chunk, listed);
                return;
            }
            // Summed in a local, so the slot is written once.
            let mut sum = AdvectOutcome::default();
            for cell in chunk {
                let pos = &mut positions[cell.id.index() - base];
                if let Some((new_pos, dist)) = step_cell(engine, grid, cfg, false, cell, *pos) {
                    *pos = new_pos;
                    sum.total_movement += dist;
                    sum.moved_cells += 1;
                }
            }
            *partial = sum;
        },
    );
    tree_reduce(partials, |a, b| AdvectOutcome {
        total_movement: a.total_movement + b.total_movement,
        moved_cells: a.moved_cells + b.moved_cells,
    })
    .unwrap_or_default()
}

/// [`advect_cells`]'s loop over one chunk's listed cells, frozen bins
/// respected: `listed` holds chunk-local indices into `chunk`, whose
/// positions start at id `base` in `positions`.
///
/// Kept out of line so that each of the portable copy's two walks
/// inlines [`step_cell`] on its own and computes the centre with one
/// packed `divpd`. With both walks inlined into one closure, the
/// compiler kept that arithmetic scalar and the global advect ran about
/// 10% slower (DESIGN.md §20). The packed division is the only vector
/// op either walk gets: LLVM's x86-64 cost model emits no gathers for
/// Eq. 6, so on AVX2 CPUs interpolating runs take the lane kernel
/// (`lanes::advect_chunk`) instead of both walks.
#[inline(never)]
fn advect_listed(
    engine: &DiffusionEngine,
    grid: &BinGrid,
    cfg: &DiffusionConfig,
    base: usize,
    positions: &mut [Point],
    chunk: &[CachedCell],
    listed: &[u32],
) -> AdvectOutcome {
    let mut partial = AdvectOutcome::default();
    for &i in listed {
        let cell = &chunk[i as usize];
        let pos = &mut positions[cell.id.index() - base];
        if let Some((new_pos, dist)) = step_cell(engine, grid, cfg, true, cell, *pos) {
            *pos = new_pos;
            partial.total_movement += dist;
            partial.moved_cells += 1;
        }
    }
    partial
}

/// The bin containing point `p` (in bin coordinates) of an `nx × ny`
/// grid, clamped to the grid.
#[inline]
fn bin_of(p: Point, nx: usize, ny: usize) -> (usize, usize) {
    (floor_index(p.x, nx), floor_index(p.y, ny))
}

/// The center, in bin coordinates, of a cell whose lower-left corner is
/// `pos`, and the bin holding it. [`LiveCells::rebuild`] and
/// [`step_cell`] both locate a cell with this one expression, so the
/// list and the kernel agree on every cell's bin bit for bit.
#[inline]
fn centre_bin(
    engine: &DiffusionEngine,
    grid: &BinGrid,
    cell: &CachedCell,
    pos: Point,
) -> (Point, (usize, usize)) {
    let c = grid.to_bin_coords(Point::new(pos.x + cell.half_w, pos.y + cell.half_h));
    (c, bin_of(c, engine.nx(), engine.ny()))
}

/// One cell's advection step from lower-left corner `old_pos`: the new
/// corner and the distance moved, or `None` if the cell stays put.
/// Reads only the cell's own position, which is what makes the
/// parallel chunks independent.
#[inline]
fn step_cell(
    engine: &DiffusionEngine,
    grid: &BinGrid,
    cfg: &DiffusionConfig,
    check_frozen: bool,
    cell: &CachedCell,
    old_pos: Point,
) -> Option<(Point, f64)> {
    let nx = engine.nx();
    let ny = engine.ny();
    let (c, (j, k)) = centre_bin(engine, grid, cell, old_pos);
    if engine.is_wall(j, k) || (check_frozen && engine.is_frozen(j, k)) {
        return None;
    }

    let v = if cfg.interpolate {
        engine.velocity_at(c)
    } else {
        engine.bin_velocity(j, k)
    };
    let disp = (v * cfg.dt).clamped_linf(cfg.max_step_displacement);
    if disp.linf_length() == 0.0 {
        return None;
    }

    // Keep the cell outline inside the region (all in bin coords).
    let mut target = Point::new(
        clamp_extent(c.x + disp.x, cell.half_w_bins, nx as f64),
        clamp_extent(c.y + disp.y, cell.half_h_bins, ny as f64),
    );

    // Never step onto a macro: project the move axis-wise.
    let (tj, tk) = bin_of(target, nx, ny);
    if engine.is_wall(tj, tk) {
        let x_only = Point::new(target.x, c.y);
        let (xj, xk) = bin_of(x_only, nx, ny);
        let y_only = Point::new(c.x, target.y);
        let (yj, yk) = bin_of(y_only, nx, ny);
        if !engine.is_wall(xj, xk) {
            target = x_only;
        } else if !engine.is_wall(yj, yk) {
            target = y_only;
        } else {
            return None;
        }
    }

    let new_center_world = grid.to_world_coords(target);
    let new_pos = Point::new(
        new_center_world.x - cell.half_w,
        new_center_world.y - cell.half_h,
    );
    let dist = move_length(new_pos - old_pos);
    (dist > 0.0).then_some((new_pos, dist))
}

/// The Euclidean length of one cell's move, as both advect kernels
/// measure it: `sqrt(dx² + dy²)` when that sum of squares is a normal,
/// finite number, and `hypot` otherwise.
///
/// The fast path is one `sqrtsd` instead of an out-of-line libm call,
/// within 2 ulp of `hypot`. The fallback covers every input where the
/// plain formula loses information: a zero or subnormal sum (moves
/// below about 1e-154 whose squares underflow), an overflowed sum and
/// NaN. So the result is `> 0` exactly when `hypot` is, and NaN or
/// infinite exactly when `hypot` is. The kernels' stay-put test
/// `dist > 0.0` therefore decides every move as `hypot` would: only
/// the movement telemetry can change, in its last bits.
#[inline]
pub(crate) fn move_length(d: Vector) -> f64 {
    let sq = d.x * d.x + d.y * d.y;
    if (f64::MIN_POSITIVE..f64::INFINITY).contains(&sq) {
        sq.sqrt()
    } else {
        d.x.hypot(d.y)
    }
}

/// Clamps a center coordinate so an outline of half extent `half` stays
/// inside `[0, n]`; an outline wider than the axis is pinned to the
/// middle.
#[inline]
pub(crate) fn clamp_extent(v: f64, half: f64, n: f64) -> f64 {
    if 2.0 * half >= n {
        n / 2.0
    } else {
        clamp(v, half, n - half)
    }
}

/// The AVX2 lane kernel of interpolating runs: [`step_cell`] four cells
/// at a time, bit for bit (DESIGN.md §23).
///
/// One block loads four cells' corners and extents into `f64` lanes and
/// computes, per lane, the centre bin, the bilinear velocity through
/// eight explicit gathers (Eq. 6), the CFL-clamped displacement, the
/// region-clamped target, its bin and the new corner. A scalar pass
/// then commits the lanes in cell order, so the movement sum folds
/// exactly as in the per-cell loop. It drops a lane centred on a wall
/// (or, walking a live list, frozen) bin and a lane whose displacement
/// is zero, and hands [`step_cell`] every lane the vector path does not
/// decide: a centre that is not finite or lies 2³¹ bins or more from
/// the origin, a displacement that is not finite, and a target on a
/// wall (the projection around macros). The tail of fewer than four
/// cells goes to [`step_cell`] too.
///
/// Every vector op is the IEEE element-wise op of the scalar expression
/// it replaces, in the same order and with no FMA, so each committed
/// lane carries [`step_cell`]'s bits. The same centre-bin lanes build
/// the live list (`list_live`).
#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::{move_length, step_cell, AdvectOutcome, CachedCell};
    use crate::{DiffusionConfig, DiffusionEngine};
    use dpm_geom::Point;
    use dpm_place::BinGrid;
    use std::arch::x86_64::*;

    /// Cells per block: one per `f64` lane of an AVX2 register.
    const LANES: usize = 4;

    /// Blocks computed before any is committed. The commit pass
    /// branches on every lane and a block's vector path is one long
    /// dependency chain (two divisions, the gathers, a third division):
    /// committing each block as soon as it is computed left the core
    /// waiting on that chain block after block. A batch of independent
    /// blocks overlaps their chains.
    const BATCH: usize = 8;

    /// The grid's operands, each broadcast to all lanes.
    struct Frame {
        llx: __m256d,
        lly: __m256d,
        bin_w: __m256d,
        bin_h: __m256d,
        /// `nx as f64` and `ny as f64`.
        nx: __m256d,
        ny: __m256d,
        /// `(nx − 1) as f64` and `(ny − 1) as f64`: the top bin indices.
        nx_top: __m256d,
        ny_top: __m256d,
    }

    impl Frame {
        #[target_feature(enable = "avx2")]
        fn new(engine: &DiffusionEngine, grid: &BinGrid) -> Self {
            let (nx, ny) = (engine.nx() as f64, engine.ny() as f64);
            let region = grid.region();
            let splat = _mm256_set1_pd;
            Self {
                llx: splat(region.llx),
                lly: splat(region.lly),
                bin_w: splat(grid.bin_width()),
                bin_h: splat(grid.bin_height()),
                nx: splat(nx),
                ny: splat(ny),
                nx_top: splat(nx - 1.0),
                ny_top: splat(ny - 1.0),
            }
        }

        /// [`centre_bin`](super::centre_bin) on four cells at their
        /// corners `old`.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn centres(&self, cells: &[&CachedCell; LANES], old: &[Point; LANES]) -> Centres {
            let (px, py) = transpose(old.map(|p| _mm_setr_pd(p.x, p.y)));
            let (hw, hh) = transpose(cells.map(|c| _mm_setr_pd(c.half_w, c.half_h)));
            let cx = _mm256_div_pd(_mm256_sub_pd(_mm256_add_pd(px, hw), self.llx), self.bin_w);
            let cy = _mm256_div_pd(_mm256_sub_pd(_mm256_add_pd(py, hh), self.lly), self.bin_h);
            Centres {
                bin: self.bin(cx, cy),
                cx,
                cy,
                hw,
                hh,
            }
        }

        /// The flat index `k · nx + j` of the bin holding `(x, y)` (bin
        /// coordinates), clamped to the grid: on every input, NaN and ±∞
        /// included, exactly [`bin_of`](super::bin_of)'s bin, and so in
        /// `[0, nx·ny)` on every lane.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn bin(&self, x: __m256d, y: __m256d) -> __m128i {
            let j = clamp_index(floor(x), self.nx_top);
            let row = clamp_index(floor(y), self.ny_top);
            _mm256_cvttpd_epi32(_mm256_add_pd(_mm256_mul_pd(row, self.nx), j))
        }
    }

    /// Four cells' centres, as [`Frame::centres`] finds them.
    struct Centres {
        /// The centres in bin coordinates.
        cx: __m256d,
        cy: __m256d,
        /// The flat index of each centre's bin.
        bin: __m128i,
        /// The world half extents.
        hw: __m256d,
        hh: __m256d,
    }

    /// One block's lanes, as the commit pass reads them.
    #[derive(Clone, Copy, Default)]
    struct Block {
        /// Bit `l` set: lane `l` goes to [`step_cell`] outright.
        fallback: i32,
        /// Bit `l` set: lane `l`'s clamped displacement is zero.
        still: i32,
        /// Flat index `k · nx + j` of each lane's centre bin.
        centre: [i32; LANES],
        /// Flat index of each lane's target bin.
        target: [i32; LANES],
        /// Each lane's new lower-left corner.
        x: [f64; LANES],
        y: [f64; LANES],
    }

    /// One chunk's walk: its positions, the field and its partial sum.
    struct Walk<'a> {
        engine: &'a DiffusionEngine,
        grid: &'a BinGrid,
        cfg: &'a DiffusionConfig,
        check_frozen: bool,
        base: usize,
        positions: &'a mut [Point],
        vx: &'a [f64],
        vy: &'a [f64],
        wall: &'a [bool],
        frozen: &'a [bool],
        frame: Frame,
        dt: __m256d,
        max_disp: __m256d,
        partial: AdvectOutcome,
    }

    /// [`advect_cells`](super::advect_cells)' loop over one chunk,
    /// through the lane kernel: the whole chunk, or with `listed` only
    /// its listed cells, frozen bins respected, as
    /// [`advect_listed`](super::advect_listed) does.
    ///
    /// A caller without AVX2 enabled must have checked that the CPU has
    /// it (`uses_lanes`) before calling.
    #[target_feature(enable = "avx2")]
    pub(super) fn advect_chunk(
        engine: &DiffusionEngine,
        grid: &BinGrid,
        cfg: &DiffusionConfig,
        base: usize,
        positions: &mut [Point],
        chunk: &[CachedCell],
        listed: Option<&[u32]>,
    ) -> AdvectOutcome {
        let bins = engine.nx() * engine.ny();
        let (vx, vy) = engine.velocity_planes();
        // With every gather index clamped into [0, nx·ny) (`Frame::bin`
        // and `Walk::lanes`), these lengths put every gather in bounds.
        assert!(
            vx.len() == bins && vy.len() == bins,
            "the lane kernel needs a planar velocity field"
        );
        let mut walk = Walk {
            engine,
            grid,
            cfg,
            check_frozen: listed.is_some(),
            base,
            positions,
            vx,
            vy,
            wall: engine.wall_mask(),
            frozen: engine.frozen_mask(),
            frame: Frame::new(engine, grid),
            dt: _mm256_set1_pd(cfg.dt),
            max_disp: _mm256_set1_pd(cfg.max_step_displacement),
            partial: AdvectOutcome::default(),
        };
        match listed {
            None => {
                let (blocks, tail) = chunk.as_chunks::<LANES>();
                walk.blocks(blocks.len(), |b| blocks[b].each_ref());
                for cell in tail {
                    walk.single(cell);
                }
            }
            Some(listed) => {
                let (blocks, tail) = listed.as_chunks::<LANES>();
                walk.blocks(blocks.len(), |b| blocks[b].map(|i| &chunk[i as usize]));
                for &i in tail {
                    walk.single(&chunk[i as usize]);
                }
            }
        }
        walk.partial
    }

    /// [`LiveCells::rebuild`](super::LiveCells::rebuild)'s filter over
    /// the whole blocks of four cells of `chunk`: appends to `out` the
    /// chunk-local index of each of their cells whose centre bin is
    /// live, and returns how many cells it looked at. [`Frame::bin`]
    /// is [`bin_of`](super::bin_of) on every input, so no lane needs a
    /// fallback. Callers check the CPU as for [`advect_chunk`].
    #[target_feature(enable = "avx2")]
    pub(super) fn list_live(
        engine: &DiffusionEngine,
        grid: &BinGrid,
        positions: &[Point],
        chunk: &[CachedCell],
        out: &mut Vec<u32>,
    ) -> usize {
        let frame = Frame::new(engine, grid);
        let (wall, frozen) = (engine.wall_mask(), engine.frozen_mask());
        let (blocks, _) = chunk.as_chunks::<LANES>();
        for (block, first) in blocks.iter().zip((0u32..).step_by(LANES)) {
            let cells = block.each_ref();
            let at = |l: usize| positions[cells[l].id.index()];
            let centres = frame.centres(&cells, &[at(0), at(1), at(2), at(3)]);
            for (&bin, i) in i32_lanes(centres.bin).iter().zip(first..) {
                if !wall[bin as usize] && !frozen[bin as usize] {
                    out.push(i);
                }
            }
        }
        blocks.len() * LANES
    }

    impl Walk<'_> {
        /// Moves one cell through [`step_cell`].
        #[inline]
        fn single(&mut self, cell: &CachedCell) {
            let old = self.positions[cell.id.index() - self.base];
            let step = step_cell(
                self.engine,
                self.grid,
                self.cfg,
                self.check_frozen,
                cell,
                old,
            );
            self.commit(cell, step);
        }

        /// Writes one step's move, if any, and adds it to the partial.
        #[inline]
        fn commit(&mut self, cell: &CachedCell, step: Option<(Point, f64)>) {
            if let Some((new_pos, dist)) = step {
                self.positions[cell.id.index() - self.base] = new_pos;
                self.partial.total_movement += dist;
                self.partial.moved_cells += 1;
            }
        }

        /// Moves the `n` blocks of four cells `cells(0), …, cells(n − 1)`,
        /// [`BATCH`] blocks at a time: the vector lanes of a batch, then
        /// the commit pass over its cells in order.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn blocks<'c>(&mut self, n: usize, cells: impl Fn(usize) -> [&'c CachedCell; LANES]) {
            let mut batch = [Block::default(); BATCH];
            for start in (0..n).step_by(BATCH) {
                let batch = &mut batch[..BATCH.min(n - start)];
                for (b, out) in batch.iter_mut().enumerate() {
                    let cells = cells(start + b);
                    let at = |l: usize| self.positions[cells[l].id.index() - self.base];
                    *out = self.lanes(&cells, &[at(0), at(1), at(2), at(3)]);
                }
                for (b, block) in batch.iter().enumerate() {
                    for (l, cell) in cells(start + b).into_iter().enumerate() {
                        self.commit_lane(cell, block, l);
                    }
                }
            }
        }

        /// Commits lane `l` of `block`, which holds `cell`: drops it,
        /// moves it, or hands it to [`step_cell`].
        #[inline]
        fn commit_lane(&mut self, cell: &CachedCell, block: &Block, l: usize) {
            let old = self.positions[cell.id.index() - self.base];
            let step = if block.fallback >> l & 1 != 0 {
                step_cell(
                    self.engine,
                    self.grid,
                    self.cfg,
                    self.check_frozen,
                    cell,
                    old,
                )
            } else {
                let c = block.centre[l] as usize;
                if self.wall[c]
                    || (self.check_frozen && self.frozen[c])
                    || block.still >> l & 1 != 0
                {
                    None
                } else if self.wall[block.target[l] as usize] {
                    step_cell(
                        self.engine,
                        self.grid,
                        self.cfg,
                        self.check_frozen,
                        cell,
                        old,
                    )
                } else {
                    let new_pos = Point::new(block.x[l], block.y[l]);
                    let dist = move_length(new_pos - old);
                    (dist > 0.0).then_some((new_pos, dist))
                }
            };
            self.commit(cell, step);
        }

        /// [`step_cell`]'s arithmetic on four cells at their corners
        /// `old`, up to the bins the commit pass looks up.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn lanes(&self, cells: &[&CachedCell; LANES], old: &[Point; LANES]) -> Block {
            let k = &self.frame;
            let Centres {
                cx,
                cy,
                bin: centre,
                hw,
                hh,
            } = k.centres(cells, old);
            // False for NaN and ±∞ too.
            let far = _mm256_set1_pd(2_147_483_648.0);
            let inside = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_LT_OQ>(abs(cx), far),
                _mm256_cmp_pd::<_CMP_LT_OQ>(abs(cy), far),
            );

            // `velocity_at`: the four nearest bin centres and the weights.
            let half = _mm256_set1_pd(0.5);
            let (xs, ys) = (_mm256_add_pd(cx, half), _mm256_add_pd(cy, half));
            let (fx, fy) = (floor(xs), floor(ys));
            let (alpha, beta) = (_mm256_sub_pd(xs, fx), _mm256_sub_pd(ys, fy));
            let one = _mm256_set1_pd(1.0);
            let j0 = clamp_index(_mm256_sub_pd(fx, one), k.nx_top);
            let j1 = clamp_index(fx, k.nx_top);
            let row0 = _mm256_mul_pd(clamp_index(_mm256_sub_pd(fy, one), k.ny_top), k.nx);
            let row1 = _mm256_mul_pd(clamp_index(fy, k.ny_top), k.nx);
            let corners = [(row0, j0), (row0, j1), (row1, j0), (row1, j1)]
                .map(|(row, j)| _mm256_cvttpd_epi32(_mm256_add_pd(row, j)));
            // SAFETY: each index is `row · nx + j` with `j ≤ nx − 1` and
            // `row ≤ ny − 1` after `clamp_index`, on every lane, NaN lanes
            // included, so it lies in `[0, nx·ny)`; `advect_chunk`
            // asserted both planes hold `nx·ny` values, and the lanes run
            // only where `nx·ny` fits an `i32` (`uses_lanes`).
            let gather = |plane: &[f64]| {
                corners.map(|i| unsafe { _mm256_i32gather_pd::<8>(plane.as_ptr(), i) })
            };
            let ab = _mm256_mul_pd(alpha, beta);
            let dx = _mm256_mul_pd(eq6(gather(self.vx), alpha, beta, ab), self.dt);
            let dy = _mm256_mul_pd(eq6(gather(self.vy), alpha, beta, ab), self.dt);
            let inf = _mm256_set1_pd(f64::INFINITY);
            let finite = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_LT_OQ>(abs(dx), inf),
                _mm256_cmp_pd::<_CMP_LT_OQ>(abs(dy), inf),
            );

            // `clamped_linf`: scale down to the CFL bound where it binds.
            let n = _mm256_max_pd(abs(dx), abs(dy));
            let binds = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GT_OQ>(n, self.max_disp),
                _mm256_cmp_pd::<_CMP_GT_OQ>(n, _mm256_setzero_pd()),
            );
            let scale = _mm256_div_pd(self.max_disp, n);
            let dx = _mm256_blendv_pd(dx, _mm256_mul_pd(dx, scale), binds);
            let dy = _mm256_blendv_pd(dy, _mm256_mul_pd(dy, scale), binds);
            let still =
                _mm256_cmp_pd::<_CMP_EQ_OQ>(_mm256_max_pd(abs(dx), abs(dy)), _mm256_setzero_pd());

            // The region clamp, the target bin and the new corner.
            let (hwb, hhb) = transpose(cells.map(|c| _mm_setr_pd(c.half_w_bins, c.half_h_bins)));
            let tx = clamp_extent(_mm256_add_pd(cx, dx), hwb, k.nx);
            let ty = clamp_extent(_mm256_add_pd(cy, dy), hhb, k.ny);
            let x = _mm256_sub_pd(_mm256_add_pd(k.llx, _mm256_mul_pd(tx, k.bin_w)), hw);
            let y = _mm256_sub_pd(_mm256_add_pd(k.lly, _mm256_mul_pd(ty, k.bin_h)), hh);
            Block {
                fallback: !_mm256_movemask_pd(_mm256_and_pd(inside, finite)) & 0xf,
                still: _mm256_movemask_pd(still),
                centre: i32_lanes(centre),
                target: i32_lanes(k.bin(tx, ty)),
                x: f64_lanes(x),
                y: f64_lanes(y),
            }
        }
    }

    /// Four `(x, y)` pairs, transposed into an x and a y vector.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn transpose(pairs: [__m128d; LANES]) -> (__m256d, __m256d) {
        let even = _mm256_set_m128d(pairs[2], pairs[0]);
        let odd = _mm256_set_m128d(pairs[3], pairs[1]);
        (_mm256_unpacklo_pd(even, odd), _mm256_unpackhi_pd(even, odd))
    }

    /// The four lanes of `v`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn f64_lanes(v: __m256d) -> [f64; LANES] {
        let mut out = [0.0; LANES];
        // SAFETY: an unaligned 32-byte store into a 32-byte array.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr(), v) };
        out
    }

    /// The four lanes of `v`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn i32_lanes(v: __m128i) -> [i32; LANES] {
        let mut out = [0; LANES];
        // SAFETY: an unaligned 16-byte store into a 16-byte array.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), v) };
        out
    }

    /// `|v|`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn abs(v: __m256d) -> __m256d {
        _mm256_andnot_pd(_mm256_set1_pd(-0.0), v)
    }

    /// `floor(v)`, bit-equal to [`dpm_geom::floor`] on every input.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn floor(v: __m256d) -> __m256d {
        _mm256_round_pd::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(v)
    }

    /// The integral `f` clamped to `[0, top]`. `max` returns its second
    /// operand when the first is NaN, so every lane, NaN included, lands
    /// in range: for an integral `f` this is `velocity_at`'s `isize`
    /// clamp and, after a `floor`, [`floor_index`](dpm_geom::floor_index).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn clamp_index(f: __m256d, top: __m256d) -> __m256d {
        _mm256_min_pd(_mm256_max_pd(f, _mm256_setzero_pd()), top)
    }

    /// [`clamp_extent`](super::clamp_extent) on four lanes:
    /// `v.max(half).min(n − half)`, or `n / 2` where `2 · half ≥ n`.
    /// The operand order of `max` and `min` is the one x86-64 lowers
    /// `f64::max`/`f64::min` to, so even signed-zero ties agree.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn clamp_extent(v: __m256d, half: __m256d, n: __m256d) -> __m256d {
        let two = _mm256_set1_pd(2.0);
        let wide = _mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_mul_pd(two, half), n);
        let inside = _mm256_min_pd(_mm256_sub_pd(n, half), _mm256_max_pd(half, v));
        _mm256_blendv_pd(inside, _mm256_div_pd(n, two), wide)
    }

    /// [`interpolate_velocity`](crate::interpolate_velocity)'s one axis
    /// (Eq. 6), term for term:
    /// `v00 + α(v10 − v00) + β(v01 − v00) + αβ(v00 + v11 − v10 − v01)`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn eq6(
        [v00, v10, v01, v11]: [__m256d; 4],
        alpha: __m256d,
        beta: __m256d,
        ab: __m256d,
    ) -> __m256d {
        let a = _mm256_mul_pd(alpha, _mm256_sub_pd(v10, v00));
        let b = _mm256_mul_pd(beta, _mm256_sub_pd(v01, v00));
        let cross = _mm256_sub_pd(_mm256_sub_pd(_mm256_add_pd(v00, v11), v10), v01);
        _mm256_add_pd(
            _mm256_add_pd(_mm256_add_pd(v00, a), b),
            _mm256_mul_pd(ab, cross),
        )
    }
}

/// The per-cell advect kernel as it stood before [`CellCache`]: ids
/// collected and a move planned for every cell on each step, then a
/// serial apply pass. Kept verbatim as the oracle the fused kernel must
/// match bit for bit.
#[cfg(test)]
mod reference {
    use super::{AdvectOutcome, CELL_CHUNK};
    use crate::{DiffusionConfig, DiffusionEngine};
    use dpm_geom::{clamp, Point};
    use dpm_netlist::{CellId, Netlist};
    use dpm_par::{parallel_for_chunks, tree_reduce};
    use dpm_place::{BinGrid, Placement};

    pub(super) fn advect_cells(
        engine: &DiffusionEngine,
        grid: &BinGrid,
        netlist: &Netlist,
        placement: &mut Placement,
        cfg: &DiffusionConfig,
        respect_frozen: bool,
    ) -> AdvectOutcome {
        let ids: Vec<CellId> = netlist.movable_cell_ids().collect();
        let frozen_placement: &Placement = placement;
        let mut planned: Vec<Option<(Point, f64)>> = vec![None; ids.len()];
        parallel_for_chunks(engine.pool(), &mut planned, CELL_CHUNK, |range, out| {
            for (slot, &cell_id) in out.iter_mut().zip(&ids[range]) {
                *slot = advect_one(
                    engine,
                    grid,
                    netlist,
                    frozen_placement,
                    cfg,
                    respect_frozen,
                    cell_id,
                );
            }
        });
        let mut partials = Vec::new();
        for (plans, chunk_ids) in planned.chunks(CELL_CHUNK).zip(ids.chunks(CELL_CHUNK)) {
            let mut partial = AdvectOutcome::default();
            for (plan, &cell_id) in plans.iter().zip(chunk_ids) {
                if let Some((new_pos, dist)) = plan {
                    placement.set(cell_id, *new_pos);
                    partial.total_movement += dist;
                    partial.moved_cells += 1;
                }
            }
            partials.push(partial);
        }
        tree_reduce(partials, |a, b| AdvectOutcome {
            total_movement: a.total_movement + b.total_movement,
            moved_cells: a.moved_cells + b.moved_cells,
        })
        .unwrap_or_default()
    }

    fn advect_one(
        engine: &DiffusionEngine,
        grid: &BinGrid,
        netlist: &Netlist,
        placement: &Placement,
        cfg: &DiffusionConfig,
        respect_frozen: bool,
        cell_id: CellId,
    ) -> Option<(Point, f64)> {
        let nx = engine.nx() as f64;
        let ny = engine.ny() as f64;
        let cell = netlist.cell(cell_id);
        let old_pos = placement.get(cell_id);
        let center_world = Point::new(old_pos.x + cell.width / 2.0, old_pos.y + cell.height / 2.0);
        let c = grid.to_bin_coords(center_world);

        let (j, k) = bin_of(c, engine);
        if engine.is_wall(j, k) {
            return None;
        }
        if respect_frozen && engine.is_frozen(j, k) {
            return None;
        }

        let v = if cfg.interpolate {
            engine.velocity_at(c)
        } else {
            engine.bin_velocity(j, k)
        };
        let disp = (v * cfg.dt).clamped_linf(cfg.max_step_displacement);
        if disp.linf_length() == 0.0 {
            return None;
        }

        let half_w = cell.width / (2.0 * grid.bin_width());
        let half_h = cell.height / (2.0 * grid.bin_height());
        let lim = |v: f64, half: f64, n: f64| {
            if 2.0 * half >= n {
                n / 2.0
            } else {
                clamp(v, half, n - half)
            }
        };
        let mut target = Point::new(lim(c.x + disp.x, half_w, nx), lim(c.y + disp.y, half_h, ny));

        let (tj, tk) = bin_of(target, engine);
        if engine.is_wall(tj, tk) {
            let x_only = Point::new(target.x, c.y);
            let (xj, xk) = bin_of(x_only, engine);
            let y_only = Point::new(c.x, target.y);
            let (yj, yk) = bin_of(y_only, engine);
            if !engine.is_wall(xj, xk) {
                target = x_only;
            } else if !engine.is_wall(yj, yk) {
                target = y_only;
            } else {
                return None;
            }
        }

        let new_center_world = grid.to_world_coords(target);
        let new_pos = Point::new(
            new_center_world.x - cell.width / 2.0,
            new_center_world.y - cell.height / 2.0,
        );
        let dist = (new_pos - old_pos).length();
        if dist > 0.0 {
            Some((new_pos, dist))
        } else {
            None
        }
    }

    fn bin_of(p: Point, engine: &DiffusionEngine) -> (usize, usize) {
        let j = (p.x.floor().max(0.0) as usize).min(engine.nx() - 1);
        let k = (p.y.floor().max(0.0) as usize).min(engine.ny() - 1);
        (j, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_geom::Rect;
    use dpm_netlist::{CellKind, NetlistBuilder};
    use dpm_rng::Rng;

    /// One fused step with a freshly built per-job cache. With
    /// `respect_frozen` the step runs through a live list built from the
    /// current placement, as a local-diffusion round does.
    fn advect(
        engine: &DiffusionEngine,
        grid: &BinGrid,
        netlist: &Netlist,
        placement: &mut Placement,
        cfg: &DiffusionConfig,
        respect_frozen: bool,
    ) -> AdvectOutcome {
        let cells = CellCache::new(netlist, grid);
        let live = respect_frozen.then(|| live_list(engine, grid, &cells, placement));
        advect_cells(engine, grid, &cells, placement, cfg, live.as_ref())
    }

    /// The live list a local-diffusion round would build right now,
    /// after checking that every compiled copy builds the same one.
    fn live_list(
        engine: &DiffusionEngine,
        grid: &BinGrid,
        cells: &CellCache,
        placement: &Placement,
    ) -> LiveCells {
        let mut live = LiveCells::default();
        live.rebuild_with(Simd::Portable, engine, grid, cells, placement);
        for simd in Simd::copies() {
            let mut other = LiveCells::default();
            other.rebuild_with(simd, engine, grid, cells, placement);
            assert_eq!(
                (&other.cells, &other.starts),
                (&live.cells, &live.starts),
                "{simd:?}"
            );
        }
        live
    }

    /// One 2×2 cell on a 4×4 grid of 10-unit bins.
    fn setup(at_world: Point) -> (Netlist, Placement, BinGrid) {
        let mut b = NetlistBuilder::new();
        let c = b.add_cell("c", 2.0, 2.0, CellKind::Movable);
        let nl = b.build().expect("valid");
        let mut p = Placement::new(1);
        p.set(c, at_world);
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 40.0, 40.0), 10.0);
        (nl, p, grid)
    }

    fn engine_with_uniform_velocity(vx: f64, vy: f64) -> DiffusionEngine {
        let mut e = DiffusionEngine::from_raw(4, 4, vec![1.0; 16], None);
        for k in 0..4 {
            for j in 0..4 {
                e.set_bin_velocity(j, k, dpm_geom::Vector::new(vx, vy));
            }
        }
        e
    }

    #[test]
    fn cell_moves_along_field() {
        let (nl, mut p, grid) = setup(Point::new(14.0, 14.0));
        let e = engine_with_uniform_velocity(1.0, 0.0);
        let cfg = DiffusionConfig::default();
        let out = advect(&e, &grid, &nl, &mut p, &cfg, false);
        assert_eq!(out.moved_cells, 1);
        // v = 1 bin per unit time, dt = 0.2 → 0.2 bins = 2 world units.
        let np = p.get(dpm_netlist::CellId::new(0));
        assert!((np.x - 16.0).abs() < 1e-9, "x = {}", np.x);
        assert!((np.y - 14.0).abs() < 1e-9);
        assert!((out.total_movement - 2.0).abs() < 1e-9);
    }

    #[test]
    fn displacement_is_cfl_clamped() {
        let (nl, mut p, grid) = setup(Point::new(14.0, 14.0));
        let e = engine_with_uniform_velocity(100.0, 0.0); // absurd speed
        let cfg = DiffusionConfig::default();
        advect(&e, &grid, &nl, &mut p, &cfg, false);
        let np = p.get(dpm_netlist::CellId::new(0));
        // At most 1 bin = 10 world units.
        assert!(np.x - 14.0 <= 10.0 + 1e-9);
    }

    #[test]
    fn cell_never_leaves_region() {
        let (nl, mut p, grid) = setup(Point::new(36.0, 36.0));
        let e = engine_with_uniform_velocity(5.0, 5.0);
        let cfg = DiffusionConfig::default();
        for _ in 0..20 {
            advect(&e, &grid, &nl, &mut p, &cfg, false);
        }
        let r = p.cell_rect(&nl, dpm_netlist::CellId::new(0));
        assert!(grid.region().contains_rect(&r), "cell escaped: {r}");
    }

    #[test]
    fn cell_slides_around_wall() {
        let (nl, mut p, grid) = setup(Point::new(14.0, 14.0)); // center (15,15), bin (1,1)
        let mut d = vec![1.0; 16];
        d[4 + 2] = 1.0;
        let mut wall = vec![false; 16];
        wall[4 + 2] = true; // bin (2,1) east of the cell
        let mut e = DiffusionEngine::from_raw(4, 4, d, Some(wall));
        for k in 0..4 {
            for j in 0..4 {
                e.set_bin_velocity(j, k, dpm_geom::Vector::new(5.0, 5.0));
            }
        }
        let cfg = DiffusionConfig::default();
        advect(&e, &grid, &nl, &mut p, &cfg, false);
        let center = p.cell_center(&nl, dpm_netlist::CellId::new(0));
        let b = grid.bin_of_point(center);
        assert!(!(b.j == 2 && b.k == 1), "cell moved onto the macro");
        // It still moved (slid north).
        assert!(center.y > 15.0);
    }

    #[test]
    fn frozen_bin_pins_cells_when_respected() {
        let (nl, mut p, grid) = setup(Point::new(14.0, 14.0));
        let mut e = engine_with_uniform_velocity(1.0, 1.0);
        let mut frozen = vec![false; 16];
        frozen[4 + 1] = true; // the cell's own bin
        e.set_frozen_mask(&frozen);
        let cfg = DiffusionConfig::default();
        let out = advect(&e, &grid, &nl, &mut p, &cfg, true);
        assert_eq!(out.moved_cells, 0);
        assert_eq!(p.get(dpm_netlist::CellId::new(0)), Point::new(14.0, 14.0));
        // Without respect_frozen the cell moves.
        let out2 = advect(&e, &grid, &nl, &mut p, &cfg, false);
        assert_eq!(out2.moved_cells, 1);
    }

    #[test]
    fn parallel_advection_is_bit_identical_to_serial() {
        // ~10000 cells (3 advection chunks at CELL_CHUNK = 4096) on a
        // bumpy 64x64 field with a wall block and a frozen stripe; every
        // thread count must produce exactly the same placement and
        // outcome, including the partial chunk at the tail.
        let n = 64usize;
        let mut b = NetlistBuilder::new();
        for i in 0..10_000 {
            b.add_cell(format!("c{i}"), 2.0, 2.0, CellKind::Movable);
        }
        let nl = b.build().expect("valid");
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 640.0, 640.0), 10.0);
        let mut p0 = Placement::new(nl.num_cells());
        for (i, c) in nl.cell_ids().enumerate() {
            let h = (i * 2654435761usize) % 1_000_000;
            p0.set(
                c,
                Point::new((h % 1000) as f64 * 0.63, (h / 1000) as f64 * 0.63),
            );
        }
        let density: Vec<f64> = (0..n * n)
            .map(|i| 0.25 + ((i * 2654435761usize) % 997) as f64 / 997.0)
            .collect();
        let mut wall = vec![false; n * n];
        for k in 20..28 {
            for j in 30..44 {
                wall[k * n + j] = true;
            }
        }
        let mut frozen = vec![false; n * n];
        for k in 48..56 {
            for j in 8..20 {
                frozen[k * n + j] = true;
            }
        }
        let cfg = DiffusionConfig::default();
        let run = |threads: usize| {
            let mut e = DiffusionEngine::from_raw(n, n, density.clone(), Some(wall.clone()));
            e.set_frozen_mask(&frozen);
            e.set_threads(threads);
            e.compute_velocities();
            let mut p = p0.clone();
            let out = advect(&e, &grid, &nl, &mut p, &cfg, true);
            (out, p)
        };
        let (ref_out, ref_p) = run(1);
        assert!(ref_out.moved_cells > 0, "test must actually move cells");
        for threads in [2, 4, 8] {
            let (out, p) = run(threads);
            assert_eq!(ref_out, out, "outcome differs at {threads} threads");
            assert_eq!(ref_p, p, "placement differs at {threads} threads");
        }
    }

    #[test]
    fn zero_velocity_means_no_movement() {
        let (nl, mut p, grid) = setup(Point::new(14.0, 14.0));
        let e = engine_with_uniform_velocity(0.0, 0.0);
        let cfg = DiffusionConfig::default();
        let out = advect(&e, &grid, &nl, &mut p, &cfg, false);
        assert_eq!(out, AdvectOutcome::default());
    }

    #[test]
    fn cache_chunks_own_disjoint_ascending_position_ranges() {
        let mut b = NetlistBuilder::new();
        for i in 0..(2 * CELL_CHUNK + 7) {
            let kind = if i % 5 == 3 {
                CellKind::FixedMacro
            } else {
                CellKind::Movable
            };
            b.add_cell(format!("c{i}"), 1.0, 1.0, kind);
        }
        let nl = b.build().expect("valid");
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 40.0, 40.0), 10.0);
        let cache = CellCache::new(&nl, &grid);
        assert_eq!(cache.bounds.first(), Some(&0));
        assert_eq!(cache.bounds.last(), Some(&nl.num_cells()));
        assert_eq!(
            cache.bounds.len(),
            cache.cells.len().div_ceil(CELL_CHUNK) + 1
        );
        for (span, chunk) in cache.bounds.windows(2).zip(cache.cells.chunks(CELL_CHUNK)) {
            assert!(span[0] < span[1]);
            assert!(chunk
                .iter()
                .all(|c| (span[0]..span[1]).contains(&c.id.index())));
        }
    }

    /// A design to advect: its netlist, placement, grid and engine.
    type Case = (Netlist, Placement, BinGrid, DiffusionEngine);

    /// A random design for the fused-vs-reference property: macros
    /// interleaved among the movable ids, cells on and past the grid
    /// edge, cells wider/taller than the region, positions in shuffled
    /// order, and a wall/frozen-laced bumpy field on non-square bins.
    fn random_case(rng: &mut Rng) -> Case {
        let (nx, ny) = (rng.random_range(12..48usize), rng.random_range(12..48usize));
        let region = Rect::new(
            -30.0,
            15.0,
            -30.0 + 9.5 * nx as f64,
            15.0 + 7.25 * ny as f64,
        );
        let grid = BinGrid::with_counts(region, nx, ny);
        // ≥ 3 full chunks plus a partial tail.
        let movable = 3 * CELL_CHUNK + rng.random_range(1..CELL_CHUNK);
        let mut b = NetlistBuilder::new();
        let mut placed = 0;
        while placed < movable {
            if rng.random_bool(0.03) {
                b.add_cell(format!("m{placed}"), 20.0, 14.0, CellKind::FixedMacro);
                continue;
            }
            let (w, h) = match rng.random_range(0..50u32) {
                0 => (region.width() * rng.random_range(1.0..1.5), 7.25),
                1 => (4.0, region.height() * rng.random_range(1.0..1.5)),
                _ => (rng.random_range(1.0..12.0), rng.random_range(1.0..9.0)),
            };
            b.add_cell(format!("c{placed}"), w, h, CellKind::Movable);
            placed += 1;
        }
        let nl = b.build().expect("valid");
        let mut corners: Vec<Point> = nl
            .cell_ids()
            .map(|id| {
                let cell = nl.cell(id);
                let x = match rng.random_range(0..20u32) {
                    0 => region.llx,
                    1 => region.urx - cell.width,
                    2 => region.urx,
                    3 => region.llx - rng.random_range(0.0..20.0),
                    _ => rng.random_range(region.llx..region.urx),
                };
                let y = match rng.random_range(0..20u32) {
                    0 => region.lly,
                    1 => region.ury - cell.height,
                    2 => region.lly - 3.0,
                    _ => rng.random_range(region.lly..region.ury),
                };
                Point::new(x, y)
            })
            .collect();
        rng.shuffle(&mut corners);
        let placement: Placement = corners.into_iter().collect();

        let bins = nx * ny;
        let density: Vec<f64> = (0..bins).map(|_| rng.random_range(0.0..2.0)).collect();
        let mut wall = vec![false; bins];
        let mut frozen = vec![false; bins];
        for mask in [&mut wall, &mut frozen] {
            for _ in 0..3 {
                let (j0, k0) = (rng.random_range(0..nx), rng.random_range(0..ny));
                for k in k0..(k0 + rng.random_range(1..6usize)).min(ny) {
                    for j in j0..(j0 + rng.random_range(1..6usize)).min(nx) {
                        mask[k * nx + j] = true;
                    }
                }
            }
        }
        let mut engine = DiffusionEngine::from_raw(nx, ny, density, Some(wall));
        engine.set_frozen_mask(&frozen);
        engine.compute_velocities();
        (nl, placement, grid, engine)
    }

    fn bits(p: &Placement) -> Vec<(u64, u64)> {
        p.as_slice()
            .iter()
            .map(|q| (q.x.to_bits(), q.y.to_bits()))
            .collect()
    }

    /// `steps` advects of `p0` by every compiled copy at 1, 2, 4 and 8
    /// threads, each against the oracle, over the full walk and (with
    /// `respect_frozen`) a live list built once from `p0`, as at a
    /// round start; the oracle re-checks every cell on each step.
    ///
    /// Positions and moved-cell counts must match the oracle bit for
    /// bit. The oracle measures moves with `hypot`, the kernels with
    /// `move_length`, so its movement sums match to within rounding,
    /// while every copy at every thread count must give the same sum
    /// bits. Returns the oracle's outcomes.
    fn assert_copies_match_reference(
        case: &mut Case,
        cfg: &DiffusionConfig,
        respect_frozen: bool,
        steps: usize,
        ctx: &str,
    ) -> Vec<AdvectOutcome> {
        let (nl, p0, grid, engine) = (&case.0, &case.1, &case.2, &mut case.3);
        let cells = CellCache::new(nl, grid);
        let live = respect_frozen.then(|| live_list(engine, grid, &cells, p0));
        engine.set_threads(1);
        let mut want = p0.clone();
        let want_out: Vec<AdvectOutcome> = (0..steps)
            .map(|_| reference::advect_cells(engine, grid, nl, &mut want, cfg, respect_frozen))
            .collect();
        let mut sums: Option<Vec<u64>> = None;
        for simd in Simd::copies() {
            for threads in [1, 2, 4, 8] {
                engine.set_threads(threads);
                let mut got = p0.clone();
                let mut got_sums = Vec::new();
                for (step, want_step) in want_out.iter().enumerate() {
                    let out = advect_with(simd, engine, grid, &cells, &mut got, cfg, live.as_ref());
                    let ctx = format!(
                        "{ctx} {simd:?} threads {threads} respect_frozen {respect_frozen} step {step}"
                    );
                    assert_eq!(out.moved_cells, want_step.moved_cells, "{ctx}");
                    let (got_m, want_m) = (out.total_movement, want_step.total_movement);
                    assert!(
                        got_m.to_bits() == want_m.to_bits()
                            || (got_m - want_m).abs() <= 1e-12 * want_m.abs(),
                        "{ctx}: movement {got_m} vs oracle {want_m}"
                    );
                    got_sums.push(got_m.to_bits());
                }
                assert_eq!(bits(&got), bits(&want), "{ctx} {simd:?} threads {threads}");
                let sums = sums.get_or_insert_with(|| got_sums.clone());
                assert_eq!(
                    *sums, got_sums,
                    "{ctx} {simd:?} threads {threads}: movement bits"
                );
            }
        }
        want_out
    }

    #[test]
    fn fused_kernel_matches_the_reference_bit_for_bit() {
        let mut rng = Rng::seed_from_u64(0xad_ec7);
        for case in 0..3 {
            let mut design = random_case(&mut rng);
            for (interpolate, respect_frozen) in
                [(true, true), (true, false), (false, true), (false, false)]
            {
                let cfg = DiffusionConfig {
                    interpolate,
                    // Large steps hit the CFL clamp and walls often.
                    dt: rng.random_range(0.2..4.0),
                    ..DiffusionConfig::default()
                };
                let ctx = format!("case {case} interpolate {interpolate}");
                let want =
                    assert_copies_match_reference(&mut design, &cfg, respect_frozen, 2, &ctx);
                assert!(want[0].moved_cells > 0, "{ctx}: nothing moved");
            }
        }
    }

    /// An 8×8 grid of 10-unit bins with hand-set velocities that drive
    /// lanes into every branch of the lane kernel's commit pass: a 2×2
    /// wall block at bins 3..5 that the field pulls cells into, a
    /// frozen block, a zero-velocity patch, an outward push at the right
    /// edge that the CFL clamp and the region clamp both bind, and one
    /// NaN, one infinite and one huge (overflowing `v · Δt`) bin
    /// velocity.
    ///
    /// The cells: a 16×16 lattice of 2×2 cells over the die, with a
    /// macro interleaved among their ids; corners with NaN and ±∞
    /// coordinates; centres at and past 2³¹ bins; and outlines wider or
    /// taller than the region. With `guard_non_finite` the bins that
    /// non-finite centres clamp to are walls, so that neither the
    /// oracle nor [`step_cell`] samples the field at a NaN point (which
    /// trips `interpolate_velocity`'s weight assertions in debug
    /// builds); without it those cells are left out in debug builds.
    fn special_lanes_case(guard_non_finite: bool) -> Case {
        let n = 8usize;
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 80.0, 80.0), 10.0);
        let mut wall = vec![false; n * n];
        for (j, k) in [(3, 3), (4, 3), (3, 4), (4, 4)] {
            wall[k * n + j] = true;
        }
        // NaN and -∞ clamp to index 0, +∞ to 7, and a corner at 14 sits
        // in bin 1.
        let with_non_finite = guard_non_finite || !cfg!(debug_assertions);
        if guard_non_finite {
            for (j, k) in [
                (0, 0),
                (0, 1),
                (0, 7),
                (7, 0),
                (7, 1),
                (7, 7),
                (1, 0),
                (1, 7),
            ] {
                wall[k * n + j] = true;
            }
        }
        let mut frozen = vec![false; n * n];
        for (j, k) in [(0, 3), (1, 3), (0, 4), (1, 4)] {
            frozen[k * n + j] = true;
        }
        let mut engine = DiffusionEngine::from_raw(n, n, vec![1.0; n * n], Some(wall));
        engine.set_frozen_mask(&frozen);
        for k in 0..n {
            for j in 0..n {
                // Towards the wall block, except outward at the right edge.
                let v = match (j, k) {
                    (5..=6, 0..=1) => Vector::new(0.0, 0.0),
                    (5, 6) => Vector::new(f64::NAN, 0.2),
                    (2, 6) => Vector::new(0.1, f64::INFINITY),
                    (6, 5) => Vector::new(1e308, -0.3),
                    (7, _) => Vector::new(4.0, 0.25),
                    _ => Vector::new(-(j as f64 - 3.5) * 0.45, -(k as f64 - 3.8) * 0.35),
                };
                engine.set_bin_velocity(j, k, v);
            }
        }

        let mut cells: Vec<(f64, f64, Point)> = Vec::new();
        for k in 0..16 {
            for j in 0..16 {
                cells.push((
                    2.0,
                    2.0,
                    Point::new(j as f64 * 5.0 + 1.5, k as f64 * 5.0 + 0.75),
                ));
            }
        }
        if with_non_finite {
            let vals = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 14.0];
            for &x in &vals {
                for &y in &vals {
                    if !(x.is_finite() && y.is_finite()) {
                        cells.push((2.0, 2.0, Point::new(x, y)));
                    }
                }
            }
        }
        // Centres 2³¹ − 1 bins out (vector path), exactly 2³¹ (the first
        // centre handed back), and far beyond on either side.
        let edge = 2_147_483_648.0 * 10.0;
        for x in [edge - 11.0, edge - 1.0, 1e12, -1e12, -edge - 1.0] {
            cells.push((2.0, 2.0, Point::new(x, 24.0)));
        }
        cells.push((2.0, 2.0, Point::new(24.0, edge - 1.0)));
        // Centres on the region's corner and on a bin corner.
        cells.push((2.0, 2.0, Point::new(-1.0, -1.0)));
        cells.push((2.0, 2.0, Point::new(19.0, 59.0)));
        // Outlines wider, taller, and both, than the region.
        cells.push((100.0, 4.0, Point::new(-5.0, 52.0)));
        cells.push((3.0, 85.0, Point::new(61.0, 2.0)));
        cells.push((90.0, 81.0, Point::new(-3.0, -1.0)));

        let mut b = NetlistBuilder::new();
        let mut corners = Vec::new();
        for (i, &(w, h, at)) in cells.iter().enumerate() {
            if i == 37 {
                b.add_cell("macro", 20.0, 20.0, CellKind::FixedMacro);
                corners.push(Point::new(30.0, 30.0));
            }
            b.add_cell(format!("c{i}"), w, h, CellKind::Movable);
            corners.push(at);
        }
        let nl = b.build().expect("valid");
        (nl, corners.into_iter().collect(), grid, engine)
    }

    #[test]
    fn lane_kernel_takes_every_fallback_bit_for_bit() {
        // Each lane kernel fallback against the oracle: NaN and ±∞
        // corners, centres at and past 2³¹ bins, non-finite and
        // overflowing velocities, wall-centred cells, wall targets, zero
        // and CFL-clamped moves, outlines wider than the region, and
        // blocks of fewer than four cells at a chunk's tail and a live
        // list's.
        for guard_non_finite in [true, false] {
            let mut design = special_lanes_case(guard_non_finite);
            let movable = design.0.movable_cell_ids().count();
            assert_ne!(movable % 4, 0, "the full walk must end in a partial block");
            for dt in [0.2, 2.5] {
                let cfg = DiffusionConfig {
                    dt,
                    ..DiffusionConfig::default()
                };
                for respect_frozen in [false, true] {
                    let ctx = format!("guard {guard_non_finite} dt {dt}");
                    let want =
                        assert_copies_match_reference(&mut design, &cfg, respect_frozen, 3, &ctx);
                    let moved = want[0].moved_cells;
                    assert!(
                        0 < moved && moved < movable,
                        "{ctx}: {moved} of {movable} moved"
                    );
                }
            }
            let (nl, p0, grid, engine) = &design;
            let live = live_list(engine, grid, &CellCache::new(nl, grid), p0);
            assert_ne!(
                live.len() % 4,
                0,
                "the live list must end in a partial block"
            );
        }
    }

    /// The distance between two floats of the same sign, in ulps.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    /// Checks `move_length` against `hypot` on one `(dx, dy)` pair.
    fn assert_move_length_matches_hypot(dx: f64, dy: f64) {
        let got = move_length(Vector::new(dx, dy));
        let want = dx.hypot(dy);
        let ctx = format!("dx {dx:e} dy {dy:e}: move_length {got:e}, hypot {want:e}");
        assert_eq!(got.is_nan(), want.is_nan(), "{ctx}");
        assert_eq!(got.is_infinite(), want.is_infinite(), "{ctx}");
        assert_eq!(got > 0.0, want > 0.0, "{ctx}");
        if want.is_finite() {
            assert!(ulps(got, want) <= 2, "{ctx}");
        }
    }

    #[test]
    fn move_length_is_hypot_to_2_ulp_with_the_same_zero_nan_and_inf() {
        let specials = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            -5e-324,
            1e-160,
            -1.5e-154,
            1e154,
            -1.4e154,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1.0,
        ];
        for &dx in &specials {
            for &dy in &specials {
                assert_move_length_matches_hypot(dx, dy);
            }
        }
        // Magnitudes log-uniform over 1e-300..1e300 per axis, so sums
        // of squares underflow, overflow and straddle both edges of
        // the normal range; one coordinate in 64 is a special.
        let mut rng = Rng::seed_from_u64(0x004e_7970);
        let draw = |rng: &mut Rng| {
            if rng.random_bool(1.0 / 64.0) {
                specials[rng.random_range(0..specials.len())]
            } else {
                let sign = if rng.random_bool(0.5) { -1.0 } else { 1.0 };
                sign * rng.random_range(1.0..10.0) * 10f64.powi(rng.random_range(-300..300i32))
            }
        };
        for _ in 0..1_000_000 {
            let (dx, dy) = (draw(&mut rng), draw(&mut rng));
            assert_move_length_matches_hypot(dx, dy);
        }
    }

    /// One 2×2 cell per corner in `corners`, on [`setup`]'s 4×4 grid of
    /// 10-unit bins.
    fn cells_at(corners: &[Point]) -> (Netlist, Placement, BinGrid) {
        let mut b = NetlistBuilder::new();
        for i in 0..corners.len() {
            b.add_cell(format!("c{i}"), 2.0, 2.0, CellKind::Movable);
        }
        let nl = b.build().expect("valid");
        let p: Placement = corners.iter().copied().collect();
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 40.0, 40.0), 10.0);
        (nl, p, grid)
    }

    /// Runs one fused step and one oracle step from the same placement;
    /// asserts identical positions, counts and movement bits.
    fn assert_step_matches_reference(
        engine: &DiffusionEngine,
        corners: &[Point],
        cfg: &DiffusionConfig,
    ) -> (AdvectOutcome, Placement) {
        let (nl, p0, grid) = cells_at(corners);
        let mut got = p0.clone();
        let out = advect(engine, &grid, &nl, &mut got, cfg, false);
        let mut want = p0;
        let want_out = reference::advect_cells(engine, &grid, &nl, &mut want, cfg, false);
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(out.moved_cells, want_out.moved_cells);
        assert_eq!(
            out.total_movement.to_bits(),
            want_out.total_movement.to_bits()
        );
        (out, got)
    }

    #[test]
    fn moves_below_the_squared_underflow_still_move_and_count() {
        // A velocity far below one ulp of the bin coordinate leaves the
        // center where it was, so the corner snaps from `x` to
        // `(x + 1) - 1 = 0`: a move of exactly `x`, whose square is
        // subnormal (1e-160) or zero (the rest). `hypot` sees each.
        let xs = [1e-160, 1e-170, 1e-300, 5e-324];
        let corners: Vec<Point> = xs.iter().map(|&x| Point::new(x, 14.0)).collect();
        let e = engine_with_uniform_velocity(1e-20, 0.0);
        let (out, p) = assert_step_matches_reference(&e, &corners, &DiffusionConfig::default());
        assert_eq!(out.moved_cells, xs.len());
        for (&x, &q) in xs.iter().zip(p.as_slice()) {
            assert_eq!(q, Point::new(0.0, 14.0), "x = {x:e}");
        }
        assert_eq!(out.total_movement, 1e-160 + 1e-170 + 1e-300 + 5e-324);
    }

    #[test]
    fn non_finite_corners_advect_exactly_as_the_reference() {
        // Every pairing of NaN, ±∞ and a finite coordinate. A corner at
        // ±∞ with a NaN partner moves an infinite `hypot` distance even
        // though its square sums to NaN: the fallback must keep it.
        let vals = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 14.0];
        let corners: Vec<Point> = vals
            .iter()
            .flat_map(|&x| vals.iter().map(move |&y| Point::new(x, y)))
            .collect();
        let e = engine_with_uniform_velocity(1.0, 1.0);
        // The bin-velocity path: NaN centers would trip the bilinear
        // gather's weight assertions in debug builds.
        let cfg = DiffusionConfig {
            interpolate: false,
            ..DiffusionConfig::default()
        };
        let (out, p) = assert_step_matches_reference(&e, &corners, &cfg);
        assert!(out.total_movement.is_infinite());
        let inf_nan = corners
            .iter()
            .position(|c| c.x == f64::INFINITY && c.y.is_nan())
            .expect("pairing present");
        assert!(p.as_slice()[inf_nan].is_finite(), "∞/NaN corner stayed put");
    }

    #[test]
    fn total_movement_bits_are_pinned() {
        // A diagonal move of (0.05 - 1.07e-15, 0.2 - 7e-16) world units,
        // whose rounded square root lies one ulp below `hypot`'s
        // (0x3fca634bd77fe183).
        let (nl, mut p, grid) = setup(Point::new(14.0, 14.0));
        let e = engine_with_uniform_velocity(0.025, 0.1);
        let cfg = DiffusionConfig {
            interpolate: false,
            ..DiffusionConfig::default()
        };
        let out = advect(&e, &grid, &nl, &mut p, &cfg, false);
        assert_eq!(out.moved_cells, 1);
        assert_eq!(out.total_movement.to_bits(), 0x3fca_634b_d77f_e182);
    }

    /// How a live list's bins are chosen for one round in
    /// [`live_list_matches_the_full_walk_bit_for_bit`].
    #[derive(Debug, Clone, Copy)]
    enum Mask {
        /// `random_case`'s frozen rectangles.
        Rectangles,
        /// Each bin frozen with probability 0.6: window edges everywhere.
        Scattered,
        /// Every bin frozen: the list is empty.
        AllFrozen,
        /// No bin frozen: the list holds every cell off the walls.
        NoneFrozen,
    }

    /// `true` when the outline of a cell centred at `c` (bin coords)
    /// covers bins of both kinds: live and frozen-or-wall.
    fn straddles(engine: &DiffusionEngine, cell: &CachedCell, c: Point) -> bool {
        let (nx, ny) = (engine.nx(), engine.ny());
        let (j0, k0) = bin_of(
            Point::new(c.x - cell.half_w_bins, c.y - cell.half_h_bins),
            nx,
            ny,
        );
        let (j1, k1) = bin_of(
            Point::new(c.x + cell.half_w_bins, c.y + cell.half_h_bins),
            nx,
            ny,
        );
        let mut kinds = (k0..=k1).flat_map(|k| (j0..=j1).map(move |j| engine.is_live(j, k)));
        let first = kinds.next();
        kinds.any(|live| Some(live) != first)
    }

    #[test]
    fn live_list_matches_the_full_walk_bit_for_bit() {
        // The list path against the walk over every cell that respects
        // frozen bins, both three steps from one list, as in a round.
        // Covered: walls, window-edge straddlers, cells that advect into
        // a frozen bin, empty and full lists, at 1, 2 and 4 threads.
        let mut rng = Rng::seed_from_u64(0x11fe_ce11);
        let (mut straddlers, mut into_frozen) = (0usize, 0usize);
        for case in 0..2 {
            let (nl, p0, grid, mut engine) = random_case(&mut rng);
            let cells = CellCache::new(&nl, &grid);
            let every = LiveCells::every(&cells);
            assert_eq!(every.len(), cells.cells().len());
            let bins = engine.nx() * engine.ny();
            for mask in [
                Mask::Rectangles,
                Mask::Scattered,
                Mask::AllFrozen,
                Mask::NoneFrozen,
            ] {
                let frozen: Vec<bool> = match mask {
                    Mask::Rectangles => engine.frozen_mask().to_vec(),
                    Mask::Scattered => (0..bins).map(|_| rng.random_bool(0.6)).collect(),
                    Mask::AllFrozen => vec![true; bins],
                    Mask::NoneFrozen => vec![false; bins],
                };
                engine.set_frozen_mask(&frozen);
                engine.compute_velocities();
                let live = live_list(&engine, &grid, &cells, &p0);
                let centred_live = cells
                    .cells()
                    .iter()
                    .filter(|cell| {
                        let (_, (j, k)) = centre_bin(&engine, &grid, cell, p0.get(cell.id));
                        engine.is_live(j, k)
                    })
                    .count();
                assert_eq!(live.len(), centred_live, "case {case} {mask:?}");
                match mask {
                    Mask::AllFrozen => assert_eq!(live.len(), 0),
                    Mask::NoneFrozen => {
                        assert!(live.len() > cells.cells().len() / 2, "walls cover few bins")
                    }
                    _ => assert!(0 < live.len() && live.len() < cells.cells().len()),
                }
                let cfg = DiffusionConfig {
                    dt: rng.random_range(0.2..4.0),
                    ..DiffusionConfig::default()
                };
                let mut want_p = p0.clone();
                engine.set_threads(1);
                let want: Vec<AdvectOutcome> = (0..3)
                    .map(|_| advect_cells(&engine, &grid, &cells, &mut want_p, &cfg, Some(&every)))
                    .collect();
                for threads in [1, 2, 4] {
                    engine.set_threads(threads);
                    let mut got_p = p0.clone();
                    for (step, want_step) in want.iter().enumerate() {
                        let got =
                            advect_cells(&engine, &grid, &cells, &mut got_p, &cfg, Some(&live));
                        let ctx = format!("case {case} {mask:?} threads {threads} step {step}");
                        assert_eq!(got.moved_cells, want_step.moved_cells, "{ctx}");
                        assert_eq!(
                            got.total_movement.to_bits(),
                            want_step.total_movement.to_bits(),
                            "{ctx}"
                        );
                    }
                    assert_eq!(bits(&got_p), bits(&want_p), "case {case} {mask:?}");
                }
                for cell in cells.cells() {
                    let (c0, (j0, k0)) = centre_bin(&engine, &grid, cell, p0.get(cell.id));
                    straddlers += usize::from(straddles(&engine, cell, c0));
                    let (_, (j1, k1)) = centre_bin(&engine, &grid, cell, want_p.get(cell.id));
                    into_frozen += usize::from(engine.is_live(j0, k0) && engine.is_frozen(j1, k1));
                }
            }
        }
        assert!(straddlers > 100, "only {straddlers} window-edge straddlers");
        assert!(
            into_frozen > 10,
            "only {into_frozen} cells advected into a frozen bin"
        );
    }
}
