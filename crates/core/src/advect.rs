//! Cell advection through the diffusion velocity field (paper Eq. 7).

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
        // the cache.
        let mut cells = Vec::with_capacity(netlist.movable_cell_ids().count());
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

/// Moves every movable cell one step along the velocity field:
/// `x(n+1) = x(n) + v(x(n), y(n)) · Δt` (Eq. 7), with the velocity taken
/// at the cell *center*, bilinearly interpolated when
/// [`DiffusionConfig::interpolate`] is set.
///
/// Rules enforced, in order:
///
/// 1. cells whose center sits in a wall or (when `respect_frozen`) frozen
///    bin do not move;
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
/// so results are bit-identical at every parallelism.
///
/// # Panics
///
/// Panics if `placement` does not cover the netlist `cells` was built
/// from.
pub(crate) fn advect_cells(
    engine: &DiffusionEngine,
    grid: &BinGrid,
    cells: &CellCache,
    placement: &mut Placement,
    cfg: &DiffusionConfig,
    respect_frozen: bool,
) -> AdvectOutcome {
    let mut rest = placement.as_mut_slice();
    assert_eq!(
        rest.len(),
        cells.bounds.last().copied().unwrap_or(rest.len()),
        "placement does not cover the cached netlist"
    );
    let chunks: Vec<_> = cells
        .bounds
        .windows(2)
        .zip(cells.cells.chunks(CELL_CHUNK))
        .map(|(span, chunk)| {
            let (owned, tail) = std::mem::take(&mut rest).split_at_mut(span[1] - span[0]);
            rest = tail;
            (span[0], owned, chunk)
        })
        .collect();
    let partials = engine.pool().map(chunks, |_, (base, positions, chunk)| {
        let mut partial = AdvectOutcome::default();
        for cell in chunk {
            let pos = &mut positions[cell.id.index() - base];
            if let Some((new_pos, dist)) = step_cell(engine, grid, cfg, respect_frozen, cell, *pos)
            {
                *pos = new_pos;
                partial.total_movement += dist;
                partial.moved_cells += 1;
            }
        }
        partial
    });
    tree_reduce(partials, |a, b| AdvectOutcome {
        total_movement: a.total_movement + b.total_movement,
        moved_cells: a.moved_cells + b.moved_cells,
    })
    .unwrap_or_default()
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
    respect_frozen: bool,
    cell: &CachedCell,
    old_pos: Point,
) -> Option<(Point, f64)> {
    let nx = engine.nx();
    let ny = engine.ny();
    let bin_of = |p: Point| (floor_index(p.x, nx), floor_index(p.y, ny));
    let center_world = Point::new(old_pos.x + cell.half_w, old_pos.y + cell.half_h);
    let c = grid.to_bin_coords(center_world);

    let (j, k) = bin_of(c);
    if engine.is_wall(j, k) || (respect_frozen && engine.is_frozen(j, k)) {
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
    let (tj, tk) = bin_of(target);
    if engine.is_wall(tj, tk) {
        let x_only = Point::new(target.x, c.y);
        let (xj, xk) = bin_of(x_only);
        let y_only = Point::new(c.x, target.y);
        let (yj, yk) = bin_of(y_only);
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
    use dpm_par::{chunk_ranges, parallel_for_chunks, tree_reduce};
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
        parallel_for_chunks(engine.pool(), &mut planned, CELL_CHUNK, |_, range, out| {
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
        for range in chunk_ranges(ids.len(), CELL_CHUNK) {
            let mut partial = AdvectOutcome::default();
            for (plan, &cell_id) in planned[range.clone()].iter().zip(&ids[range]) {
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

    /// One fused step with a freshly built per-job cache.
    fn advect(
        engine: &DiffusionEngine,
        grid: &BinGrid,
        netlist: &Netlist,
        placement: &mut Placement,
        cfg: &DiffusionConfig,
        respect_frozen: bool,
    ) -> AdvectOutcome {
        let cells = CellCache::new(netlist, grid);
        advect_cells(engine, grid, &cells, placement, cfg, respect_frozen)
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

    /// A random design for the fused-vs-reference property: macros
    /// interleaved among the movable ids, cells on and past the grid
    /// edge, cells wider/taller than the region, positions in shuffled
    /// order, and a wall/frozen-laced bumpy field on non-square bins.
    fn random_case(rng: &mut Rng) -> (Netlist, Placement, BinGrid, DiffusionEngine) {
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

    #[test]
    fn fused_kernel_matches_the_reference_bit_for_bit() {
        let mut rng = Rng::seed_from_u64(0xad_ec7);
        for case in 0..3 {
            let (nl, p0, grid, mut engine) = random_case(&mut rng);
            let cells = CellCache::new(&nl, &grid);
            for (interpolate, respect_frozen) in
                [(true, true), (true, false), (false, true), (false, false)]
            {
                let cfg = DiffusionConfig {
                    interpolate,
                    // Large steps hit the CFL clamp and walls often.
                    dt: rng.random_range(0.2..4.0),
                    ..DiffusionConfig::default()
                };
                engine.set_threads(1);
                let mut want = p0.clone();
                let mut want_out = Vec::new();
                for _ in 0..2 {
                    want_out.push(reference::advect_cells(
                        &engine,
                        &grid,
                        &nl,
                        &mut want,
                        &cfg,
                        respect_frozen,
                    ));
                }
                assert!(want_out[0].moved_cells > 0, "case {case}: nothing moved");
                // The fused kernel measures moves with `move_length`, the
                // oracle with `hypot`: positions and counts match bit for
                // bit, the movement sums to within rounding, and the
                // fused sums are bit-exact across thread counts.
                let mut one_thread_movement = Vec::new();
                for threads in [1, 2, 4, 8] {
                    engine.set_threads(threads);
                    let mut got = p0.clone();
                    for (step, want_step) in want_out.iter().enumerate() {
                        let out =
                            advect_cells(&engine, &grid, &cells, &mut got, &cfg, respect_frozen);
                        let ctx = format!(
                            "case {case} step {step} threads {threads} \
                             interpolate {interpolate} respect_frozen {respect_frozen}"
                        );
                        assert_eq!(out.moved_cells, want_step.moved_cells, "{ctx}");
                        let (got_m, want_m) = (out.total_movement, want_step.total_movement);
                        assert!(
                            (got_m - want_m).abs() <= 1e-12 * want_m.abs(),
                            "{ctx}: movement {got_m} vs oracle {want_m}"
                        );
                        if threads == 1 {
                            one_thread_movement.push(got_m.to_bits());
                        } else {
                            assert_eq!(got_m.to_bits(), one_thread_movement[step], "{ctx}");
                        }
                    }
                    assert_eq!(bits(&got), bits(&want), "case {case} threads {threads}");
                }
            }
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
}
