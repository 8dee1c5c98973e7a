//! Volumetric (3D-IC) diffusion migration.
//!
//! A volumetric placement stacks `nz` tiers of the same die: cells carry
//! a depth coordinate in *tier units* alongside their planar position,
//! and the density field lives on the engine's `nx × ny × nz` plane-major
//! grid ([`Dims::D3`](crate::Dims)). This module supplies what the
//! planar [`GlobalDiffusion`](crate::GlobalDiffusion) flow (Algorithm 1)
//! lacks for a stack — a depth per cell, a volumetric splat, a serial
//! trilinear advect and the field-continuation contract — and runs the
//! same stride loop as the planar runner:
//!
//! - [`VolPlacement`] pairs a planar [`Placement`] with a per-cell depth;
//! - [`splat_volume`] measures the volumetric density: movable cells
//!   splat their area overlap into their own tier's plane, while fixed
//!   macros raise **through-stack walls** — a macro footprint blocks its
//!   bins in *every* tier, the 3D-IC analogue of a TSV keep-out column;
//! - [`VolumetricDiffusion`] runs the crate's one stride loop — the
//!   loop [`GlobalDiffusion`](crate::GlobalDiffusion) and
//!   [`FieldMigration`](crate::FieldMigration) run too — with the serial
//!   3D advection (trilinear interpolation) as its advect, under either
//!   solver ([`SolverKind::Spectral`](crate::SolverKind) jumps through a
//!   volumetric [`SpectralSolver`](crate::SpectralSolver) when the stack
//!   has no walls);
//! - [`VolJobSpec`] is the *field-continuation* contract the z-slab
//!   router (`dpm-serve`) speaks: a sub-job receives a pre-evolved raw
//!   density region plus its tier offset, runs an exact number of steps,
//!   and returns the evolved field for stitching. The density is
//!   splatted and manipulated **once** globally and then evolves as a
//!   pure PDE, so slab-sharded rounds reproduce a direct run
//!   bit-for-bit.
//!
//! Advection moves owned cells in **global** tier coordinates (the slab
//! offset is subtracted only to sample the local field), so a cell may
//! drift across a slab boundary mid-round; the router re-derives
//! ownership from the fresh depths every round.

use crate::advect::{clamp_extent, move_length, AdvectOutcome, CellCache};
use crate::observe::{lap, RunRecorder};
use crate::stride::{Advect, StrideLoop};
use crate::{
    DiffusionConfig, DiffusionEngine, DiffusionObserver, DiffusionResult, KernelKind, NoopObserver,
};
use dpm_geom::{floor_index, Point, Point3};
use dpm_netlist::{CellId, Netlist};
use dpm_place::{splat_rect, BinGrid, DensityMap, Die, Placement};

/// A placement with depth: planar positions plus one tier-unit z
/// coordinate per cell (the cell's center depth; tier `t` spans
/// `[t, t+1)`, so a cell resting in tier `t` sits at `t + 0.5`).
#[derive(Debug, Clone, PartialEq)]
pub struct VolPlacement {
    /// Planar (x, y) positions, world coordinates.
    pub xy: Placement,
    /// Per-cell center depth in tier units, indexed by cell id.
    pub z: Vec<f64>,
}

impl VolPlacement {
    /// A placement for `num_cells` cells, all at the origin of tier 0
    /// (depth 0.5).
    pub fn new(num_cells: usize) -> Self {
        Self {
            xy: Placement::new(num_cells),
            z: vec![0.5; num_cells],
        }
    }

    /// Number of cells tracked.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.z.len()
    }

    /// Sets a cell's planar position and depth in one call.
    #[inline]
    pub fn set(&mut self, id: CellId, pos: Point, z: f64) {
        self.xy.set(id, pos);
        self.z[id.index()] = z;
    }

    /// The tier containing a cell's center, clamped to `[0, nz)` —
    /// the same rule [`ZSlabPartition::owner_of_depth`] applies.
    ///
    /// [`ZSlabPartition::owner_of_depth`]: crate::ZSlabPartition::owner_of_depth
    #[inline]
    pub fn tier(&self, id: CellId, nz: usize) -> usize {
        floor_index(self.z[id.index()], nz)
    }
}

/// Raises the through-stack macro walls into `wall`, and with `density`
/// their density too: bins whose planar macro coverage reaches
/// [`DensityMap::FIXED_COVER_THRESHOLD`] are marked wall and pinned at
/// density 1 in **every** tier; partial covers contribute area to every
/// tier. Planar rules are identical to [`DensityMap::recompute`]'s macro
/// pass.
fn splat_macros(
    netlist: &Netlist,
    xy: &Placement,
    grid: &BinGrid,
    wall: &mut [bool],
    mut density: Option<&mut [f64]>,
) {
    let nxy = grid.len();
    for cell in netlist.macro_ids() {
        let r = xy.cell_rect(netlist, cell);
        splat_rect(grid, &r, 0..grid.ny(), |f, cover| {
            let full = cover >= DensityMap::FIXED_COVER_THRESHOLD;
            for i in (f..wall.len()).step_by(nxy) {
                wall[i] |= full;
                if let Some(density) = density.as_deref_mut() {
                    density[i] = if full { 1.0 } else { density[i] + cover };
                }
            }
        });
    }
}

/// Measures the volumetric density of a placement over `nz` tiers of
/// `grid`: returns plane-major `(density, wall)` buffers of length
/// `grid.len() · nz`.
///
/// Fixed macros raise through-stack walls (see module docs); movable
/// cells add their planar area overlap to the plane of the tier
/// containing their center. Pads occupy no area. The splat is serial and
/// accumulates in netlist order, so it is deterministic at any thread
/// count by construction.
pub fn splat_volume(
    netlist: &Netlist,
    placement: &VolPlacement,
    grid: &BinGrid,
    nz: usize,
) -> (Vec<f64>, Vec<bool>) {
    splat_region(netlist, placement, 0, grid, nz)
}

/// [`splat_volume`] over the `nz` tiers of a stack region that starts at
/// global tier `z0`: a cell at global depth `z` splats into region tier
/// `floor_index(z − z0, nz)`, so the depths stay global and nothing is
/// copied. At `z0 = 0` this is [`splat_volume`] exactly (`z − 0.0` is
/// `z`, bit for bit).
fn splat_region(
    netlist: &Netlist,
    placement: &VolPlacement,
    z0: usize,
    grid: &BinGrid,
    nz: usize,
) -> (Vec<f64>, Vec<bool>) {
    let nxy = grid.len();
    let mut density = vec![0.0; nxy * nz];
    let mut wall = vec![false; nxy * nz];
    splat_macros(netlist, &placement.xy, grid, &mut wall, Some(&mut density));
    for c in netlist.movable_cell_ids() {
        let r = placement.xy.cell_rect(netlist, c);
        let plane = floor_index(placement.z[c.index()] - z0 as f64, nz) * nxy;
        // Area stacked on a macro bin is counted, exactly like the planar
        // splat, so overflow metrics see it.
        splat_rect(grid, &r, 0..grid.ny(), |f, t| density[plane + f] += t);
    }
    (density, wall)
}

/// The through-stack wall mask alone (no density): what a raw-field
/// sub-job needs, since its density arrives pre-evolved but walls must
/// still be rebuilt from the macros it was shipped.
pub fn volume_wall_mask(netlist: &Netlist, xy: &Placement, grid: &BinGrid, nz: usize) -> Vec<bool> {
    let mut wall = vec![false; grid.len() * nz];
    splat_macros(netlist, xy, grid, &mut wall, None);
    wall
}

/// How a volumetric run sources its density field and when it stops —
/// the contract between the z-slab router and a backend.
///
/// The default ([`VolJobSpec::full`]) is a self-contained run: splat the
/// placement, manipulate, iterate to convergence. The router instead
/// ships each slab a [`field`](Self::field) region it splatted (and
/// manipulated) globally, plus the slab's tier offset, and asks for an
/// exact number of steps per round.
#[derive(Debug, Clone, PartialEq)]
pub struct VolJobSpec {
    /// Tiers in *this* job's region (the engine's `nz`).
    pub nz: usize,
    /// First global tier of the region: local tier `t` is global
    /// `z0 + t`. Zero for unsharded runs.
    pub z0: usize,
    /// Full stack height, for the global depth clamp — a cell may
    /// advect beyond its slab, but never off the stack.
    pub global_nz: usize,
    /// Pre-evolved plane-major density region (`grid.len() · nz`
    /// values). When present the splat **and** manipulation are skipped
    /// — the field already went through both — but through-stack walls
    /// are still rebuilt from the job's macros.
    pub field: Option<Vec<f64>>,
    /// Run exactly this many FTCS steps and return, skipping every
    /// convergence check (the router owns convergence); `None` iterates
    /// to convergence like the planar runner.
    pub exact_steps: Option<usize>,
}

impl VolJobSpec {
    /// A self-contained full-stack job: splat, manipulate, iterate to
    /// convergence over `nz` tiers.
    pub fn full(nz: usize) -> Self {
        Self {
            nz,
            z0: 0,
            global_nz: nz,
            field: None,
            exact_steps: None,
        }
    }
}

/// Outcome of a volumetric diffusion run: the run's
/// [`DiffusionResult`] (one round; it derefs to it, so `result.steps`
/// reads through) next to the evolved field.
///
/// [`DiffusionResult::steps`] counts advects, as in the planar runner;
/// [`DiffusionResult::converged`] is always `false` under
/// [`VolJobSpec::exact_steps`], since the router owns convergence there;
/// the telemetry's [`StepRecord::max_density`](crate::StepRecord) is the
/// monotone max-density trace of the maximum principle.
#[derive(Debug, Clone)]
pub struct VolResult {
    /// Steps, convergence, cancellation and per-step telemetry.
    pub run: DiffusionResult,
    /// The final plane-major density field of the job's region — the
    /// router stitches slab cores out of these.
    pub field: Vec<f64>,
}

impl std::ops::Deref for VolResult {
    type Target = DiffusionResult;

    fn deref(&self) -> &DiffusionResult {
        &self.run
    }
}

/// Volumetric global diffusion: the planar Algorithm 1 with a tier axis.
///
/// It runs the same stride loop as [`GlobalDiffusion`](crate::GlobalDiffusion)
/// on a `D3` engine: compute the velocity field, advect every movable
/// cell trilinearly (serial, netlist order — deterministic at any thread
/// count), step the density by FTCS (the `Δt·ndim ≤ 1` stability bound
/// holds for the default `Δt = 0.2`), and stop when the maximum live
/// density reaches `d_max + Δ`. Only the schedule differs: FTCS steps
/// one sweep per advect, and under
/// [`SolverKind::Spectral`](crate::SolverKind) a wall-free stack jumps
/// through a volumetric [`SpectralSolver`](crate::SpectralSolver) with
/// the planar runner's doubling strides. A job with
/// [`VolJobSpec::exact_steps`] steps FTCS exactly that many times under
/// either solver and never tests convergence.
///
/// # Examples
///
/// ```
/// use dpm_geom::Point;
/// use dpm_netlist::{NetlistBuilder, CellKind};
/// use dpm_place::Die;
/// use dpm_diffusion::{DiffusionConfig, VolPlacement, VolumetricDiffusion};
///
/// // 24 cells piled into one bin of the middle tier of a 3-tier stack.
/// let mut b = NetlistBuilder::new();
/// for i in 0..24 {
///     b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::Movable);
/// }
/// let nl = b.build()?;
/// let die = Die::new(96.0, 96.0, 12.0);
/// let mut vp = VolPlacement::new(nl.num_cells());
/// for (i, c) in nl.cell_ids().enumerate() {
///     let dx = (i % 4) as f64 * 2.5;
///     let dy = (i / 4) as f64 * 2.0;
///     vp.set(c, Point::new(36.0 + dx, 36.0 + dy), 1.5);
/// }
/// let cfg = DiffusionConfig::default().with_bin_size(24.0);
/// let result = VolumetricDiffusion::new(cfg, 3).run(&nl, &die, &mut vp);
/// assert!(result.converged);
/// # Ok::<(), dpm_netlist::BuildNetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct VolumetricDiffusion {
    cfg: DiffusionConfig,
    nz: usize,
}

impl VolumetricDiffusion {
    /// A volumetric runner over an `nz`-tier stack.
    ///
    /// # Panics
    ///
    /// Panics if `nz` is zero.
    pub fn new(cfg: DiffusionConfig, nz: usize) -> Self {
        assert!(nz > 0, "a volumetric stack needs at least one tier");
        Self { cfg, nz }
    }

    /// The configuration this runner uses.
    pub fn config(&self) -> &DiffusionConfig {
        &self.cfg
    }

    /// Number of tiers in the stack.
    pub fn layers(&self) -> usize {
        self.nz
    }

    /// Runs volumetric diffusion over the full stack, mutating
    /// `placement` in place.
    pub fn run(&self, netlist: &Netlist, die: &Die, placement: &mut VolPlacement) -> VolResult {
        let job = VolJobSpec::full(self.nz);
        self.run_job_observed(&job, netlist, die, placement, &|| false, &mut NoopObserver)
    }

    /// Runs one volumetric job — the full entry point the z-slab router
    /// uses. `job.nz` overrides the runner's tier count (a slab region
    /// is shorter than the stack); positions in `placement` are global
    /// and only the job's cells should be present in `netlist`.
    ///
    /// `should_stop` is polled before each step; once it returns `true`
    /// the run stops with [`DiffusionResult::cancelled`] set. The observer sees
    /// every step ([`DiffusionObserver::on_step`], round 1, the planar
    /// half of the placement) and every timed kernel invocation
    /// ([`DiffusionObserver::on_kernel`]). Observers are read-only
    /// witnesses, so the result is bit-identical with or without one.
    ///
    /// # Panics
    ///
    /// Panics if a supplied [`VolJobSpec::field`] does not match the
    /// region size, or `placement` does not cover the netlist.
    pub fn run_job_observed(
        &self,
        job: &VolJobSpec,
        netlist: &Netlist,
        die: &Die,
        placement: &mut VolPlacement,
        should_stop: &dyn Fn() -> bool,
        observer: &mut dyn DiffusionObserver,
    ) -> VolResult {
        assert_eq!(
            placement.z.len(),
            netlist.num_cells(),
            "volumetric placement does not cover the netlist"
        );
        let grid = BinGrid::new(die.outline(), self.cfg.bin_size);
        // The splat and the advect are serial loops: they bill 1 thread.
        let (mut engine, splat_elapsed) = lap(|| {
            let (density, wall) = match &job.field {
                Some(f) => {
                    assert_eq!(
                        f.len(),
                        grid.len() * job.nz,
                        "raw field does not match the job region"
                    );
                    // Macros are planar, so only the region's tier count
                    // shapes the wall mask.
                    (
                        f.clone(),
                        volume_wall_mask(netlist, &placement.xy, &grid, job.nz),
                    )
                }
                // Depths are global; the splat offsets them to the region.
                None => splat_region(netlist, placement, job.z0, &grid, job.nz),
            };
            DiffusionEngine::from_raw_3d(grid.nx(), grid.ny(), job.nz, density, Some(wall))
        });
        // A shipped-in field was splatted and manipulated by the router.
        engine.set_up(&self.cfg, self.cfg.manipulate && job.field.is_none());
        let mut rec = RunRecorder::new(observer, engine.threads());
        rec.record(KernelKind::Splat, splat_elapsed, 1, 1);

        // An exact step count is a field continuation: it sweeps FTCS one
        // step at a time and leaves convergence to the router. Otherwise
        // the FTCS stack steps 1:1 and the spectral jump strides like
        // global diffusion.
        let strides = StrideLoop {
            cap: job.exact_steps.unwrap_or(self.cfg.max_steps),
            doubling: false,
            converge: job.exact_steps.is_none(),
            should_stop,
        };
        let advect = Advect::Volumetric(placement, job);
        let run = strides.run(&mut engine, rec, &self.cfg, netlist, &grid, advect);
        VolResult {
            run,
            field: engine.densities().to_vec(),
        }
    }
}

/// Moves every movable cell one step along the volumetric velocity
/// field — the tier-axis extension of the planar advection (Eq. 7),
/// rule-for-rule:
///
/// 1. cells whose center bin is a wall do not move;
/// 2. the displacement is clamped per-axis to
///    [`DiffusionConfig::max_step_displacement`];
/// 3. x/y clamp the cell outline into the region, z clamps the center
///    to `[0.5, global_nz − 0.5]` (cells are one tier deep) — a cell
///    may leave its slab, never the stack;
/// 4. a move into a wall is projected axis-wise, x first, then y, then
///    z (walls are through-stack, so the z projection succeeds whenever
///    the cell's own column is clear).
///
/// The loop is serial in netlist order over the job's [`CellCache`]:
/// each step depends only on the cell's own position and the fixed
/// field, so results are deterministic at any thread count by
/// construction.
pub(crate) fn advect_cells3(
    engine: &DiffusionEngine,
    grid: &BinGrid,
    cells: &CellCache,
    placement: &mut VolPlacement,
    cfg: &DiffusionConfig,
    z0: usize,
    global_nz: usize,
) -> AdvectOutcome {
    let nx = engine.nx() as f64;
    let ny = engine.ny() as f64;
    let gz = global_nz as f64;
    let mut outcome = AdvectOutcome::default();
    for cell in cells.cells() {
        let cell_id = cell.id;
        let old_pos = placement.xy.get(cell_id);
        let old_z = placement.z[cell_id.index()];
        let center = Point::new(old_pos.x + cell.half_w, old_pos.y + cell.half_h);
        let c = grid.to_bin_coords(center);
        let zl = old_z - z0 as f64;
        let (j, k, t) = bin3_of(c.x, c.y, zl, engine);
        if engine.is_wall3(j, k, t) {
            continue;
        }
        let v = if cfg.interpolate {
            engine.velocity_at3(Point3::new(c.x, c.y, zl))
        } else {
            engine.bin_velocity3(j, k, t)
        };
        let disp = (v * cfg.dt).clamped_linf(cfg.max_step_displacement);
        if disp.linf_length() == 0.0 {
            continue;
        }
        let mut tx = clamp_extent(c.x + disp.x, cell.half_w_bins, nx);
        let mut ty = clamp_extent(c.y + disp.y, cell.half_h_bins, ny);
        // z stays global; clamp against the full stack.
        let mut tz = clamp_extent(old_z + disp.z, 0.5, gz);
        let (tj, tk, tt) = bin3_of(tx, ty, tz - z0 as f64, engine);
        if engine.is_wall3(tj, tk, tt) {
            let (xj, xk, xt) = bin3_of(tx, c.y, zl, engine);
            let (yj, yk, yt) = bin3_of(c.x, ty, zl, engine);
            let (zj, zk, zt) = bin3_of(c.x, c.y, tz - z0 as f64, engine);
            if !engine.is_wall3(xj, xk, xt) {
                ty = c.y;
                tz = old_z;
            } else if !engine.is_wall3(yj, yk, yt) {
                tx = c.x;
                tz = old_z;
            } else if !engine.is_wall3(zj, zk, zt) {
                tx = c.x;
                ty = c.y;
            } else {
                continue;
            }
        }
        let new_center = grid.to_world_coords(Point::new(tx, ty));
        let new_pos = Point::new(new_center.x - cell.half_w, new_center.y - cell.half_h);
        // Movement mixes units deliberately: world distance in-plane
        // plus tier count along z (tiers have no world pitch).
        let dist = move_length(new_pos - old_pos) + (tz - old_z).abs();
        if dist > 0.0 {
            placement.xy.set(cell_id, new_pos);
            placement.z[cell_id.index()] = tz;
            outcome.total_movement += dist;
            outcome.moved_cells += 1;
        }
    }
    outcome
}

/// The (clamped) region-local bin containing a point: x/y in bin
/// coordinates, z in region-local tier units.
fn bin3_of(x: f64, y: f64, zl: f64, engine: &DiffusionEngine) -> (usize, usize, usize) {
    (
        floor_index(x, engine.nx()),
        floor_index(y, engine.ny()),
        floor_index(zl, engine.nz()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::env_config;
    use crate::{manipulate_density, SolverKind};
    use dpm_geom::{Rect, Vector3};
    use dpm_netlist::{CellKind, NetlistBuilder};
    use dpm_place::BinIdx;

    /// `splat_volume` as it stood before the shared `splat_rect` kernel:
    /// one `bin_rect` overlap per bin. Kept verbatim as the oracle the
    /// splat must match bit for bit.
    fn splat_volume_reference(
        netlist: &Netlist,
        placement: &VolPlacement,
        grid: &BinGrid,
        nz: usize,
    ) -> (Vec<f64>, Vec<bool>) {
        let nxy = grid.len();
        let mut density = vec![0.0; nxy * nz];
        let mut wall = vec![false; nxy * nz];
        let bin_area = grid.bin_area();
        for cell in netlist.macro_ids() {
            let r = placement.xy.cell_rect(netlist, cell);
            let Some((lo, hi)) = grid.bins_overlapping(&r) else {
                continue;
            };
            for k in lo.k..=hi.k {
                for j in lo.j..=hi.j {
                    let idx = BinIdx::new(j, k);
                    let f = grid.flat(idx);
                    let cover = grid.bin_rect(idx).overlap_area(&r) / bin_area;
                    if cover >= DensityMap::FIXED_COVER_THRESHOLD {
                        for z in 0..nz {
                            wall[z * nxy + f] = true;
                            density[z * nxy + f] = 1.0;
                        }
                    } else {
                        for z in 0..nz {
                            density[z * nxy + f] += cover;
                        }
                    }
                }
            }
        }
        for c in netlist.cell_ids() {
            if netlist.cell(c).kind != CellKind::Movable {
                continue;
            }
            let r = placement.xy.cell_rect(netlist, c);
            let Some((lo, hi)) = grid.bins_overlapping(&r) else {
                continue;
            };
            let plane = placement.tier(c, nz) * nxy;
            for k in lo.k..=hi.k {
                for j in lo.j..=hi.j {
                    let idx = BinIdx::new(j, k);
                    density[plane + grid.flat(idx)] +=
                        grid.bin_rect(idx).overlap_area(&r) / bin_area;
                }
            }
        }
        (density, wall)
    }

    #[test]
    fn splat_volume_matches_the_per_bin_oracle_bit_for_bit() {
        let mut rng = dpm_rng::Rng::seed_from_u64(0x501A7);
        for trial in 0..60 {
            let (nx, ny, nz) = (
                rng.random_range(1..14usize),
                rng.random_range(1..14usize),
                rng.random_range(1..5usize),
            );
            let (bw, bh) = (rng.random_range(2.0..9.0), rng.random_range(2.0..9.0));
            let grid =
                BinGrid::with_counts(Rect::new(0.0, 0.0, nx as f64 * bw, ny as f64 * bh), nx, ny);
            let mut b = NetlistBuilder::new();
            let mut at = Vec::new();
            for i in 0..rng.random_range(0..250usize) {
                let (kind, w, h) = match rng.random_range(0..10u32) {
                    0 => (
                        CellKind::FixedMacro,
                        rng.random_range(1.0..20.0),
                        rng.random_range(1.0..20.0),
                    ),
                    1 => (CellKind::Pad, 1.0, 1.0),
                    2 => (CellKind::Movable, 12.0 * bw, rng.random_range(0.5..4.0)),
                    _ => (
                        CellKind::Movable,
                        rng.random_range(0.1..12.0),
                        rng.random_range(0.1..12.0),
                    ),
                };
                b.add_cell(format!("c{i}"), w, h, kind);
                at.push((
                    Point::new(
                        rng.random_range(-w - bw..nx as f64 * bw + bw),
                        rng.random_range(-h - bh..ny as f64 * bh + bh),
                    ),
                    rng.random_range(-0.5..nz as f64 + 0.5),
                ));
            }
            let nl = b.build().expect("valid");
            let mut vp = VolPlacement::new(nl.num_cells());
            for (c, &(xy, z)) in nl.cell_ids().zip(&at) {
                vp.set(c, xy, z);
            }
            let (d, w) = splat_volume(&nl, &vp, &grid, nz);
            let (rd, rw) = splat_volume_reference(&nl, &vp, &grid, nz);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&d), bits(&rd), "trial {trial}");
            assert_eq!(w, rw, "trial {trial}");
            assert_eq!(volume_wall_mask(&nl, &vp.xy, &grid, nz), w, "trial {trial}");
            // A region at tier z0 of a taller stack splats the global
            // depths as the region-local copy a job used to build.
            let z0 = rng.random_range(1..4usize);
            let global = VolPlacement {
                xy: vp.xy.clone(),
                z: vp.z.iter().map(|&z| z + z0 as f64).collect(),
            };
            let local = VolPlacement {
                xy: vp.xy.clone(),
                z: global.z.iter().map(|&z| z - z0 as f64).collect(),
            };
            let (gd, gw) = splat_region(&nl, &global, z0, &grid, nz);
            let (ld, lw) = splat_volume(&nl, &local, &grid, nz);
            assert_eq!(bits(&gd), bits(&ld), "trial {trial} z0 {z0}");
            assert_eq!(gw, lw, "trial {trial} z0 {z0}");
        }
    }

    /// `n` movable cells piled near `at` in tier `tier` of a 96×96 die.
    fn pile(n: usize, at: Point, tier: usize) -> (Netlist, Die, VolPlacement) {
        let mut b = NetlistBuilder::new();
        for i in 0..n {
            b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::Movable);
        }
        let nl = b.build().expect("valid");
        let die = Die::new(96.0, 96.0, 12.0);
        let mut vp = VolPlacement::new(nl.num_cells());
        for (i, c) in nl.cell_ids().enumerate() {
            let dx = (i % 4) as f64 * 2.5;
            let dy = (i / 4) as f64 * 2.0;
            vp.set(c, Point::new(at.x + dx, at.y + dy), tier as f64 + 0.5);
        }
        (nl, die, vp)
    }

    fn cfg() -> DiffusionConfig {
        env_config().with_bin_size(24.0)
    }

    #[test]
    fn hotspot_converges_and_uses_the_z_axis() {
        // A z-asymmetric pile: two thirds in tier 1, one third in
        // tier 0 — asymmetry is what gives the interior tier a nonzero
        // z-velocity (a perfectly symmetric middle-tier spike sits at a
        // zero of the z-gradient and can only spread in-plane).
        let mut b = NetlistBuilder::new();
        for i in 0..48 {
            b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::Movable);
        }
        let nl = b.build().expect("valid");
        let die = Die::new(96.0, 96.0, 12.0);
        let mut vp = VolPlacement::new(nl.num_cells());
        for (i, c) in nl.cell_ids().enumerate() {
            let dx = (i % 4) as f64 * 2.5;
            let dy = (i / 4) as f64 * 2.0;
            // One cohort rests just under the tier-0/1 boundary: the
            // upward z-drift away from the overfull lower tiers must
            // carry it across.
            let z = if i % 3 == 0 {
                0.7
            } else {
                0.95 + (i % 2) as f64 * 0.35
            };
            vp.set(c, Point::new(36.0 + dx, 36.0 + dy), z);
        }
        let start_tiers: Vec<usize> = nl.cell_ids().map(|c| vp.tier(c, 3)).collect();
        let r = VolumetricDiffusion::new(cfg().with_delta(0.05), 3).run(&nl, &die, &mut vp);
        assert!(r.converged, "did not converge in {} steps", r.steps);
        assert!(r.steps > 0);
        // Some cells must have changed tier — the z axis is a real
        // relief valve, not dead weight.
        let moved_tiers = nl
            .cell_ids()
            .enumerate()
            .filter(|&(i, c)| vp.tier(c, 3) != start_tiers[i])
            .count();
        assert!(moved_tiers > 0, "no cell changed tier");
        // And every depth stays inside the stack.
        for &z in &vp.z {
            assert!((0.5..=2.5).contains(&z), "depth escaped the stack: {z}");
        }
    }

    #[test]
    fn max_density_trace_is_monotone_nonincreasing() {
        // The FTCS update with dt·ndim ≤ 1 is a convex combination —
        // the discrete maximum principle. The trace must never rise.
        let (nl, die, mut vp) = pile(48, Point::new(36.0, 36.0), 1);
        let r = VolumetricDiffusion::new(cfg(), 3).run(&nl, &die, &mut vp);
        let trace: Vec<f64> = r
            .telemetry
            .records()
            .iter()
            .map(|s| s.max_density)
            .collect();
        assert!(trace.len() >= 2);
        for w in trace.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-12,
                "max density rose: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn raw_field_full_stack_job_is_bit_identical_to_direct_run() {
        // The K=1 router path: splat + manipulate globally, ship the
        // field raw. Must be float-for-float the direct run.
        let (nl, die, mut direct) = pile(48, Point::new(36.0, 36.0), 1);
        let runner = VolumetricDiffusion::new(cfg(), 3);
        let r1 = runner.run(&nl, &die, &mut direct);

        let (_, _, mut via_field) = pile(48, Point::new(36.0, 36.0), 1);
        let grid = BinGrid::new(die.outline(), cfg().bin_size);
        let (mut density, wall) = splat_volume(&nl, &via_field, &grid, 3);
        manipulate_density(&mut density, Some(&wall), cfg().d_max);
        let job = VolJobSpec {
            field: Some(density),
            ..VolJobSpec::full(3)
        };
        let r2 = runner.run_job_observed(
            &job,
            &nl,
            &die,
            &mut via_field,
            &|| false,
            &mut NoopObserver,
        );

        assert_eq!(r1.steps, r2.steps);
        assert_eq!(r1.converged, r2.converged);
        assert_eq!(direct, via_field, "raw-field run must be bit-identical");
        assert_eq!(r1.field, r2.field);
    }

    #[test]
    fn chained_exact_steps_reproduce_a_direct_run() {
        // The K>1 round loop in miniature: one slab covering the whole
        // stack, one exact step per round, field re-fed between rounds.
        // The chaining contract is FTCS-only (a spectral run is not a
        // pure function of the current field), which is why the z-slab
        // router refuses spectral — pin the solver against DPM_SOLVER.
        let (nl, die, mut direct) = pile(48, Point::new(36.0, 36.0), 1);
        let runner = VolumetricDiffusion::new(cfg().with_solver(SolverKind::Ftcs), 3);
        let r_direct = runner.run(&nl, &die, &mut direct);
        assert!(r_direct.steps >= 2, "need a multi-step run to chain");

        let (_, _, mut chained) = pile(48, Point::new(36.0, 36.0), 1);
        let grid = BinGrid::new(die.outline(), cfg().bin_size);
        let (mut field, wall) = splat_volume(&nl, &chained, &grid, 3);
        manipulate_density(&mut field, Some(&wall), cfg().d_max);
        for _ in 0..r_direct.steps {
            let job = VolJobSpec {
                field: Some(field.clone()),
                exact_steps: Some(1),
                ..VolJobSpec::full(3)
            };
            let r = runner.run_job_observed(
                &job,
                &nl,
                &die,
                &mut chained,
                &|| false,
                &mut NoopObserver,
            );
            assert_eq!(r.steps, 1);
            field = r.field;
        }
        assert_eq!(direct, chained, "chained rounds must be bit-identical");
        assert_eq!(field, r_direct.field);
    }

    #[test]
    fn through_stack_macro_blocks_every_tier() {
        let mut b = NetlistBuilder::new();
        let m = b.add_cell("blk", 24.0, 48.0, CellKind::FixedMacro);
        for i in 0..30 {
            b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::Movable);
        }
        let nl = b.build().expect("valid");
        let die = Die::new(96.0, 96.0, 12.0);
        let mut vp = VolPlacement::new(nl.num_cells());
        vp.set(m, Point::new(48.0, 24.0), 1.5);
        for (i, c) in nl.movable_cell_ids().enumerate() {
            let dx = (i % 3) as f64 * 4.0;
            let dy = (i / 3) as f64 * 1.5;
            // Pile next to the macro, concentrated in tier 0 so the
            // density actually overflows (a third per tier would not).
            vp.set(c, Point::new(28.0 + dx, 30.0 + dy), 0.5);
        }
        let grid = BinGrid::new(die.outline(), 24.0);
        let (_, wall) = splat_volume(&nl, &vp, &grid, 3);
        let nxy = grid.len();
        let walls_per_tier: Vec<usize> = (0..3)
            .map(|z| wall[z * nxy..(z + 1) * nxy].iter().filter(|&&w| w).count())
            .collect();
        assert!(walls_per_tier[0] > 0, "macro raised no walls");
        assert_eq!(walls_per_tier[0], walls_per_tier[1]);
        assert_eq!(walls_per_tier[1], walls_per_tier[2]);

        let r = VolumetricDiffusion::new(cfg(), 3).run(&nl, &die, &mut vp);
        assert!(r.steps > 0);
        // No movable cell center may end inside the macro column, in
        // any tier.
        let macro_rect = vp.xy.cell_rect(&nl, m);
        for c in nl.movable_cell_ids() {
            let center = vp.xy.cell_center(&nl, c);
            assert!(
                !macro_rect.contains(center)
                    || (center.x - macro_rect.llx).abs() < 1e-9
                    || (macro_rect.urx - center.x).abs() < 1e-9,
                "cell {c} center {center} inside the macro column"
            );
        }
    }

    #[test]
    fn spectral_stack_converges_faster_and_matches_ftcs_legality() {
        let (nl, die, mut p_ftcs) = pile(48, Point::new(36.0, 36.0), 1);
        let ftcs = VolumetricDiffusion::new(cfg().with_solver(SolverKind::Ftcs), 3).run(
            &nl,
            &die,
            &mut p_ftcs,
        );
        let (_, _, mut p_spec) = pile(48, Point::new(36.0, 36.0), 1);
        let spec = VolumetricDiffusion::new(cfg().with_solver(SolverKind::Spectral), 3).run(
            &nl,
            &die,
            &mut p_spec,
        );
        assert!(spec.converged, "spectral stuck after {} iters", spec.steps);
        assert!(
            spec.steps < ftcs.steps,
            "spectral iterations ({}) should undercut FTCS steps ({})",
            spec.steps,
            ftcs.steps
        );
    }

    #[test]
    fn cancellation_stops_mid_run() {
        use std::cell::Cell;
        let (nl, die, mut p_ref) = pile(48, Point::new(36.0, 36.0), 1);
        let runner = VolumetricDiffusion::new(cfg(), 3);
        let full = runner.run(&nl, &die, &mut p_ref);
        assert!(full.steps > 2, "workload too small to cancel mid-run");
        let (_, _, mut vp) = pile(48, Point::new(36.0, 36.0), 1);
        let budget = Cell::new(2usize);
        let stop = || {
            if budget.get() == 0 {
                true
            } else {
                budget.set(budget.get() - 1);
                false
            }
        };
        let job = VolJobSpec::full(3);
        let r = runner.run_job_observed(&job, &nl, &die, &mut vp, &stop, &mut NoopObserver);
        assert!(r.cancelled);
        assert!(!r.converged);
        assert_eq!(r.steps, 2);
    }

    #[test]
    fn single_tier_stack_behaves_like_a_planar_problem() {
        // nz = 1: the z axis never sees a velocity and depths stay
        // pinned at the middle of the only tier.
        let (nl, die, mut vp) = pile(24, Point::new(36.0, 36.0), 0);
        let r = VolumetricDiffusion::new(cfg(), 1).run(&nl, &die, &mut vp);
        assert!(r.converged);
        for &z in &vp.z {
            assert_eq!(z, 0.5, "depth moved on a single-tier stack");
        }
    }

    /// [`advect_cells3`] as it stood before [`move_length`]: the xy
    /// distance is `hypot`. Kept as the oracle for positions and depths.
    fn advect_cells3_hypot(
        engine: &DiffusionEngine,
        grid: &BinGrid,
        cells: &CellCache,
        placement: &mut VolPlacement,
        cfg: &DiffusionConfig,
        z0: usize,
        global_nz: usize,
    ) -> AdvectOutcome {
        let nx = engine.nx() as f64;
        let ny = engine.ny() as f64;
        let gz = global_nz as f64;
        let mut outcome = AdvectOutcome::default();
        for cell in cells.cells() {
            let cell_id = cell.id;
            let old_pos = placement.xy.get(cell_id);
            let old_z = placement.z[cell_id.index()];
            let center = Point::new(old_pos.x + cell.half_w, old_pos.y + cell.half_h);
            let c = grid.to_bin_coords(center);
            let zl = old_z - z0 as f64;
            let (j, k, t) = bin3_of(c.x, c.y, zl, engine);
            if engine.is_wall3(j, k, t) {
                continue;
            }
            let v = if cfg.interpolate {
                engine.velocity_at3(Point3::new(c.x, c.y, zl))
            } else {
                engine.bin_velocity3(j, k, t)
            };
            let disp = (v * cfg.dt).clamped_linf(cfg.max_step_displacement);
            if disp.linf_length() == 0.0 {
                continue;
            }
            let mut tx = clamp_extent(c.x + disp.x, cell.half_w_bins, nx);
            let mut ty = clamp_extent(c.y + disp.y, cell.half_h_bins, ny);
            let mut tz = clamp_extent(old_z + disp.z, 0.5, gz);
            let (tj, tk, tt) = bin3_of(tx, ty, tz - z0 as f64, engine);
            if engine.is_wall3(tj, tk, tt) {
                let (xj, xk, xt) = bin3_of(tx, c.y, zl, engine);
                let (yj, yk, yt) = bin3_of(c.x, ty, zl, engine);
                let (zj, zk, zt) = bin3_of(c.x, c.y, tz - z0 as f64, engine);
                if !engine.is_wall3(xj, xk, xt) {
                    ty = c.y;
                    tz = old_z;
                } else if !engine.is_wall3(yj, yk, yt) {
                    tx = c.x;
                    tz = old_z;
                } else if !engine.is_wall3(zj, zk, zt) {
                    tx = c.x;
                    ty = c.y;
                } else {
                    continue;
                }
            }
            let new_center = grid.to_world_coords(Point::new(tx, ty));
            let new_pos = Point::new(new_center.x - cell.half_w, new_center.y - cell.half_h);
            let dist = (new_pos - old_pos).length() + (tz - old_z).abs();
            if dist > 0.0 {
                placement.xy.set(cell_id, new_pos);
                placement.z[cell_id.index()] = tz;
                outcome.total_movement += dist;
                outcome.moved_cells += 1;
            }
        }
        outcome
    }

    fn vol_bits(p: &VolPlacement) -> Vec<(u64, u64, u64)> {
        p.xy.as_slice()
            .iter()
            .zip(&p.z)
            .map(|(q, z)| (q.x.to_bits(), q.y.to_bits(), z.to_bits()))
            .collect()
    }

    /// Advects `p0` two steps with [`advect_cells3`] and with the `hypot`
    /// oracle: positions, depths and counts match bit for bit, movement
    /// to within rounding. Returns the kernel's placement and outcomes.
    fn assert_vol_steps_match_hypot(
        engine: &DiffusionEngine,
        grid: &BinGrid,
        nl: &Netlist,
        p0: &VolPlacement,
        cfg: &DiffusionConfig,
        (z0, global_nz): (usize, usize),
    ) -> (VolPlacement, Vec<AdvectOutcome>) {
        let cells = CellCache::new(nl, grid);
        let (mut got, mut want) = (p0.clone(), p0.clone());
        let mut outcomes = Vec::new();
        for step in 0..2 {
            let out = advect_cells3(engine, grid, &cells, &mut got, cfg, z0, global_nz);
            let want_out = advect_cells3_hypot(engine, grid, &cells, &mut want, cfg, z0, global_nz);
            let ctx = format!("step {step} z0 {z0} global_nz {global_nz}");
            assert_eq!(vol_bits(&got), vol_bits(&want), "{ctx}");
            assert_eq!(out.moved_cells, want_out.moved_cells, "{ctx}");
            let (got_m, want_m) = (out.total_movement, want_out.total_movement);
            assert!(
                (got_m - want_m).abs() <= 1e-12 * want_m.abs(),
                "{ctx}: movement {got_m} vs oracle {want_m}"
            );
            outcomes.push(out);
        }
        (got, outcomes)
    }

    #[test]
    fn vol_advect_keeps_every_position_and_depth_of_the_hypot_kernel() {
        // A bumpy 8x8x3 slab with a through-stack wall block and a wall
        // in the middle tier only, at large steps: cells project around
        // walls, drift across tiers and clamp against the region and
        // both stack faces — with the slab spanning a 3-tier stack and
        // in the middle of a 5-tier one. A quarter of the depths start
        // on or beyond a stack face.
        let mut rng = dpm_rng::Rng::seed_from_u64(0x0007_013d);
        let (nx, ny, nz) = (8usize, 8usize, 3usize);
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 96.0, 96.0), 12.0);
        let mut b = NetlistBuilder::new();
        for i in 0..600 {
            b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::Movable);
        }
        let nl = b.build().expect("valid");
        let density: Vec<f64> = (0..nx * ny * nz)
            .map(|_| rng.random_range(0.0..2.0))
            .collect();
        let mut wall = vec![false; nx * ny * nz];
        for t in 0..nz {
            for k in 2..4 {
                for j in 3..5 {
                    wall[(t * ny + k) * nx + j] = true;
                }
            }
        }
        wall[(ny + 6) * nx + 1] = true;
        let mut engine = DiffusionEngine::from_raw_3d(nx, ny, nz, density, Some(wall));
        engine.compute_velocities();
        for (z0, global_nz) in [(0, 3), (1, 5)] {
            let top = global_nz as f64;
            let mut p0 = VolPlacement::new(nl.num_cells());
            for c in nl.cell_ids() {
                let xy = Point::new(rng.random_range(-3.0..93.0), rng.random_range(-3.0..87.0));
                let z = match rng.random_range(0..16u32) {
                    0 => 0.5,
                    1 => top - 0.5,
                    2 => rng.random_range(0.0..0.5),
                    3 => rng.random_range(top - 0.5..top),
                    _ => rng.random_range(z0 as f64..(z0 + nz) as f64),
                };
                p0.set(c, xy, z);
            }
            for interpolate in [true, false] {
                let cfg = DiffusionConfig {
                    interpolate,
                    dt: 3.0,
                    ..DiffusionConfig::default()
                };
                let (got, _) =
                    assert_vol_steps_match_hypot(&engine, &grid, &nl, &p0, &cfg, (z0, global_nz));
                let z_moves: Vec<(f64, f64)> =
                    p0.z.iter()
                        .zip(&got.z)
                        .filter(|&(a, b)| a != b)
                        .map(|(&a, &b)| (a, b))
                        .collect();
                assert!(
                    z_moves.iter().any(|&(_, b)| b == 0.5 || b == top - 0.5),
                    "no depth clamped to a stack face"
                );
                assert!(
                    z_moves.iter().any(|&(a, _)| a > 0.5 && a < top - 0.5),
                    "no cell drifted across tiers"
                );
            }
        }

        // Moves whose squares underflow: the xy distance falls back to
        // `hypot`, so each cell still moves and is counted.
        let mut engine = DiffusionEngine::from_raw_3d(nx, ny, nz, vec![1.0; nx * ny * nz], None);
        for t in 0..nz {
            for k in 0..ny {
                for j in 0..nx {
                    engine.set_bin_velocity3(j, k, t, Vector3::new(1e-20, 0.0, 0.0));
                }
            }
        }
        let xs = [1e-160, 1e-170, 1e-300];
        let mut p0 = VolPlacement::new(nl.num_cells());
        for (c, &x) in nl.cell_ids().zip(xs.iter().cycle()) {
            p0.set(c, Point::new(x, 30.0), 1.5);
        }
        let (got, outcomes) = assert_vol_steps_match_hypot(
            &engine,
            &grid,
            &nl,
            &p0,
            &DiffusionConfig::default(),
            (0, 3),
        );
        assert_eq!(outcomes[0].moved_cells, nl.num_cells());
        assert!(got.xy.as_slice().iter().all(|q| q.x == 0.0));
        assert!(got.z.iter().all(|&z| z == 1.5));
    }
}
