//! The discrete diffusion engine: FTCS density evolution and per-axis
//! velocities over a wall-aware bin grid, planar ([`Dims::D2`]) or
//! volumetric ([`Dims::D3`]).

use crate::config::{FieldPrecision, LaneMode};
use crate::dims::Dims;
use crate::telemetry::KernelTimers;
use crate::velocity::interpolate_velocity;
use dpm_geom::{floor, Point, Point3, Vector, Vector3};
use dpm_par::{
    blocked_lines, parallel_for_chunks, parallel_for_chunks2, parallel_for_chunks3, ThreadPool,
    CACHE_BLOCK_BYTES,
};
use dpm_place::DensityMap;
use std::time::Instant;

/// Density below which a bin is considered empty for velocity purposes
/// (guards the division in Eq. 5).
const DENSITY_FLOOR: f64 = 1e-9;

/// Explicit lane width of the lane runs: 4 bins per chunk (one
/// 32-byte vector register / half a cache line).
const LANES: usize = 4;

/// Discrete diffusion simulator over a [`Dims`] bin grid.
///
/// The engine holds the evolving density field `d(n)`, a *wall* mask
/// (bins covered by fixed macros or outside the image — density never
/// updates, velocity is zero, cells may not enter), and a *frozen* mask
/// (bins excluded from the current local-diffusion window — treated like
/// walls for the duration of a round, per Algorithm 2).
///
/// Coordinates are bin coordinates: bin `(j, k)` spans
/// `[j, j+1) × [k, k+1)` with its center at `(j+0.5, k+0.5)`; on a
/// volumetric grid tier `z` spans `[z, z+1)` the same way. The kernels
/// are written per axis, so a [`Dims::D3`] grid simply diffuses along
/// three axes; on a [`Dims::D2`] grid the z axis does not exist and the
/// arithmetic is bit-identical to the historical planar engine.
///
/// # Examples
///
/// The worked example of the paper's Fig. 1: with `Δt = 0.2`, a bin at
/// density 1.0 whose neighbors hold 1.4/0.4 horizontally and 1.6/0.4
/// vertically steps to 0.98 and gets velocity `(0.5, 0.6)`:
///
/// ```
/// use dpm_diffusion::DiffusionEngine;
///
/// let mut d = vec![1.0; 16]; // 4×4 grid
/// let at = |j: usize, k: usize| k * 4 + j;
/// d[at(1, 1)] = 1.0;
/// d[at(0, 1)] = 1.4;
/// d[at(2, 1)] = 0.4;
/// d[at(1, 0)] = 1.6;
/// d[at(1, 2)] = 0.4;
/// let mut e = DiffusionEngine::from_raw(4, 4, d, None);
///
/// e.compute_velocities();
/// let v = e.bin_velocity(1, 1);
/// assert!((v.x - 0.5).abs() < 1e-12);
/// assert!((v.y - 0.6).abs() < 1e-12);
///
/// e.step_density(0.2);
/// assert!((e.density(1, 1) - 0.98).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct DiffusionEngine {
    dims: Dims,
    density: Vec<f64>,
    next: Vec<f64>,
    wall: Vec<bool>,
    frozen: Vec<bool>,
    /// Per-axis velocity buffers; `vel[2]` is empty on a planar grid.
    vel: [Vec<f64>; 3],
    /// Per-bin lane eligibility, refreshed on every wall/frozen
    /// mutation: the bin is strictly interior and its whole stencil
    /// neighborhood (itself plus 2·ndim neighbors) is live, so its
    /// update reduces to plain neighbor reads under both boundary rules.
    /// The kernels lane-process each line's runs of such bins.
    fast_bin: Vec<bool>,
    conservative: bool,
    pool: ThreadPool,
    timers: KernelTimers,
}

/// Immutable view of the density field and masks, shared by the serial
/// and parallel kernel paths so their arithmetic cannot diverge.
#[derive(Clone, Copy)]
struct FieldView<'a> {
    dims: Dims,
    density: &'a [f64],
    wall: &'a [bool],
    frozen: &'a [bool],
    fast_bin: &'a [bool],
    conservative: bool,
}

impl FieldView<'_> {
    /// Flat index of the neighbor of bin `idx = [j, k, z]` one step in
    /// direction `dir` along `axis`, if it exists and is live.
    #[inline]
    fn live_neighbor(&self, idx: [usize; 3], axis: usize, dir: isize) -> Option<usize> {
        let n = [self.dims.nx(), self.dims.ny(), self.dims.nz()];
        let c = idx[axis] as isize + dir;
        if c < 0 || c >= n[axis] as isize {
            return None;
        }
        let mut q = idx;
        q[axis] = c as usize;
        let i = self.dims.flat(q[0], q[1], q[2]);
        if self.wall[i] || self.frozen[i] {
            None
        } else {
            Some(i)
        }
    }

    /// Density of the neighbor of `idx` along `axis` in direction `dir`,
    /// with the paper's mirror boundary rule: if the neighbor is outside
    /// the grid, a wall, or frozen, the *opposite* neighbor's density is
    /// used (and the bin's own density if that is unavailable too), which
    /// makes the normal gradient zero.
    fn neighbor_density(&self, idx: [usize; 3], axis: usize, dir: isize) -> f64 {
        match self.live_neighbor(idx, axis, dir) {
            Some(i) => self.density[i],
            None => match self.live_neighbor(idx, axis, -dir) {
                Some(i) => self.density[i],
                None => self.density[self.dims.flat(idx[0], idx[1], idx[2])],
            },
        }
    }

    /// Like [`neighbor_density`](Self::neighbor_density) but with the
    /// conservative ghost (`d_ghost = d_center`) when enabled. Used only
    /// by the density step; velocities always use the mirror rule so the
    /// component normal to a boundary is exactly zero.
    fn neighbor_density_for_step(&self, idx: [usize; 3], axis: usize, dir: isize) -> f64 {
        if self.conservative {
            match self.live_neighbor(idx, axis, dir) {
                Some(i) => self.density[i],
                None => self.density[self.dims.flat(idx[0], idx[1], idx[2])],
            }
        } else {
            self.neighbor_density(idx, axis, dir)
        }
    }

    /// Walks x-major lines `l0..l1` as maximal runs of lane-eligible
    /// bins and single bins outside them, calling `f(i, idx, o, m)` once
    /// per span: `i` is the flat index of its first bin, `idx` that
    /// bin's `[j, k, z]`, `o` its offset into the lines' output, and `m`
    /// the run length, or 0 for one bin that needs the generic path.
    ///
    /// Every bin of a run is strictly interior with a live stencil,
    /// where the mirror and conservative boundary rules reduce to plain
    /// neighbor reads, so a run's lane body computes the generic path's
    /// bits. Edge columns are never lane-eligible, so runs stay within
    /// one line; a wholly-live interior line is one run from column 1
    /// to `nx − 2`.
    #[inline]
    fn for_each_span(
        &self,
        l0: usize,
        l1: usize,
        mut f: impl FnMut(usize, [usize; 3], usize, usize),
    ) {
        let nx = self.dims.nx();
        let ny = self.dims.ny();
        for l in l0..l1 {
            let row = l * nx;
            let fast = &self.fast_bin[row..row + nx];
            let mut j = 0;
            while j < nx {
                let m = fast[j..].iter().take_while(|&&b| b).count();
                f(row + j, [j, l % ny, l / ny], (l - l0) * nx + j, m);
                j += m.max(1);
            }
        }
    }

    /// One bin of the velocity field through the generic (boundary-aware)
    /// path, written into `out[axis][o]`.
    #[inline]
    fn velocity_bin(&self, i: usize, idx: [usize; 3], out: &mut [&mut [f64]], o: usize) {
        if self.wall[i] || self.frozen[i] {
            for v in out.iter_mut() {
                v[o] = 0.0;
            }
            return;
        }
        let d = self.density[i];
        if d <= DENSITY_FLOOR {
            for v in out.iter_mut() {
                v[o] = 0.0;
            }
            return;
        }
        for (axis, v) in out.iter_mut().enumerate() {
            let dp = self.neighbor_density(idx, axis, 1);
            let dm = self.neighbor_density(idx, axis, -1);
            v[o] = -(dp - dm) / (2.0 * d);
        }
    }

    /// Velocity (Eq. 5) of the `m` lane-eligible bins starting at flat
    /// index `i`, written into `out[axis][o..o + m]`: zipped lane-wide
    /// chunks per axis plus a scalar tail, each bin computed exactly as
    /// `velocity_bin`'s live-interior case.
    fn velocity_run(&self, i: usize, m: usize, out: &mut [&mut [f64]], o: usize) {
        let nx = self.dims.nx();
        let strides = [1, nx, nx * self.dims.ny()];
        let den = self.density;
        for (axis, v) in out.iter_mut().enumerate() {
            let s = strides[axis];
            let (o_ch, o_tl) = v[o..o + m].as_chunks_mut::<LANES>();
            let (c_ch, c_tl) = den[i..i + m].as_chunks::<LANES>();
            let (sm_ch, sm_tl) = den[i - s..i - s + m].as_chunks::<LANES>();
            let (sp_ch, sp_tl) = den[i + s..i + s + m].as_chunks::<LANES>();
            let streams = o_ch.iter_mut().zip(c_ch).zip(sm_ch).zip(sp_ch);
            for (((o, c), sm), sp) in streams {
                for t in 0..LANES {
                    let d = c[t];
                    o[t] = if d > DENSITY_FLOOR {
                        -(sp[t] - sm[t]) / (2.0 * d)
                    } else {
                        0.0
                    };
                }
            }
            let tails = o_tl.iter_mut().zip(c_tl).zip(sm_tl).zip(sp_tl);
            for (((o, &d), &sm), &sp) in tails {
                *o = if d > DENSITY_FLOOR {
                    -(sp - sm) / (2.0 * d)
                } else {
                    0.0
                };
            }
        }
    }

    /// Velocity field (Eq. 5) of x-major lines `l0..l1`, written into the
    /// per-axis slices of `out` (which cover exactly those lines).
    /// `out.len()` is the grid's `ndim`.
    fn velocity_lines(&self, l0: usize, l1: usize, out: &mut [&mut [f64]]) {
        self.for_each_span(l0, l1, |i, idx, o, m| match m {
            0 => self.velocity_bin(i, idx, out, o),
            m => self.velocity_run(i, m, out, o),
        });
    }

    /// One bin of the FTCS update through the generic (boundary-aware)
    /// path.
    #[inline]
    fn ftcs_bin(&self, i: usize, idx: [usize; 3], half: f64) -> f64 {
        if self.wall[i] || self.frozen[i] {
            return self.density[i];
        }
        let d = self.density[i];
        let mut acc = d;
        for axis in 0..self.dims.ndim() {
            let dp = self.neighbor_density_for_step(idx, axis, 1);
            let dm = self.neighbor_density_for_step(idx, axis, -1);
            acc += half * (dp + dm - 2.0 * d);
        }
        acc
    }

    /// FTCS update of the `out.len()` lane-eligible bins starting at
    /// flat index `i`: zipped lane-wide chunks over the neighbour streams
    /// plus a scalar tail. The per-bin accumulation order is
    /// `ftcs_bin`'s axis order (x, then y, then z), so the bits match
    /// exactly; `as_chunks` gives fixed-width array windows with no
    /// per-element bounds checks.
    fn ftcs_run(&self, i: usize, half: f64, out: &mut [f64]) {
        let m = out.len();
        let nx = self.dims.nx();
        let zs = nx * self.dims.ny();
        let den = self.density;
        let (o_ch, o_tl) = out.as_chunks_mut::<LANES>();
        let (c_ch, c_tl) = den[i..i + m].as_chunks::<LANES>();
        let (xm_ch, xm_tl) = den[i - 1..i - 1 + m].as_chunks::<LANES>();
        let (xp_ch, xp_tl) = den[i + 1..i + 1 + m].as_chunks::<LANES>();
        let (ym_ch, ym_tl) = den[i - nx..i - nx + m].as_chunks::<LANES>();
        let (yp_ch, yp_tl) = den[i + nx..i + nx + m].as_chunks::<LANES>();
        if self.dims.ndim() == 3 {
            let (zm_ch, zm_tl) = den[i - zs..i - zs + m].as_chunks::<LANES>();
            let (zp_ch, zp_tl) = den[i + zs..i + zs + m].as_chunks::<LANES>();
            let streams = o_ch
                .iter_mut()
                .zip(c_ch)
                .zip(xm_ch)
                .zip(xp_ch)
                .zip(ym_ch)
                .zip(yp_ch)
                .zip(zm_ch)
                .zip(zp_ch);
            for (((((((o, c), xm), xp), ym), yp), zm), zp) in streams {
                for t in 0..LANES {
                    let d = c[t];
                    let mut acc = d + half * (xp[t] + xm[t] - 2.0 * d);
                    acc += half * (yp[t] + ym[t] - 2.0 * d);
                    acc += half * (zp[t] + zm[t] - 2.0 * d);
                    o[t] = acc;
                }
            }
            let tails = o_tl
                .iter_mut()
                .zip(c_tl)
                .zip(xm_tl)
                .zip(xp_tl)
                .zip(ym_tl)
                .zip(yp_tl)
                .zip(zm_tl)
                .zip(zp_tl);
            for (((((((o, &d), &xm), &xp), &ym), &yp), &zm), &zp) in tails {
                let mut acc = d + half * (xp + xm - 2.0 * d);
                acc += half * (yp + ym - 2.0 * d);
                acc += half * (zp + zm - 2.0 * d);
                *o = acc;
            }
        } else {
            let streams = o_ch
                .iter_mut()
                .zip(c_ch)
                .zip(xm_ch)
                .zip(xp_ch)
                .zip(ym_ch)
                .zip(yp_ch);
            for (((((o, c), xm), xp), ym), yp) in streams {
                for t in 0..LANES {
                    let d = c[t];
                    let mut acc = d + half * (xp[t] + xm[t] - 2.0 * d);
                    acc += half * (yp[t] + ym[t] - 2.0 * d);
                    o[t] = acc;
                }
            }
            let tails = o_tl
                .iter_mut()
                .zip(c_tl)
                .zip(xm_tl)
                .zip(xp_tl)
                .zip(ym_tl)
                .zip(yp_tl);
            for (((((o, &d), &xm), &xp), &ym), &yp) in tails {
                let mut acc = d + half * (xp + xm - 2.0 * d);
                acc += half * (yp + ym - 2.0 * d);
                *o = acc;
            }
        }
    }

    /// FTCS update of x-major lines `l0..l1`, written into `out` (which
    /// covers exactly those lines).
    fn ftcs_lines(&self, l0: usize, l1: usize, half: f64, out: &mut [f64]) {
        self.for_each_span(l0, l1, |i, idx, o, m| match m {
            0 => out[o] = self.ftcs_bin(i, idx, half),
            m => self.ftcs_run(i, half, &mut out[o..o + m]),
        });
    }
}

impl DiffusionEngine {
    /// Creates an engine from a measured [`DensityMap`] (macro bins become
    /// walls).
    pub fn from_density_map(map: &DensityMap) -> Self {
        Self::from_raw(
            map.grid().nx(),
            map.grid().ny(),
            map.densities().to_vec(),
            Some(map.fixed_mask().to_vec()),
        )
    }

    /// Creates a planar engine from raw row-major density values and an
    /// optional wall mask.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match `nx * ny` or the grid is
    /// empty.
    pub fn from_raw(nx: usize, ny: usize, density: Vec<f64>, wall: Option<Vec<bool>>) -> Self {
        Self::from_raw_dims(Dims::d2(nx, ny), density, wall)
    }

    /// Creates a volumetric engine from raw plane-major density values
    /// (layout `(z·ny + k)·nx + j`) and an optional wall mask.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match `nx * ny * nz` or the
    /// grid is empty.
    pub fn from_raw_3d(
        nx: usize,
        ny: usize,
        nz: usize,
        density: Vec<f64>,
        wall: Option<Vec<bool>>,
    ) -> Self {
        Self::from_raw_dims(Dims::d3(nx, ny, nz), density, wall)
    }

    /// Creates an engine of the given [`Dims`] from raw density values and
    /// an optional wall mask.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match `dims.len()`.
    pub fn from_raw_dims(dims: Dims, density: Vec<f64>, wall: Option<Vec<bool>>) -> Self {
        let n = dims.len();
        assert_eq!(density.len(), n, "density buffer length mismatch");
        let wall = wall.unwrap_or_else(|| vec![false; n]);
        assert_eq!(wall.len(), n, "wall buffer length mismatch");
        let vz = if dims.ndim() == 3 {
            vec![0.0; n]
        } else {
            Vec::new()
        };
        let mut engine = Self {
            dims,
            next: density.clone(),
            density,
            wall,
            frozen: vec![false; n],
            vel: [vec![0.0; n], vec![0.0; n], vz],
            fast_bin: Vec::new(),
            conservative: true,
            pool: ThreadPool::single(),
            timers: KernelTimers::default(),
        };
        engine.refresh_live_masks();
        engine
    }

    /// Recomputes the per-bin lane eligibility mask whose runs the
    /// kernels lane-process. Must run after every wall/frozen mutation.
    fn refresh_live_masks(&mut self) {
        let nx = self.dims.nx();
        let ny = self.dims.ny();
        let nz = self.dims.nz();
        let lines = ny * nz;
        let n = self.dims.len();
        let zs = nx * ny;
        let d3 = self.dims.ndim() == 3;
        self.fast_bin.clear();
        self.fast_bin.resize(n, false);
        let live = |wall: &[bool], frozen: &[bool], i: usize| !wall[i] && !frozen[i];
        for l in 0..lines {
            let (k, z) = (l % ny, l / ny);
            if k == 0 || k + 1 == ny || (d3 && (z == 0 || z + 1 == nz)) {
                continue;
            }
            let row = l * nx;
            for j in 1..nx.saturating_sub(1) {
                let i = row + j;
                let mut ok = live(&self.wall, &self.frozen, i)
                    && live(&self.wall, &self.frozen, i - 1)
                    && live(&self.wall, &self.frozen, i + 1)
                    && live(&self.wall, &self.frozen, i - nx)
                    && live(&self.wall, &self.frozen, i + nx);
                if d3 {
                    ok = ok
                        && live(&self.wall, &self.frozen, i - zs)
                        && live(&self.wall, &self.frozen, i + zs);
                }
                self.fast_bin[i] = ok;
            }
        }
    }

    /// Reloads density and walls from a [`DensityMap`] of the same grid,
    /// reusing every existing buffer (no allocation). Frozen bins and
    /// velocities are cleared; thread pool, boundary rule and kernel
    /// timers are kept.
    ///
    /// This is the hot path of the local-diffusion round loop, which
    /// re-measures the placement every round (dynamic density update).
    ///
    /// # Panics
    ///
    /// Panics if the map's grid dimensions do not match the engine's.
    pub fn reload_from_density_map(&mut self, map: &DensityMap) {
        assert_eq!(
            Dims::d2(map.grid().nx(), map.grid().ny()),
            self.dims,
            "density map grid does not match engine grid"
        );
        self.density.copy_from_slice(map.densities());
        self.wall.copy_from_slice(map.fixed_mask());
        self.frozen.iter_mut().for_each(|f| *f = false);
        for axis in &mut self.vel {
            axis.iter_mut().for_each(|v| *v = 0.0);
        }
        self.refresh_live_masks();
    }

    /// Switches between a conservative boundary rule (the default) and
    /// the paper's literal rule.
    ///
    /// The paper (Section V-B) substitutes the *opposite* neighbor's
    /// density for a missing neighbor at chip/macro boundaries. That makes
    /// the worked examples of its Fig. 5 exact, but the resulting density
    /// step does not conserve mass: flow toward a boundary is
    /// double-counted by the boundary bin, so after density-map
    /// manipulation (Eq. 8) the equilibrium can drift above `d_max` and
    /// global diffusion never reaches its stopping criterion. With
    /// `conservative = true` (the default) the engine instead uses the
    /// bin's own density as the ghost value — a standard zero-flux
    /// Neumann discretization that conserves the total live density
    /// exactly. Velocity computation always uses the paper's mirror rule,
    /// which guarantees zero velocity normal to every boundary.
    ///
    /// Pass `false` to reproduce the paper's printed boundary updates
    /// (used by the Fig. 5 regression tests and the ablation bench).
    pub fn set_conservative_boundaries(&mut self, conservative: bool) {
        self.conservative = conservative;
    }

    /// The grid shape.
    #[inline]
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Number of spatial axes (2 or 3).
    #[inline]
    pub fn ndim(&self) -> usize {
        self.dims.ndim()
    }

    /// Grid width in bins.
    #[inline]
    pub fn nx(&self) -> usize {
        self.dims.nx()
    }

    /// Grid height in bins.
    #[inline]
    pub fn ny(&self) -> usize {
        self.dims.ny()
    }

    /// Number of tiers (1 for a planar grid).
    #[inline]
    pub fn nz(&self) -> usize {
        self.dims.nz()
    }

    #[inline]
    fn at(&self, j: usize, k: usize) -> usize {
        debug_assert!(j < self.nx() && k < self.ny());
        k * self.nx() + j
    }

    /// Density of bin `(j, k)` (tier 0 on a volumetric grid).
    #[inline]
    pub fn density(&self, j: usize, k: usize) -> f64 {
        self.density[self.at(j, k)]
    }

    /// Density of bin `(j, k, z)`.
    #[inline]
    pub fn density3(&self, j: usize, k: usize, z: usize) -> f64 {
        self.density[self.dims.flat(j, k, z)]
    }

    /// Overwrites the density of bin `(j, k)` (used by tests and by the
    /// dynamic density update).
    #[inline]
    pub fn set_density(&mut self, j: usize, k: usize, d: f64) {
        let i = self.at(j, k);
        self.density[i] = d;
    }

    /// Raw plane-major density buffer.
    #[inline]
    pub fn densities(&self) -> &[f64] {
        &self.density
    }

    /// Replaces the whole density field (dynamic density update).
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not match the grid.
    pub fn load_densities(&mut self, density: &[f64]) {
        assert_eq!(
            density.len(),
            self.density.len(),
            "density buffer length mismatch"
        );
        self.density.copy_from_slice(density);
    }

    /// `true` if bin `(j, k)` is a wall (fixed macro).
    #[inline]
    pub fn is_wall(&self, j: usize, k: usize) -> bool {
        self.wall[self.at(j, k)]
    }

    /// `true` if bin `(j, k, z)` is a wall.
    #[inline]
    pub fn is_wall3(&self, j: usize, k: usize, z: usize) -> bool {
        self.wall[self.dims.flat(j, k, z)]
    }

    /// Plane-major wall mask.
    #[inline]
    pub fn wall_mask(&self) -> &[bool] {
        &self.wall
    }

    /// Plane-major frozen mask.
    #[inline]
    pub fn frozen_mask(&self) -> &[bool] {
        &self.frozen
    }

    /// `true` if bin `(j, k)` is frozen out of the current diffusion
    /// window.
    #[inline]
    pub fn is_frozen(&self, j: usize, k: usize) -> bool {
        self.frozen[self.at(j, k)]
    }

    /// `true` if the bin participates in diffusion (neither wall nor
    /// frozen).
    #[inline]
    pub fn is_live(&self, j: usize, k: usize) -> bool {
        let i = self.at(j, k);
        !self.wall[i] && !self.frozen[i]
    }

    /// Installs a frozen mask (from [`identify_windows`]); `true` entries
    /// are excluded from diffusion. Wall bins stay walls regardless.
    ///
    /// # Panics
    ///
    /// Panics if the mask length does not match the grid.
    ///
    /// [`identify_windows`]: crate::identify_windows
    pub fn set_frozen_mask(&mut self, frozen: &[bool]) {
        assert_eq!(
            frozen.len(),
            self.frozen.len(),
            "frozen mask length mismatch"
        );
        self.frozen.copy_from_slice(frozen);
        self.refresh_live_masks();
    }

    /// Unfreezes every bin (global diffusion mode).
    pub fn clear_frozen(&mut self) {
        self.frozen.iter_mut().for_each(|f| *f = false);
        self.refresh_live_masks();
    }

    /// Number of live (diffusing) bins.
    pub fn live_bins(&self) -> usize {
        self.wall
            .iter()
            .zip(&self.frozen)
            .filter(|(&w, &f)| !w && !f)
            .count()
    }

    /// Maximum density over live bins (0 if none).
    pub fn max_live_density(&self) -> f64 {
        let mut m = 0.0f64;
        for i in 0..self.dims.len() {
            if !self.wall[i] && !self.frozen[i] {
                m = m.max(self.density[i]);
            }
        }
        m
    }

    /// Sum of density over live bins.
    pub fn total_live_density(&self) -> f64 {
        let mut s = 0.0;
        for i in 0..self.dims.len() {
            if !self.wall[i] && !self.frozen[i] {
                s += self.density[i];
            }
        }
        s
    }

    /// Total overflow `Σ max(d − d_max, 0)` over live bins only: bins
    /// that are neither wall nor frozen. In local diffusion that is just
    /// the round's windows, so it is not the whole grid's overflow; splat
    /// the placement into a [`DensityMap`] and take its `total_overflow`
    /// for that.
    pub fn total_overflow(&self, d_max: f64) -> f64 {
        let mut s = 0.0;
        for i in 0..self.dims.len() {
            if !self.wall[i] && !self.frozen[i] {
                s += (self.density[i] - d_max).max(0.0);
            }
        }
        s
    }

    /// `(max_live_density(), total_overflow(d_max))` in one pass over the
    /// bins, bit-identical to the two calls: each value keeps its own
    /// chain in ascending bin order.
    pub fn peak_and_overflow(&self, d_max: f64) -> (f64, f64) {
        let (mut m, mut s) = (0.0f64, 0.0);
        for i in 0..self.dims.len() {
            if !self.wall[i] && !self.frozen[i] {
                m = m.max(self.density[i]);
                s += (self.density[i] - d_max).max(0.0);
            }
        }
        (m, s)
    }

    /// Number of worker threads the kernels may use (1 = serial).
    ///
    /// The FTCS update and the velocity field are embarrassingly parallel
    /// over x-major bin lines, cell advection over cell chunks; on large
    /// grids (hundreds of bins per side) extra threads cut the kernel time
    /// roughly linearly on multicore hardware. Work is decomposed into
    /// fixed chunks independent of the thread count, so results are
    /// bit-identical to the serial path.
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = ThreadPool::new(threads);
    }

    /// No-op: the kernels always lane-process runs of lane-eligible
    /// bins. Kept only so existing callers that pin [`LaneMode::Wide`]
    /// still compile; the engine never reads it.
    pub fn set_lanes(&mut self, _lanes: LaneMode) {}

    /// No-op: the field is always f64. Kept only so existing callers
    /// that pin [`FieldPrecision::F64`] still compile; the engine never
    /// reads it.
    pub fn set_precision(&mut self, _precision: FieldPrecision) {}

    /// Lines per parallel work unit, sized so one chunk's stencil
    /// working set (the chunk plus its two neighbor lines) fits the
    /// cache block budget.
    fn chunk_lines(&self) -> usize {
        blocked_lines(
            self.dims.nx() * std::mem::size_of::<f64>(),
            CACHE_BLOCK_BYTES,
        )
    }

    /// The kernels' read-only view of the field and masks. The step and
    /// velocity kernels take their output buffer out of `self` first, so
    /// the view can borrow the rest.
    fn view(&self) -> FieldView<'_> {
        FieldView {
            dims: self.dims,
            density: &self.density,
            wall: &self.wall,
            frozen: &self.frozen,
            fast_bin: &self.fast_bin,
            conservative: self.conservative,
        }
    }

    /// The worker-thread count currently configured.
    #[inline]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The worker pool the engine's kernels run on (advection borrows it
    /// so the whole loop shares one pool configuration).
    #[inline]
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Accumulated per-kernel wall-time counters for this engine.
    #[inline]
    pub fn kernel_timers(&self) -> &KernelTimers {
        &self.timers
    }

    /// Mutable access to the kernel counters (the diffusion runners record
    /// advection and splat time here so one struct holds the whole loop).
    #[inline]
    pub fn kernel_timers_mut(&mut self) -> &mut KernelTimers {
        &mut self.timers
    }

    /// Advances the density field by one FTCS step (Eq. 4):
    ///
    /// `d(n+1) = d(n) + Σ_axis Δt/2·(d_+ + d_− − 2d)`
    ///
    /// with mirror substitution at chip/macro boundaries (Section V-B).
    /// Wall and frozen bins do not update. On a planar grid the sum runs
    /// over x and y — exactly the paper's Eq. 4; a volumetric grid adds
    /// the tier axis.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `dt` is outside the stability region
    /// `(0, 1/ndim]`.
    pub fn step_density(&mut self, dt: f64) {
        debug_assert!(
            dt > 0.0 && dt * self.dims.ndim() as f64 <= 1.0,
            "dt outside FTCS stability region"
        );
        let start = Instant::now();
        let nx = self.dims.nx();
        let chunk = self.chunk_lines() * nx;
        let half = dt / 2.0;
        let mut next = std::mem::take(&mut self.next);
        let view = self.view();
        parallel_for_chunks(&self.pool, &mut next, chunk, |_, range, out| {
            view.ftcs_lines(range.start / nx, range.end / nx, half, out);
        });
        self.timers
            .ftcs
            .record(start.elapsed(), self.pool.threads());
        self.next = std::mem::replace(&mut self.density, next);
    }

    /// Recomputes the per-bin velocity field from the current density
    /// (Eq. 5), one component per axis:
    ///
    /// `v_axis = −(d_+ − d_−) / (2d)`
    ///
    /// Mirror substitution makes the component normal to a chip or macro
    /// boundary zero, as the paper requires; wall and frozen bins have
    /// zero velocity outright. Bins with (numerically) no density get zero
    /// velocity — there is nothing there to move.
    pub fn compute_velocities(&mut self) {
        let start = Instant::now();
        let nx = self.dims.nx();
        let chunk = self.chunk_lines() * nx;
        let mut vel = std::mem::take(&mut self.vel);
        let view = self.view();
        let [vx, vy, vz] = &mut vel;
        match self.dims {
            Dims::D2 { .. } => {
                parallel_for_chunks2(&self.pool, vx, vy, chunk, |_, range, cx, cy| {
                    view.velocity_lines(range.start / nx, range.end / nx, &mut [cx, cy]);
                });
            }
            Dims::D3 { .. } => {
                parallel_for_chunks3(&self.pool, vx, vy, vz, chunk, |_, range, cx, cy, cz| {
                    view.velocity_lines(range.start / nx, range.end / nx, &mut [cx, cy, cz]);
                });
            }
        }
        self.vel = vel;
        self.timers
            .velocity
            .record(start.elapsed(), self.pool.threads());
    }

    /// The velocity assigned to bin `(j, k)` (tier 0 on a volumetric
    /// grid) by the latest
    /// [`compute_velocities`](Self::compute_velocities) call.
    #[inline]
    pub fn bin_velocity(&self, j: usize, k: usize) -> Vector {
        let i = self.at(j, k);
        Vector::new(self.vel[0][i], self.vel[1][i])
    }

    /// The per-axis velocity of bin `(j, k, z)` on a volumetric grid.
    ///
    /// # Panics
    ///
    /// Panics if the engine is planar (there is no z component).
    #[inline]
    pub fn bin_velocity3(&self, j: usize, k: usize, z: usize) -> Vector3 {
        assert_eq!(self.dims.ndim(), 3, "bin_velocity3 needs a D3 engine");
        let i = self.dims.flat(j, k, z);
        Vector3::new(self.vel[0][i], self.vel[1][i], self.vel[2][i])
    }

    /// Overrides a bin's velocity (test hook for the paper's worked
    /// interpolation example).
    #[inline]
    pub fn set_bin_velocity(&mut self, j: usize, k: usize, v: Vector) {
        let i = self.at(j, k);
        self.vel[0][i] = v.x;
        self.vel[1][i] = v.y;
    }

    /// Overrides a volumetric bin's velocity (test hook).
    ///
    /// # Panics
    ///
    /// Panics if the engine is planar.
    #[inline]
    pub fn set_bin_velocity3(&mut self, j: usize, k: usize, z: usize, v: Vector3) {
        assert_eq!(self.dims.ndim(), 3, "set_bin_velocity3 needs a D3 engine");
        let i = self.dims.flat(j, k, z);
        self.vel[0][i] = v.x;
        self.vel[1][i] = v.y;
        self.vel[2][i] = v.z;
    }

    /// The velocity at an arbitrary point in bin coordinates, bilinearly
    /// interpolated between the four nearest bin centers (Eq. 6).
    ///
    /// Points within half a bin of the grid edge clamp to the edge bin's
    /// velocity (velocity is replicated outward). On a volumetric grid
    /// this samples tier 0; use [`velocity_at3`](Self::velocity_at3).
    #[inline]
    pub fn velocity_at(&self, p: Point) -> Vector {
        let xs = p.x + 0.5;
        let ys = p.y + 0.5;
        let (fx, fy) = (floor(xs), floor(ys));
        let alpha = xs - fx;
        let beta = ys - fy;
        // p,q = lower-left of the four nearest centers; may be -1 at edges.
        let pj = fx as isize - 1;
        let qk = fy as isize - 1;
        let clamp_j = |v: isize| v.clamp(0, self.nx() as isize - 1) as usize;
        let clamp_k = |v: isize| v.clamp(0, self.ny() as isize - 1) as usize;
        let (j0, j1) = (clamp_j(pj), clamp_j(pj + 1));
        let (row0, row1) = (clamp_k(qk) * self.nx(), clamp_k(qk + 1) * self.nx());
        let (i00, i10, i01, i11) = (row0 + j0, row0 + j1, row1 + j0, row1 + j1);
        let (vx, vy) = (&self.vel[0], &self.vel[1]);
        let at = |i: usize| Vector::new(vx[i], vy[i]);
        interpolate_velocity(at(i00), at(i10), at(i01), at(i11), alpha, beta)
    }

    /// The velocity at an arbitrary point of a volumetric grid,
    /// trilinearly interpolated between the eight nearest bin centers
    /// (Eq. 6 extended with a tier axis).
    ///
    /// Points within half a bin of any grid face clamp to the face bin's
    /// velocity, mirroring [`velocity_at`](Self::velocity_at).
    ///
    /// # Panics
    ///
    /// Panics if the engine is planar.
    pub fn velocity_at3(&self, p: Point3) -> Vector3 {
        assert_eq!(self.dims.ndim(), 3, "velocity_at3 needs a D3 engine");
        let xs = p.x + 0.5;
        let ys = p.y + 0.5;
        let zs = p.z + 0.5;
        let (fx, fy, fz) = (floor(xs), floor(ys), floor(zs));
        let alpha = xs - fx;
        let beta = ys - fy;
        let gamma = zs - fz;
        let pj = fx as isize - 1;
        let qk = fy as isize - 1;
        let rz = fz as isize - 1;
        let cj = |v: isize| v.clamp(0, self.nx() as isize - 1) as usize;
        let ck = |v: isize| v.clamp(0, self.ny() as isize - 1) as usize;
        let cz = |v: isize| v.clamp(0, self.nz() as isize - 1) as usize;
        let corner = |dj: isize, dk: isize, dz: isize| {
            self.bin_velocity3(cj(pj + dj), ck(qk + dk), cz(rz + dz))
        };
        let lerp = |a: Vector3, b: Vector3, t: f64| a + (b - a) * t;
        let c00 = lerp(corner(0, 0, 0), corner(1, 0, 0), alpha);
        let c10 = lerp(corner(0, 1, 0), corner(1, 1, 0), alpha);
        let c01 = lerp(corner(0, 0, 1), corner(1, 0, 1), alpha);
        let c11 = lerp(corner(0, 1, 1), corner(1, 1, 1), alpha);
        let c0 = lerp(c00, c10, beta);
        let c1 = lerp(c01, c11, beta);
        lerp(c0, c1, gamma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(nx: usize, j: usize, k: usize) -> usize {
        k * nx + j
    }

    /// Engine matching the paper's Fig. 1 neighborhood.
    fn fig1_engine() -> DiffusionEngine {
        let mut d = vec![1.0; 16];
        d[at(4, 1, 1)] = 1.0;
        d[at(4, 0, 1)] = 1.4;
        d[at(4, 2, 1)] = 0.4;
        d[at(4, 1, 0)] = 1.6;
        d[at(4, 1, 2)] = 0.4;
        DiffusionEngine::from_raw(4, 4, d, None)
    }

    #[test]
    fn fig1_density_step() {
        let mut e = fig1_engine();
        e.step_density(0.2);
        assert!((e.density(1, 1) - 0.98).abs() < 1e-12);
    }

    #[test]
    fn fig1_velocity() {
        let mut e = fig1_engine();
        e.compute_velocities();
        let v = e.bin_velocity(1, 1);
        assert!((v.x - 0.5).abs() < 1e-12);
        assert!((v.y - 0.6).abs() < 1e-12);
    }

    /// Fig. 5: FTCS under macro mirror boundary conditions.
    fn fig5_engine() -> DiffusionEngine {
        let nx = 7;
        let ny = 7;
        let mut d = vec![1.0; nx * ny];
        let mut w = vec![false; nx * ny];
        // Fixed block over bins (4,3)..(5,4).
        for k in 3..=4 {
            for j in 4..=5 {
                w[at(nx, j, k)] = true;
                d[at(nx, j, k)] = 1.0;
            }
        }
        d[at(nx, 3, 6)] = 1.0;
        d[at(nx, 4, 6)] = 0.2;
        d[at(nx, 2, 5)] = 1.2;
        d[at(nx, 3, 5)] = 0.4;
        d[at(nx, 4, 5)] = 0.8;
        d[at(nx, 5, 5)] = 0.6;
        d[at(nx, 2, 4)] = 1.4;
        d[at(nx, 3, 4)] = 0.8;
        d[at(nx, 3, 3)] = 1.6;
        let mut e = DiffusionEngine::from_raw(nx, ny, d, Some(w));
        // The Fig. 5 worked example uses the paper's literal boundary rule.
        e.set_conservative_boundaries(false);
        e
    }

    #[test]
    fn fig5_macro_boundary_updates() {
        let mut e = fig5_engine();
        e.step_density(0.2);
        // d(3,4): right neighbor is the macro, mirror with left (2,4)=1.4.
        assert!(
            (e.density(3, 4) - 0.96).abs() < 1e-12,
            "got {}",
            e.density(3, 4)
        );
        // d(4,5): lower neighbor is the macro, mirror with upper (4,6)=0.2.
        assert!(
            (e.density(4, 5) - 0.62).abs() < 1e-12,
            "got {}",
            e.density(4, 5)
        );
        // Macro bins never change.
        assert_eq!(e.density(4, 4), 1.0);
        assert_eq!(e.density(5, 3), 1.0);
    }

    #[test]
    fn walls_have_zero_velocity_and_normal_component_vanishes() {
        let mut e = fig5_engine();
        e.compute_velocities();
        assert_eq!(e.bin_velocity(4, 4), Vector::ZERO);
        // Bin (3,4) sits left of the macro: mirror makes its horizontal
        // gradient zero, so vx = 0.
        assert_eq!(e.bin_velocity(3, 4).x, 0.0);
        // Bin (4,5) sits above the macro: vy = 0.
        assert_eq!(e.bin_velocity(4, 5).y, 0.0);
    }

    #[test]
    fn chip_edge_velocity_points_inward_only() {
        // Dense bin in a corner: velocity must not point off-chip.
        let mut d = vec![0.1; 9];
        d[0] = 2.0;
        let mut e = DiffusionEngine::from_raw(3, 3, d, None);
        e.compute_velocities();
        let v = e.bin_velocity(0, 0);
        assert!(
            v.x >= 0.0 && v.y >= 0.0,
            "corner velocity {v:?} points off-chip"
        );
    }

    #[test]
    fn interior_mass_is_conserved_between_steps() {
        // Away from boundaries FTCS is exactly conservative: compare the
        // change of one interior bin against what its neighbors exchanged.
        let mut e = fig1_engine();
        let m0: f64 = e.densities().iter().sum();
        e.step_density(0.2);
        // One step on a 4x4 grid does touch boundaries, so compare against
        // the known non-conservative drift bound instead of exactness.
        let m1: f64 = e.densities().iter().sum();
        assert!((m1 - m0).abs() < 0.5, "implausible drift {m0} -> {m1}");
    }

    #[test]
    fn paper_boundary_rule_drifts_but_stays_bounded() {
        // The paper's mirror rule (Section V-B) is not conservative: flow
        // toward a boundary is double-counted. Document the behavior: the
        // total drifts, but remains bounded by the uniform-equilibrium
        // band [min, max] of the initial field times the bin count.
        let mut e = fig5_engine();
        let m0 = e.total_live_density();
        for _ in 0..200 {
            e.step_density(0.2);
        }
        let m1 = e.total_live_density();
        assert!(
            (m1 - m0).abs() / m0 < 0.1,
            "drift exceeded 10%: {m0} -> {m1}"
        );
    }

    #[test]
    fn conservative_mode_conserves_mass_exactly() {
        let mut e = fig5_engine();
        e.set_conservative_boundaries(true);
        let m0 = e.total_live_density();
        for _ in 0..500 {
            e.step_density(0.2);
        }
        let m1 = e.total_live_density();
        assert!((m0 - m1).abs() < 1e-9, "mass drifted from {m0} to {m1}");
    }

    #[test]
    fn diffusion_flattens_toward_uniform() {
        let mut d = vec![0.0; 25];
        d[12] = 5.0; // spike in the middle
        let mut e = DiffusionEngine::from_raw(5, 5, d, None);
        for _ in 0..2000 {
            e.step_density(0.2);
        }
        // Equilibrium is uniform (its level depends on the boundary rule).
        let lo = e.densities().iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = e.densities().iter().cloned().fold(0.0f64, f64::max);
        assert!(hi - lo < 1e-6, "not uniform: [{lo}, {hi}]");
    }

    #[test]
    fn conservative_diffusion_flattens_to_exact_average() {
        let mut d = vec![0.0; 25];
        d[12] = 5.0;
        let mut e = DiffusionEngine::from_raw(5, 5, d, None);
        e.set_conservative_boundaries(true);
        for _ in 0..2000 {
            e.step_density(0.2);
        }
        for k in 0..5 {
            for j in 0..5 {
                assert!(
                    (e.density(j, k) - 0.2).abs() < 1e-6,
                    "bin ({j},{k}) = {}",
                    e.density(j, k)
                );
            }
        }
    }

    #[test]
    fn frozen_bins_act_as_walls() {
        let mut d = vec![0.0; 9];
        d[at(3, 0, 0)] = 1.0;
        let mut e = DiffusionEngine::from_raw(3, 3, d, None);
        e.set_conservative_boundaries(true);
        // Freeze the right column; density must stay in the left 2x3 block.
        let mut frozen = vec![false; 9];
        for k in 0..3 {
            frozen[at(3, 2, k)] = true;
        }
        e.set_frozen_mask(&frozen);
        for _ in 0..500 {
            e.step_density(0.2);
        }
        for k in 0..3 {
            assert_eq!(
                e.density(2, k),
                0.0,
                "density leaked into frozen bin (2,{k})"
            );
        }
        assert!((e.total_live_density() - 1.0).abs() < 1e-9);
        assert_eq!(e.live_bins(), 6);
        e.clear_frozen();
        assert_eq!(e.live_bins(), 9);
    }

    #[test]
    fn max_and_overflow_metrics() {
        let mut d = vec![0.5; 4];
        d[0] = 1.5;
        let e = DiffusionEngine::from_raw(2, 2, d, None);
        assert_eq!(e.max_live_density(), 1.5);
        assert!((e.total_overflow(1.0) - 0.5).abs() < 1e-12);
        assert_eq!(e.total_overflow(2.0), 0.0);
    }

    #[test]
    fn peak_and_overflow_is_bit_identical_to_the_two_passes() {
        // Walls and a frozen block, so the live filter matters.
        let e = bumpy_engine(1);
        for d_max in [0.0, 0.3, 1.0, 1e9] {
            let (m, s) = e.peak_and_overflow(d_max);
            assert_eq!(m.to_bits(), e.max_live_density().to_bits());
            assert_eq!(s.to_bits(), e.total_overflow(d_max).to_bits());
        }
    }

    #[test]
    fn velocity_interpolation_matches_paper_example() {
        // Fig. 2: v(1,1)=(0.5,0.6), v(2,1)=(0.25,-0.25), v(1,2)=(0.5,0),
        // v(2,2)=(-0.125,0.125), query point (1.6,1.8) with α=0.1, β=0.3.
        // Evaluating the paper's own Eq. 6 with these inputs yields
        // (0.46375, 0.36425); the values printed in the paper's prose
        // (0.45625, 0.40175) do not satisfy Eq. 6 — a known arithmetic
        // slip in the text. We pin the equation, not the typo.
        let mut e = DiffusionEngine::from_raw(4, 4, vec![1.0; 16], None);
        e.set_bin_velocity(1, 1, Vector::new(0.5, 0.6));
        e.set_bin_velocity(2, 1, Vector::new(0.25, -0.25));
        e.set_bin_velocity(1, 2, Vector::new(0.5, 0.0));
        e.set_bin_velocity(2, 2, Vector::new(-0.125, 0.125));
        let v = e.velocity_at(Point::new(1.6, 1.8));
        assert!((v.x - 0.46375).abs() < 1e-12, "vx = {}", v.x);
        assert!((v.y - 0.36425).abs() < 1e-12, "vy = {}", v.y);
    }

    #[test]
    fn velocity_at_bin_center_is_bin_velocity() {
        let mut e = DiffusionEngine::from_raw(3, 3, vec![1.0; 9], None);
        e.set_bin_velocity(1, 1, Vector::new(0.3, -0.7));
        let v = e.velocity_at(Point::new(1.5, 1.5));
        assert!((v.x - 0.3).abs() < 1e-12);
        assert!((v.y + 0.7).abs() < 1e-12);
    }

    #[test]
    fn velocity_at_edges_clamps() {
        let mut e = DiffusionEngine::from_raw(2, 2, vec![1.0; 4], None);
        e.set_bin_velocity(0, 0, Vector::new(1.0, 1.0));
        // Point in the lower-left quarter-bin: all four clamped corners are
        // bin (0,0) — result is exactly its velocity.
        let v = e.velocity_at(Point::new(0.1, 0.2));
        assert!((v.x - 1.0).abs() < 1e-12);
        assert!((v.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_bin_gets_zero_velocity() {
        let mut d = vec![1.0; 9];
        d[at(3, 1, 1)] = 0.0;
        let mut e = DiffusionEngine::from_raw(3, 3, d, None);
        e.compute_velocities();
        assert_eq!(e.bin_velocity(1, 1), Vector::ZERO);
    }

    #[test]
    fn load_densities_replaces_field() {
        let mut e = DiffusionEngine::from_raw(2, 2, vec![0.0; 4], None);
        e.load_densities(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.density(1, 1), 4.0);
        assert_eq!(e.densities(), &[1.0, 2.0, 3.0, 4.0]);
    }

    /// A bumpy 64×64 field with a wall block and a frozen stripe —
    /// exercises every boundary rule the kernels implement.
    fn bumpy_engine(threads: usize) -> DiffusionEngine {
        let n = 64usize;
        let density: Vec<f64> = (0..n * n)
            .map(|i| 0.25 + ((i * 2654435761usize) % 997) as f64 / 997.0)
            .collect();
        let mut wall = vec![false; n * n];
        for k in 20..28 {
            for j in 30..44 {
                wall[k * n + j] = true;
            }
        }
        let mut e = DiffusionEngine::from_raw(n, n, density, Some(wall));
        let mut frozen = vec![false; n * n];
        for k in 48..56 {
            for j in 8..20 {
                frozen[k * n + j] = true;
            }
        }
        e.set_frozen_mask(&frozen);
        e.set_threads(threads);
        e
    }

    #[test]
    fn parallel_step_is_bit_identical_to_serial() {
        let mut serial = bumpy_engine(1);
        for _ in 0..25 {
            serial.step_density(0.2);
        }
        for threads in [2, 4, 8] {
            let mut parallel = bumpy_engine(threads);
            for _ in 0..25 {
                parallel.step_density(0.2);
            }
            assert_eq!(
                serial.densities(),
                parallel.densities(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn parallel_velocities_are_bit_identical_to_serial() {
        let mut serial = bumpy_engine(1);
        serial.compute_velocities();
        for threads in [2, 4, 8] {
            let mut parallel = bumpy_engine(threads);
            parallel.compute_velocities();
            for k in 0..serial.ny() {
                for j in 0..serial.nx() {
                    assert_eq!(
                        serial.bin_velocity(j, k),
                        parallel.bin_velocity(j, k),
                        "bin ({j},{k}), threads = {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_timers_accumulate() {
        let mut e = bumpy_engine(2);
        e.step_density(0.2);
        e.compute_velocities();
        e.compute_velocities();
        let t = e.kernel_timers();
        assert_eq!(t.ftcs.calls, 1);
        assert_eq!(t.velocity.calls, 2);
        assert_eq!(t.ftcs.max_threads, 2);
        assert_eq!(t.ftcs.serial_ns, 0);
        assert!(t.velocity.parallel_ns > 0);
    }

    #[test]
    fn reload_reuses_buffers_and_clears_state() {
        use dpm_geom::{Point, Rect};
        use dpm_netlist::{CellKind, NetlistBuilder};
        use dpm_place::{BinGrid, Placement};

        let mut b = NetlistBuilder::new();
        let c = b.add_cell("c", 10.0, 10.0, CellKind::Movable);
        let nl = b.build().expect("valid");
        let mut p = Placement::new(1);
        p.set(c, Point::new(0.0, 0.0));
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 40.0, 40.0), 10.0);
        let map = DensityMap::from_placement(&nl, &p, grid.clone());

        let mut e = DiffusionEngine::from_density_map(&map);
        e.set_frozen_mask(&[true; 16]);
        e.compute_velocities();
        p.set(c, Point::new(30.0, 30.0));
        let map2 = DensityMap::from_placement(&nl, &p, grid);
        e.reload_from_density_map(&map2);
        assert_eq!(e.densities(), map2.densities());
        assert_eq!(e.live_bins(), 16, "frozen mask must be cleared");
        assert_eq!(e.bin_velocity(0, 0), Vector::ZERO);
    }

    #[test]
    fn tiny_grid_falls_back_to_serial() {
        let mut e = DiffusionEngine::from_raw(3, 3, vec![1.0; 9], None);
        e.set_threads(8); // more threads than rows: must still work
        e.step_density(0.2);
        assert!((e.total_live_density() - 9.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bad_density_buffer_rejected() {
        let _ = DiffusionEngine::from_raw(2, 2, vec![0.0; 3], None);
    }

    // ---- volumetric (D3) coverage ----

    fn at3(nx: usize, ny: usize, j: usize, k: usize, z: usize) -> usize {
        (z * ny + k) * nx + j
    }

    #[test]
    fn single_tier_volume_matches_planar_engine() {
        // A D3 grid with nz = 1 must produce the exact planar floats: the
        // z axis contributes a zero-gradient term that the per-axis loop
        // adds as `half * (d + d - 2d)`, which is exactly +0.0 on every
        // finite density, and `x + 0.0` only differs from `x` at
        // `x = -0.0` — densities here are positive.
        let d: Vec<f64> = (0..64 * 64)
            .map(|i| 0.25 + ((i * 2654435761usize) % 997) as f64 / 997.0)
            .collect();
        let mut planar = DiffusionEngine::from_raw(64, 64, d.clone(), None);
        let mut volume = DiffusionEngine::from_raw_3d(64, 64, 1, d, None);
        for _ in 0..10 {
            planar.step_density(0.2);
            volume.step_density(0.2);
        }
        assert_eq!(planar.densities(), volume.densities());
        planar.compute_velocities();
        volume.compute_velocities();
        for k in 0..64 {
            for j in 0..64 {
                let v2 = planar.bin_velocity(j, k);
                let v3 = volume.bin_velocity3(j, k, 0);
                assert_eq!((v2.x, v2.y, 0.0), (v3.x, v3.y, v3.z), "bin ({j},{k})");
            }
        }
    }

    #[test]
    fn volumetric_spike_diffuses_along_z() {
        let (nx, ny, nz) = (3, 3, 4);
        let mut d = vec![0.0; nx * ny * nz];
        d[at3(nx, ny, 1, 1, 0)] = 4.0; // spike on the bottom tier
        let mut e = DiffusionEngine::from_raw_3d(nx, ny, nz, d, None);
        e.step_density(0.2);
        assert!(
            e.density3(1, 1, 1) > 0.0,
            "no mass moved to the next tier: {}",
            e.density3(1, 1, 1)
        );
        for _ in 0..3000 {
            e.step_density(0.2);
        }
        let avg = 4.0 / (nx * ny * nz) as f64;
        for z in 0..nz {
            for k in 0..ny {
                for j in 0..nx {
                    assert!(
                        (e.density3(j, k, z) - avg).abs() < 1e-6,
                        "bin ({j},{k},{z}) = {}",
                        e.density3(j, k, z)
                    );
                }
            }
        }
    }

    #[test]
    fn volumetric_mass_is_conserved() {
        let (nx, ny, nz) = (5, 4, 3);
        let d: Vec<f64> = (0..nx * ny * nz)
            .map(|i| ((i * 2654435761usize) % 97) as f64 / 97.0)
            .collect();
        let mut wall = vec![false; nx * ny * nz];
        for z in 0..nz {
            wall[at3(nx, ny, 2, 2, z)] = true; // through-stack macro column
        }
        let mut e = DiffusionEngine::from_raw_3d(nx, ny, nz, d, Some(wall));
        let m0 = e.total_live_density();
        for _ in 0..300 {
            e.step_density(0.2);
        }
        let m1 = e.total_live_density();
        assert!((m0 - m1).abs() < 1e-9, "mass drifted from {m0} to {m1}");
    }

    #[test]
    fn volumetric_velocity_points_away_from_overfull_tier() {
        let (nx, ny, nz) = (3, 3, 5);
        let mut d = vec![0.5; nx * ny * nz];
        d[at3(nx, ny, 1, 1, 2)] = 2.0; // hot middle tier
        let mut e = DiffusionEngine::from_raw_3d(nx, ny, nz, d, None);
        e.compute_velocities();
        // Interior bin below the spike is pushed down (away), above up.
        // (The outermost tiers get zero normal velocity from the mirror
        // rule, exactly like the 2D chip edge.)
        assert!(e.bin_velocity3(1, 1, 1).z < 0.0);
        assert!(e.bin_velocity3(1, 1, 3).z > 0.0);
        assert_eq!(e.bin_velocity3(1, 1, 0).z, 0.0);
        // The spike itself has zero z-velocity (symmetric neighbors).
        assert_eq!(e.bin_velocity3(1, 1, 2).z, 0.0);
    }

    #[test]
    fn volumetric_parallel_step_is_bit_identical_to_serial() {
        let build = |threads: usize| {
            let (nx, ny, nz) = (32, 24, 5);
            let d: Vec<f64> = (0..nx * ny * nz)
                .map(|i| 0.25 + ((i * 2654435761usize) % 997) as f64 / 997.0)
                .collect();
            let mut wall = vec![false; nx * ny * nz];
            for z in 0..nz {
                for k in 8..12 {
                    for j in 10..20 {
                        wall[at3(nx, ny, j, k, z)] = true;
                    }
                }
            }
            let mut e = DiffusionEngine::from_raw_3d(nx, ny, nz, d, Some(wall));
            e.set_threads(threads);
            e
        };
        let mut serial = build(1);
        serial.compute_velocities();
        for _ in 0..20 {
            serial.step_density(0.2);
        }
        for threads in [2, 4, 8] {
            let mut parallel = build(threads);
            parallel.compute_velocities();
            for _ in 0..20 {
                parallel.step_density(0.2);
            }
            assert_eq!(
                serial.densities(),
                parallel.densities(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn trilinear_velocity_at_bin_center_is_bin_velocity() {
        let mut e = DiffusionEngine::from_raw_3d(3, 3, 3, vec![1.0; 27], None);
        e.set_bin_velocity3(1, 1, 1, Vector3::new(0.3, -0.7, 0.2));
        let v = e.velocity_at3(Point3::new(1.5, 1.5, 1.5));
        assert!((v.x - 0.3).abs() < 1e-12);
        assert!((v.y + 0.7).abs() < 1e-12);
        assert!((v.z - 0.2).abs() < 1e-12);
    }

    #[test]
    fn trilinear_velocity_interpolates_between_tiers() {
        let mut e = DiffusionEngine::from_raw_3d(2, 2, 2, vec![1.0; 8], None);
        e.set_bin_velocity3(0, 0, 0, Vector3::new(0.0, 0.0, 1.0));
        e.set_bin_velocity3(0, 0, 1, Vector3::new(0.0, 0.0, 3.0));
        // Query a quarter of the way between the two tier centers.
        let v = e.velocity_at3(Point3::new(0.5, 0.5, 0.75));
        assert!((v.z - 1.5).abs() < 1e-12, "vz = {}", v.z);
    }

    /// The per-bin oracle the lane runs are pinned against: one FTCS
    /// step with every bin through the generic `ftcs_bin`.
    fn oracle_step(e: &DiffusionEngine, dt: f64) -> Vec<f64> {
        let view = e.view();
        (0..e.dims.len())
            .map(|i| view.ftcs_bin(i, bin_idx(e.dims, i), dt / 2.0))
            .collect()
    }

    /// The per-bin oracle velocity field: every bin through the generic
    /// `velocity_bin`, one buffer per axis.
    fn oracle_velocities(e: &DiffusionEngine) -> Vec<Vec<f64>> {
        let view = e.view();
        let n = e.dims.len();
        let mut axes = vec![vec![0.0; n]; e.ndim()];
        let mut out: Vec<&mut [f64]> = axes.iter_mut().map(|v| &mut v[..]).collect();
        for i in 0..n {
            view.velocity_bin(i, bin_idx(e.dims, i), &mut out, i);
        }
        axes
    }

    fn bin_idx(dims: Dims, i: usize) -> [usize; 3] {
        let (nx, ny) = (dims.nx(), dims.ny());
        [i % nx, (i / nx) % ny, i / (nx * ny)]
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Steps `e` eight times, then computes its velocities, under both
    /// boundary rules, asserting every step and every velocity axis
    /// bit-equal to the per-bin oracle.
    fn assert_matches_oracle(e: &DiffusionEngine, what: &str) {
        for conservative in [true, false] {
            let mut e = e.clone();
            e.set_conservative_boundaries(conservative);
            let dt = if e.ndim() == 3 { 0.15 } else { 0.2 };
            for step in 0..8 {
                let want = oracle_step(&e, dt);
                e.step_density(dt);
                let ok = bits(&e.density) == bits(&want);
                assert!(ok, "{what} conservative={conservative}: step {step}");
            }
            e.compute_velocities();
            for (axis, want) in oracle_velocities(&e).iter().enumerate() {
                let ok = bits(&e.vel[axis]) == bits(want);
                assert!(
                    ok,
                    "{what} conservative={conservative}: velocity axis {axis}"
                );
            }
        }
    }

    /// `(length, start column parity)` of every lane run in `e`'s mask.
    fn lane_runs(e: &DiffusionEngine) -> std::collections::BTreeSet<(usize, usize)> {
        let nx = e.nx();
        let mut runs = std::collections::BTreeSet::new();
        for line in e.fast_bin.chunks(nx) {
            let mut j = 0;
            while j < nx {
                let m = line[j..].iter().take_while(|&&b| b).count();
                if m > 0 {
                    runs.insert((m, j % 2));
                }
                j += m.max(1);
            }
        }
        runs
    }

    /// Engine with deterministic bumpy density plus wall and frozen
    /// patterns sized relative to the grid so walls land mid-line
    /// (breaking lane runs), on edge columns, and — on tall grids —
    /// straddling the 64-line cache-block seam.
    fn seam_engine(dims: Dims) -> DiffusionEngine {
        let n = dims.len();
        let nx = dims.nx();
        let ny = dims.ny();
        let density: Vec<f64> = (0..n)
            .map(|i| 0.25 + ((i * 2654435761usize) % 997) as f64 / 997.0)
            .collect();
        let mut wall = vec![false; n];
        let mut frozen = vec![false; n];
        for (i, (w, f)) in wall.iter_mut().zip(frozen.iter_mut()).enumerate() {
            let j = i % nx;
            let k = (i / nx) % ny;
            if (k == ny / 2 && j % 5 == 2) || ((62..66).contains(&k) && j % 7 < 2) {
                *w = true;
            }
            if (k % 17 == 9 && (3..=4).contains(&(j % 9))) || (j + 1 == nx && k.is_multiple_of(3)) {
                *f = true;
            }
        }
        let mut e = DiffusionEngine::from_raw_dims(dims, density, Some(wall));
        e.set_frozen_mask(&frozen);
        e
    }

    /// Engine with seeded random density (some bins below the velocity
    /// floor) and sparse random wall and frozen bins, so its lane runs
    /// take many lengths and start columns.
    fn random_mask_engine(dims: Dims, seed: u64) -> DiffusionEngine {
        let mut rng = dpm_rng::Rng::seed_from_u64(seed);
        let n = dims.len();
        let density: Vec<f64> = (0..n)
            .map(|_| {
                if rng.random_bool(0.05) {
                    0.0
                } else {
                    rng.random_range(0.1..2.0)
                }
            })
            .collect();
        let wall: Vec<bool> = (0..n).map(|_| rng.random_bool(0.03)).collect();
        let frozen: Vec<bool> = (0..n).map(|_| rng.random_bool(0.03)).collect();
        let mut e = DiffusionEngine::from_raw_dims(dims, density, Some(wall));
        e.set_frozen_mask(&frozen);
        e
    }

    /// Every run length from 1 to 9, starting at an even and at an odd
    /// column, must occur among `engines`' lane runs.
    fn assert_run_coverage(engines: &[DiffusionEngine], what: &str) {
        let mut seen = std::collections::BTreeSet::new();
        for e in engines {
            seen.extend(lane_runs(e));
        }
        for m in 1..=9 {
            for parity in 0..2 {
                assert!(
                    seen.contains(&(m, parity)),
                    "{what}: no run of {m} at parity {parity}"
                );
            }
        }
    }

    #[test]
    fn wide_lanes_match_scalar_bitwise_2d() {
        // Seam grids: nx sweeps 1, the lane width ±1 (3/5 around 4), one
        // and two chunks plus a tail (7/9), and a non-multiple of the
        // 64-line block (70); tall grids put walls across the block seam.
        for &nx in &[1usize, 3, 5, 7, 9, 70] {
            for &ny in &[1usize, 3, 70] {
                assert_matches_oracle(&seam_engine(Dims::d2(nx, ny)), &format!("seam {nx}x{ny}"));
            }
        }
        let dims = Dims::d2(41, 23);
        let engines: Vec<_> = (0..4).map(|seed| random_mask_engine(dims, seed)).collect();
        assert_run_coverage(&engines, "2d random masks");
        for (seed, e) in engines.iter().enumerate() {
            assert_matches_oracle(e, &format!("2d random mask seed {seed}"));
        }
    }

    #[test]
    fn wide_lanes_match_scalar_bitwise_3d() {
        for &(nx, ny, nz) in &[(1, 3, 3), (3, 3, 3), (5, 9, 4), (70, 5, 3), (9, 70, 2)] {
            let what = format!("seam {nx}x{ny}x{nz}");
            assert_matches_oracle(&seam_engine(Dims::d3(nx, ny, nz)), &what);
        }
        let dims = Dims::d3(29, 9, 5);
        let engines: Vec<_> = (0..4).map(|seed| random_mask_engine(dims, seed)).collect();
        assert_run_coverage(&engines, "3d random masks");
        for (seed, e) in engines.iter().enumerate() {
            assert_matches_oracle(e, &format!("3d random mask seed {seed}"));
        }
    }

    #[test]
    fn ftcs_matches_analytic_cosine_decay() {
        // With the conservative ghost (= DCT-II symmetric boundary) the
        // product mode cos(θx(j+0.5))·cos(θy(k+0.5)), θ = πq/n, is an
        // FTCS eigenvector with per-step multiplier
        // 1 + Δt(cosθx − 1) + Δt(cosθy − 1); the constant offset is
        // conserved exactly, so the field tracks the closed form to
        // rounding.
        let (nx, ny, q, r) = (48usize, 32usize, 3usize, 2usize);
        let dt = 0.2;
        let tx = std::f64::consts::PI * q as f64 / nx as f64;
        let ty = std::f64::consts::PI * r as f64 / ny as f64;
        let m = 1.0 + dt * (tx.cos() - 1.0) + dt * (ty.cos() - 1.0);
        let mode =
            |j: usize, k: usize| (tx * (j as f64 + 0.5)).cos() * (ty * (k as f64 + 0.5)).cos();
        let density: Vec<f64> = (0..nx * ny)
            .map(|i| 1.0 + 0.5 * mode(i % nx, i / nx))
            .collect();
        let steps = 20usize;
        let mut e = DiffusionEngine::from_raw(nx, ny, density, None);
        for _ in 0..steps {
            e.step_density(dt);
        }
        let amp = 0.5 * m.powi(steps as i32);
        for k in 0..ny {
            for j in 0..nx {
                let want = 1.0 + amp * mode(j, k);
                let got = e.density(j, k);
                assert!(
                    (got - want).abs() < 1e-12,
                    "({j},{k}): got {got}, want {want}"
                );
            }
        }
    }
}
