//! Z-slab routing: fan one volumetric job out over K backends, one
//! tier-stack slab each.
//!
//! A [`VolRouter`] takes a [`JobRequest`] carrying a full-stack
//! [`VolRequestExt`], splats and manipulates the volumetric density
//! **once** globally, and then advances the job as a pure field
//! computation: every halo-exchange round ships each slab its density
//! region (owned tiers plus two ghost tiers on each side,
//! [`ZSlabPartition`]), runs **exactly one FTCS step** per slab, and
//! stitches the owned tiers and owned cells back into the global state.
//! Cell ownership is re-derived from the freshest depths before every
//! round, so a cell that migrates across a slab boundary is handed to
//! its new owner in the next round.
//!
//! The round loop itself — fan-out, warm-spare failover, tracing and
//! response assembly — is shared with the planar
//! [`ShardRouter`](crate::ShardRouter); this module supplies only the
//! slab partition's decisions: how a slab's one-step sub-job is cut and
//! stitched, that the loop runs until the stack converges or
//! `max_steps` rounds, and that a slab failing on every backend fails
//! the whole job.
//!
//! Correctness anchors:
//!
//! - **Bit-exactness at any K.** One FTCS step of an owned tier reads
//!   densities at most one tier away, and the velocity interpolation
//!   one more; a halo of two tiers therefore closes every read an owned
//!   cell or bin performs, making each round's owned results identical
//!   to one step of a direct full-stack run — K slabs, in-process or
//!   over TCP (`f64`s travel as bit patterns), reproduce the K = 1
//!   placement bit-for-bit. Two is the only exact width, so the halo is
//!   a constant, not a knob.
//! - **The maximum principle survives stitching.** With `Δt·3 ≤ 1` an
//!   FTCS step is a convex combination, so no slab can raise its region
//!   above the global maximum; the stitched max-density trace is
//!   monotone non-increasing by construction and is reported in
//!   [`VolReply::max_density_trace`].
//! - **No degraded results.** Exact stitching needs every slab's
//!   region, so a slab whose backend and every warm spare failed fails
//!   the job with [`VolRouteError::Backend`].
//! - **FTCS only.** The spectral solver jumps through time analytically
//!   and cannot honor a one-step halo contract; volumetric spectral
//!   runs go directly through
//!   [`VolumetricDiffusion`](dpm_diffusion::VolumetricDiffusion) instead, and the
//!   router rejects them with
//!   [`VolRouteError::SpectralUnsupported`].

use std::fmt;
use std::time::Instant;

use dpm_diffusion::{
    manipulate_density, splat_volume, KernelTimers, SolverKind, VolPlacement, ZSlab, ZSlabPartition,
};
use dpm_netlist::{CellId, CellKind};
use dpm_place::BinGrid;

use crate::router::{self, Finished, PartReply, Partition};
use crate::shard::{ShardBackend, ShardFailover};
use crate::wire::{JobKind, JobRequest, JobResponse, VolRequestExt, VolResponseExt};

/// Ghost tiers shipped on each side of a slab's owned range: one tier
/// of density reach plus one of velocity reach, exact for one FTCS step.
const HALO_TIERS: usize = 2;

/// Routing parameters for a [`VolRouter`].
#[derive(Debug, Clone)]
pub struct VolRouterConfig {
    /// Requested slab count K. Clamped to the stack height — a 3-tier
    /// stack never runs more than 3 slabs; [`VolReply::slabs`] reports
    /// what actually ran.
    pub slabs: usize,
}

impl Default for VolRouterConfig {
    fn default() -> Self {
        Self { slabs: 2 }
    }
}

/// Why a [`VolRouter`] refused or abandoned a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VolRouteError {
    /// The request carries no volumetric extension; use a
    /// [`ShardRouter`](crate::ShardRouter) for planar jobs.
    NotVolumetric,
    /// Volumetric routing runs global diffusion only.
    NotGlobal,
    /// The one-step halo-exchange contract is FTCS-only; run spectral
    /// stacks directly through
    /// [`VolumetricDiffusion`](dpm_diffusion::VolumetricDiffusion).
    SpectralUnsupported,
    /// The extension is not a self-contained full-stack job, or its
    /// arrays do not match the design.
    BadExtension(String),
    /// A slab failed on its backend and on every warm spare. Exact
    /// stitching is impossible without its region, so the whole job
    /// fails rather than degrade.
    Backend {
        /// Slab whose backend failed.
        slab: usize,
        /// Transport, engine or reply-shape error.
        message: String,
    },
}

impl fmt::Display for VolRouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotVolumetric => write!(f, "request carries no volumetric extension"),
            Self::NotGlobal => write!(f, "volumetric routing runs global diffusion only"),
            Self::SpectralUnsupported => {
                f.write_str("z-slab halo exchange is FTCS-only; spectral stacks run directly")
            }
            Self::BadExtension(msg) => write!(f, "bad volumetric extension: {msg}"),
            Self::Backend { slab, message } => write!(f, "slab {slab} backend failed: {message}"),
        }
    }
}

impl std::error::Error for VolRouteError {}

/// Everything the router learned from one routed volumetric job.
#[derive(Debug, Clone)]
pub struct VolReply {
    /// Aggregated response in the same shape a direct volumetric run
    /// would produce: planar positions, a [`VolResponseExt`] with the
    /// final depths and the evolved global field.
    pub response: JobResponse,
    /// Number of slabs that actually ran (after stack clamping).
    pub slabs: usize,
    /// Halo-exchange rounds executed; each round is one global FTCS
    /// step, so this equals the reported step count.
    pub rounds: usize,
    /// Global max live density before round 1 and after every round;
    /// monotone non-increasing (the FTCS maximum principle survives the
    /// stitch).
    pub max_density_trace: Vec<f64>,
    /// Warm-spare replacements performed during this job, in the order
    /// they happened.
    pub failovers: Vec<ShardFailover>,
    /// Kernel timers merged across every in-process slab run: exactly the
    /// sub-jobs this process ran. A TCP backend bills its runs in its own
    /// `StatsSnapshot` and in the stitched spans.
    pub kernels: KernelTimers,
}

/// Fans one volumetric [`JobRequest`] out over K z-slab backends with
/// per-step halo exchange. See the [module docs](self) for the
/// contract.
pub struct VolRouter {
    cfg: VolRouterConfig,
    backends: Vec<ShardBackend>,
    spares: Vec<ShardBackend>,
}

impl VolRouter {
    /// Creates a router. Slab `i` runs on backend `i % backends.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.slabs` is zero or `backends` is empty.
    pub fn new(cfg: VolRouterConfig, backends: Vec<ShardBackend>) -> Self {
        Self::with_spares(cfg, backends, Vec::new())
    }

    /// Creates a router with warm spares, with the same policy as
    /// [`ShardRouter::with_spares`](crate::ShardRouter::with_spares): a
    /// slab whose backend fails a round is retried on the first untried
    /// spare within the same round, and that spare takes over the slab
    /// for the rest of the job.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.slabs` is zero or `backends` is empty.
    pub fn with_spares(
        cfg: VolRouterConfig,
        backends: Vec<ShardBackend>,
        spares: Vec<ShardBackend>,
    ) -> Self {
        assert!(cfg.slabs >= 1, "slab count must be positive");
        assert!(!backends.is_empty(), "at least one backend required");
        Self {
            cfg,
            backends,
            spares,
        }
    }

    /// Creates a router that runs every slab in-process.
    pub fn in_process(cfg: VolRouterConfig) -> Self {
        Self::new(cfg, vec![ShardBackend::InProcess])
    }

    /// The primary backend slab `slab` runs on — the one a
    /// [`VolRouteError::Backend`] for that slab failed on first.
    pub fn slab_backend(&self, slab: usize) -> ShardBackend {
        self.backends[slab % self.backends.len()]
    }

    /// Routes one full-stack volumetric job across the slabs and
    /// stitches the result.
    ///
    /// # Errors
    ///
    /// [`VolRouteError`] on a non-volumetric/non-global/spectral
    /// request, a malformed extension, or a slab that failed on every
    /// backend — the router never returns a partially-migrated stack.
    pub fn route(&self, req: &JobRequest) -> Result<VolReply, VolRouteError> {
        let started = Instant::now();
        let ext = req.vol.as_ref().ok_or(VolRouteError::NotVolumetric)?;
        if !matches!(req.kind, JobKind::Global) {
            return Err(VolRouteError::NotGlobal);
        }
        if req.config.solver == SolverKind::Spectral {
            return Err(VolRouteError::SpectralUnsupported);
        }
        let cells = req.netlist.num_cells();
        if ext.z.len() != cells
            || ext.field.is_some()
            || ext.exact_steps.is_some()
            || ext.z0 != 0
            || ext.nz != ext.global_nz
        {
            return Err(VolRouteError::BadExtension(format!(
                "routing expects a self-contained full-stack job ({} depths for {cells} cells)",
                ext.z.len()
            )));
        }
        let nz = ext.global_nz as usize;
        let grid = BinGrid::new(req.die.outline(), req.config.bin_size);

        // Splat and manipulate once, globally — exactly the field a
        // direct full-stack run starts from. From here on the density
        // is a pure field: sub-jobs receive regions of it and never
        // re-splat, which is what makes the routed run bit-identical to
        // the direct one.
        let vp = VolPlacement {
            xy: req.placement.clone(),
            z: ext.z.clone(),
        };
        let (mut field, wall) = splat_volume(&req.netlist, &vp, &grid, nz);
        if req.config.manipulate {
            manipulate_density(&mut field, Some(&wall), req.config.d_max);
        }
        let mut slabs = Slabs {
            req,
            partition: ZSlabPartition::new(nz, self.cfg.slabs, HALO_TIERS),
            nxy: grid.len(),
            vp,
            field,
            wall,
            trace: Vec::new(),
            converged: false,
        };
        let routed = router::route(req, &mut slabs, &self.backends, &self.spares, started)?;
        Ok(VolReply {
            response: routed.response,
            slabs: slabs.partition.len(),
            rounds: routed.rounds,
            max_density_trace: slabs.trace,
            failovers: routed.failovers,
            kernels: routed.kernels,
        })
    }
}

/// The slab partition's side of the round loop: the global depths and
/// density field every round reads its regions from and stitches its
/// owned tiers and cells back into.
struct Slabs<'a> {
    req: &'a JobRequest,
    partition: ZSlabPartition,
    /// Bins per tier.
    nxy: usize,
    vp: VolPlacement,
    field: Vec<f64>,
    wall: Vec<bool>,
    trace: Vec<f64>,
    converged: bool,
}

/// What stitching one slab's reply needs: its owned and shipped tier
/// ranges, and the sub-netlist index -> global cell id map.
struct SlabCut {
    slab: ZSlab,
    map: Vec<CellId>,
}

impl Partition for Slabs<'_> {
    type Cut = SlabCut;
    type Error = VolRouteError;

    fn len(&self) -> usize {
        self.partition.len()
    }

    fn next_round(&mut self, rounds: usize) -> bool {
        // The engine's live-density measure: max over non-wall bins (no
        // bins are frozen in a volumetric run). The trace holds the
        // input's max, then one per stitched round; the direct runner
        // checks convergence before its first step too.
        let live = self.field.iter().zip(&self.wall).filter(|(_, &w)| !w);
        let max = live.fold(0.0f64, |m, (&d, _)| m.max(d));
        self.trace.push(max);
        self.converged = max <= self.req.config.d_max + self.req.config.delta;
        !self.converged && rounds < self.req.config.max_steps
    }

    /// Cuts one slab's one-step sub-job: every fixed macro (for the
    /// through-stack wall mask) plus the movable cells whose depth the
    /// slab owns, with region-local depths and the slab's density
    /// region (owned tiers plus ghosts), plane-major.
    fn cut(&self, slab_idx: usize) -> Option<(JobRequest, SlabCut)> {
        let (req, vp) = (self.req, &self.vp);
        let slab = self.partition.slabs()[slab_idx];
        let keep = |c: CellId| match req.netlist.cell(c).kind {
            CellKind::FixedMacro => true,
            CellKind::Movable => self.partition.owner_of_depth(vp.z[c.index()]) == slab_idx,
            CellKind::Pad => false,
        };
        let map: Vec<CellId> = req.netlist.cell_ids().filter(|&c| keep(c)).collect();
        let z_local = map.iter().map(|&c| vp.z[c.index()] - slab.h0 as f64);
        let field = self.field[slab.h0 * self.nxy..slab.h1 * self.nxy].to_vec();
        let sub = JobRequest {
            progress_stride: 0,
            design: format!("{}/slab{slab_idx}", req.design),
            config: req.config.clone(),
            netlist: req.netlist.cell_subset(&map),
            die: req.die.clone(),
            placement: map.iter().map(|&c| vp.xy.get(c)).collect(),
            vol: Some(VolRequestExt {
                nz: (slab.h1 - slab.h0) as u32,
                z0: slab.h0 as u32,
                global_nz: self.partition.nz() as u32,
                exact_steps: Some(1),
                z: z_local.collect(),
                field: Some(field),
            }),
            trace: None,
            ..*req
        };
        Some((sub, SlabCut { slab, map }))
    }

    fn stitch(&mut self, slab: usize, cut: SlabCut, reply: PartReply) -> Result<(), VolRouteError> {
        let resp = reply.map_err(|message| VolRouteError::Backend { slab, message })?;
        let ext = resp.vol.expect("checked reply carries depths");
        let field = ext.field.expect("checked reply carries the field");
        // Stitch the owned tiers of the evolved region…
        let nxy = self.nxy;
        let ZSlab { z0, z1, h0, .. } = cut.slab;
        let owned = (z0 - h0) * nxy..(z1 - h0) * nxy;
        self.field[z0 * nxy..z1 * nxy].copy_from_slice(&field[owned]);
        // …and the owned cells. Macros ride along for the wall mask
        // only; their positions never change.
        for (i, &gid) in cut.map.iter().enumerate() {
            if self.req.netlist.cell(gid).kind == CellKind::Movable {
                self.vp.xy.set(gid, resp.positions[i]);
                self.vp.z[gid.index()] = ext.z[i] + h0 as f64;
            }
        }
        Ok(())
    }

    fn finish(&mut self) -> Finished {
        let steps = (self.trace.len() - 1) as u64;
        Finished {
            converged: self.converged,
            steps,
            rounds: steps,
            placement: std::mem::take(&mut self.vp.xy),
            vol: Some(VolResponseExt {
                z: std::mem::take(&mut self.vp.z),
                field: Some(std::mem::take(&mut self.field)),
            }),
        }
    }
}
