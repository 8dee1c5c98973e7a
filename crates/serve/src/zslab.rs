//! Z-slab routing: fan one volumetric job out over K backends, one
//! tier-stack slab each.
//!
//! A [`VolRouter`] takes a [`JobRequest`] carrying a full-stack
//! [`VolRequestExt`], splats and manipulates the volumetric density
//! **once** globally, and then advances the job as a pure field
//! computation: every halo-exchange round ships each slab its density
//! region (owned tiers plus `halo_layers` ghost tiers on each side,
//! [`ZSlabPartition`]), runs **exactly one FTCS step** per slab, and
//! stitches the owned tiers and owned cells back into the global state.
//! Cell ownership is re-derived from the freshest depths before every
//! round, so a cell that migrates across a slab boundary is handed to
//! its new owner in the next round.
//!
//! Correctness anchors:
//!
//! - **Bit-exactness at any K.** One FTCS step of an owned tier reads
//!   densities at most one tier away, and the velocity interpolation
//!   one more; a halo of two tiers therefore closes every read an owned
//!   cell or bin performs, making each round's owned results identical
//!   to one step of a direct full-stack run — K slabs, in-process or
//!   over TCP (`f64`s travel as bit patterns), reproduce the K = 1
//!   placement bit-for-bit.
//! - **The maximum principle survives stitching.** With `Δt·3 ≤ 1` an
//!   FTCS step is a convex combination, so no slab can raise its region
//!   above the global maximum; the stitched max-density trace is
//!   monotone non-increasing by construction and is reported in
//!   [`VolReply::max_density_trace`].
//! - **FTCS only.** The spectral solver jumps through time analytically
//!   and cannot honor a one-step halo contract; volumetric spectral
//!   runs go directly through
//!   [`VolumetricDiffusion`](dpm_diffusion::VolumetricDiffusion) instead, and the
//!   router rejects them with
//!   [`VolRouteError::SpectralUnsupported`].

use std::fmt;
use std::time::Instant;

use dpm_diffusion::{
    manipulate_density, splat_volume, KernelTimers, SolverKind, VolPlacement, ZSlabPartition,
};
use dpm_geom::Point;
use dpm_netlist::{CellId, CellKind, NetlistBuilder};
use dpm_obs::{normalize_spans, SpanRecord, SpanRecorder, TraceContext, TraceIdGen};
use dpm_place::{BinGrid, MovementStats, Placement};

use crate::shard::{dispatch, ShardBackend};
use crate::wire::{
    JobKind, JobRequest, JobResponse, PayloadEncoding, VolRequestExt, VolResponseExt,
};

/// Salt mixed into the inherited span id when seeding the router's
/// span-id generator; distinct from the planar router's and the
/// server's salts so stacked hops never collide id streams.
const SLAB_SEED_SALT: u64 = 0x51AB_CAFE_D00D_F00D;

/// Spans a traced route keeps locally (round + dispatch spans).
const SLAB_SPAN_CAPACITY: usize = 256;

/// Upper bound on remote spans stitched into one routed reply. A long
/// volumetric run exchanges hundreds of halo rounds; the earliest
/// rounds carry the structure a trace needs, the rest would only bloat
/// the wire export.
const SLAB_SPAN_COLLECT_CAP: usize = 2048;

/// Routing parameters for a [`VolRouter`].
#[derive(Debug, Clone)]
pub struct VolRouterConfig {
    /// Requested slab count K. Clamped to the stack height — a 3-tier
    /// stack never runs more than 3 slabs; [`VolReply::slabs`] reports
    /// what actually ran.
    pub slabs: usize,
    /// Ghost tiers shipped on each side of a slab's owned range. Two is
    /// exact for one FTCS step (one tier of density reach plus one of
    /// velocity reach); fewer trades exactness away and is rejected.
    pub halo_layers: usize,
    /// Payload encoding for TCP backends. Volumetric sub-jobs require
    /// [`PayloadEncoding::Binary`] — Bookshelf text has no tier axis.
    pub encoding: PayloadEncoding,
}

impl Default for VolRouterConfig {
    fn default() -> Self {
        Self {
            slabs: 2,
            halo_layers: 2,
            encoding: PayloadEncoding::Binary,
        }
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
    /// A slab backend failed. Exact stitching is impossible without its
    /// region, so the whole job fails rather than degrade.
    Backend {
        /// Slab whose backend failed.
        slab: usize,
        /// Transport or engine error.
        message: String,
    },
}

impl fmt::Display for VolRouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotVolumetric => write!(f, "request carries no volumetric extension"),
            Self::NotGlobal => write!(f, "volumetric routing runs global diffusion only"),
            Self::SpectralUnsupported => {
                write!(
                    f,
                    "z-slab halo exchange is FTCS-only; spectral stacks run directly"
                )
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
    /// Kernel timers merged across every in-process slab run.
    pub kernels: KernelTimers,
}

/// One slab's extracted sub-problem for one round.
struct SlabProblem {
    index: usize,
    /// Owned tier range `[z0, z1)` and first shipped tier `h0`.
    z0: usize,
    z1: usize,
    h0: usize,
    /// Sub-netlist index -> global cell id.
    map: Vec<CellId>,
    /// The one-step sub-job: every fixed macro plus the movable cells
    /// this slab owns, region-local depths, and the shipped density
    /// region (owned tiers plus ghosts), plane-major.
    sub: JobRequest,
}

/// What one slab's backend returned for one round.
struct SlabRun {
    positions: Vec<Point>,
    z_local: Vec<f64>,
    field: Vec<f64>,
    kernels: Option<KernelTimers>,
    /// Remote spans exported by a TCP backend, already re-based into
    /// the router's clock by the dispatch span's start.
    spans: Vec<SpanRecord>,
}

/// Fans one volumetric [`JobRequest`] out over K z-slab backends with
/// per-step halo exchange. See the [module docs](self) for the
/// contract.
pub struct VolRouter {
    cfg: VolRouterConfig,
    backends: Vec<ShardBackend>,
}

impl VolRouter {
    /// Creates a router. Slab `i` runs on backend `i % backends.len()`
    /// ([`slab_backend`](Self::slab_backend)).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.slabs` is zero or `backends` is empty.
    pub fn new(cfg: VolRouterConfig, backends: Vec<ShardBackend>) -> Self {
        assert!(cfg.slabs >= 1, "slab count must be positive");
        assert!(!backends.is_empty(), "at least one backend required");
        Self { cfg, backends }
    }

    /// Creates a router that runs every slab in-process.
    pub fn in_process(cfg: VolRouterConfig) -> Self {
        Self::new(cfg, vec![ShardBackend::InProcess])
    }

    /// The routing configuration.
    pub fn config(&self) -> &VolRouterConfig {
        &self.cfg
    }

    /// The configured backends.
    pub fn backends(&self) -> &[ShardBackend] {
        &self.backends
    }

    /// The backend slab `slab` runs on — the one a
    /// [`VolRouteError::Backend`] for that slab names.
    pub fn slab_backend(&self, slab: usize) -> ShardBackend {
        self.backends[slab % self.backends.len()]
    }

    /// Routes one full-stack volumetric job across the slabs and
    /// stitches the result.
    ///
    /// # Errors
    ///
    /// [`VolRouteError`] on a non-volumetric/non-global/spectral
    /// request, a malformed extension, or any backend failure — the
    /// router never returns a partially-migrated stack.
    pub fn route(&self, req: &JobRequest) -> Result<VolReply, VolRouteError> {
        let t0 = Instant::now();
        let ext = req.vol.as_ref().ok_or(VolRouteError::NotVolumetric)?;
        if !matches!(req.kind, JobKind::Global) {
            return Err(VolRouteError::NotGlobal);
        }
        if req.config.solver == SolverKind::Spectral {
            return Err(VolRouteError::SpectralUnsupported);
        }
        if ext.z.len() != req.netlist.num_cells() {
            return Err(VolRouteError::BadExtension(format!(
                "{} depths for {} cells",
                ext.z.len(),
                req.netlist.num_cells()
            )));
        }
        if ext.field.is_some()
            || ext.exact_steps.is_some()
            || ext.z0 != 0
            || ext.nz != ext.global_nz
        {
            return Err(VolRouteError::BadExtension(
                "routing expects a self-contained full-stack job".into(),
            ));
        }
        let nz = ext.global_nz as usize;
        let cfg = &req.config;
        let grid = BinGrid::new(req.die.outline(), cfg.bin_size);
        let nxy = grid.len();

        // Splat and manipulate once, globally — exactly the field a
        // direct full-stack run starts from. From here on the density
        // is a pure field: sub-jobs receive regions of it and never
        // re-splat, which is what makes the routed run bit-identical to
        // the direct one.
        let mut vp = VolPlacement {
            xy: req.placement.clone(),
            z: ext.z.clone(),
        };
        let (mut field, wall) = splat_volume(&req.netlist, &vp, &grid, nz);
        if cfg.manipulate {
            manipulate_density(&mut field, Some(&wall), cfg.d_max);
        }

        // The engine's live-density measure: max over non-wall bins (no
        // bins are frozen in a volumetric run).
        let max_live = |f: &[f64]| {
            let mut m = 0.0f64;
            for (i, &d) in f.iter().enumerate() {
                if !wall[i] {
                    m = m.max(d);
                }
            }
            m
        };
        let target = cfg.d_max + cfg.delta;
        let mut trace = vec![max_live(&field)];
        // Replicates the direct runner's pre-loop convergence check.
        let mut converged = trace[0] <= target;

        let partition = ZSlabPartition::new(nz, self.cfg.slabs, self.cfg.halo_layers);
        let k = partition.len();
        let mut kernels = KernelTimers::default();
        let mut rounds = 0usize;

        // Tracing state: a local recorder for round/dispatch spans and a
        // deterministic id generator seeded from the inherited context.
        let trace_ctx = req.trace;
        let recorder = trace_ctx.map(|_| SpanRecorder::new(SLAB_SPAN_CAPACITY));
        let recorder_ref = recorder.as_ref();
        let mut ids = trace_ctx.map(|ctx| TraceIdGen::seeded(ctx.span_id ^ SLAB_SEED_SALT));
        let mut collected_spans: Vec<SpanRecord> = Vec::new();

        while !converged && rounds < cfg.max_steps {
            // One `halo.round` span per exchange; dispatch contexts are
            // minted serially up front so span ids stay a pure function
            // of the inherited context, independent of thread timing.
            let round_trace = trace_ctx.map(|ctx| {
                let ids = ids.as_mut().expect("id generator exists when traced");
                let round_ctx = ids.child_of(&ctx);
                let dispatch: Vec<TraceContext> =
                    (0..k).map(|_| ids.child_of(&round_ctx)).collect();
                let start = recorder_ref.expect("recorder exists when traced").now_ns();
                (start, round_ctx, dispatch)
            });
            // Ownership and shipped regions derive from the freshest
            // depths and field.
            let problems: Vec<SlabProblem> = (0..k)
                .map(|s| {
                    let ctx = round_trace.as_ref().map(|(_, _, dispatch)| dispatch[s]);
                    extract_slab(req, &vp, &partition, s, &field, nxy, ctx)
                })
                .collect();

            let runs: Vec<Result<SlabRun, String>> = std::thread::scope(|scope| {
                let handles: Vec<_> = problems
                    .iter()
                    .map(|problem| {
                        let backend = self.slab_backend(problem.index);
                        let encoding = self.cfg.encoding;
                        scope.spawn(move || run_slab(backend, problem, encoding, recorder_ref))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("slab thread never panics"))
                    .collect()
            });

            for (problem, run) in problems.iter().zip(runs) {
                let mut run = run.map_err(|message| VolRouteError::Backend {
                    slab: problem.index,
                    message,
                })?;
                let room = SLAB_SPAN_COLLECT_CAP.saturating_sub(collected_spans.len());
                run.spans.truncate(room);
                collected_spans.append(&mut run.spans);
                // Stitch the owned tiers of the evolved region…
                for z in problem.z0..problem.z1 {
                    let src = (z - problem.h0) * nxy;
                    field[z * nxy..(z + 1) * nxy].copy_from_slice(&run.field[src..src + nxy]);
                }
                // …and the owned cells. Macros ride along for the wall
                // mask only; their positions never change.
                for (i, &gid) in problem.map.iter().enumerate() {
                    if req.netlist.cell(gid).kind == CellKind::Movable {
                        vp.xy.set(gid, run.positions[i]);
                        vp.z[gid.index()] = run.z_local[i] + problem.h0 as f64;
                    }
                }
                if let Some(kt) = run.kernels {
                    kernels.merge(&kt);
                }
            }

            rounds += 1;
            let m = max_live(&field);
            trace.push(m);
            converged = m <= target;
            if let Some((start, round_ctx, _)) = &round_trace {
                let recorder = recorder_ref.expect("recorder exists when traced");
                recorder.record_traced("halo.round", *start, recorder.now_ns(), *round_ctx);
            }
        }

        // Assemble the stitched span tree: router round/dispatch spans
        // plus every backend's re-based remote spans, normalized so the
        // earliest span starts at 0 (a receiver one hop up re-bases
        // again onto its own dispatch span).
        let spans = match (recorder_ref, trace_ctx) {
            (Some(recorder), Some(ctx)) => {
                let mut spans = recorder.drain_trace(ctx.trace_id);
                spans.append(&mut collected_spans);
                normalize_spans(&mut spans);
                spans
            }
            _ => Vec::new(),
        };

        let movement = MovementStats::between(&req.netlist, &req.placement, &vp.xy);
        let response = JobResponse {
            id: req.id,
            converged,
            steps: rounds as u64,
            rounds: rounds as u64,
            total_movement: movement.total,
            max_movement: movement.max,
            queue_ns: 0,
            service_ns: t0.elapsed().as_nanos() as u64,
            positions: vp.xy.as_slice().to_vec(),
            vol: Some(VolResponseExt {
                z: vp.z,
                field: Some(field),
            }),
            spans,
        };
        Ok(VolReply {
            response,
            slabs: k,
            rounds,
            max_density_trace: trace,
            kernels,
        })
    }
}

/// Builds one slab's sub-problem: every fixed macro (for the
/// through-stack wall mask) plus the movable cells whose depth the slab
/// owns, with region-local depths and the slab's density region, as a
/// one-step sub-job that inherits `trace`.
fn extract_slab(
    req: &JobRequest,
    vp: &VolPlacement,
    partition: &ZSlabPartition,
    slab_idx: usize,
    field: &[f64],
    nxy: usize,
    trace: Option<TraceContext>,
) -> SlabProblem {
    let slab = partition.slabs()[slab_idx];
    let mut b = NetlistBuilder::with_capacity(req.netlist.num_cells(), 0, 0);
    let mut map = Vec::new();
    for c in req.netlist.cell_ids() {
        let cell = req.netlist.cell(c);
        let keep = match cell.kind {
            CellKind::FixedMacro => true,
            CellKind::Movable => partition.owner_of_depth(vp.z[c.index()]) == slab_idx,
            CellKind::Pad => false,
        };
        if keep {
            b.add_cell_with_delay(
                cell.name.clone(),
                cell.width,
                cell.height,
                cell.kind,
                cell.delay,
            );
            map.push(c);
        }
    }
    let netlist = b.build().expect("sub-netlist of existing cells is valid");
    let mut placement = Placement::new(netlist.num_cells());
    let mut z_local = Vec::with_capacity(map.len());
    for (sub, &gid) in netlist.cell_ids().zip(map.iter()) {
        placement.set(sub, vp.xy.get(gid));
        z_local.push(vp.z[gid.index()] - slab.h0 as f64);
    }
    let sub = JobRequest {
        id: req.id,
        deadline_ms: req.deadline_ms,
        progress_stride: 0,
        kind: JobKind::Global,
        design: format!("{}/slab{slab_idx}", req.design),
        config: req.config.clone(),
        netlist,
        die: req.die.clone(),
        placement,
        vol: Some(VolRequestExt {
            nz: (slab.h1 - slab.h0) as u32,
            z0: slab.h0 as u32,
            global_nz: partition.nz() as u32,
            exact_steps: Some(1),
            z: z_local,
            field: Some(field[slab.h0 * nxy..slab.h1 * nxy].to_vec()),
        }),
        trace,
    };
    SlabProblem {
        index: slab_idx,
        z0: slab.z0,
        z1: slab.z1,
        h0: slab.h0,
        map,
        sub,
    }
}

/// Runs one slab's one-step sub-job on its backend through [`dispatch`]
/// and checks the reply's shape. Any failure is an `Err` — the router
/// fails the whole job.
fn run_slab(
    backend: ShardBackend,
    problem: &SlabProblem,
    encoding: PayloadEncoding,
    recorder: Option<&SpanRecorder>,
) -> Result<SlabRun, String> {
    let (resp, kernels) = dispatch(backend, &problem.sub, encoding, recorder, &mut |_| {})?;
    let ext = resp
        .vol
        .ok_or_else(|| "backend reply lacks the volumetric extension".to_string())?;
    let field = ext
        .field
        .ok_or_else(|| "backend reply lacks the evolved field".to_string())?;
    let shipped = problem.sub.vol.as_ref().and_then(|v| v.field.as_ref());
    let shipped_len = shipped.map_or(0, Vec::len);
    if resp.positions.len() != problem.map.len()
        || ext.z.len() != problem.map.len()
        || field.len() != shipped_len
    {
        return Err(format!(
            "backend returned {} positions / {} depths / {} field bins for {} cells / {} bins",
            resp.positions.len(),
            ext.z.len(),
            field.len(),
            problem.map.len(),
            shipped_len
        ));
    }
    Ok(SlabRun {
        positions: resp.positions,
        z_local: ext.z,
        field,
        kernels,
        spans: resp.spans,
    })
}
