#![warn(missing_docs)]

//! Diffusion-based placement migration.
//!
//! This crate implements the primary contribution of *"Diffusion-Based
//! Placement Migration with Application on Legalization"* (Ren, Pan,
//! Alpert, Villarrubia, Nam — DAC 2005 / IEEE TCAD 2007):
//!
//! - the **continuous diffusion model** of placement density (Eq. 1) and
//!   its discretization by Forward-Time-Centered-Space (Eq. 4), including
//!   the mirror boundary conditions around chip edges and fixed macros
//!   (Section V-B) — see [`DiffusionEngine`];
//! - the **velocity field** driving cell motion (Eq. 5) and the bilinear
//!   **velocity interpolation** that keeps side-by-side cells moving
//!   coherently (Eq. 6) — see [`DiffusionEngine::velocity_at`];
//! - **density-map manipulation** (Eq. 8) that prevents over-spreading by
//!   lifting under-full bins so the equilibrium density equals the target
//!   — see [`manipulate_density`];
//! - **global diffusion legalization** (Algorithm 1) —
//!   [`GlobalDiffusion`];
//! - **local diffusion windows** (Algorithm 2) — [`identify_windows`];
//! - the **robust local diffusion** flow with dynamic density update
//!   (Algorithm 3) — [`LocalDiffusion`];
//! - **die sharding** for horizontal scale: bin-aligned rectangular
//!   shard regions with read-only density halos and an exclusive-owner
//!   stitcher — [`ShardPartition`], [`stitch_positions`] (the routing
//!   loop lives in `dpm-serve`);
//! - a **closed-form spectral solver**: the diffusion equation
//!   diagonalizes in the DCT basis under the engine's zero-flux
//!   boundaries, so `ρ(t)` for any `t` is one cached forward transform
//!   plus one decayed inverse transform — [`SpectralSolver`], one solver
//!   for planar and volumetric grids ([`SpectralSolver::with_dims`]),
//!   selected per run with [`SolverKind::Spectral`] on [`DiffusionConfig`]
//!   (walled/frozen grids automatically keep the FTCS stepper).
//!
//! [`GlobalDiffusion`], [`VolumetricDiffusion`] and [`FieldMigration`]
//! run one stride loop: velocity (Eq. 5), one advect (Eq. 7), then the
//! density update (Eq. 4) by FTCS sweeps or the spectral jump. They hand
//! it only a sweep cap, whether FTCS strides double, whether to test
//! convergence, and their advect (planar on the worker pool, or the
//! serial volumetric one). [`LocalDiffusion`] keeps its own round loop
//! around windows and live cells.
//!
//! All four hot kernels — FTCS step, velocity field, cell advection and
//! the density splat — run on the deterministic worker pool of
//! [`dpm_par`]: work is decomposed into fixed chunks independent of the
//! thread count, so results are bit-identical at any parallelism. Set the
//! thread count with [`DiffusionConfig::with_threads`]. Each runner times
//! every kernel call once: the call becomes one [`KernelEvent`] for the
//! run's observer, and [`KernelTimers`] on the run's [`Telemetry`] are the
//! fold of those events. The engine itself keeps no clock.
//!
//! Runs can be watched live through a [`DiffusionObserver`] attached
//! with `run_observed` on [`GlobalDiffusion`] and [`LocalDiffusion`]
//! (`run_job_observed` on [`VolumetricDiffusion`]), the one entry point
//! that also takes a cancellation hook; [`FieldMigration`] has only
//! `run`, unobserved and uncancellable. The per-step, per-round and
//! per-kernel callbacks see only post-step state and therefore never
//! perturb the dynamics (observed runs are bit-identical to plain
//! runs). Trajectory tracing and `dpm-serve`'s streaming progress
//! frames, planar and volumetric, are both observers.
//!
//! The engine works in *bin coordinates*: the die is divided into square
//! bins and scaled so each bin is 1×1, exactly as the paper assumes. The
//! orchestrators ([`GlobalDiffusion`], [`LocalDiffusion`]) handle the
//! world↔bin transforms and push cells of a real
//! [`Placement`](dpm_place::Placement) through the velocity field.
//!
//! # Quickstart
//!
//! ```
//! use dpm_geom::Point;
//! use dpm_netlist::{NetlistBuilder, CellKind};
//! use dpm_place::{Die, Placement};
//! use dpm_diffusion::{DiffusionConfig, GlobalDiffusion};
//!
//! // Ten cells piled into one spot of a small die.
//! let mut b = NetlistBuilder::new();
//! for i in 0..10 {
//!     b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::Movable);
//! }
//! let nl = b.build()?;
//! let die = Die::new(120.0, 120.0, 12.0);
//! let mut placement = Placement::new(nl.num_cells());
//! for c in nl.cell_ids() {
//!     placement.set(c, Point::new(48.0, 48.0));
//! }
//!
//! let cfg = DiffusionConfig::default().with_bin_size(24.0);
//! let result = GlobalDiffusion::new(cfg).run(&nl, &die, &mut placement);
//! assert!(result.converged);
//! # Ok::<(), dpm_netlist::BuildNetlistError>(())
//! ```

mod advect;
mod config;
mod cpu;
mod dims;
mod engine;
mod field;
mod global;
mod local;
mod manip;
mod observe;
mod shard;
mod spectral;
mod stride;
mod telemetry;
mod trace;
mod velocity;
mod vol;
mod window;

pub use advect::AdvectOutcome;
pub use config::{ConfigError, DiffusionConfig, FieldPrecision, LaneMode, SolverKind};
pub use cpu::simd;
pub use dims::Dims;
pub use engine::DiffusionEngine;
pub use field::FieldMigration;
pub use global::{DiffusionResult, GlobalDiffusion};
pub use local::LocalDiffusion;
pub use manip::manipulate_density;
pub use observe::{
    DiffusionObserver, KernelEvent, KernelKind, NoopObserver, RoundEvent, SpanObserver, StepEvent,
    KERNEL_SPAN_CAP,
};
pub use shard::{
    stitch_positions, BinRect, ShardPartition, ShardProblem, ShardRegion, ZSlab, ZSlabPartition,
};
pub use spectral::{DctPlan, SpectralSolver};
pub use telemetry::{KernelTimers, KernelTiming, StepRecord, Telemetry};
pub use trace::{trace_global_diffusion, TracedRun, Trajectory};
pub use velocity::interpolate_velocity;
pub use vol::{
    splat_volume, volume_wall_mask, VolJobSpec, VolPlacement, VolResult, VolumetricDiffusion,
};
pub use window::{identify_windows, identify_windows_into};
