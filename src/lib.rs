#![warn(missing_docs)]

//! # diffuplace — diffusion-based placement migration
//!
//! A Rust reproduction of *"Diffusion-Based Placement Migration with
//! Application on Legalization"* (Ren, Pan, Alpert, Villarrubia, Nam —
//! DAC 2005 / IEEE TCAD 2007).
//!
//! This facade crate re-exports the workspace's public API under topical
//! modules so downstream users need a single dependency:
//!
//! - [`geom`] — points, rectangles, overlap arithmetic
//! - [`netlist`] — cells, pins, nets, DAG levelization
//! - [`place`] — placement, rows, bins, density maps, HPWL, legality
//! - [`diffusion`] — the paper's contribution: FTCS density evolution,
//!   velocity fields, global ([`diffusion::GlobalDiffusion`]) and robust
//!   local ([`diffusion::LocalDiffusion`]) migration
//! - [`legalize`] — detailed, greedy, flow-based, Tetris, row-DP and
//!   grid-stretch legalizers, plus the diffusion legalizer glue
//! - [`mcmf`] — min-cost max-flow substrate used by the FLOW baseline
//! - [`sta`] — static timing (worst slack, FOM)
//! - [`congestion`] — RUDY-style routing-demand estimation
//! - [`gen`] — synthetic benchmark circuits and inflation workloads
//! - [`viz`] — SVG rendering of placements and migration vectors
//! - [`par`] — deterministic fixed-chunk worker pool behind every
//!   parallel kernel (bit-identical results at any thread count)
//! - [`rng`] — the tiny SplitMix64 generator used by [`gen`] and tests
//! - [`serve`] — migration-as-a-service: the framed wire protocol, the
//!   one job executor (per-request deadlines, streaming progress
//!   frames), the client, JSONL request logs and the shard routers
//! - [`ctl`] — the migration server over [`serve`]: poll-based
//!   connection front-end, bounded deficit-round-robin tenant queues,
//!   content-hash design cache with ECO-delta streaming, health-checked
//!   backend registry with warm spares
//! - [`obs`] — std-only observability: atomic metrics registry,
//!   fixed-bucket histograms with deterministic merge, bounded span
//!   recorder
//!
//! # Quickstart
//!
//! ```
//! use diffuplace::gen::{CircuitSpec, InflationSpec};
//! use diffuplace::legalize::{DiffusionLegalizer, Legalizer};
//! use diffuplace::place::hpwl;
//!
//! // Generate a small legal placement, then inflate 10% of cells by 60%
//! // width to create overlap (mimicking repowering during physical
//! // synthesis).
//! let spec = CircuitSpec::small(42);
//! let mut bench = spec.generate();
//! bench.inflate(&InflationSpec::random_width(0.1, 1.6, 7));
//!
//! let before = hpwl(&bench.netlist, &bench.placement);
//! let outcome = DiffusionLegalizer::local_default()
//!     .legalize(&bench.netlist, &bench.die, &mut bench.placement);
//! assert!(outcome.is_legal);
//! let after = hpwl(&bench.netlist, &bench.placement);
//! // Legalization perturbs wirelength only modestly.
//! assert!(after < before * 2.0);
//! ```

pub use dpm_bookshelf as bookshelf;
pub use dpm_congestion as congestion;
pub use dpm_ctl as ctl;
pub use dpm_diffusion as diffusion;
pub use dpm_gen as gen;
pub use dpm_geom as geom;
pub use dpm_legalize as legalize;
pub use dpm_mcmf as mcmf;
pub use dpm_netlist as netlist;
pub use dpm_obs as obs;
pub use dpm_par as par;
pub use dpm_place as place;
pub use dpm_qplace as qplace;
pub use dpm_rng as rng;
pub use dpm_route as route;
pub use dpm_serve as serve;
pub use dpm_sta as sta;
pub use dpm_viz as viz;
