#![warn(missing_docs)]

//! Placement model: die geometry, cell positions, bin grids, density maps,
//! wirelength, legality checking, and movement statistics.
//!
//! This crate is the physical substrate shared by the diffusion engine and
//! every legalizer: a [`Placement`] assigns each cell of a
//! [`Netlist`](dpm_netlist::Netlist) a lower-left corner inside a [`Die`]
//! made of standard-cell rows; a [`BinGrid`] discretizes the die into equal
//! bins; a [`DensityMap`] measures per-bin area utilization (the quantity
//! the diffusion equation evolves); [`hpwl`] measures total half-perimeter
//! wirelength; [`LegalityReport`] checks row alignment and overlap freedom;
//! and [`MovementStats`] quantifies how much a migration perturbed the
//! design.
//!
//! # Examples
//!
//! ```
//! use dpm_geom::Point;
//! use dpm_netlist::{NetlistBuilder, CellKind, PinDir};
//! use dpm_place::{Die, Placement, hpwl};
//!
//! let mut b = NetlistBuilder::new();
//! let u = b.add_cell("u", 4.0, 12.0, CellKind::Movable);
//! let v = b.add_cell("v", 4.0, 12.0, CellKind::Movable);
//! let n = b.add_net("n");
//! b.connect(u, n, PinDir::Output, 4.0, 6.0);
//! b.connect(v, n, PinDir::Input, 0.0, 6.0);
//! let nl = b.build()?;
//!
//! let die = Die::new(120.0, 120.0, 12.0);
//! let mut p = Placement::new(nl.num_cells());
//! p.set(u, Point::new(0.0, 0.0));
//! p.set(v, Point::new(10.0, 0.0));
//! assert_eq!(hpwl(&nl, &p), 6.0); // driver pin at x=4, sink pin at x=10
//! # Ok::<(), dpm_netlist::BuildNetlistError>(())
//! ```

mod bins;
mod density;
mod die;
mod hpwl;
mod legality;
mod movement;
mod placement;

pub use bins::{BinGrid, BinIdx};
pub use density::{splat_rect, DensityMap};
pub use die::{Die, Row};
pub use hpwl::{hpwl, net_bbox, net_hpwl};
pub use legality::{check_legality, LegalityReport, Violation};
pub use movement::MovementStats;
pub use placement::Placement;
