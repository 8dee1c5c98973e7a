#![warn(missing_docs)]

//! Netlist data model for placement migration.
//!
//! A [`Netlist`] is the logical view of a circuit: [`Cell`]s carrying
//! [`Pin`]s, connected by [`Net`]s. The placement crates attach geometry to
//! it; the timing crate derives a DAG from it. Identifiers are typed
//! newtypes ([`CellId`], [`NetId`], [`PinId`]) so they cannot be mixed up.
//!
//! Netlists are built through [`NetlistBuilder`], which validates
//! connectivity as it goes and produces an immutable netlist with
//! precomputed cell→pin and net→pin indexes.
//!
//! # Examples
//!
//! ```
//! use dpm_netlist::{NetlistBuilder, CellKind, PinDir};
//!
//! let mut b = NetlistBuilder::new();
//! let a = b.add_cell("a", 4.0, 12.0, CellKind::Movable);
//! let c = b.add_cell("c", 6.0, 12.0, CellKind::Movable);
//! let n = b.add_net("n1");
//! b.connect(a, n, PinDir::Output, 2.0, 6.0);
//! b.connect(c, n, PinDir::Input, 0.0, 6.0);
//! let netlist = b.build()?;
//! assert_eq!(netlist.num_cells(), 2);
//! assert_eq!(netlist.net(n).pins.len(), 2);
//! # Ok::<(), dpm_netlist::BuildNetlistError>(())
//! ```

mod builder;
mod dag;
mod ids;

pub use builder::{BuildNetlistError, NetlistBuilder};
pub use dag::{levelize, LevelizeResult};
pub use ids::{CellId, NetId, PinId};

use dpm_geom::Point;

/// What kind of object a cell is, which controls whether legalization and
/// migration may move it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CellKind {
    /// A standard cell that placement migration may move.
    #[default]
    Movable,
    /// A fixed macro block; occupies area, never moves, and diffusion must
    /// route cells around it.
    FixedMacro,
    /// An I/O pad on the die boundary; never moves, contributes pins but no
    /// placement area.
    Pad,
}

impl CellKind {
    /// `true` for objects that legalization may relocate.
    #[inline]
    pub fn is_movable(self) -> bool {
        matches!(self, CellKind::Movable)
    }

    /// `true` for objects that occupy placement area (movable cells and
    /// macros, but not pads).
    #[inline]
    pub fn occupies_area(self) -> bool {
        !matches!(self, CellKind::Pad)
    }
}

/// Signal direction of a pin, from the perspective of the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinDir {
    /// The cell reads this signal.
    Input,
    /// The cell drives this signal.
    Output,
}

/// A logic cell, macro, or pad.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Human-readable instance name.
    pub name: String,
    /// Width in placement units.
    pub width: f64,
    /// Height in placement units (standard cells: one row height).
    pub height: f64,
    /// Movability class.
    pub kind: CellKind,
    /// Intrinsic input-to-output delay used by the timing substrate.
    pub delay: f64,
    /// Pins on this cell.
    pub pins: Vec<PinId>,
}

impl Cell {
    /// Placement area of the cell.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width * self.height
    }
}

/// A signal net connecting two or more pins.
#[derive(Debug, Clone)]
pub struct Net {
    /// Human-readable net name.
    pub name: String,
    /// All pins on the net. The driver (if any) is found via
    /// [`Netlist::driver_of`].
    pub pins: Vec<PinId>,
}

/// A connection point on a cell.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    /// Owning cell.
    pub cell: CellId,
    /// Connected net.
    pub net: NetId,
    /// Direction relative to the cell.
    pub dir: PinDir,
    /// Offset of the pin from the cell's lower-left corner.
    pub offset: Point,
}

/// An immutable circuit netlist with precomputed connectivity indexes.
///
/// Construct via [`NetlistBuilder`]. All accessors are `O(1)`.
#[derive(Debug, Clone)]
pub struct Netlist {
    pub(crate) cells: Vec<Cell>,
    pub(crate) nets: Vec<Net>,
    pub(crate) pins: Vec<Pin>,
    /// For each net, the index of its driving (output) pin, if unique.
    pub(crate) drivers: Vec<Option<PinId>>,
}

impl Netlist {
    /// Number of cells (including macros and pads).
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of pins.
    #[inline]
    pub fn num_pins(&self) -> usize {
        self.pins.len()
    }

    /// The cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids from this netlist never are).
    #[inline]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// The net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// The pin with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn pin(&self, id: PinId) -> &Pin {
        &self.pins[id.index()]
    }

    /// The unique driving pin of a net, or `None` for driverless nets.
    #[inline]
    pub fn driver_of(&self, net: NetId) -> Option<PinId> {
        self.drivers[net.index()]
    }

    /// Iterates over all cell ids.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.cells.len()).map(|i| CellId::new(i as u32))
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len()).map(|i| NetId::new(i as u32))
    }

    /// Iterates over the ids of movable cells only.
    pub fn movable_cell_ids(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind.is_movable())
            .map(|(i, _)| CellId::new(i as u32))
    }

    /// Iterates over the ids of fixed macros.
    pub fn macro_ids(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind == CellKind::FixedMacro)
            .map(|(i, _)| CellId::new(i as u32))
    }

    /// Total area of movable cells.
    pub fn movable_area(&self) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.kind.is_movable())
            .map(Cell::area)
            .sum()
    }

    /// Scales the width of `cell` by `factor`, mimicking gate repowering.
    ///
    /// This is the inflation operation the paper uses to create overlap
    /// workloads; pin offsets are scaled along with the width so pins stay
    /// on the cell.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn inflate_cell_width(&mut self, cell: CellId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "inflation factor must be positive"
        );
        let c = &mut self.cells[cell.index()];
        c.width *= factor;
        for &p in &c.pins {
            self.pins[p.index()].offset.x *= factor;
        }
    }

    /// The netlist restricted to `cells`, without nets: cell `i` of the
    /// result copies cell `cells[i]` (name, size, kind and delay). The
    /// shard routers cut their sub-problems with it, since diffusion
    /// never reads connectivity.
    ///
    /// # Panics
    ///
    /// Panics if a cell id is out of range.
    pub fn cell_subset(&self, cells: &[CellId]) -> Netlist {
        let mut b = NetlistBuilder::with_capacity(cells.len(), 0, 0);
        for &id in cells {
            let c = self.cell(id);
            b.add_cell_with_delay(c.name.clone(), c.width, c.height, c.kind, c.delay);
        }
        b.build().expect("cells without nets always build")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 4.0, 12.0, CellKind::Movable);
        let c = b.add_cell("c", 6.0, 12.0, CellKind::Movable);
        let m = b.add_cell("m", 40.0, 48.0, CellKind::FixedMacro);
        let p = b.add_cell("p", 1.0, 1.0, CellKind::Pad);
        let n1 = b.add_net("n1");
        let n2 = b.add_net("n2");
        b.connect(a, n1, PinDir::Output, 2.0, 6.0);
        b.connect(c, n1, PinDir::Input, 0.0, 6.0);
        b.connect(c, n2, PinDir::Output, 6.0, 6.0);
        b.connect(m, n2, PinDir::Input, 0.0, 24.0);
        b.connect(p, n2, PinDir::Input, 0.0, 0.0);
        b.build().expect("valid netlist")
    }

    #[test]
    fn counts() {
        let n = tiny();
        assert_eq!(n.num_cells(), 4);
        assert_eq!(n.num_nets(), 2);
        assert_eq!(n.num_pins(), 5);
    }

    #[test]
    fn movable_iteration_skips_macros_and_pads() {
        let n = tiny();
        assert_eq!(n.movable_cell_ids().count(), 2);
        assert_eq!(n.macro_ids().count(), 1);
    }

    #[test]
    fn driver_lookup() {
        let n = tiny();
        let n1 = NetId::new(0);
        let d = n.driver_of(n1).expect("n1 has a driver");
        assert_eq!(n.pin(d).dir, PinDir::Output);
        assert_eq!(n.cell(n.pin(d).cell).name, "a");
    }

    #[test]
    fn movable_area_excludes_macros() {
        let n = tiny();
        assert_eq!(n.movable_area(), 4.0 * 12.0 + 6.0 * 12.0);
    }

    #[test]
    fn inflation_scales_width_and_pins() {
        let mut n = tiny();
        let c = CellId::new(1);
        let old_pin_x: Vec<f64> = n.cell(c).pins.iter().map(|&p| n.pin(p).offset.x).collect();
        n.inflate_cell_width(c, 1.6);
        assert!((n.cell(c).width - 9.6).abs() < 1e-12);
        for (&p, ox) in n.cell(c).pins.clone().iter().zip(old_pin_x) {
            assert!((n.pin(p).offset.x - ox * 1.6).abs() < 1e-12);
        }
        // Height untouched.
        assert_eq!(n.cell(c).height, 12.0);
    }

    #[test]
    fn cell_kind_predicates() {
        assert!(CellKind::Movable.is_movable());
        assert!(!CellKind::FixedMacro.is_movable());
        assert!(!CellKind::Pad.is_movable());
        assert!(CellKind::Movable.occupies_area());
        assert!(CellKind::FixedMacro.occupies_area());
        assert!(!CellKind::Pad.occupies_area());
    }
}
