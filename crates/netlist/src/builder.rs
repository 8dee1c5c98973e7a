//! Incremental construction of validated [`Netlist`]s.

use crate::{Cell, CellId, CellKind, Net, NetId, Netlist, Pin, PinDir, PinId};
use dpm_geom::Point;
use std::error::Error;
use std::fmt;

/// Error produced by [`NetlistBuilder::build`] when the accumulated netlist
/// is inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildNetlistError {
    /// A net has more than one output (driving) pin.
    MultipleDrivers {
        /// The offending net.
        net: NetId,
        /// Number of output pins found.
        count: usize,
    },
    /// A cell has a non-positive width or height.
    BadCellSize {
        /// The offending cell.
        cell: CellId,
    },
}

impl fmt::Display for BuildNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildNetlistError::MultipleDrivers { net, count } => {
                write!(
                    f,
                    "net {net} has {count} driving pins, expected at most one"
                )
            }
            BuildNetlistError::BadCellSize { cell } => {
                write!(f, "cell {cell} has a non-positive width or height")
            }
        }
    }
}

impl Error for BuildNetlistError {}

/// Builder that accumulates cells, nets, and pin connections, then validates
/// and freezes them into a [`Netlist`].
///
/// # Examples
///
/// ```
/// use dpm_netlist::{NetlistBuilder, CellKind, PinDir};
///
/// let mut b = NetlistBuilder::new();
/// let inv = b.add_cell("inv0", 3.0, 12.0, CellKind::Movable);
/// let buf = b.add_cell("buf0", 4.0, 12.0, CellKind::Movable);
/// let net = b.add_net("w0");
/// b.connect(inv, net, PinDir::Output, 3.0, 6.0);
/// b.connect(buf, net, PinDir::Input, 0.0, 6.0);
/// let netlist = b.build()?;
/// assert_eq!(netlist.num_pins(), 2);
/// # Ok::<(), dpm_netlist::BuildNetlistError>(())
/// ```
#[derive(Debug, Default)]
pub struct NetlistBuilder {
    cells: Vec<Cell>,
    nets: Vec<Net>,
    pins: Vec<Pin>,
}

impl NetlistBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with capacity reserved for the given object
    /// counts, avoiding reallocation for large generated circuits.
    pub fn with_capacity(cells: usize, nets: usize, pins: usize) -> Self {
        Self {
            cells: Vec::with_capacity(cells),
            nets: Vec::with_capacity(nets),
            pins: Vec::with_capacity(pins),
        }
    }

    /// Number of cells added so far.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets added so far.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Adds a cell and returns its id.
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        width: f64,
        height: f64,
        kind: CellKind,
    ) -> CellId {
        let id = CellId::new(self.cells.len() as u32);
        self.cells.push(Cell {
            name: name.into(),
            width,
            height,
            kind,
            delay: 1.0,
            pins: Vec::new(),
        });
        id
    }

    /// Adds a cell with an explicit intrinsic delay (for timing workloads).
    pub fn add_cell_with_delay(
        &mut self,
        name: impl Into<String>,
        width: f64,
        height: f64,
        kind: CellKind,
        delay: f64,
    ) -> CellId {
        let id = self.add_cell(name, width, height, kind);
        self.cells[id.index()].delay = delay;
        id
    }

    /// Adds an (initially unconnected) net and returns its id.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId::new(self.nets.len() as u32);
        self.nets.push(Net {
            name: name.into(),
            pins: Vec::new(),
        });
        id
    }

    /// Connects `cell` to `net` with a pin at offset `(ox, oy)` from the
    /// cell's lower-left corner, and returns the new pin's id.
    ///
    /// # Panics
    ///
    /// Panics if `cell` or `net` was not created by this builder.
    pub fn connect(&mut self, cell: CellId, net: NetId, dir: PinDir, ox: f64, oy: f64) -> PinId {
        assert!(cell.index() < self.cells.len(), "unknown cell {cell}");
        assert!(net.index() < self.nets.len(), "unknown net {net}");
        let id = PinId::new(self.pins.len() as u32);
        self.pins.push(Pin {
            cell,
            net,
            dir,
            offset: Point::new(ox, oy),
        });
        self.cells[cell.index()].pins.push(id);
        self.nets[net.index()].pins.push(id);
        id
    }

    /// Validates the accumulated netlist and freezes it.
    ///
    /// # Errors
    ///
    /// Returns [`BuildNetlistError::MultipleDrivers`] if any net has more
    /// than one output pin, or [`BuildNetlistError::BadCellSize`] if any
    /// cell has non-positive dimensions.
    pub fn build(self) -> Result<Netlist, BuildNetlistError> {
        for (i, c) in self.cells.iter().enumerate() {
            if !(c.width > 0.0 && c.height > 0.0) {
                return Err(BuildNetlistError::BadCellSize {
                    cell: CellId::new(i as u32),
                });
            }
        }
        let mut drivers = vec![None; self.nets.len()];
        for (ni, net) in self.nets.iter().enumerate() {
            let outs: Vec<PinId> = net
                .pins
                .iter()
                .copied()
                .filter(|&p| self.pins[p.index()].dir == PinDir::Output)
                .collect();
            match outs.len() {
                0 => {}
                1 => drivers[ni] = Some(outs[0]),
                n => {
                    return Err(BuildNetlistError::MultipleDrivers {
                        net: NetId::new(ni as u32),
                        count: n,
                    })
                }
            }
        }
        let macros = (0..self.cells.len())
            .filter(|&i| self.cells[i].kind == CellKind::FixedMacro)
            .map(|i| CellId::new(i as u32))
            .collect();
        Ok(Netlist {
            cells: self.cells,
            nets: self.nets,
            pins: self.pins,
            drivers,
            macros,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_multiple_drivers() {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let c = b.add_cell("c", 1.0, 1.0, CellKind::Movable);
        let n = b.add_net("n");
        b.connect(a, n, PinDir::Output, 0.0, 0.0);
        b.connect(c, n, PinDir::Output, 0.0, 0.0);
        let err = b.build().unwrap_err();
        assert_eq!(err, BuildNetlistError::MultipleDrivers { net: n, count: 2 });
        assert!(err.to_string().contains("driving pins"));
    }

    #[test]
    fn rejects_degenerate_cells() {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 0.0, 1.0, CellKind::Movable);
        let err = b.build().unwrap_err();
        assert_eq!(err, BuildNetlistError::BadCellSize { cell: a });
    }

    #[test]
    fn driverless_net_is_allowed() {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let n = b.add_net("n");
        b.connect(a, n, PinDir::Input, 0.0, 0.0);
        let nl = b.build().expect("driverless nets are legal");
        assert_eq!(nl.driver_of(n), None);
    }

    #[test]
    fn capacity_builder_behaves_like_default() {
        let mut b = NetlistBuilder::with_capacity(10, 10, 10);
        assert_eq!(b.num_cells(), 0);
        b.add_cell("a", 1.0, 1.0, CellKind::Movable);
        assert_eq!(b.num_cells(), 1);
        assert_eq!(b.num_nets(), 0);
    }

    #[test]
    fn delay_constructor_sets_delay() {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell_with_delay("a", 1.0, 1.0, CellKind::Movable, 2.5);
        let nl = b.build().expect("valid");
        assert_eq!(nl.cell(a).delay, 2.5);
    }

    #[test]
    #[should_panic(expected = "unknown cell")]
    fn connect_unknown_cell_panics() {
        let mut b = NetlistBuilder::new();
        let n = b.add_net("n");
        b.connect(CellId::new(3), n, PinDir::Input, 0.0, 0.0);
    }
}
