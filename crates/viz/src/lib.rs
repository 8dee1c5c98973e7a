#![warn(missing_docs)]

//! SVG visualization of placements and placement migrations.
//!
//! Renders the pictures the paper uses to make its qualitative argument:
//! placement snapshots (Fig. 14), movement-vector plots showing how each
//! legalizer perturbed the design (Figs. 15–18), and density heatmaps.
//! Output is plain SVG text — no external dependencies — written by the
//! benchmark harness next to its result tables.
//!
//! # Examples
//!
//! ```
//! use dpm_gen::CircuitSpec;
//! use dpm_viz::SvgScene;
//!
//! let bench = CircuitSpec::small(2).generate();
//! let svg = SvgScene::new(bench.die.outline())
//!     .with_placement(&bench.netlist, &bench.placement)
//!     .render();
//! assert!(svg.starts_with("<svg"));
//! assert!(svg.ends_with("</svg>\n"));
//! ```

use dpm_geom::{Point, Rect};
use dpm_netlist::{CellKind, Netlist};
use dpm_place::{DensityMap, Placement};
use std::fmt::Write as _;

/// Output width in pixels; the height follows the region's aspect ratio.
const WIDTH_PX: f64 = 800.0;

/// Builder for an SVG picture of a die region.
///
/// Coordinates are flipped so y grows upward (die convention), and the
/// viewport is normalized to a fixed pixel width.
#[derive(Debug, Clone)]
pub struct SvgScene {
    region: Rect,
    body: String,
}

impl SvgScene {
    /// Creates a scene covering `region`, rendered 800 px wide.
    pub fn new(region: Rect) -> Self {
        Self {
            region,
            body: String::new(),
        }
    }

    fn scale(&self) -> f64 {
        WIDTH_PX / self.region.width()
    }

    fn tx(&self, p: Point) -> (f64, f64) {
        let s = self.scale();
        ((p.x - self.region.llx) * s, (self.region.ury - p.y) * s)
    }

    /// Draws every cell: movable cells colored by their position (hue
    /// encodes original location so order disruption is visible), macros
    /// dark gray, pads omitted.
    pub fn with_placement(mut self, netlist: &Netlist, placement: &Placement) -> Self {
        let s = self.scale();
        for cell in netlist.cell_ids() {
            let c = netlist.cell(cell);
            if c.kind == CellKind::Pad {
                continue;
            }
            let r = placement.cell_rect(netlist, cell);
            let (x, y_top) = self.tx(Point::new(r.llx, r.ury));
            let color = if c.kind == CellKind::FixedMacro {
                "#444444".to_string()
            } else {
                // Hue from the cell's position within the region.
                let hx = ((r.llx - self.region.llx) / self.region.width()).clamp(0.0, 1.0);
                let hy = ((r.lly - self.region.lly) / self.region.height()).clamp(0.0, 1.0);
                format!("hsl({:.0}, 70%, {:.0}%)", hx * 300.0, 35.0 + hy * 30.0)
            };
            let _ = writeln!(
                self.body,
                r#"<rect x="{:.2}" y="{:.2}" width="{:.2}" height="{:.2}" fill="{}" />"#,
                x,
                y_top,
                r.width() * s,
                r.height() * s,
                color
            );
        }
        self
    }

    /// Draws an arrow for every cell that moved more than `min_move`
    /// between `before` and `after` — the paper's Figs. 15–18.
    pub fn with_movements(
        mut self,
        netlist: &Netlist,
        before: &Placement,
        after: &Placement,
        min_move: f64,
    ) -> Self {
        for cell in netlist.movable_cell_ids() {
            let a = before.cell_center(netlist, cell);
            let b = after.cell_center(netlist, cell);
            if (b - a).length() < min_move {
                continue;
            }
            let (x1, y1) = self.tx(a);
            let (x2, y2) = self.tx(b);
            let _ = writeln!(
                self.body,
                r##"<line x1="{x1:.2}" y1="{y1:.2}" x2="{x2:.2}" y2="{y2:.2}" stroke="#c0392b" stroke-width="0.8" marker-end="url(#arr)" />"##
            );
        }
        self
    }

    /// Draws polylines (e.g. cell migration trajectories, routed paths)
    /// in world coordinates.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpm_geom::{Point, Rect};
    /// use dpm_viz::SvgScene;
    /// let svg = SvgScene::new(Rect::new(0.0, 0.0, 100.0, 100.0))
    ///     .with_polylines(&[vec![Point::new(0.0, 0.0), Point::new(50.0, 80.0)]], "black")
    ///     .render();
    /// assert!(svg.contains("<polyline"));
    /// ```
    pub fn with_polylines(mut self, lines: &[Vec<Point>], stroke: &str) -> Self {
        for line in lines {
            if line.len() < 2 {
                continue;
            }
            let pts: Vec<String> = line
                .iter()
                .map(|&p| {
                    let (x, y) = self.tx(p);
                    format!("{x:.1},{y:.1}")
                })
                .collect();
            let _ = writeln!(
                self.body,
                r#"<polyline points="{}" fill="none" stroke="{stroke}" stroke-width="1.2"/>"#,
                pts.join(" ")
            );
        }
        self
    }

    /// Draws the density map as a translucent heat overlay.
    pub fn with_density(mut self, map: &DensityMap, d_max: f64) -> Self {
        let s = self.scale();
        let grid = map.grid();
        for idx in grid.iter() {
            let d = map.density(idx);
            if d <= 0.0 {
                continue;
            }
            let r = grid.bin_rect(idx);
            let (x, y_top) = self.tx(Point::new(r.llx, r.ury));
            let heat = (d / (2.0 * d_max)).clamp(0.0, 1.0);
            let _ = writeln!(
                self.body,
                r#"<rect x="{:.2}" y="{:.2}" width="{:.2}" height="{:.2}" fill="rgb(255,{:.0},0)" fill-opacity="{:.2}" />"#,
                x,
                y_top,
                r.width() * s,
                r.height() * s,
                (1.0 - heat) * 200.0,
                0.15 + 0.5 * heat,
            );
        }
        self
    }

    /// Finalizes the SVG document.
    pub fn render(&self) -> String {
        let h_px = self.region.height() * self.scale();
        let mut out = String::new();
        let _ = writeln!(
            out,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{:.0}" height="{:.0}" viewBox="0 0 {:.0} {:.0}">"#,
            WIDTH_PX, h_px, WIDTH_PX, h_px
        );
        let _ = writeln!(
            out,
            r##"<defs><marker id="arr" viewBox="0 0 10 10" refX="9" refY="5" markerWidth="5" markerHeight="5" orient="auto"><path d="M0,0 L10,5 L0,10 z" fill="#c0392b"/></marker></defs>"##
        );
        let _ = writeln!(
            out,
            r##"<rect width="100%" height="100%" fill="#fdfdfd" stroke="#333"/>"##
        );
        out.push_str(&self.body);
        out.push_str("</svg>\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_gen::CircuitSpec;

    #[test]
    fn renders_well_formed_svg() {
        let bench = CircuitSpec::small(1).generate();
        let svg = SvgScene::new(bench.die.outline())
            .with_placement(&bench.netlist, &bench.placement)
            .render();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("<svg").count(), 1);
        // Every opened rect is self-closed.
        assert!(svg.matches("<rect").count() > 100);
    }

    #[test]
    fn movements_draw_arrows_only_over_threshold() {
        let bench = CircuitSpec::small(2).generate();
        let mut moved = bench.placement.clone();
        let some_cell = bench.netlist.movable_cell_ids().next().expect("cells");
        let p = moved.get(some_cell);
        moved.set(some_cell, Point::new(p.x + 100.0, p.y));
        let svg = SvgScene::new(bench.die.outline())
            .with_movements(&bench.netlist, &bench.placement, &moved, 50.0)
            .render();
        assert_eq!(svg.matches("<line").count(), 1);
        let svg_none = SvgScene::new(bench.die.outline())
            .with_movements(&bench.netlist, &bench.placement, &moved, 500.0)
            .render();
        assert_eq!(svg_none.matches("<line").count(), 0);
    }

    #[test]
    fn density_overlay_renders() {
        use dpm_place::{BinGrid, DensityMap};
        let bench = CircuitSpec::small(3).generate();
        let grid = BinGrid::new(bench.die.outline(), 3.0 * bench.die.row_height());
        let map = DensityMap::from_placement(&bench.netlist, &bench.placement, grid);
        let svg = SvgScene::new(bench.die.outline())
            .with_density(&map, 1.0)
            .render();
        assert!(svg.contains("fill-opacity"));
    }

    #[test]
    fn macros_render_dark() {
        let bench = CircuitSpec::small(4).with_macros(1).generate();
        let svg = SvgScene::new(bench.die.outline())
            .with_placement(&bench.netlist, &bench.placement)
            .render();
        assert!(svg.contains("#444444"));
    }
}
