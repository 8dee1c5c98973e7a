//! Volumetric (3D-IC) benchmark generation.
//!
//! A volumetric benchmark stacks `layers` tiers of the same die outline:
//! every tier carries its own row-packed standard cells, fixed macros cut
//! **through the whole stack** (TSV keep-out columns — the diffusion
//! engine turns them into walls in every tier), and a configurable
//! *hotspot tier* can be generated overfull so the volumetric migration
//! actually has work to do. Consecutive tiers are packed with a
//! configurable **row phase** — tier `t` starts filling at row
//! `t · row_phase` — so the per-tier density structure is deliberately
//! not z-symmetric (a perfectly symmetric stack sits at a zero of the
//! z-gradient and would never exercise tier migration).

use crate::layout::{
    add_pads, free_segments, grow_until_placed, pack_rows, pad_ring, sample_macros, size_die,
};
use dpm_diffusion::VolPlacement;
use dpm_geom::{Point, Rect};
use dpm_netlist::{CellId, CellKind, Netlist, NetlistBuilder, PinDir};
use dpm_place::Die;
use dpm_rng::Rng;

/// Parameters of a synthetic volumetric circuit.
///
/// Cell ids are tier-major: tier `t` owns the contiguous id range
/// `[t · cells_per_tier, (t+1) · cells_per_tier)`, which keeps inter-tier
/// (TSV) nets DAG-oriented for free.
#[derive(Debug, Clone, PartialEq)]
pub struct VolCircuitSpec {
    /// Benchmark name (used in reports).
    pub name: String,
    /// Number of tiers in the stack.
    pub layers: usize,
    /// Movable standard cells per tier.
    pub cells_per_tier: usize,
    /// Standard-cell row height (tracks).
    pub row_height: f64,
    /// Minimum cell width (tracks).
    pub min_cell_width: f64,
    /// Maximum cell width (tracks).
    pub max_cell_width: f64,
    /// Fraction of each tier's area occupied by its movable cells.
    pub target_utilization: f64,
    /// Packing density inside a row run (1.0 abuts cells).
    pub local_utilization: f64,
    /// Rows of stagger between consecutive tiers' packing start: tier
    /// `t` begins at row `(t · row_phase) mod num_rows` and wraps.
    pub row_phase: usize,
    /// When set, this tier's cells are piled into a dense central block
    /// instead of packed legally — the volumetric migration workload.
    pub hotspot_tier: Option<usize>,
    /// Number of fixed through-stack macro blocks.
    pub num_macros: usize,
    /// Number of I/O pads along the tier-0 die boundary.
    pub num_pads: usize,
    /// Inter-tier (TSV) nets generated per tier boundary.
    pub tsvs_per_tier: usize,
    /// RNG seed — everything derived from the spec is deterministic.
    pub seed: u64,
}

impl VolCircuitSpec {
    /// A 3-tier stack of ~400 cells per tier, handy in tests and
    /// examples.
    pub fn small(seed: u64) -> Self {
        Self::with_size("vol-small", 3, 400, seed)
    }

    /// A named stack with explicit tier and per-tier cell counts and
    /// otherwise default parameters.
    ///
    /// # Panics
    ///
    /// Panics if `layers` or `cells_per_tier` is zero.
    pub fn with_size(
        name: impl Into<String>,
        layers: usize,
        cells_per_tier: usize,
        seed: u64,
    ) -> Self {
        assert!(layers > 0, "a stack needs at least one tier");
        assert!(cells_per_tier > 0, "tiers need cells");
        Self {
            name: name.into(),
            layers,
            cells_per_tier,
            row_height: 12.0,
            min_cell_width: 3.0,
            max_cell_width: 9.0,
            target_utilization: 0.7,
            local_utilization: 0.88,
            row_phase: 2,
            hotspot_tier: None,
            num_macros: 0,
            num_pads: 16,
            tsvs_per_tier: 8,
            seed,
        }
    }

    /// Same spec with through-stack macros added.
    pub fn with_macros(mut self, num_macros: usize) -> Self {
        self.num_macros = num_macros;
        self
    }

    /// Same spec with tier `tier` generated as an overfull hotspot.
    ///
    /// # Panics
    ///
    /// Panics if `tier` is outside the stack.
    pub fn with_hotspot(mut self, tier: usize) -> Self {
        assert!(tier < self.layers, "hotspot tier outside the stack");
        self.hotspot_tier = Some(tier);
        self
    }

    /// Generates the netlist, die, and volumetric placement.
    pub fn generate(&self) -> VolBenchmark {
        let mut rng = Rng::seed_from_u64(self.seed);
        let n_cells = self.layers * self.cells_per_tier;

        // --- Cells, tier-major -----------------------------------------
        let mut b = NetlistBuilder::with_capacity(
            n_cells + self.num_macros + self.num_pads,
            n_cells / 2 + self.layers * self.tsvs_per_tier + self.num_pads,
            n_cells * 2,
        );
        let mut cells = Vec::with_capacity(n_cells);
        let mut tier_width = vec![0.0f64; self.layers];
        for (t, total_width) in tier_width.iter_mut().enumerate() {
            for i in 0..self.cells_per_tier {
                let width = rng
                    .random_range(self.min_cell_width..=self.max_cell_width)
                    .round()
                    .max(1.0);
                let delay = rng.random_range(0.5..1.5);
                let id = b.add_cell_with_delay(
                    format!("t{t}c{i}"),
                    width,
                    self.row_height,
                    CellKind::Movable,
                    delay,
                );
                *total_width += width;
                cells.push(id);
            }
        }

        // --- Die sized for the busiest tier ----------------------------
        let max_tier_area = tier_width
            .iter()
            .map(|w| w * self.row_height)
            .fold(0.0, f64::max);
        let (die, rows) = size_die(max_tier_area, self.target_utilization, self.row_height);

        // --- Through-stack macros and tier-0 boundary pads -------------
        let macros = sample_macros(
            &mut rng,
            &mut b,
            self.num_macros,
            die.outline().width(),
            rows,
            self.row_height,
        );
        let pads = add_pads(&mut b, self.num_pads);

        // --- Nets: intra-tier chains plus TSVs -------------------------
        // Intra-tier locality: every fourth cell drives its neighbors.
        let mut n_net = 0usize;
        for t in 0..self.layers {
            let base = t * self.cells_per_tier;
            let mut i = 0;
            while i + 1 < self.cells_per_tier {
                let net = b.add_net(format!("n{n_net}"));
                n_net += 1;
                b.connect(
                    cells[base + i],
                    net,
                    PinDir::Output,
                    0.0,
                    self.row_height / 2.0,
                );
                let sinks = (rng.random_range(1..=3usize)).min(self.cells_per_tier - i - 1);
                for s in 1..=sinks {
                    b.connect(
                        cells[base + i + s],
                        net,
                        PinDir::Input,
                        0.0,
                        self.row_height / 2.0,
                    );
                }
                i += 4;
            }
        }
        // TSV nets: a driver in tier t sinks one tier up. Tier-major ids
        // keep these DAG-oriented by construction.
        for t in 0..self.layers.saturating_sub(1) {
            for _ in 0..self.tsvs_per_tier {
                let net = b.add_net(format!("n{n_net}"));
                n_net += 1;
                let d = t * self.cells_per_tier + rng.random_range(0..self.cells_per_tier);
                let s = (t + 1) * self.cells_per_tier + rng.random_range(0..self.cells_per_tier);
                b.connect(cells[d], net, PinDir::Output, 0.0, self.row_height / 2.0);
                b.connect(cells[s], net, PinDir::Input, 0.0, self.row_height / 2.0);
            }
        }
        // Pad nets drive tier-0 cells.
        for (p, &pad) in pads.iter().enumerate() {
            let net = b.add_net(format!("pn{p}"));
            let c = cells[rng.random_range(0..self.cells_per_tier)];
            if p % 2 == 0 {
                b.connect(pad, net, PinDir::Output, 0.5, 0.5);
                b.connect(c, net, PinDir::Input, 0.0, self.row_height / 2.0);
            } else {
                b.connect(c, net, PinDir::Output, 0.0, self.row_height / 2.0);
                b.connect(pad, net, PinDir::Input, 0.5, 0.5);
            }
        }

        let netlist = b.build().expect("generated netlist is structurally valid");

        // --- Volumetric placement, growing the die until tiers fit -----
        let (die, placement) = grow_until_placed(die, |die| {
            self.place_tiers(&netlist, die, &macros, &pads, &cells)
        });

        VolBenchmark {
            name: self.name.clone(),
            spec: self.clone(),
            netlist,
            die,
            placement,
        }
    }

    /// Packs every tier's cells into rows (hotspot tier: a dense central
    /// pile), or `None` if some tier does not fit this die.
    fn place_tiers(
        &self,
        netlist: &Netlist,
        die: &Die,
        macros: &[(CellId, Rect)],
        pads: &[CellId],
        cells: &[CellId],
    ) -> Option<VolPlacement> {
        let mut vp = VolPlacement::new(netlist.num_cells());

        // Macros centered in the stack (walls are through-stack anyway);
        // pads live on the tier-0 boundary. Macro spans cut the same free
        // segments out of every tier's rows.
        for &(id, r) in macros {
            vp.set(id, r.origin(), self.layers as f64 / 2.0);
        }
        for (&pad, pos) in pads.iter().zip(pad_ring(die.outline(), pads.len())) {
            vp.set(pad, pos, 0.5);
        }
        let segments = free_segments(die, macros);

        let pitch_factor = (1.0 / self.local_utilization).max(1.0);
        for t in 0..self.layers {
            let tier_cells = &cells[t * self.cells_per_tier..(t + 1) * self.cells_per_tier];
            if self.hotspot_tier == Some(t) {
                self.pile_tier(netlist, die, tier_cells, t, &mut vp);
                continue;
            }
            let start_row = (t * self.row_phase) % die.num_rows();
            let z = t as f64 + 0.5;
            let widths = tier_cells.iter().map(|&c| {
                let w = netlist.cell(c).width;
                (c, 0.0, w, w * pitch_factor)
            });
            if !pack_rows(die, &segments, start_row, widths, |c, p| vp.set(c, p, z)) {
                return None;
            }
        }
        Some(vp)
    }

    /// Piles a tier's cells into a dense central block, depths staggered
    /// within the tier (a z-symmetric pile sits at a zero of the
    /// z-gradient; the stagger lets the velocity field bite).
    fn pile_tier(
        &self,
        netlist: &Netlist,
        die: &Die,
        tier_cells: &[CellId],
        tier: usize,
        vp: &mut VolPlacement,
    ) {
        let outline = die.outline();
        let cols = (tier_cells.len() as f64).sqrt().ceil().max(1.0) as usize;
        let pitch = 3.0;
        let ox = outline.llx + (outline.width() - cols as f64 * pitch) / 2.0;
        let oy =
            outline.lly + (outline.height() - tier_cells.len().div_ceil(cols) as f64 * pitch) / 2.0;
        for (i, &c) in tier_cells.iter().enumerate() {
            let x = ox + (i % cols) as f64 * pitch;
            let y = oy + (i / cols) as f64 * pitch;
            let p = Point::new(
                x.clamp(outline.llx, outline.urx - netlist.cell(c).width),
                y.clamp(outline.lly, outline.ury - netlist.cell(c).height),
            );
            let z = tier as f64 + 0.3 + 0.2 * (i % 3) as f64;
            vp.set(c, p, z);
        }
    }
}

/// A generated volumetric circuit: netlist, die, and tiered placement.
#[derive(Debug, Clone)]
pub struct VolBenchmark {
    /// Benchmark name.
    pub name: String,
    /// The spec this benchmark was generated from.
    pub spec: VolCircuitSpec,
    /// The circuit (tier-major cell ids).
    pub netlist: Netlist,
    /// Die geometry, shared by every tier.
    pub die: Die,
    /// Volumetric placement (legal per tier, except a hotspot tier).
    pub placement: VolPlacement,
}

impl VolBenchmark {
    /// Number of tiers in the stack.
    pub fn layers(&self) -> usize {
        self.spec.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_diffusion::splat_volume;
    use dpm_place::BinGrid;

    #[test]
    fn generation_is_deterministic() {
        let a = VolCircuitSpec::small(7).generate();
        let b = VolCircuitSpec::small(7).generate();
        assert_eq!(a.netlist.num_cells(), b.netlist.num_cells());
        assert_eq!(a.placement, b.placement);
        let c = VolCircuitSpec::small(8).generate();
        assert!(a.placement != c.placement);
    }

    #[test]
    fn cells_are_tier_major_with_centered_depths() {
        let bench = VolCircuitSpec::small(11).generate();
        let cpt = bench.spec.cells_per_tier;
        for t in 0..bench.layers() {
            for i in 0..cpt {
                let z = bench.placement.z[t * cpt + i];
                assert_eq!(z, t as f64 + 0.5, "cell {i} of tier {t} at depth {z}");
            }
        }
    }

    #[test]
    fn row_phase_staggers_consecutive_tiers() {
        let bench = VolCircuitSpec::small(11).generate();
        assert!(bench.spec.row_phase > 0);
        let cpt = bench.spec.cells_per_tier;
        let y0 = bench
            .placement
            .xy
            .get(bench.netlist.cell_ids().next().unwrap())
            .y;
        let first_of_tier1 = dpm_netlist::CellId::new(cpt as u32);
        let y1 = bench.placement.xy.get(first_of_tier1).y;
        assert_eq!(y0, bench.die.row(0).y);
        assert_eq!(y1, bench.die.row(bench.spec.row_phase).y);
    }

    #[test]
    fn tiers_are_individually_legalish_without_hotspot() {
        let bench = VolCircuitSpec::small(42).generate();
        let grid = BinGrid::new(bench.die.outline(), 4.0 * bench.spec.row_height);
        let (d, _) = splat_volume(&bench.netlist, &bench.placement, &grid, bench.layers());
        let nxy = grid.len();
        for t in 0..bench.layers() {
            let max = d[t * nxy..(t + 1) * nxy]
                .iter()
                .cloned()
                .fold(0.0f64, f64::max);
            assert!(max <= 1.05, "tier {t} overfull at {max}");
        }
    }

    #[test]
    fn hotspot_tier_is_overfull_and_others_stay_legal() {
        let bench = VolCircuitSpec::small(42).with_hotspot(1).generate();
        let grid = BinGrid::new(bench.die.outline(), 4.0 * bench.spec.row_height);
        let (d, _) = splat_volume(&bench.netlist, &bench.placement, &grid, bench.layers());
        let nxy = grid.len();
        let tier_max = |t: usize| {
            d[t * nxy..(t + 1) * nxy]
                .iter()
                .cloned()
                .fold(0.0f64, f64::max)
        };
        assert!(tier_max(1) > 1.5, "hotspot tier only at {}", tier_max(1));
        assert!(tier_max(0) <= 1.05, "tier 0 overfull at {}", tier_max(0));
        assert!(tier_max(2) <= 1.05, "tier 2 overfull at {}", tier_max(2));
    }

    #[test]
    fn through_stack_macros_wall_every_tier() {
        let bench = VolCircuitSpec::small(5).with_macros(2).generate();
        let grid = BinGrid::new(bench.die.outline(), 2.0 * bench.spec.row_height);
        let (_, wall) = splat_volume(&bench.netlist, &bench.placement, &grid, bench.layers());
        let nxy = grid.len();
        let per_tier: Vec<usize> = (0..bench.layers())
            .map(|t| wall[t * nxy..(t + 1) * nxy].iter().filter(|&&w| w).count())
            .collect();
        assert!(per_tier[0] > 0, "macros raised no walls");
        assert!(per_tier.windows(2).all(|w| w[0] == w[1]), "{per_tier:?}");
    }

    #[test]
    fn tsv_nets_cross_tiers_and_netlist_is_a_dag() {
        let bench = VolCircuitSpec::small(42).generate();
        let cpt = bench.spec.cells_per_tier;
        let tier_of = |c: dpm_netlist::CellId| c.index() / cpt;
        let mut crossing = 0usize;
        for net in bench.netlist.net_ids() {
            let tiers: Vec<usize> = bench
                .netlist
                .net(net)
                .pins
                .iter()
                .map(|&p| bench.netlist.pin(p).cell)
                .filter(|&c| bench.netlist.cell(c).kind == CellKind::Movable)
                .map(tier_of)
                .collect();
            if tiers.windows(2).any(|w| w[0] != w[1]) {
                crossing += 1;
            }
        }
        assert!(
            crossing >= bench.spec.tsvs_per_tier,
            "only {crossing} TSV nets"
        );
        assert!(dpm_netlist::levelize(&bench.netlist).is_acyclic());
    }
}
