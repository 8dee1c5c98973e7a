//! Clustered circuit generation with a legal constructive placement.

use crate::layout::{
    add_pads, free_segments, grow_until_placed, pack_rows, pad_ring, sample_macros, size_die,
};
use dpm_geom::Rect;
use dpm_netlist::{CellId, CellKind, Netlist, NetlistBuilder, PinDir};
use dpm_place::{Die, Placement};
use dpm_rng::Rng;

/// Parameters of a synthetic circuit.
///
/// Cells are grouped into *clusters* of consecutive ids; most nets stay
/// inside one cluster, a small fraction hop between clusters, mimicking
/// the locality a placed real design exhibits. Nets are oriented from
/// lower to higher cell id, so the netlist is a DAG by construction and
/// the timing substrate can levelize it.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitSpec {
    /// Benchmark name (used in reports).
    pub name: String,
    /// Number of movable standard cells.
    pub num_cells: usize,
    /// Standard-cell row height (tracks).
    pub row_height: f64,
    /// Minimum cell width (tracks).
    pub min_cell_width: f64,
    /// Maximum cell width (tracks).
    pub max_cell_width: f64,
    /// Fraction of the die area occupied by movable cells.
    pub target_utilization: f64,
    /// Packing density *inside* a cluster: 1.0 abuts cells; lower values
    /// leave small intra-cluster gaps (real placements run ~85-95%).
    pub local_utilization: f64,
    /// How many clusters share one whitespace pocket. 1 puts a gap after
    /// every cluster (whitespace finely distributed); larger values
    /// concentrate the whitespace into fewer, bigger pockets, so free
    /// space is *far* from most cells — the regime where legalizers
    /// genuinely differ.
    pub clusters_per_gap: usize,
    /// Cells per cluster.
    pub cluster_size: usize,
    /// Nets generated per cell.
    pub nets_per_cell: f64,
    /// Fraction of nets that connect different clusters.
    pub global_net_fraction: f64,
    /// Maximum sinks per net.
    pub max_net_sinks: usize,
    /// Number of fixed macro blocks.
    pub num_macros: usize,
    /// Number of I/O pads along the die boundary.
    pub num_pads: usize,
    /// RNG seed — everything derived from the spec is deterministic.
    pub seed: u64,
}

impl CircuitSpec {
    /// A ~1K-cell circuit, handy in tests and examples.
    pub fn small(seed: u64) -> Self {
        Self::with_size("small", 1_000, seed)
    }

    /// A ~10K-cell circuit.
    pub fn medium(seed: u64) -> Self {
        Self::with_size("medium", 10_000, seed)
    }

    /// A named circuit with an explicit cell count and otherwise default
    /// parameters.
    pub fn with_size(name: impl Into<String>, num_cells: usize, seed: u64) -> Self {
        Self {
            name: name.into(),
            num_cells,
            row_height: 12.0,
            min_cell_width: 3.0,
            max_cell_width: 9.0,
            target_utilization: 0.7,
            local_utilization: 0.88,
            clusters_per_gap: 1,
            cluster_size: 40,
            nets_per_cell: 1.1,
            global_net_fraction: 0.05,
            max_net_sinks: 4,
            num_macros: 0,
            num_pads: 32,
            seed,
        }
    }

    /// Same spec with macros added.
    pub fn with_macros(mut self, num_macros: usize) -> Self {
        self.num_macros = num_macros;
        self
    }

    /// Same spec with a different target utilization.
    ///
    /// # Panics
    ///
    /// Panics if `util` is outside `(0, 0.95]`.
    pub fn with_utilization(mut self, util: f64) -> Self {
        assert!(
            util > 0.0 && util <= 0.95,
            "utilization must be in (0, 0.95]"
        );
        self.target_utilization = util;
        self
    }

    /// Same spec with whitespace concentrated into one pocket per
    /// `clusters` clusters.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero.
    pub fn with_clusters_per_gap(mut self, clusters: usize) -> Self {
        assert!(clusters > 0, "clusters per gap must be positive");
        self.clusters_per_gap = clusters;
        self
    }

    /// Same spec with a different intra-cluster packing density.
    ///
    /// # Panics
    ///
    /// Panics if `util` is outside `(0.5, 1.0]` or below the overall
    /// target utilization (clusters cannot be looser than the die).
    pub fn with_local_utilization(mut self, util: f64) -> Self {
        assert!(
            util > 0.5 && util <= 1.0,
            "local utilization must be in (0.5, 1.0]"
        );
        assert!(
            util >= self.target_utilization,
            "local utilization cannot be below the die utilization"
        );
        self.local_utilization = util;
        self
    }

    /// Generates the netlist, die, and legal placement.
    ///
    /// # Panics
    ///
    /// Panics if the spec has zero cells.
    pub fn generate(&self) -> Benchmark {
        assert!(self.num_cells > 0, "circuit must have cells");
        let mut rng = Rng::seed_from_u64(self.seed);

        // --- Cells ---------------------------------------------------
        let mut b = NetlistBuilder::with_capacity(
            self.num_cells + self.num_macros + self.num_pads,
            (self.num_cells as f64 * self.nets_per_cell) as usize + self.num_pads,
            (self.num_cells as f64 * self.nets_per_cell * 3.0) as usize,
        );
        let mut total_area = 0.0;
        let mut cells = Vec::with_capacity(self.num_cells);
        for i in 0..self.num_cells {
            let width = (rng.random_range(self.min_cell_width..=self.max_cell_width) / 1.0)
                .round()
                .max(1.0);
            let delay = rng.random_range(0.5..1.5);
            let id = b.add_cell_with_delay(
                format!("c{i}"),
                width,
                self.row_height,
                CellKind::Movable,
                delay,
            );
            total_area += width * self.row_height;
            cells.push(id);
        }

        // --- Die sized for the target utilization --------------------
        let (die, rows) = size_die(total_area, self.target_utilization, self.row_height);

        // --- Macros and boundary pads ----------------------------------
        let width = die.outline().width();
        let macros = sample_macros(
            &mut rng,
            &mut b,
            self.num_macros,
            width,
            rows,
            self.row_height,
        );
        let pads = add_pads(&mut b, self.num_pads);

        // --- Nets: clustered, DAG-oriented ---------------------------
        let n_nets = (self.num_cells as f64 * self.nets_per_cell).ceil() as usize;
        let n_clusters = self.num_cells.div_ceil(self.cluster_size);
        for n in 0..n_nets {
            let net = b.add_net(format!("n{n}"));
            let global = rng.random_f64() < self.global_net_fraction;
            let cluster = rng.random_range(0..n_clusters);
            let lo = cluster * self.cluster_size;
            let hi = ((cluster + 1) * self.cluster_size).min(self.num_cells);
            if hi - lo < 2 {
                continue;
            }
            // Driver: any cell of the cluster except the last.
            let driver_idx = rng.random_range(lo..hi - 1);
            let driver = cells[driver_idx];
            b.connect(driver, net, PinDir::Output, 0.0, self.row_height / 2.0);
            let sinks = rng.random_range(1..=self.max_net_sinks);
            for _ in 0..sinks {
                // DAG: sinks always have a higher id than the driver.
                let sink_idx = if global {
                    rng.random_range(driver_idx + 1..self.num_cells)
                } else {
                    rng.random_range(driver_idx + 1..hi)
                };
                b.connect(
                    cells[sink_idx],
                    net,
                    PinDir::Input,
                    0.0,
                    self.row_height / 2.0,
                );
            }
        }
        // Pad nets: inputs drive early cells, outputs sink late cells.
        for (p, &pad) in pads.iter().enumerate() {
            let net = b.add_net(format!("pn{p}"));
            if p % 2 == 0 {
                b.connect(pad, net, PinDir::Output, 0.5, 0.5);
                let sink = cells[rng.random_range(0..self.num_cells)];
                b.connect(sink, net, PinDir::Input, 0.0, self.row_height / 2.0);
            } else {
                let driver_idx = rng.random_range(0..self.num_cells);
                b.connect(
                    cells[driver_idx],
                    net,
                    PinDir::Output,
                    0.0,
                    self.row_height / 2.0,
                );
                b.connect(pad, net, PinDir::Input, 0.5, 0.5);
            }
        }

        let netlist = b.build().expect("generated netlist is structurally valid");

        // --- Legal constructive placement ----------------------------
        let (die, placement) = grow_until_placed(die, |die| {
            place_rows(
                &netlist,
                die,
                &macros,
                &pads,
                self.cluster_size,
                self.local_utilization,
                self.clusters_per_gap,
            )
        });

        Benchmark {
            name: self.name.clone(),
            spec: self.clone(),
            netlist,
            die,
            placement,
        }
    }
}

/// Packs movable cells into rows in id (= cluster) order, snaking up the
/// die. Cells of one cluster are packed *abutting* (100% local density,
/// like the dense regions of a real placement) and the whitespace is
/// concentrated in gaps between clusters — so inflating any cell creates
/// genuine overlap that legalization has to resolve, exactly the
/// workload shape of the paper's experiments.
fn place_rows(
    netlist: &Netlist,
    die: &Die,
    macros: &[(CellId, Rect)],
    pads: &[CellId],
    cluster_size: usize,
    local_utilization: f64,
    clusters_per_gap: usize,
) -> Option<Placement> {
    let mut placement = Placement::new(netlist.num_cells());

    // Pin macros at their chosen spots; pads ring the boundary.
    for &(id, r) in macros {
        placement.set(id, r.origin());
    }
    for (&pad, pos) in pads.iter().zip(pad_ring(die.outline(), pads.len())) {
        placement.set(pad, pos);
    }
    let segments = free_segments(die, macros);

    // Whitespace budget: everything beyond the cells themselves, spent as
    // inter-cluster gaps (minus a fragmentation reserve of one max-width
    // per segment so every cell is guaranteed to fit).
    let usable: f64 = segments
        .iter()
        .flat_map(|segs| segs.iter().map(|&(s, e)| e - s))
        .sum();
    let total_width: f64 = netlist
        .movable_cell_ids()
        .map(|c| netlist.cell(c).width)
        .sum();
    let max_width = netlist
        .movable_cell_ids()
        .map(|c| netlist.cell(c).width)
        .fold(1.0, f64::max);
    let n_segments: usize = segments.iter().map(Vec::len).sum();
    // Fragmentation reserve: without one max-width of slack per segment a
    // cell can fail to fit anywhere; signal the caller to grow the die.
    if usable < total_width + n_segments as f64 * max_width {
        return None;
    }
    let n_movable = netlist.movable_cell_ids().count();
    let gap_stride = cluster_size.max(1) * clusters_per_gap.max(1);
    let n_gaps = n_movable.div_ceil(gap_stride).max(1);
    let reserve = n_segments as f64 * max_width;
    // Intra-cluster pitch spreads cells to the requested local density;
    // whatever whitespace remains becomes pockets every
    // `clusters_per_gap` clusters.
    let pitch_factor = (1.0 / local_utilization).max(1.0);
    let intra_spread = total_width * (pitch_factor - 1.0);
    let cluster_gap = ((usable - total_width - intra_spread - reserve) / n_gaps as f64).max(0.0);

    // Walk rows bottom-up, packing cells abutted, opening a gap whenever
    // a new cluster starts.
    let cells = netlist.movable_cell_ids().enumerate().map(|(i, c)| {
        let w = netlist.cell(c).width;
        let gap = if i > 0 && i % gap_stride == 0 {
            cluster_gap
        } else {
            0.0
        };
        (c, gap, w, w * pitch_factor)
    });
    if !pack_rows(die, &segments, 0, cells, |c, p| placement.set(c, p)) {
        return None;
    }
    Some(placement)
}

/// A generated circuit: netlist, die, and (initially legal) placement.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Benchmark name.
    pub name: String,
    /// The spec this benchmark was generated from.
    pub spec: CircuitSpec,
    /// The circuit.
    pub netlist: Netlist,
    /// Die geometry.
    pub die: Die,
    /// Current placement (legal right after generation; overlapping after
    /// [`inflate`](Self::inflate)).
    pub placement: Placement,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_place::{check_legality, hpwl, BinGrid, DensityMap};

    #[test]
    fn generation_is_deterministic() {
        let a = CircuitSpec::small(7).generate();
        let b = CircuitSpec::small(7).generate();
        assert_eq!(a.netlist.num_cells(), b.netlist.num_cells());
        assert_eq!(a.netlist.num_nets(), b.netlist.num_nets());
        assert_eq!(a.placement, b.placement);
        let c = CircuitSpec::small(8).generate();
        assert!(a.placement != c.placement || a.netlist.num_nets() != c.netlist.num_nets());
    }

    #[test]
    fn generated_placement_is_legal() {
        let bench = CircuitSpec::small(42).generate();
        let report = check_legality(&bench.netlist, &bench.die, &bench.placement, 10);
        assert!(report.is_legal(), "{report}");
    }

    #[test]
    fn placement_with_macros_is_legal() {
        let bench = CircuitSpec::small(42).with_macros(3).generate();
        let report = check_legality(&bench.netlist, &bench.die, &bench.placement, 10);
        assert!(report.is_legal(), "{report}");
        assert_eq!(bench.netlist.macro_ids().count(), 3);
    }

    #[test]
    fn utilization_close_to_target() {
        let bench = CircuitSpec::small(42).generate();
        let util = bench.netlist.movable_area() / bench.die.area();
        assert!((0.4..0.95).contains(&util), "utilization {util}");
    }

    #[test]
    fn density_nowhere_wildly_over_one() {
        let bench = CircuitSpec::small(42).generate();
        let grid = BinGrid::new(bench.die.outline(), 4.0 * bench.die.row_height());
        let dm = DensityMap::from_placement(&bench.netlist, &bench.placement, grid);
        assert!(dm.max_density() <= 1.05, "max density {}", dm.max_density());
    }

    #[test]
    fn netlist_is_a_dag() {
        let bench = CircuitSpec::small(42).generate();
        let lv = dpm_netlist::levelize(&bench.netlist);
        assert!(lv.is_acyclic());
    }

    #[test]
    fn clusters_are_spatially_local() {
        // The mean net HPWL should be far below the die diagonal: nets
        // mostly connect cells of one cluster, placed contiguously.
        let bench = CircuitSpec::small(42).generate();
        let total = hpwl(&bench.netlist, &bench.placement);
        let per_net = total / bench.netlist.num_nets() as f64;
        let diag = bench.die.outline().width() + bench.die.outline().height();
        assert!(
            per_net < diag / 4.0,
            "per-net HPWL {per_net} too large vs die half-perimeter {diag}"
        );
    }

    #[test]
    fn pads_sit_on_the_boundary() {
        let bench = CircuitSpec::small(42).generate();
        let outline = bench.die.outline();
        for pad in bench.netlist.cell_ids() {
            if bench.netlist.cell(pad).kind != CellKind::Pad {
                continue;
            }
            let p = bench.placement.get(pad);
            let near_edge = (p.x - outline.llx).abs() < 2.0
                || (outline.urx - p.x).abs() < 2.0
                || (p.y - outline.lly).abs() < 2.0
                || (outline.ury - p.y).abs() < 2.0;
            assert!(near_edge, "pad at {p} not on boundary");
        }
    }

    #[test]
    #[should_panic(expected = "must have cells")]
    fn zero_cells_rejected() {
        let mut spec = CircuitSpec::small(1);
        spec.num_cells = 0;
        let _ = spec.generate();
    }
}
