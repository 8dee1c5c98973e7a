//! The four workloads: the inputs each runs, the order the seed deals
//! them in, and the pinned diffusion configuration every job runs with.
//! Three are benchmarked; the service workload is run by name.

use dpm_diffusion::{DiffusionConfig, FieldPrecision, LaneMode, SolverKind};
use dpm_gen::{Benchmark, CircuitSpec, InflationSpec};
use dpm_netlist::{CellId, NetlistBuilder};
use dpm_place::{Die, Placement};
use dpm_rng::Rng;

/// Circuits in each batch workload's suite.
///
/// Like the paper's tables, every run migrates the same circuits; the
/// run seed deals them in a shuffled order. With a fresh circuit drawn
/// from the seed for every job, the ten-seed spread of the quality
/// metrics was input sampling, 0.3–1.7% of the median, and could not
/// hold a 1% bound; over a fixed suite they repeat exactly, so any change
/// in them is a change in migration quality. A 30-second window runs the
/// suite two to five times over.
pub const SUITE: usize = 64;
/// Stream the suite's circuits are drawn from.
const SUITE_SEED: u64 = 0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DiffgPaper,
    DifflHotspot,
    SpectralFine,
    ServeEco,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DiffgPaper,
        Workload::DifflHotspot,
        Workload::SpectralFine,
        Workload::ServeEco,
    ];

    /// The workloads `BENCHMARK.json` names. The service workload is not
    /// among them: its timings do not repeat within the benchmark's
    /// bounds on a shared host (see the README), so it is run by name.
    pub const BENCHMARKED: [Workload; 3] = [
        Workload::DiffgPaper,
        Workload::DifflHotspot,
        Workload::SpectralFine,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DiffgPaper => "diffg-paper",
            Workload::DifflHotspot => "diffl-hotspot",
            Workload::SpectralFine => "spectral-fine",
            Workload::ServeEco => "serve-eco",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Process id used for this workload's lane in the Chrome trace.
    pub fn trace_pid(self) -> u32 {
        Workload::ALL
            .iter()
            .position(|&w| w == self)
            .expect("listed") as u32
            + 1
    }

    /// Salt that keeps the workloads' input streams disjoint for one seed.
    fn salt(self) -> u64 {
        match self {
            Workload::DiffgPaper => 0xD1F6_0000_0000_0001,
            Workload::DifflHotspot => 0xD1F1_0000_0000_0002,
            Workload::SpectralFine => 0x5BEC_0000_0000_0003,
            Workload::ServeEco => 0x5E7E_0000_0000_0004,
        }
    }

    /// Seed of the `i`-th random stream of this workload for run seed
    /// `seed`.
    pub fn input_seed(self, seed: u64, i: u64) -> u64 {
        let mut rng = Rng::seed_from_u64(seed ^ self.salt());
        let base = rng.next_u64();
        Rng::seed_from_u64(base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))).next_u64()
    }

    /// Seed of the `k`-th circuit of this workload's suite, the same for
    /// every run seed.
    pub fn suite_seed(self, k: usize) -> u64 {
        self.input_seed(SUITE_SEED, k as u64)
    }

    /// The batch shape of this workload; `None` for the service workload.
    pub fn batch(self) -> Option<BatchSpec> {
        match self {
            Workload::DiffgPaper => Some(BatchSpec {
                cells: 12_000,
                inflation: Inflation::Distributed(0.25),
                shuffle: false,
                mode: Mode::Global,
                solver: SolverKind::Ftcs,
                bin_rows: 2.5,
            }),
            Workload::DifflHotspot => Some(BatchSpec {
                cells: 20_000,
                inflation: Inflation::Centered(0.05, 0.2),
                shuffle: true,
                mode: Mode::Local,
                solver: SolverKind::Ftcs,
                bin_rows: 2.5,
            }),
            Workload::SpectralFine => Some(BatchSpec {
                cells: 14_000,
                inflation: Inflation::Distributed(0.25),
                shuffle: false,
                mode: Mode::Global,
                solver: SolverKind::Spectral,
                bin_rows: 1.0,
            }),
            Workload::ServeEco => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Global,
    Local,
}

#[derive(Debug, Clone, Copy)]
pub enum Inflation {
    /// Inflate this share of the movable area, spread over the die.
    Distributed(f64),
    /// Inflate this share of the area within this radius (as a share of
    /// the die) of the centre.
    Centered(f64, f64),
}

/// One batch workload's job shape.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    pub cells: usize,
    pub inflation: Inflation,
    /// Permute the netlist's cell order: real netlists are not stored in
    /// spatial order, and the generator's order is.
    pub shuffle: bool,
    pub mode: Mode,
    pub solver: SolverKind,
    /// Bin edge in row heights.
    pub bin_rows: f64,
}

impl BatchSpec {
    /// The circuit for `seed`: a ckt-shaped circuit (the paper's
    /// industrial suite shape, `dpm_gen::suites::ckt_suite`), inflated,
    /// and optionally with its cell order shuffled.
    pub fn design(&self, seed: u64) -> Benchmark {
        let mut bench = ckt_circuit("e2e", self.cells, seed);
        let spec = match self.inflation {
            Inflation::Distributed(pct) => InflationSpec::distributed(pct, seed ^ 0x5EED),
            Inflation::Centered(pct, radius) => InflationSpec::centered(pct, radius, seed ^ 0x5EED),
        };
        bench.inflate(&spec);
        if self.shuffle {
            shuffle_cells(&mut bench, seed ^ 0x005A_FF1E);
        }
        bench
    }

    pub fn config(&self, die: &Die) -> DiffusionConfig {
        pinned_config(die, self.bin_rows, self.solver)
    }
}

/// A circuit shaped like the paper's industrial suite: 55% utilization,
/// 97% locally dense clusters, whitespace pooled every 6 clusters.
pub fn ckt_circuit(name: &str, cells: usize, seed: u64) -> Benchmark {
    CircuitSpec::with_size(name, cells, seed)
        .with_utilization(0.55)
        .with_local_utilization(0.97)
        .with_clusters_per_gap(6)
        .generate()
}

/// Every field set explicitly: the `DiffusionLegalizer` per-die defaults
/// (bins of `bin_rows` row heights, W1 = 1, W2 = 2, N_U = 10) with the
/// solver, lane mode, precision and thread count pinned, so no
/// `DPM_*` variable in the environment can change what is measured.
pub fn pinned_config(die: &Die, bin_rows: f64, solver: SolverKind) -> DiffusionConfig {
    DiffusionConfig {
        bin_size: bin_rows * die.row_height(),
        d_max: 1.0,
        delta: 0.2,
        dt: 0.2,
        diffusivity: 1.0,
        max_steps: 5000,
        manipulate: true,
        interpolate: true,
        w1: 1,
        w2: 2,
        n_u: 10,
        max_rounds: 200,
        max_step_displacement: 1.0,
        paper_boundaries: false,
        solver,
        lanes: LaneMode::Wide,
        precision: FieldPrecision::F64,
        threads: 1,
    }
}

/// Deals the indices `0..n` in shuffled rounds: every index comes up
/// once before any comes up twice.
pub struct Deck {
    rng: Rng,
    n: usize,
    left: Vec<usize>,
}

impl Deck {
    pub fn new(n: usize, seed: u64) -> Self {
        Self {
            rng: Rng::seed_from_u64(seed),
            n,
            left: Vec::new(),
        }
    }

    pub fn deal(&mut self) -> usize {
        if self.left.is_empty() {
            self.left = (0..self.n).collect();
            self.rng.shuffle(&mut self.left);
        }
        self.left.pop().expect("a deck of at least one index")
    }
}

/// Rebuilds `bench` with its cells in a seeded random order; nets, pins
/// and positions follow their cells.
fn shuffle_cells(bench: &mut Benchmark, seed: u64) {
    let nl = &bench.netlist;
    let n = nl.num_cells();
    let mut order: Vec<u32> = (0..n as u32).collect();
    Rng::seed_from_u64(seed).shuffle(&mut order);
    let mut new_id = vec![CellId::new(0); n];
    let mut b = NetlistBuilder::with_capacity(n, nl.num_nets(), nl.num_pins());
    let mut placement = Placement::new(n);
    for (k, &old) in order.iter().enumerate() {
        let old = CellId::new(old);
        let c = nl.cell(old);
        new_id[old.index()] =
            b.add_cell_with_delay(c.name.clone(), c.width, c.height, c.kind, c.delay);
        placement.as_mut_slice()[k] = bench.placement.get(old);
    }
    for net in nl.net_ids() {
        let new_net = b.add_net(nl.net(net).name.clone());
        for &pid in &nl.net(net).pins {
            let pin = nl.pin(pid);
            b.connect(
                new_id[pin.cell.index()],
                new_net,
                pin.dir,
                pin.offset.x,
                pin.offset.y,
            );
        }
    }
    bench.netlist = b.build().expect("a permuted valid netlist stays valid");
    bench.placement = placement;
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_place::hpwl;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let w = Workload::DiffgPaper;
        assert_eq!(w.input_seed(7, 3), w.input_seed(7, 3));
        assert_ne!(w.input_seed(7, 3), w.input_seed(7, 4));
        assert_ne!(w.input_seed(7, 3), w.input_seed(8, 3));
        assert_ne!(w.input_seed(7, 3), Workload::SpectralFine.input_seed(7, 3));
    }

    #[test]
    fn a_deck_deals_every_index_once_per_round() {
        let mut deck = Deck::new(5, 9);
        for _ in 0..3 {
            let mut round: Vec<usize> = (0..5).map(|_| deck.deal()).collect();
            round.sort_unstable();
            assert_eq!(round, [0, 1, 2, 3, 4]);
        }
        let order = |seed| {
            let mut deck = Deck::new(5, seed);
            (0..5).map(|_| deck.deal()).collect::<Vec<_>>()
        };
        assert_eq!(order(9), order(9), "the order is a function of the seed");
    }

    #[test]
    fn shuffling_keeps_the_design() {
        let spec = BatchSpec {
            cells: 600,
            inflation: Inflation::Distributed(0.1),
            shuffle: false,
            mode: Mode::Local,
            solver: SolverKind::Ftcs,
            bin_rows: 2.5,
        };
        let plain = spec.design(5);
        let shuffled = BatchSpec {
            shuffle: true,
            ..spec
        }
        .design(5);
        assert_eq!(plain.netlist.num_cells(), shuffled.netlist.num_cells());
        assert_eq!(plain.netlist.num_pins(), shuffled.netlist.num_pins());
        assert_ne!(plain.placement, shuffled.placement, "order changed");
        let (a, b) = (
            hpwl(&plain.netlist, &plain.placement),
            hpwl(&shuffled.netlist, &shuffled.placement),
        );
        assert!((a - b).abs() <= 1e-9 * a, "{a} vs {b}");
    }

    #[test]
    fn pinned_config_is_valid_and_ignores_the_environment() {
        let die = Die::new(600.0, 600.0, 12.0);
        for solver in [SolverKind::Ftcs, SolverKind::Spectral] {
            let cfg = pinned_config(&die, 2.5, solver);
            assert_eq!(cfg.validate(), Ok(()));
            assert_eq!(
                (cfg.threads, cfg.lanes, cfg.solver),
                (1, LaneMode::Wide, solver)
            );
        }
    }
}
