//! Shared suite runners for the table/figure binaries.

use crate::{fnum, print_table, Experiment, RunResult, TextTable};
use dpm_diffusion::{DiffusionConfig, GlobalDiffusion, LocalDiffusion};
use dpm_gen::suites::{ckt_suite, ibm_suite};
use dpm_gen::{Benchmark, InflationSpec};
use dpm_legalize::{
    DiffusionLegalizer, FlowLegalizer, GemLegalizer, GreedyLegalizer, Legalizer, RowDpLegalizer,
    TetrisLegalizer,
};
use dpm_place::{BinGrid, DensityMap, MovementStats};

/// Everything measured for one `ckt` circuit across the four legalizers
/// of the paper's Tables II–V.
pub struct CktRow {
    /// Circuit name.
    pub name: String,
    /// Pre-inflation quality (the paper's "Base" column).
    pub base: crate::Metrics,
    /// Achieved inflation fraction.
    pub inflation: f64,
    /// Results in order: GREED, FLOW, DIFF(G), DIFF(L).
    pub results: Vec<RunResult>,
}

/// The diffusion-only measurements of Tables VII/VIII (no final
/// legalization, matching the paper's "during diffusion" metrics).
pub struct DiffusionRow {
    /// Circuit name.
    pub name: String,
    /// (max, total) windowed density overflow after global diffusion.
    pub global_overflow: (f64, f64),
    /// (max, total) after local diffusion.
    pub local_overflow: (f64, f64),
    /// (max, total) cell movement of global diffusion.
    pub global_movement: (f64, f64),
    /// (max, total) cell movement of local diffusion.
    pub local_movement: (f64, f64),
}

/// The standard diffusion configuration for a benchmark die.
pub fn diffusion_cfg(bench: &Benchmark) -> DiffusionConfig {
    DiffusionConfig::default()
        .with_bin_size(2.5 * bench.die.row_height())
        .with_windows(1, 2)
        .with_update_period(10)
}

/// Runs the four-legalizer comparison (Tables II–V) over the ckt suite.
pub fn run_ckt_comparison(scale: f64) -> Vec<CktRow> {
    let mut rows = Vec::new();
    for entry in ckt_suite(scale) {
        let base = entry.spec.generate();
        let (bench, achieved) = entry.generate_inflated();
        let exp = Experiment::new(bench, &base);
        let legalizers: Vec<Box<dyn Legalizer>> = vec![
            Box::new(GreedyLegalizer::new()),
            Box::new(FlowLegalizer::new()),
            Box::new(DiffusionLegalizer::global_default()),
            Box::new(DiffusionLegalizer::local_default()),
        ];
        let results = legalizers.iter().map(|l| exp.run(l.as_ref())).collect();
        rows.push(CktRow {
            name: entry.spec.name.clone(),
            base: exp.base,
            inflation: achieved,
            results,
        });
        eprintln!("  finished {}", entry.spec.name);
    }
    rows
}

/// Runs diffusion-only (no final legalization) over the ckt suite for
/// the overflow/movement comparison of Tables VII–VIII.
pub fn run_diffusion_comparison(scale: f64) -> Vec<DiffusionRow> {
    let mut rows = Vec::new();
    for entry in ckt_suite(scale) {
        let (bench, _) = entry.generate_inflated();
        let cfg = diffusion_cfg(&bench);
        let grid = BinGrid::new(bench.die.outline(), cfg.bin_size);

        let mut pg = bench.placement.clone();
        GlobalDiffusion::new(cfg.clone()).run(&bench.netlist, &bench.die, &mut pg);
        let dg = DensityMap::from_placement(&bench.netlist, &pg, grid.clone());
        let mg = MovementStats::between(&bench.netlist, &bench.placement, &pg);

        let mut pl = bench.placement.clone();
        LocalDiffusion::new(cfg.clone()).run(&bench.netlist, &bench.die, &mut pl);
        let dl = DensityMap::from_placement(&bench.netlist, &pl, grid);
        let ml = MovementStats::between(&bench.netlist, &bench.placement, &pl);

        rows.push(DiffusionRow {
            name: entry.spec.name.clone(),
            global_overflow: (
                dg.max_local_overflow(cfg.w1, cfg.d_max),
                dg.total_local_overflow(cfg.w1, cfg.d_max),
            ),
            local_overflow: (
                dl.max_local_overflow(cfg.w1, cfg.d_max),
                dl.total_local_overflow(cfg.w1, cfg.d_max),
            ),
            global_movement: (mg.max, mg.total),
            local_movement: (ml.max, ml.total),
        });
        eprintln!("  finished {}", entry.spec.name);
    }
    rows
}

/// One circuit's results across the four ISPD-comparison legalizers.
pub struct IspdRow {
    /// Circuit name.
    pub name: String,
    /// TWL of the inflated starting placement (the scaling base).
    pub base_twl: f64,
    /// Results in order: TETRIS (Capo-like), ROWDP (FengShui-like),
    /// DIFF(L), GEM.
    pub results: Vec<RunResult>,
}

/// Which ISPD inflation protocol to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IspdSet {
    /// 10% of cells chosen at random, width × 1.6.
    Random,
    /// The 10% of cells nearest the die center, width × 1.6.
    Center,
}

impl IspdSet {
    /// The inflation spec for this set (seeded per circuit).
    pub fn inflation(self, seed: u64) -> InflationSpec {
        match self {
            IspdSet::Random => InflationSpec::random_width(0.10, 1.6, seed),
            IspdSet::Center => InflationSpec::center_width(0.10, 1.6),
        }
    }

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            IspdSet::Random => "RANDOM",
            IspdSet::Center => "CENTER",
        }
    }
}

/// Runs the ISPD comparison (Tables XI–XVI) for one inflation set.
pub fn run_ispd_comparison(scale: f64, set: IspdSet) -> Vec<IspdRow> {
    let mut rows = Vec::new();
    for entry in ibm_suite(scale) {
        let base = entry.spec.generate();
        let mut bench = entry.spec.generate();
        bench.inflate(&set.inflation(entry.spec.seed ^ 0x15bd));
        let exp = Experiment::new(bench, &base);
        let base_twl = dpm_place::hpwl(&exp.bench.netlist, &exp.start);
        let legalizers: Vec<Box<dyn Legalizer>> = vec![
            Box::new(TetrisLegalizer::new()),
            Box::new(RowDpLegalizer::new()),
            Box::new(DiffusionLegalizer::local_default()),
            Box::new(GemLegalizer::new()),
        ];
        let results = legalizers.iter().map(|l| exp.run(l.as_ref())).collect();
        rows.push(IspdRow {
            name: entry.spec.name.clone(),
            base_twl,
            results,
        });
        eprintln!("  finished {} ({})", entry.spec.name, set.label());
    }
    rows
}

/// Prints one metric of the ckt comparison as a paper-style table.
pub fn print_ckt_metric(
    title: &str,
    rows: &[CktRow],
    metric: impl Fn(&RunResult) -> f64,
    base: impl Fn(&CktRow) -> f64,
) {
    let mut t = TextTable::new(["testcase", "Base", "GREED", "FLOW", "DIFF(G)", "DIFF(L)"]);
    for row in rows {
        let mut cells = vec![row.name.clone(), fnum(base(row))];
        cells.extend(row.results.iter().map(|r| fnum(metric(r))));
        t.row(cells);
    }
    print_table(title, &t);
}

/// Prints one metric of the ISPD comparison.
pub fn print_ispd_metric(
    title: &str,
    rows: &[IspdRow],
    metric: impl Fn(&IspdRow, &RunResult) -> f64,
) {
    let mut t = TextTable::new([
        "testcase",
        "Capo-like",
        "FengShui-like",
        "DIFF(L)",
        "GEM-like",
    ]);
    for row in rows {
        let mut cells = vec![row.name.clone()];
        cells.extend(row.results.iter().map(|r| fnum(metric(row, r))));
        t.row(cells);
    }
    print_table(title, &t);
}
