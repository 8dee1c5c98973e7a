//! Benchmark harness reproducing the paper's evaluation section.
//!
//! Every table and figure of Ren et al.'s evaluation has a binary in
//! `src/bin/` that regenerates it (see DESIGN.md for the index). This
//! library holds what those binaries share: workload construction, the
//! metric pipeline (TWL / WNS / FOM / movement / density overflow /
//! congestion / runtime), and plain-text table formatting with the
//! paper's reference values printed alongside.
//!
//! Scale is controlled by the `DPM_SCALE` environment variable — the
//! fraction of the paper's cell counts to generate (default 1/64 for the
//! industrial `ckt` suite and 1/16 for the ISPD `ibm` suite), so the full
//! evaluation runs in minutes on a laptop while preserving the workload
//! *shape*: who wins and by roughly what factor.

pub mod suite;

use dpm_gen::Benchmark;
use dpm_legalize::{run_legalizer, Legalizer};
use dpm_netlist::Netlist;
use dpm_obs::{Histogram, HistogramSnapshot};
use dpm_place::{check_legality, hpwl, MovementStats, Placement};
use dpm_sta::{DelayModel, TimingAnalyzer};
use std::fmt::Write as _;
use std::time::Duration;

/// Quality metrics of one placement, in the paper's units of account.
#[derive(Debug, Clone, Copy)]
pub struct Metrics {
    /// Total half-perimeter wirelength.
    pub twl: f64,
    /// Worst slack.
    pub wns: f64,
    /// Figure of merit (sum of negative endpoint slacks).
    pub fom: f64,
    /// Peak routed congestion (usage/capacity after pattern global
    /// routing — the paper's "after global routing" metric).
    pub congestion: f64,
    /// `true` if the placement is legal.
    pub legal: bool,
}

/// Everything measured about one legalizer run on one circuit.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Legalizer name (paper's column label).
    pub legalizer: String,
    /// Post-legalization quality.
    pub metrics: Metrics,
    /// Movement relative to the pre-legalization placement.
    pub movement: MovementStats,
    /// Wall-clock runtime.
    pub runtime: Duration,
}

/// A harness around one benchmark circuit: generation, timing setup and
/// uniform evaluation of legalizers.
pub struct Experiment {
    /// The circuit under test (already inflated by the caller).
    pub bench: Benchmark,
    /// Pre-inflation (base) metrics.
    pub base: Metrics,
    /// The inflated, illegal starting placement.
    pub start: Placement,
    sta: TimingAnalyzer,
    clock: f64,
}

impl Experiment {
    /// Wraps an inflated benchmark. `base` is the pre-inflation
    /// benchmark (legal placement) whose metrics become the paper's
    /// "Base" column; the clock period is set so the base design is just
    /// critical (WNS ≈ 0), mirroring the paper's slightly-negative base
    /// slacks.
    pub fn new(bench: Benchmark, base: &Benchmark) -> Self {
        let sta = TimingAnalyzer::new(&bench.netlist, DelayModel::default());
        let base_sta = TimingAnalyzer::new(&base.netlist, DelayModel::default());
        let clock = base_sta.critical_path_delay(&base.netlist, &base.placement) * 0.98;
        let base = measure(&base.netlist, &base.placement, &base_sta, clock, Some(base));
        let start = bench.placement.clone();
        Self {
            bench,
            base,
            start,
            sta,
            clock,
        }
    }

    /// The clock period used for slack computation.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Runs one legalizer from the inflated starting placement.
    pub fn run(&self, legalizer: &dyn Legalizer) -> RunResult {
        let mut placement = self.start.clone();
        let outcome = run_legalizer(
            legalizer,
            &self.bench.netlist,
            &self.bench.die,
            &mut placement,
        );
        let metrics = measure(
            &self.bench.netlist,
            &placement,
            &self.sta,
            self.clock,
            Some(&self.bench),
        );
        let movement = MovementStats::between(&self.bench.netlist, &self.start, &placement);
        RunResult {
            legalizer: legalizer.name().to_string(),
            metrics: Metrics {
                legal: outcome.is_legal,
                ..metrics
            },
            movement,
            runtime: outcome.runtime,
        }
    }

    /// Like [`run`](Self::run) but also returns the final placement (for
    /// the movement-plot figures).
    pub fn run_keeping_placement(&self, legalizer: &dyn Legalizer) -> (RunResult, Placement) {
        let mut placement = self.start.clone();
        let outcome = run_legalizer(
            legalizer,
            &self.bench.netlist,
            &self.bench.die,
            &mut placement,
        );
        let metrics = measure(
            &self.bench.netlist,
            &placement,
            &self.sta,
            self.clock,
            Some(&self.bench),
        );
        let movement = MovementStats::between(&self.bench.netlist, &self.start, &placement);
        (
            RunResult {
                legalizer: legalizer.name().to_string(),
                metrics: Metrics {
                    legal: outcome.is_legal,
                    ..metrics
                },
                movement,
                runtime: outcome.runtime,
            },
            placement,
        )
    }
}

/// Measures TWL, timing, and congestion for a placement.
pub fn measure(
    netlist: &Netlist,
    placement: &Placement,
    sta: &TimingAnalyzer,
    clock: f64,
    bench: Option<&Benchmark>,
) -> Metrics {
    let twl = hpwl(netlist, placement);
    let t = sta.analyze(netlist, placement, clock);
    let congestion = bench
        .map(|b| dpm_route::route_congestion(netlist, placement, &b.die).1)
        .unwrap_or(0.0);
    let legal = bench
        .map(|b| check_legality(netlist, &b.die, placement, 0).is_legal())
        .unwrap_or(true);
    Metrics {
        twl,
        wns: t.wns,
        fom: t.fom,
        congestion,
        legal,
    }
}

/// Reads the suite scale from `DPM_SCALE` (falls back to `default`).
pub fn scale_from_env(default: f64) -> f64 {
    std::env::var("DPM_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(default)
}

/// Default scale for the industrial `ckt` suite.
pub const CKT_DEFAULT_SCALE: f64 = 1.0 / 64.0;
/// Default scale for the ISPD `ibm` suite.
pub const IBM_DEFAULT_SCALE: f64 = 1.0 / 16.0;

/// A plain-text table with aligned columns.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row/header mismatch");
        self.rows.push(row);
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{:>width$}", cell, width = widths[i]);
            }
            line
        };
        let header = fmt_row(&self.headers, &widths);
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{}", "-".repeat(header.len()));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

/// Prints a table with a title banner.
pub fn print_table(title: &str, table: &TextTable) {
    println!("\n=== {title} ===");
    print!("{}", table.render());
}

/// Formats a float compactly for table cells.
pub fn fnum(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// One latency histogram as a `"name": {...}` JSON member, in
/// microseconds: p50/p95/p99 (bucket upper bounds), max, mean and count.
/// The service benchmarks (`perf_serve`, `perf_shard`) share this shape.
pub fn hist_json(name: &str, s: &HistogramSnapshot) -> String {
    format!(
        "\"{name}\": {{\"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}, \"max_us\": {:.1}, \"mean_us\": {:.1}, \"count\": {}}}",
        s.percentile(0.50) as f64 / 1e3,
        s.percentile(0.95) as f64 / 1e3,
        s.percentile(0.99) as f64 / 1e3,
        s.max as f64 / 1e3,
        s.mean() / 1e3,
        s.count,
    )
}

/// [`hist_json`] of raw nanosecond samples, bucketed by the `dpm-obs`
/// latency histogram.
pub fn latency_json(name: &str, ns: &[u64]) -> String {
    let h = Histogram::new(&Histogram::latency_bounds());
    for &v in ns {
        h.record(v);
    }
    hist_json(name, &h.snapshot())
}

/// Writes `content` into `results/<name>`, creating the directory.
///
/// # Panics
///
/// Panics if the file cannot be written (benchmark binaries want loud
/// failures).
pub fn write_result_file(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write result file");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_alignment() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["a", "1"]).row(["longer", "123456"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1"));
    }

    #[test]
    #[should_panic(expected = "row/header mismatch")]
    fn row_width_checked() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(12345.6), "12346");
        assert_eq!(fnum(12.34), "12.3");
        assert_eq!(fnum(1.2345), "1.234");
        assert_eq!(fnum(-0.5), "-0.500");
    }

    #[test]
    fn scale_env_fallback() {
        std::env::remove_var("DPM_SCALE");
        assert_eq!(scale_from_env(0.5), 0.5);
    }

    #[test]
    fn experiment_pipeline_runs() {
        use dpm_gen::{CircuitSpec, InflationSpec};
        use dpm_legalize::GreedyLegalizer;
        let base = CircuitSpec::small(3).generate();
        let mut bench = base.clone();
        bench.inflate(&InflationSpec::random_width(0.1, 1.6, 1));
        let exp = Experiment::new(bench, &base);
        // Base design is just-critical by construction.
        assert!(exp.base.wns <= 0.0);
        let r = exp.run(&GreedyLegalizer::new());
        assert!(r.metrics.legal);
        assert!(r.metrics.twl > 0.0);
        assert!(r.movement.total > 0.0);
    }
}
