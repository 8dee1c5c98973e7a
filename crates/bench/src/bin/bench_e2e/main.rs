//! `bench_e2e` — the end-to-end migration benchmark.
//!
//! Four workloads drive the migration flow through the entry points its
//! users call: `run_legalizer` with `DiffusionLegalizer::{global,local}`
//! as the CLI does (three batch workloads), and `ServeClient` plus raw
//! wire frames against a `dpm-ctl` control plane as service tenants do
//! (one service workload). Every run checks its outputs, prints every
//! metric by name with its unit, and ends with one JSON result line.
//! A separate traced run (`--trace 1`) measures each layer from outside,
//! by timing calls into that layer's public functions, and reports the
//! per-layer ledger instead. `BENCHMARK.json` names the three batch
//! workloads; the service workload is run by name or with `--all`. See
//! `bench/e2e/README.md`.
//!
//! ```text
//! bench_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--smoke] [--trace-out FILE]      one workload, in process
//! bench_e2e [--seed N] [--runs N] [--trace 0|1] [--smoke] [--all]
//!           [--seconds S] [--out FILE] [--trace-out FILE]
//!                                             every benchmarked workload
//!                                             (with --all, every one),
//!                                             each run in a fresh child
//!                                             process
//! bench_e2e compare A.json B.json             medians, quartiles, bound
//!                                             and verdict per metric
//! ```

mod batch;
mod calib;
mod json;
mod ledger;
mod report;
mod serve;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use dpm_geom::Point;
use dpm_obs::{SpanRecord, TraceExporter};

use json::Json;
use report::END_TO_END;
use stats::{quartiles, relative_spread, verdict, worsening};
use workload::Workload;

/// Measured seconds per run when `--seconds` is not given (the same
/// value `BENCHMARK.json` fixes as `run_seconds`).
const DEFAULT_SECONDS: f64 = 30.0;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Jobs (or traced requests) per workload whose spans are exported.
pub const TRACED_JOBS: u64 = 10;
/// Inputs per workload on which the public kernels are replayed.
pub const REPLAYED_INPUTS: usize = 3;
const SMOKE_JOBS: u64 = 5;
const SMOKE_SECONDS: f64 = 2.0;

/// How one workload run is driven.
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub trace: bool,
    pub trace_out: Option<TraceSink>,
}

impl Options {
    /// Whether the timed window is still open after `attempted` jobs.
    pub fn within(&self, window: Instant, attempted: u64) -> bool {
        window.elapsed().as_secs_f64() < self.seconds && !(self.smoke && attempted >= SMOKE_JOBS)
    }

    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPS
        }
    }
}

/// Where a traced run writes its spans: Chrome `trace_event` lines, one
/// process lane per workload.
pub struct TraceSink(PathBuf);

impl TraceSink {
    pub fn write(&self, workload: Workload, spans: &[SpanRecord]) {
        let mut exporter = TraceExporter::new();
        for s in spans {
            if s.parent_id == 0 {
                exporter.add_with_args(
                    s,
                    workload.trace_pid(),
                    1,
                    &[("workload", workload.name())],
                );
            } else {
                exporter.add(s, workload.trace_pid(), 1);
            }
        }
        if let Err(e) = exporter.write_to(&self.0) {
            eprintln!("bench_e2e: cannot write {}: {e}", self.0.display());
        }
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB;
/// NaN where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Bit-for-bit equality of two position lists.
pub fn same_bits(a: &[Point], b: &[Point]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(p, q)| p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits())
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    all: bool,
    runs: u64,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        all: false,
        runs: 1,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                a.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--runs" => {
                a.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if a.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            "--trace-out" => a.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--smoke" => a.smoke = true,
            "--all" => a.all = true,
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare(a, b),
            _ => {
                eprintln!("usage: bench_e2e compare A.json B.json");
                ExitCode::from(2)
            }
        };
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    match a.workload {
        Some(w) => run_one(w, &a),
        None => run_all(&a),
    }
}

/// Runs one workload in this process and prints its result.
fn run_one(workload: Workload, a: &Args) -> ExitCode {
    let opts = Options {
        seed: a.seed,
        seconds: if a.smoke {
            SMOKE_SECONDS
        } else {
            a.seconds.unwrap_or(DEFAULT_SECONDS)
        },
        smoke: a.smoke,
        trace: a.trace,
        trace_out: a.trace_out.clone().map(TraceSink),
    };
    let report = match workload.batch() {
        Some(spec) => batch::run(workload, spec, &opts),
        None => serve::run(&opts),
    };
    println!(
        "bench_e2e {} seed {} ({} run, {:.0} s window, {} hardware threads)",
        workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "timed" },
        opts.seconds,
        hardware_threads()
    );
    for m in report.selected(opts.trace) {
        println!(
            "  {:<30} {:>16.6} {:<6} ({} is better)",
            m.name,
            m.value,
            m.unit,
            m.better.as_str()
        );
    }
    println!(
        "  {:<30} {:>16} / {}",
        "failed / attempted", report.failed, report.attempted
    );
    if !opts.trace {
        let n = report.latency_samples;
        let beyond = stats::samples_beyond(n, 0.9);
        println!("  latency percentiles over {n} samples; {beyond} lie beyond p90");
        if !stats::tail_supported(n, 0.9) {
            println!(
                "  warning: fewer than {} samples beyond p90; latency_ms_p90 is not a reliable tail",
                stats::MIN_TAIL_SAMPLES
            );
        }
    }
    for p in &report.problems {
        println!("  problem: {p}");
    }
    println!("detail {}", report.detail_json().to_string_compact());
    let result = report.to_json(opts.trace);
    println!("{}", result.to_string_compact());
    if result.get("correct") == Some(&Json::Bool(true)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// First line of a command's standard output, if it runs.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string()
    })
}

/// Where and how a result file was measured. The diffusion config of
/// every workload is pinned, so the `DPM_*` variables recorded here
/// cannot change the measurement.
fn provenance(a: &Args, seconds: f64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).map_or(Json::Null, Json::Str);
    let unknown = || "unknown".to_string();
    Json::obj([
        ("hardware_threads", Json::Num(hardware_threads() as f64)),
        ("cpu_model", Json::Str(cpu)),
        (
            "rustc",
            Json::Str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("seed", Json::Num(a.seed as f64)),
        ("runs", Json::Num(a.runs as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(a.smoke)),
        (
            "env",
            Json::obj([
                ("DPM_THREADS", env("DPM_THREADS")),
                ("DPM_SOLVER", env("DPM_SOLVER")),
                ("DPM_LANES", env("DPM_LANES")),
            ]),
        ),
        (
            "env_note",
            Json::str(
                "every workload pins solver, lanes, precision and threads in its DiffusionConfig, \
                 so these variables do not change what is measured",
            ),
        ),
    ])
}

/// Runs every benchmarked workload (with `--all`, every workload)
/// `--runs` times (seeds `seed`, `seed+1`, ...), each in a fresh child
/// process so caches and peak RSS do not leak between runs, and writes
/// the collected results.
fn run_all(a: &Args) -> ExitCode {
    let seconds = if a.smoke {
        SMOKE_SECONDS
    } else {
        a.seconds.unwrap_or(DEFAULT_SECONDS)
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("bench_e2e: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runs = Vec::new();
    let mut traces = String::new();
    let mut all_ok = true;
    let workloads: &[Workload] = if a.all {
        &Workload::ALL
    } else {
        &Workload::BENCHMARKED
    };
    for &w in workloads {
        for k in 0..a.runs {
            let seed = a.seed + k;
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if a.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit());
            if a.smoke {
                cmd.arg("--smoke");
            }
            let part = a.trace_out.as_ref().map(|p| {
                let mut s = p.clone().into_os_string();
                s.push(format!(".{}.part", w.name()));
                PathBuf::from(s)
            });
            // Only the first run of each workload exports spans.
            if let Some(part) = part.as_ref().filter(|_| k == 0) {
                cmd.args(["--trace-out".as_ref(), part.as_os_str()]);
            }
            let out = match cmd.output() {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("bench_e2e: cannot run {}: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            eprint!("{stdout}");
            let result = stdout
                .lines()
                .last()
                .and_then(|l| Json::parse(l).ok())
                .unwrap_or(Json::Null);
            let detail = stdout
                .lines()
                .find_map(|l| l.strip_prefix("detail "))
                .and_then(|l| Json::parse(l).ok())
                .unwrap_or(Json::Null);
            let ok = out.status.success() && result.get("correct") == Some(&Json::Bool(true));
            all_ok &= ok;
            runs.push(Json::obj([
                ("workload", Json::str(w.name())),
                ("seed", Json::Num(seed as f64)),
                ("traced", Json::Bool(a.trace)),
                ("exit_ok", Json::Bool(ok)),
                ("result", result),
                ("detail", detail),
            ]));
            if let Some(part) = part.filter(|_| k == 0) {
                if let Ok(lines) = std::fs::read_to_string(&part) {
                    traces.push_str(&lines);
                }
                let _ = std::fs::remove_file(&part);
            }
        }
    }
    if let Some(path) = &a.out {
        let mut text = String::from("{\n\"bench\":\"bench_e2e\",\n\"provenance\":");
        provenance(a, seconds).write(&mut text);
        text.push_str(",\n\"runs\":[\n");
        for (i, run) in runs.iter().enumerate() {
            if i > 0 {
                text.push_str(",\n");
            }
            run.write(&mut text);
        }
        text.push_str("\n]}\n");
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("bench_e2e: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    if let Some(path) = &a.trace_out {
        // The exporter writes one event per line; a Chrome trace file
        // is the array of them.
        let events: Vec<&str> = traces.lines().filter(|l| !l.trim().is_empty()).collect();
        let text = format!("[\n{}\n]\n", events.join(",\n"));
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("bench_e2e: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    print_summary(&runs);
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_e2e: at least one run failed its checks");
        ExitCode::FAILURE
    }
}

/// Values of `metric` over the runs of `workload` in a result file.
fn metric_values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Metric names present in the runs, in first-seen order.
fn metric_names(runs: &[Json]) -> Vec<(String, String)> {
    let mut names: Vec<(String, String)> = Vec::new();
    for r in runs {
        let Some(metrics) = r
            .get("result")
            .and_then(|x| x.get("metrics"))
            .and_then(Json::as_object)
        else {
            continue;
        };
        for (name, m) in metrics {
            if !names.iter().any(|(n, _)| n == name) {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                names.push((name.clone(), unit.to_string()));
            }
        }
    }
    names
}

fn print_summary(runs: &[Json]) {
    let mut out = String::new();
    for w in Workload::ALL {
        if !runs
            .iter()
            .any(|r| r.get("workload").and_then(Json::as_str) == Some(w.name()))
        {
            continue;
        }
        let _ = writeln!(out, "{}", w.name());
        for (name, unit) in metric_names(runs) {
            let v = metric_values(runs, w.name(), &name);
            if v.is_empty() {
                continue;
            }
            let (q1, q2, q3) = quartiles(&v);
            let _ = writeln!(
                out,
                "  {name:<30} median {q2:>14.6} {unit:<6} [q1 {q1:.6}, q3 {q3:.6}] over {} run(s)",
                v.len()
            );
        }
    }
    print!("{out}");
}

fn load_runs(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or(format!("{path}: no runs"))?;
    Ok(runs
        .iter()
        .filter(|r| r.get("traced").and_then(Json::as_bool) == Some(false))
        .cloned()
        .collect())
}

/// `compare A.json B.json`: for each (end-to-end metric, workload), the
/// medians and quartiles of both files, the bound, and whether B is no
/// worse than A by more than the bound (OK), worse (REGRESSED), or not
/// decidable because A's own spread exceeds the bound (UNRESOLVED).
fn compare(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load_runs(a_path), load_runs(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_e2e compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<18} {:>28} {:>28} {:>6} {:>8} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "bound", "spread", "change"
    );
    let mut all_ok = true;
    let mut compared = 0;
    for w in Workload::ALL {
        for m in &END_TO_END {
            let (va, vb) = (
                metric_values(&a, w.name(), m.name),
                metric_values(&b, w.name(), m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            compared += 1;
            let (a1, a2, a3) = quartiles(&va);
            let (b1, b2, b3) = quartiles(&vb);
            let v = verdict(&va, &vb, m.better, m.bound);
            all_ok &= v == stats::Verdict::Ok;
            println!(
                "{:<14} {:<18} {:>28} {:>28} {:>5.0}% {:>7.2}% {:>+7.2}%  {}",
                w.name(),
                m.name,
                format!("{a2:.4} [{a1:.4}, {a3:.4}]"),
                format!("{b2:.4} [{b1:.4}, {b3:.4}]"),
                m.bound * 100.0,
                relative_spread(&va) * 100.0,
                worsening(&va, &vb, m.better) * 100.0,
                v.as_str()
            );
        }
    }
    if compared == 0 {
        eprintln!("bench_e2e compare: no (workload, metric) pair in both files");
        return ExitCode::from(2);
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
