//! The batch workloads: one `run_legalizer` job after another, the way
//! the CLI runs them, over a fixed suite of generated circuits.

use std::collections::BTreeMap;
use std::time::Instant;

use dpm_diffusion::{
    DiffusionConfig, DiffusionObserver, DiffusionResult, GlobalDiffusion, LocalDiffusion,
    SolverKind, SpanObserver,
};
use dpm_gen::Benchmark;
use dpm_legalize::{run_legalizer, DetailedLegalizer, DiffusionLegalizer, Legalizer};
use dpm_obs::{SpanRecorder, TraceIdGen};
use dpm_place::{check_legality, hpwl, BinGrid, DensityMap, MovementStats, Placement};

use crate::calib::Calibration;
use crate::ledger::{
    computed_bytes, replay_kernels, report_replays, JobShape, JobTimes, Ledger, Recorder,
    UntimedCalls,
};
use crate::report::Report;
use crate::stats::{mean, median, weighted_percentile};
use crate::workload::{BatchSpec, Deck, Mode, Workload, SUITE};
use crate::{peak_rss_mb, same_bits, Options, REPLAYED_INPUTS, TRACED_JOBS};

fn legalizer(mode: Mode, cfg: DiffusionConfig) -> DiffusionLegalizer {
    match mode {
        Mode::Global => DiffusionLegalizer::global(cfg),
        Mode::Local => DiffusionLegalizer::local(cfg),
    }
}

/// Quality and checks of one finished job.
struct JobQuality {
    legal: bool,
    hpwl_increase_pct: f64,
    move_avg_rows: f64,
    move_max_rows: f64,
}

fn quality(design: &Benchmark, after: &Placement, legal: bool) -> JobQuality {
    let nl = &design.netlist;
    let finite = after
        .as_slice()
        .iter()
        .all(|p| p.x.is_finite() && p.y.is_finite());
    let moved = MovementStats::between(nl, &design.placement, after);
    let rows = design.die.row_height();
    JobQuality {
        legal: legal && finite,
        hpwl_increase_pct: (hpwl(nl, after) / hpwl(nl, &design.placement) - 1.0) * 100.0,
        move_avg_rows: moved.total / moved.movable.max(1) as f64 / rows,
        move_max_rows: moved.max / rows,
    }
}

/// One job as users run it: `run_legalizer`, timed from outside.
fn untraced_job(design: &Benchmark, spec: &BatchSpec) -> (Placement, f64, JobQuality) {
    let lg = legalizer(spec.mode, spec.config(&design.die));
    let mut placement = design.placement.clone();
    let t0 = Instant::now();
    let outcome = run_legalizer(&lg, &design.netlist, &design.die, &mut placement);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let q = quality(design, &placement, outcome.is_legal);
    (placement, wall_ms, q)
}

/// One set-up: generate the suite's first circuit and run the discarded
/// warm-up job on it. Returns its wall time, s, and when it ended.
fn set_up(workload: Workload, spec: &BatchSpec) -> (f64, Instant) {
    let t0 = Instant::now();
    let warm = spec.design(workload.suite_seed(0));
    let _ = untraced_job(&warm, spec);
    (t0.elapsed().as_secs_f64(), Instant::now())
}

pub fn run(workload: Workload, spec: BatchSpec, opts: &Options) -> Report {
    let mut r = Report::default();
    let mut calib = Calibration::new();
    // The first set-up also warms the caches before anything is timed.
    let setup = vec![set_up(workload, &spec)];
    calib.sample();
    let deck = Deck::new(SUITE, workload.input_seed(opts.seed, 0));
    if opts.trace {
        run_traced(workload, spec, deck, opts, &mut r);
    } else {
        run_untraced(workload, spec, deck, opts, &mut r, &mut calib, setup);
    }
    r.calibration = Some((calib.median_ns(), calib.factor()));
    r
}

fn run_untraced(
    workload: Workload,
    spec: BatchSpec,
    mut deck: Deck,
    opts: &Options,
    r: &mut Report,
    calib: &mut Calibration,
    mut setup: Vec<(f64, Instant)>,
) {
    let mut latency_ms = Vec::new();
    let mut finished = Vec::new();
    let mut circuit = Vec::new();
    // Quality of each suite circuit, from its first job.
    let mut quality_of = BTreeMap::new();
    let window = Instant::now();
    while opts.within(window, r.attempted) {
        let k = deck.deal();
        let design = spec.design(workload.suite_seed(k));
        let (_, wall_ms, q) = untraced_job(&design, &spec);
        finished.push(Instant::now());
        calib.sample();
        r.attempted += 1;
        if !q.legal {
            r.failed += 1;
        }
        latency_ms.push(wall_ms);
        circuit.push(k);
        quality_of.entry(k).or_insert(q);
        // The other set-ups run at evenly spaced moments of the window,
        // so their median, like the jobs', sees the host over the whole
        // run and not only in its first second.
        let reps = opts.setup_reps();
        if setup.len() < reps
            && window.elapsed().as_secs_f64() * reps as f64 >= opts.seconds * setup.len() as f64
        {
            setup.push(set_up(workload, &spec));
            calib.sample();
        }
    }
    r.set("peak_rss_mb", peak_rss_mb());
    r.latency_samples = latency_ms.len();
    // Each job is scaled by the machine's speed around it.
    let scaled: Vec<f64> = latency_ms
        .iter()
        .zip(&finished)
        .map(|(ms, &t)| ms * calib.factor_near(t))
        .collect();
    // Every suite circuit counts once, however often the window dealt
    // it: a window ends part-way through a round of the deck, and which
    // circuits it ran twice would otherwise move the percentiles.
    let mut runs_of = vec![0usize; SUITE];
    for &k in &circuit {
        runs_of[k] += 1;
    }
    let weight: Vec<f64> = circuit.iter().map(|&k| 1.0 / runs_of[k] as f64).collect();
    let p = |ms: &[f64], q: f64| weighted_percentile(ms, &weight, q);
    let rate = |ms: &[f64]| {
        weight.iter().sum::<f64>() / (ms.iter().zip(&weight).map(|(t, w)| t * w).sum::<f64>() / 1e3)
    };
    r.set_scaled("latency_ms_p50", p(&scaled, 0.5), p(&latency_ms, 0.5));
    r.set_scaled("latency_ms_p90", p(&scaled, 0.9), p(&latency_ms, 0.9));
    r.set_scaled("jobs_per_s", rate(&scaled), rate(&latency_ms));
    let setup_scaled: Vec<f64> = setup
        .iter()
        .map(|&(s, t)| s * calib.factor_near(t))
        .collect();
    let setup_raw: Vec<f64> = setup.iter().map(|&(s, _)| s).collect();
    r.set_scaled("setup_s", median(&setup_scaled), median(&setup_raw));

    let column = |f: fn(&JobQuality) -> f64| mean(&quality_of.values().map(f).collect::<Vec<_>>());
    r.set("hpwl_increase_pct", column(|q| q.hpwl_increase_pct));
    r.set("move_avg_rows", column(|q| q.move_avg_rows));
    r.set("move_max_rows", column(|q| q.move_max_rows));
}

fn run_diffusion(
    mode: Mode,
    cfg: &DiffusionConfig,
    design: &Benchmark,
    placement: &mut Placement,
    observer: &mut dyn DiffusionObserver,
) -> DiffusionResult {
    let (nl, die) = (&design.netlist, &design.die);
    match mode {
        Mode::Global => {
            GlobalDiffusion::new(cfg.clone()).run_observed(nl, die, placement, &|| false, observer)
        }
        Mode::Local => {
            LocalDiffusion::new(cfg.clone()).run_observed(nl, die, placement, &|| false, observer)
        }
    }
}

/// The traced run: every design runs untraced (as in the timed run) and
/// traced — `run_observed` with a recording observer, then separately
/// timed detailed legalization and legality check — in alternating
/// order, and the two placements must be bit-identical.
fn run_traced(workload: Workload, spec: BatchSpec, mut deck: Deck, opts: &Options, r: &mut Report) {
    let spans = SpanRecorder::new(1 << 16);
    let mut ids = TraceIdGen::seeded(opts.seed ^ 0x7ACE);
    let mut ledger = Ledger::default();
    let mut replays = Vec::new();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut steps, mut rounds, mut converged, mut overflow) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut shape = JobShape::default();
    let window = Instant::now();
    while opts.within(window, r.attempted) {
        let design = spec.design(workload.suite_seed(deck.deal()));
        let cfg = spec.config(&design.die);
        let job = r.attempted;
        r.attempted += 1;
        // Alternate which arm runs first so both see the same drift.
        let export = job < TRACED_JOBS;
        let ((plain, wall_ms, q), traced) = if job.is_multiple_of(2) {
            let u = untraced_job(&design, &spec);
            (
                u,
                traced_job(&design, spec.mode, &cfg, &spans, &mut ids, export),
            )
        } else {
            let t = traced_job(&design, spec.mode, &cfg, &spans, &mut ids, export);
            (untraced_job(&design, &spec), t)
        };
        if !q.legal || !traced.legal {
            r.failed += 1;
        } else if !same_bits(plain.as_slice(), traced.placement.as_slice()) {
            r.failed += 1;
            r.problems
                .push(format!("job {job}: traced placement differs from untraced"));
        }
        shape = JobShape {
            cells: design.netlist.num_cells() as u64,
            movable: design.netlist.movable_cell_ids().count() as u64,
            bins: BinGrid::new(design.die.outline(), cfg.bin_size).len() as u64,
        };
        ledger.add_job(&traced.times, shape);
        untraced_ms.push(wall_ms);
        traced_ms.push(traced.times.total_ns as f64 / 1e6);
        steps.push(traced.result.steps as f64);
        rounds.push(traced.result.rounds as f64);
        converged.push(f64::from(u8::from(traced.result.converged)));
        overflow.push(traced.overflow_max);
        if replays.len() < REPLAYED_INPUTS {
            replays.push(replay_kernels(
                &design.netlist,
                &design.die,
                &design.placement,
                &cfg,
            ));
        }
    }
    let replay = report_replays(&replays, r);
    ledger.report(r, &replay);
    computed_bytes(r, shape);
    r.set("core.steps", mean(&steps));
    r.set("core.rounds", mean(&rounds));
    r.set("core.converged_frac", mean(&converged));
    r.set("core.overflow_max", mean(&overflow));
    r.set(
        "trace.overhead_pct",
        (median(&traced_ms) / median(&untraced_ms) - 1.0) * 100.0,
    );
    if let Some(sink) = &opts.trace_out {
        sink.write(workload, &spans.records());
    }
}

/// The calls a diffusion run made that the engine does not time. The
/// spectral jump runs whenever the solver asks for it: the generated
/// designs have no macros, so no wall forces the FTCS fallback.
pub fn untimed_calls(mode: Mode, cfg: &DiffusionConfig, result: &DiffusionResult) -> UntimedCalls {
    match mode {
        Mode::Global => UntimedCalls {
            forward_transforms: u64::from(cfg.solver == SolverKind::Spectral),
            manipulations: u64::from(cfg.manipulate),
            window_passes: 0,
        },
        Mode::Local => UntimedCalls {
            forward_transforms: 0,
            manipulations: 0,
            window_passes: result.rounds as u64 + 1,
        },
    }
}

struct TracedJob {
    placement: Placement,
    legal: bool,
    times: JobTimes,
    result: DiffusionResult,
    /// Maximum windowed overflow diffusion left for detailed
    /// legalization (measured outside the job's time).
    overflow_max: f64,
}

/// One traced job; with `export`, its spans go to `spans`.
fn traced_job(
    design: &Benchmark,
    mode: Mode,
    cfg: &DiffusionConfig,
    spans: &SpanRecorder,
    ids: &mut TraceIdGen,
    export: bool,
) -> TracedJob {
    let (nl, die) = (&design.netlist, &design.die);
    let mut placement = design.placement.clone();
    let mut rec = Recorder::default();
    let root = export.then(|| ids.root());
    let s0 = spans.now_ns();
    let t0 = Instant::now();
    let result = match root {
        Some(ctx) => {
            let core = ids.child_of(&ctx);
            let mut bridge = SpanObserver::new(spans, core, core.span_id).with_inner(&mut rec);
            let result = run_diffusion(mode, cfg, design, &mut placement, &mut bridge);
            spans.record_traced("core.diffusion", s0, spans.now_ns(), core);
            result
        }
        None => run_diffusion(mode, cfg, design, &mut placement, &mut rec),
    };
    let core_ns = t0.elapsed().as_nanos() as u64;

    let aside = Instant::now();
    let grid = BinGrid::new(die.outline(), cfg.bin_size);
    let overflow_max =
        DensityMap::from_placement(nl, &placement, grid).max_local_overflow(cfg.w1, cfg.d_max);
    let aside_ns = aside.elapsed().as_nanos() as u64;

    let s1 = spans.now_ns();
    let t1 = Instant::now();
    DetailedLegalizer::new().legalize_in_place(nl, die, &mut placement);
    let detailed_ns = t1.elapsed().as_nanos() as u64;
    let s2 = spans.now_ns();
    let t2 = Instant::now();
    let legal = check_legality(nl, die, &placement, 0).is_legal();
    let check_ns = t2.elapsed().as_nanos() as u64;
    let s3 = spans.now_ns();
    if let Some(ctx) = root {
        spans.record_traced("legalize.detailed", s1, s2, ids.child_of(&ctx));
        spans.record_traced("legalize.check", s2, s3, ids.child_of(&ctx));
        spans.record_traced("job", s0, s3, ctx);
    }
    let total_ns = (t0.elapsed().as_nanos() as u64).saturating_sub(aside_ns);
    TracedJob {
        placement,
        legal,
        times: JobTimes {
            kernels: rec,
            core_ns,
            detailed_ns,
            check_ns,
            total_ns,
            untimed: untimed_calls(mode, cfg, &result),
        },
        result,
        overflow_max,
    }
}
