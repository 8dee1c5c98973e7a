//! The one job executor: [`execute_request`] checks a [`JobRequest`],
//! runs it through the engine on the calling thread and builds its
//! [`JobResponse`]. The `dpm-ctl` server's workers and the routers'
//! in-process backends both run jobs through it, so a job answers the
//! same whoever runs it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dpm_diffusion::{
    DiffusionConfig, DiffusionObserver, DiffusionResult, GlobalDiffusion, KernelTimers,
    LocalDiffusion, NoopObserver, SolverKind, SpanObserver, StepEvent, VolJobSpec, VolPlacement,
    VolumetricDiffusion,
};
use dpm_obs::{SpanRecorder, TraceIdGen};
use dpm_place::{BinGrid, MovementStats};

use crate::wire::{
    ErrorCode, ErrorReply, JobKind, JobRequest, JobResponse, ProgressUpdate, VolRequestExt,
    VolResponseExt,
};

/// Salt for the job span [`execute_request`] mints under the request's
/// trace context, so it never shares an id with a span its caller mints
/// from the same context.
const JOB_SEED_SALT: u64 = 0x10B5_7A7E_C0DE_D00D;

/// Why a volumetric extension cannot run, or `None` if it can. Checked
/// before the engine because the core runner asserts on these instead of
/// erroring.
fn vol_rejection(v: &VolRequestExt, req: &JobRequest) -> Option<&'static str> {
    if !matches!(req.kind, JobKind::Global) {
        return Some("volumetric jobs run global diffusion only");
    }
    if v.z.len() != req.netlist.num_cells() {
        return Some("vol.z does not cover the netlist");
    }
    if matches!(req.config.solver, SolverKind::Spectral)
        && (v.exact_steps.is_some() || v.field.is_some())
    {
        return Some("halo-exchange volumetric sub-jobs are FTCS-only");
    }
    if let Some(field) = &v.field {
        let bins = BinGrid::new(req.die.outline(), req.config.bin_size).len();
        if field.len() != bins * v.nz as usize {
            return Some("vol.field does not match the job region");
        }
    }
    None
}

/// Which input value is not finite, or `None` if all are. The wire
/// decoder rejects these already; an in-process request reaches the
/// engine unchecked, where a NaN migrates to a NaN placement.
fn non_finite_input(req: &JobRequest) -> Option<&'static str> {
    fn finite(vs: impl IntoIterator<Item = f64>) -> bool {
        vs.into_iter().all(f64::is_finite)
    }
    if !finite(req.placement.as_slice().iter().flat_map(|p| [p.x, p.y])) {
        return Some("non-finite cell position");
    }
    let cells = req.netlist.cell_ids().map(|c| req.netlist.cell(c));
    if !finite(cells.flat_map(|c| [c.width, c.height])) {
        return Some("non-finite cell size");
    }
    let vol = req.vol.iter();
    if !finite(vol.flat_map(|v| v.z.iter().chain(v.field.iter().flatten()).copied())) {
        return Some("non-finite vol.z or vol.field");
    }
    None
}

/// The observer that hands a [`ProgressUpdate`] to a sink every `stride`
/// steps. It accumulates cumulative movement from the per-step records
/// and never touches the run's state.
struct ProgressObserver<'a> {
    id: u64,
    stride: u64,
    movement: f64,
    sink: &'a mut dyn FnMut(&ProgressUpdate),
}

impl DiffusionObserver for ProgressObserver<'_> {
    fn on_step(&mut self, event: &StepEvent<'_>) {
        self.movement += event.record.movement;
        let completed = event.record.step as u64 + 1;
        if completed.is_multiple_of(self.stride) {
            (self.sink)(&ProgressUpdate {
                id: self.id,
                step: completed,
                round: event.round as u64,
                overflow: event.record.computed_overflow,
                movement: self.movement,
                max_density: event.record.max_density,
            });
        }
    }
}

/// Runs one [`JobRequest`] on the calling thread: the single execution
/// path behind the `dpm-ctl` server's workers and the in-process
/// backends of [`ShardRouter`](crate::ShardRouter) and
/// [`VolRouter`](crate::VolRouter), so an in-process run and a TCP
/// backend differ only in transport.
///
/// - The request is checked before the engine runs, whoever built it: a
///   config [`DiffusionConfig::validate`] rejects or a bad volumetric
///   extension (the core runners assert instead of erroring) answers
///   [`ErrorCode::InvalidConfig`], and a non-finite cell position, depth,
///   width, height or field value answers [`ErrorCode::Malformed`].
/// - A volumetric job runs through [`VolumetricDiffusion`]; planar
///   requests run through [`execute_job`].
/// - `deadline` is polled between diffusion steps; a run it cuts short
///   answers [`ErrorCode::DeadlineExpired`] with its partial step and
///   round counts.
/// - `progress` receives a [`ProgressUpdate`] every
///   `req.progress_stride` steps (never, for a zero stride).
/// - `spans` receives a `job.{global,local,volumetric}` span. When the
///   request carries a trace context the span is its child and the
///   per-kernel spans hang under it.
/// - An engine panic is contained and answers [`ErrorCode::Internal`].
///
/// The response reports movement over the movable cells, returns the
/// evolved field only to requests that shipped one in, and carries no
/// queue time and no spans: queueing and span export belong to the
/// caller. The run's kernel timers come back beside it.
///
/// # Errors
///
/// The [`ErrorReply`] the request should be answered with.
pub fn execute_request(
    req: &JobRequest,
    deadline: Option<Instant>,
    progress: Option<&mut dyn FnMut(&ProgressUpdate)>,
    spans: Option<&SpanRecorder>,
) -> Result<(JobResponse, KernelTimers), ErrorReply> {
    let reject = |code, steps, rounds, message: &str| ErrorReply {
        id: req.id,
        code,
        steps,
        rounds,
        message: message.into(),
    };
    if let Err(e) = req.config.validate() {
        return Err(reject(ErrorCode::InvalidConfig, 0, 0, &e.to_string()));
    }
    if let Some(msg) = req.vol.as_ref().and_then(|v| vol_rejection(v, req)) {
        return Err(reject(ErrorCode::InvalidConfig, 0, 0, msg));
    }
    if let Some(msg) = non_finite_input(req) {
        return Err(reject(ErrorCode::Malformed, 0, 0, msg));
    }
    let t0 = Instant::now();
    let should_stop = move || deadline.is_some_and(|d| Instant::now() >= d);

    // Observers compose: the span bridge forwards every event to the
    // progress observer, which is a no-op without a sink or a stride.
    let mut progress = progress
        .filter(|_| req.progress_stride > 0)
        .map(|sink| ProgressObserver {
            id: req.id,
            stride: u64::from(req.progress_stride),
            movement: 0.0,
            sink,
        });
    let mut noop = NoopObserver;
    let inner: &mut dyn DiffusionObserver = match progress.as_mut() {
        Some(p) => p,
        None => &mut noop,
    };
    let job_ctx = req
        .trace
        .map(|ctx| TraceIdGen::seeded(ctx.span_id ^ JOB_SEED_SALT).child_of(&ctx));
    let mut bridge;
    let observer: &mut dyn DiffusionObserver = match (spans, job_ctx) {
        (Some(recorder), Some(ctx)) => {
            bridge = SpanObserver::new(recorder, ctx, ctx.span_id).with_inner(inner);
            &mut bridge
        }
        _ => inner,
    };
    let span_name = match (req.kind, &req.vol) {
        (_, Some(_)) => "job.volumetric",
        (JobKind::Global, None) => "job.global",
        (JobKind::Local, None) => "job.local",
    };
    let span = spans.map(|recorder| match job_ctx {
        Some(ctx) => recorder.start_traced(span_name, ctx),
        None => recorder.start(span_name),
    });

    let run = catch_unwind(AssertUnwindSafe(|| match &req.vol {
        Some(v) => {
            let spec = VolJobSpec {
                nz: v.nz as usize,
                z0: v.z0 as usize,
                global_nz: v.global_nz as usize,
                field: v.field.clone(),
                exact_steps: v.exact_steps.map(|s| s as usize),
            };
            let mut vp = VolPlacement {
                xy: req.placement.clone(),
                z: v.z.clone(),
            };
            let r = VolumetricDiffusion::new(req.config.clone(), v.global_nz as usize)
                .run_job_observed(
                    &spec,
                    &req.netlist,
                    &req.die,
                    &mut vp,
                    &should_stop,
                    observer,
                );
            let field = v.field.is_some().then_some(r.field);
            (r.run, vp.xy, Some(VolResponseExt { z: vp.z, field }))
        }
        None => {
            let mut after = req.placement.clone();
            let result = execute_job(
                req.kind,
                &req.config,
                &req.netlist,
                &req.die,
                &mut after,
                &should_stop,
                observer,
            );
            (result, after, None)
        }
    }));
    drop(span);

    let Ok((result, after, vol)) = run else {
        return Err(reject(
            ErrorCode::Internal,
            0,
            0,
            "diffusion engine panicked",
        ));
    };
    let (steps, rounds) = (result.steps as u64, result.rounds as u64);
    if result.cancelled {
        return Err(reject(
            ErrorCode::DeadlineExpired,
            steps,
            rounds,
            "deadline expired mid-diffusion; placement progress discarded",
        ));
    }
    let movement = MovementStats::between(&req.netlist, &req.placement, &after);
    let response = JobResponse {
        id: req.id,
        converged: result.converged,
        steps,
        rounds,
        total_movement: movement.total,
        max_movement: movement.max,
        queue_ns: 0,
        service_ns: t0.elapsed().as_nanos() as u64,
        positions: after.as_slice().to_vec(),
        vol,
        spans: Vec::new(),
    };
    Ok((response, *result.telemetry.kernels()))
}

/// Runs one planar migration job on the calling thread: dispatches on
/// [`JobKind`], threads the cancellation hook and observer through the
/// engine, and leaves the legalized positions in `placement`. This is
/// the engine step of [`execute_request`], which wraps it with deadline,
/// progress, tracing, panic containment and the response.
#[allow(clippy::too_many_arguments)]
pub fn execute_job(
    kind: JobKind,
    config: &DiffusionConfig,
    netlist: &dpm_netlist::Netlist,
    die: &dpm_place::Die,
    placement: &mut dpm_place::Placement,
    should_stop: &dyn Fn() -> bool,
    observer: &mut dyn DiffusionObserver,
) -> DiffusionResult {
    match kind {
        JobKind::Global => GlobalDiffusion::new(config.clone()).run_observed(
            netlist,
            die,
            placement,
            should_stop,
            observer,
        ),
        JobKind::Local => LocalDiffusion::new(config.clone()).run_observed(
            netlist,
            die,
            placement,
            should_stop,
            observer,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::tests::LEGACY_F32_FRAMES;
    use crate::wire::{
        decode_error, decode_response, encode_request, read_frame, write_frame, FrameKind,
        PayloadEncoding, DEFAULT_MAX_FRAME_LEN,
    };
    use dpm_geom::Point;
    use dpm_place::Placement;
    use std::net::TcpStream;
    use std::time::Duration;

    fn request(kind: JobKind) -> JobRequest {
        let mut bench = dpm_gen::CircuitSpec::with_size("executor", 120, 5).generate();
        bench.inflate(&dpm_gen::InflationSpec::centered(0.2, 0.3, 9));
        JobRequest {
            id: 3,
            deadline_ms: 0,
            progress_stride: 0,
            kind,
            design: "executor".into(),
            config: DiffusionConfig::default(),
            netlist: bench.netlist,
            die: bench.die,
            placement: bench.placement,
            vol: None,
            trace: None,
        }
    }

    #[test]
    fn engine_panic_is_an_internal_error_not_an_unwind() {
        // Built in process, so the wire never checks it: a placement
        // that does not cover the netlist trips an engine assertion in
        // every build profile.
        for kind in [JobKind::Global, JobKind::Local] {
            let mut req = request(kind);
            req.placement = Placement::new(req.netlist.num_cells() - 1);
            let err = execute_request(&req, None, None, None).expect_err("cannot migrate");
            assert_eq!(err.code, ErrorCode::Internal, "{kind:?}: {}", err.message);
            assert_eq!(err.id, req.id);
        }
    }

    #[test]
    fn in_process_requests_are_checked_before_the_engine_runs() {
        // Neither reaches the engine: in a release build an unstable dt
        // diverges and a NaN position migrates to a NaN placement that
        // reports converged.
        for kind in [JobKind::Global, JobKind::Local] {
            let mut req = request(kind);
            req.config.dt = 0.9;
            let err = execute_request(&req, None, None, None).expect_err("unstable dt");
            assert_eq!(err.code, ErrorCode::InvalidConfig, "{}", err.message);

            let mut req = request(kind);
            let cell = req.netlist.movable_cell_ids().next().expect("movable cell");
            req.placement.set(cell, Point::new(f64::NAN, 1.0));
            let err = execute_request(&req, None, None, None).expect_err("NaN position");
            assert_eq!(err.code, ErrorCode::Malformed, "{kind:?}: {}", err.message);
            assert_eq!(err.id, req.id);
        }
    }

    #[test]
    fn legacy_f32_frames_get_a_typed_rejection_and_the_connection_keeps_serving() {
        // The `dpm-ctl` server decodes the frames and runs the plain
        // requests through this executor.
        let server = dpm_ctl::CtlServer::start(dpm_ctl::CtlConfig {
            workers: 1,
            ..dpm_ctl::CtlConfig::default()
        })
        .expect("server starts");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        let req = request(JobKind::Global);
        let mut send = |payload: &[u8]| {
            write_frame(&mut stream, FrameKind::Request, payload).expect("send");
            read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
                .expect("a reply before the timeout")
                .expect("connection open")
        };
        // Both f32 fixtures, and a v3 vol + exact-steps + trace request:
        // legacy extension bytes are unknown tags.
        let v3_vol: &[u8] = include_bytes!("../tests/fixtures/wire/v3_request_vol_exact_trace.bin");
        for frame in LEGACY_F32_FRAMES.into_iter().chain([v3_vol]) {
            let err = send(frame);
            assert_eq!(err.kind, FrameKind::Error);
            let err = decode_error(&err.payload).expect("typed error");
            assert_eq!(err.code, ErrorCode::Malformed, "{}", err.message);

            let ok = send(&encode_request(&req, PayloadEncoding::Binary));
            assert_eq!(ok.kind, FrameKind::Response, "the connection keeps serving");
            assert!(decode_response(&ok.payload).expect("response").steps > 0);
        }
        server.shutdown();
    }

    #[test]
    fn expired_deadline_reports_partial_progress() {
        let req = request(JobKind::Local);
        let err = execute_request(&req, Some(Instant::now()), None, None)
            .expect_err("an expired deadline cancels the run");
        assert_eq!(err.code, ErrorCode::DeadlineExpired);
        assert_eq!(err.steps, 0, "cancellation is polled before the first step");
    }
}
