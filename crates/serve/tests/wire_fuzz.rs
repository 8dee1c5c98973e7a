//! Structured and random fuzzing of every wire frame kind.
//!
//! The corpus holds every valid extension combination of requests,
//! responses and delta requests, plus one frame of each other kind.
//! Record mutations (duplicated, swapped, unknown, padded or dangling
//! records, and bad record lengths) must each decode to a typed
//! `Truncated` or `Malformed`. Random byte flips and truncations, of payloads and of
//! whole frames, must never panic, and a mutant that decodes must be a
//! fixed point of encode → decode → encode, and random dies must decode
//! to the die that was encoded. Every input comes from `dpm-rng` with
//! fixed seeds, so a failure reproduces exactly.

use dpm_diffusion::{DiffusionConfig, KernelTimers, SolverKind};
use dpm_geom::Point;
use dpm_netlist::{CellKind, NetlistBuilder, PinDir};
use dpm_obs::{Histogram, SpanRecord, TraceContext};
use dpm_place::{Die, Placement};
use dpm_rng::Rng;
use dpm_serve::delta::{
    decode_delta_request, encode_delta_request, CellMove, CellResize, DeltaJobRequest, EcoDelta,
    NewCell,
};
use dpm_serve::wire::{
    decode_design_ack, decode_design_bytes, decode_error, decode_need_design, decode_progress,
    decode_put_design, decode_request, decode_response, decode_stats, encode_design_ack,
    encode_design_bytes, encode_error, encode_need_design, encode_progress, encode_put_design,
    encode_request, encode_response, encode_stats, read_frame, write_frame, DesignAck, ErrorCode,
    ErrorReply, FrameKind, JobKind, JobRequest, JobResponse, NeedDesign, PayloadEncoding,
    ProgressUpdate, PutDesign, StatsSnapshot, VolRequestExt, VolResponseExt, WireError,
    DEFAULT_MAX_FRAME_LEN,
};

/// The extension tags (DESIGN.md §22).
const VOL: u8 = 0x20;
const EXACT_STEPS: u8 = 0x21;
const FIELD: u8 = 0x22;
const TRACE: u8 = 0x23;
const SPANS: u8 = 0x24;

/// One corpus frame.
struct Case {
    name: String,
    kind: FrameKind,
    payload: Vec<u8>,
    /// Where the extension block starts, for frames that have one.
    ext_at: Option<usize>,
}

/// Decodes `bytes` as a `kind` payload and encodes the result again.
fn reencode(kind: FrameKind, bytes: &[u8]) -> Result<Vec<u8>, WireError> {
    Ok(match kind {
        FrameKind::Request => encode_request(&decode_request(bytes)?, PayloadEncoding::Binary),
        FrameKind::Response => encode_response(&decode_response(bytes)?),
        FrameKind::DeltaRequest => encode_delta_request(&decode_delta_request(bytes)?),
        FrameKind::Error => encode_error(&decode_error(bytes)?),
        FrameKind::Progress => encode_progress(&decode_progress(bytes)?),
        FrameKind::Stats => encode_stats(&decode_stats(bytes)?),
        FrameKind::PutDesign => encode_put_design(&decode_put_design(bytes)?),
        FrameKind::DesignAck => encode_design_ack(&decode_design_ack(bytes)?),
        FrameKind::NeedDesign => encode_need_design(&decode_need_design(bytes)?),
        // An empty payload; nothing decodes it.
        FrameKind::StatsRequest => bytes.to_vec(),
    })
}

/// Which tags a frame kind defines.
fn known_tags(kind: FrameKind) -> &'static [u8] {
    match kind {
        FrameKind::Request => &[VOL, EXACT_STEPS, FIELD, TRACE],
        FrameKind::Response => &[VOL, FIELD, SPANS],
        FrameKind::DeltaRequest => &[TRACE],
        _ => &[],
    }
}

fn request() -> JobRequest {
    let mut b = NetlistBuilder::new();
    let a = b.add_cell("a", 4.0, 12.0, CellKind::Movable);
    let c = b.add_cell("c", 6.0, 12.0, CellKind::Movable);
    let m = b.add_cell("m", 24.0, 24.0, CellKind::FixedMacro);
    let n = b.add_net("n1");
    b.connect(a, n, PinDir::Output, 2.0, 6.0);
    b.connect(c, n, PinDir::Input, 0.0, 6.0);
    let netlist = b.build().expect("valid");
    let mut placement = Placement::new(netlist.num_cells());
    placement.set(a, Point::new(10.5, 12.0));
    placement.set(c, Point::new(11.25, 12.0));
    placement.set(m, Point::new(48.0, 48.0));
    JobRequest {
        id: 7,
        deadline_ms: 100,
        progress_stride: 2,
        kind: JobKind::Global,
        design: "fuzz".into(),
        config: DiffusionConfig {
            threads: 1,
            solver: SolverKind::Ftcs,
            ..DiffusionConfig::default().with_bin_size(24.0)
        },
        netlist,
        die: Die::new(96.0, 96.0, 12.0),
        placement,
        vol: None,
        trace: None,
    }
}

fn response() -> JobResponse {
    JobResponse {
        id: 7,
        converged: true,
        steps: 12,
        rounds: 1,
        total_movement: 3.5,
        max_movement: 1.25,
        queue_ns: 100,
        service_ns: 200,
        positions: vec![Point::new(10.0, 12.0), Point::new(14.5, 12.0)],
        vol: None,
        spans: Vec::new(),
    }
}

fn delta() -> DeltaJobRequest {
    DeltaJobRequest {
        id: 9,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Local,
        design: "eco".into(),
        tenant: "t".into(),
        config: request().config,
        baseline: 0xABCD,
        delta: EcoDelta {
            resized: vec![CellResize {
                cell: 0,
                width: 7.5,
                height: 12.0,
            }],
            moved: vec![CellMove {
                cell: 1,
                x: 30.0,
                y: 24.0,
            }],
            added: vec![NewCell {
                name: "buf".into(),
                width: 2.0,
                height: 12.0,
                kind: CellKind::Movable,
                delay: 0.5,
                x: 60.0,
                y: 36.0,
            }],
        },
        trace: None,
    }
}

const CONTEXT: TraceContext = TraceContext {
    trace_id: 0x1111,
    span_id: 0x2222,
    parent_id: 0x3333,
};

fn corpus() -> Vec<Case> {
    let mut cases = Vec::new();
    let plain = encode_request(&request(), PayloadEncoding::Binary);
    // Every valid request combination of VOL, EXACT_STEPS, FIELD, TRACE.
    for bits in 0..16u8 {
        let (vol, exact, field, trace) = (bits & 1, bits & 2, bits & 4, bits & 8);
        if vol == 0 && (exact | field) != 0 {
            continue;
        }
        let mut req = request();
        req.vol = (vol != 0).then(|| VolRequestExt {
            nz: 3,
            z0: 0,
            global_nz: 3,
            exact_steps: (exact != 0).then_some(1),
            z: vec![0.5, 1.5, 2.5],
            field: (field != 0).then(|| vec![0.25, 0.5, 0.75, 1.0]),
        });
        req.trace = (trace != 0).then_some(CONTEXT);
        cases.push(Case {
            name: format!("request {bits:04b}"),
            kind: FrameKind::Request,
            payload: encode_request(&req, PayloadEncoding::Binary),
            ext_at: Some(plain.len()),
        });
    }
    cases.push(Case {
        name: "bookshelf request".into(),
        kind: FrameKind::Request,
        payload: encode_request(&request(), PayloadEncoding::Bookshelf),
        ext_at: None,
    });

    let plain = encode_response(&response());
    for bits in 0..8u8 {
        let (vol, field, spans) = (bits & 1, bits & 2, bits & 4);
        if vol == 0 && field != 0 {
            continue;
        }
        let mut resp = response();
        resp.vol = (vol != 0).then(|| VolResponseExt {
            z: vec![0.5, 1.5],
            field: (field != 0).then(|| vec![0.25, 0.5, 0.75]),
        });
        if spans != 0 {
            resp.spans = vec![SpanRecord {
                name: "job.global".into(),
                start_ns: 5,
                end_ns: 50,
                trace_id: CONTEXT.trace_id,
                span_id: 0x4444,
                parent_id: CONTEXT.span_id,
            }];
        }
        cases.push(Case {
            name: format!("response {bits:03b}"),
            kind: FrameKind::Response,
            payload: encode_response(&resp),
            ext_at: Some(plain.len()),
        });
    }

    let plain = encode_delta_request(&delta());
    let mut traced = delta();
    traced.trace = Some(CONTEXT);
    for (name, d) in [("delta", delta()), ("traced delta", traced)] {
        cases.push(Case {
            name: name.into(),
            kind: FrameKind::DeltaRequest,
            payload: encode_delta_request(&d),
            ext_at: Some(plain.len()),
        });
    }

    let req = request();
    let mut kernels = KernelTimers::default();
    kernels.ftcs.record(std::time::Duration::from_micros(3), 1);
    let hist = Histogram::latency_default().snapshot();
    let others = [
        (
            FrameKind::Progress,
            encode_progress(&ProgressUpdate {
                id: 7,
                step: 4,
                round: 1,
                overflow: 0.5,
                movement: 2.0,
                max_density: 1.25,
            }),
        ),
        (
            FrameKind::Stats,
            encode_stats(&StatsSnapshot {
                queue_depth: 1,
                received: 2,
                admitted: 3,
                served: 4,
                overloaded: 5,
                invalid_config: 6,
                malformed: 7,
                deadline_expired: 8,
                rejected_shutdown: 9,
                internal_errors: 10,
                progress_frames: 11,
                queue_hist: hist.clone(),
                service_hist: hist.clone(),
                e2e_hist: hist,
                kernels,
            }),
        ),
        (
            FrameKind::Error,
            encode_error(&ErrorReply {
                id: 7,
                code: ErrorCode::DeadlineExpired,
                steps: 3,
                rounds: 1,
                message: "deadline".into(),
            }),
        ),
        (
            FrameKind::PutDesign,
            encode_put_design(&PutDesign {
                id: 7,
                tenant: "t".into(),
                bytes: encode_design_bytes(&req.netlist, &req.die, &req.placement),
            }),
        ),
        (
            FrameKind::DesignAck,
            encode_design_ack(&DesignAck {
                id: 7,
                hash: 0xFEED,
                cached: true,
                resident_bytes: 4096,
                evicted: 1,
            }),
        ),
        (
            FrameKind::NeedDesign,
            encode_need_design(&NeedDesign {
                id: 7,
                hash: 0xFEED,
            }),
        ),
    ];
    for (kind, payload) in others {
        cases.push(Case {
            name: format!("{kind:?}"),
            kind,
            payload,
            ext_at: None,
        });
    }
    cases
}

/// Splits an extension block into its raw records.
fn records(block: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < block.len() {
        let len = u32::from_le_bytes(block[at + 1..at + 5].try_into().expect("4 bytes")) as usize;
        out.push(block[at..at + 5 + len].to_vec());
        at += 5 + len;
    }
    out
}

/// Asserts a mutant is rejected as `Truncated` or `Malformed`.
fn assert_rejected(case: &Case, what: &str, mutant: &[u8]) {
    match reencode(case.kind, mutant) {
        Err(WireError::Truncated { .. } | WireError::Malformed { .. }) => {}
        other => panic!("{}: {what} gave {other:?}", case.name),
    }
}

/// Asserts that a mutant either fails to decode or decodes to a fixed
/// point of encode → decode → encode.
fn assert_fixed_point(kind: FrameKind, what: &str, mutant: &[u8]) {
    if let Ok(once) = reencode(kind, mutant) {
        let twice = reencode(kind, &once)
            .unwrap_or_else(|e| panic!("{what}: the re-encoding does not decode: {e}"));
        assert_eq!(once, twice, "{what} is not a fixed point");
    }
}

#[test]
fn every_valid_frame_round_trips_byte_for_byte() {
    for case in corpus() {
        let again =
            reencode(case.kind, &case.payload).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        if case.name != "bookshelf request" {
            assert_eq!(again, case.payload, "{}", case.name);
        }
        assert_fixed_point(case.kind, &case.name, &case.payload);
    }
}

#[test]
fn record_mutations_are_typed_errors() {
    for case in corpus() {
        let Some(ext_at) = case.ext_at else { continue };
        let (head, block) = case.payload.split_at(ext_at);
        let recs = records(block);
        let rebuild = |recs: &[Vec<u8>]| [head.to_vec(), recs.concat()].concat();
        assert_eq!(rebuild(&recs), case.payload, "{}", case.name);
        let known = known_tags(case.kind);
        for i in 0..recs.len() {
            let tag = recs[i][0];
            let mut dup = recs.clone();
            dup.insert(i, recs[i].clone());
            assert_rejected(&case, &format!("duplicated {tag:#x}"), &rebuild(&dup));

            if i + 1 < recs.len() {
                let mut swapped = recs.clone();
                swapped.swap(i, i + 1);
                assert_rejected(&case, &format!("swapped {tag:#x}"), &rebuild(&swapped));
            }

            for unknown in (0..=u8::MAX).filter(|t| !known.contains(t)) {
                let mut bad = recs.clone();
                bad[i][0] = unknown;
                assert_rejected(
                    &case,
                    &format!("tag {tag:#x} as {unknown:#x}"),
                    &rebuild(&bad),
                );
            }

            // One byte more than the fields it holds: never read.
            let mut padded = recs.clone();
            padded[i].push(0);
            let len = (recs[i].len() - 5) as u32;
            padded[i][1..5].copy_from_slice(&(len + 1).to_le_bytes());
            assert_rejected(&case, &format!("padded {tag:#x}"), &rebuild(&padded));

            let mut lens = vec![0, len + 1, u32::MAX];
            if len > 0 {
                lens.push(len - 1);
            }
            for bad_len in lens.into_iter().filter(|&l| l != len) {
                let mut bad = recs.clone();
                bad[i][1..5].copy_from_slice(&bad_len.to_le_bytes());
                assert_rejected(&case, &format!("{tag:#x} len {bad_len}"), &rebuild(&bad));
            }
        }
        // EXACT_STEPS or FIELD without the VOL record they extend.
        if recs.len() > 1 && recs[0][0] == VOL && matches!(recs[1][0], EXACT_STEPS | FIELD) {
            assert_rejected(&case, "dangling record", &rebuild(&recs[1..]));
        }
    }
}

#[test]
fn random_payload_mutations_never_panic() {
    let mut rng = Rng::seed_from_u64(0x5749_5245);
    for case in corpus() {
        let p = &case.payload;
        for _ in 0..256 {
            let mut mutant = p.clone();
            for _ in 0..rng.random_range(1..4usize) {
                let at = rng.random_range(0..mutant.len());
                mutant[at] ^= rng.random_range(1..=255u32) as u8;
            }
            assert_fixed_point(case.kind, &format!("{}, flipped", case.name), &mutant);
        }
        for _ in 0..32 {
            let cut = rng.random_range(0..p.len());
            let what = format!("{}, cut at {cut}", case.name);
            assert_fixed_point(case.kind, &what, &p[..cut]);
        }
        // Cutting the whole extension block off leaves the plain frame.
        if let Some(ext_at) = case.ext_at {
            reencode(case.kind, &p[..ext_at])
                .unwrap_or_else(|e| panic!("{}: plain prefix: {e}", case.name));
        }
    }
}

#[test]
fn random_frame_mutations_never_panic() {
    let mut rng = Rng::seed_from_u64(0x4652_414D);
    for case in corpus() {
        let mut frame = Vec::new();
        write_frame(&mut frame, case.kind, &case.payload).expect("write into a Vec");
        for _ in 0..128 {
            let mut mutant = frame.clone();
            let at = rng.random_range(0..mutant.len());
            mutant[at] ^= rng.random_range(1..=255u32) as u8;
            let cut = if rng.random_bool(0.25) {
                rng.random_range(0..mutant.len())
            } else {
                mutant.len()
            };
            // Header damage is a typed error; a frame that still parses
            // feeds its payload to the decoder of the kind it names.
            if let Ok(Some(f)) = read_frame(&mut &mutant[..cut], DEFAULT_MAX_FRAME_LEN) {
                let what = format!("{} framed, flipped at {at}", case.name);
                assert_fixed_point(f.kind, &what, &f.payload);
            }
        }
    }
}

#[test]
fn random_dies_decode_to_the_encoded_die() {
    // Encoders send a die's trimmed outline; with a row height like 0.7
    // it can round to just under its row count, which must survive.
    let mut b = NetlistBuilder::new();
    b.add_cell("a", 1.0, 1.0, CellKind::Movable);
    let netlist = b.build().expect("valid");
    let placement = Placement::new(1);
    let mut rng = Rng::seed_from_u64(0x4449_4553);
    for _ in 0..4000 {
        let llx = (rng.random_f64() - 0.5) * 2000.0;
        let lly = (rng.random_f64() - 0.5) * 2000.0;
        let row_height = 0.05 + rng.random_f64() * 20.0;
        let rows = f64::from(rng.random_range(1..500u32));
        let height = (rows + rng.random_f64() * 0.99) * row_height;
        let width = 1.0 + rng.random_f64() * 1000.0;
        let die = Die::with_origin(llx, lly, width, height, row_height);
        let bytes = encode_design_bytes(&netlist, &die, &placement);
        let (_, back, _) = decode_design_bytes(&bytes)
            .unwrap_or_else(|e| panic!("die {width}x{height} at ({llx}, {lly}): {e}"));
        assert_eq!(back.num_rows(), die.num_rows(), "row height {row_height}");
        assert_eq!(back.outline(), die.outline());
        assert_eq!(encode_design_bytes(&netlist, &back, &placement), bytes);
    }
}

#[test]
fn extreme_die_values_are_rejected_or_round_trip() {
    // Every pair of the die's five f64s (llx, lly, width, height, row
    // height, the first 40 bytes of the design encoding) set to values
    // near the ends of the f64 range: rebuilding such a die overflows,
    // which must be a typed error and never a panic, and a die that
    // decodes must be a fixed point of encode -> decode -> encode.
    const EXTREMES: [f64; 15] = [
        0.0,
        -0.0,
        5e-324,
        f64::MIN_POSITIVE,
        0.7,
        12.0,
        1e300,
        1e308,
        1.5e308,
        f64::MAX,
        -1e308,
        -f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    let mut b = NetlistBuilder::new();
    b.add_cell("a", 1.0, 1.0, CellKind::Movable);
    let netlist = b.build().expect("valid");
    let die = Die::with_origin(0.0, 0.0, 96.0, 96.0, 12.0);
    let bytes = encode_design_bytes(&netlist, &die, &Placement::new(1));
    for i in 0..5 {
        for j in i..5 {
            for &u in &EXTREMES {
                for &v in &EXTREMES {
                    let mut mutant = bytes.clone();
                    mutant[8 * i..8 * i + 8].copy_from_slice(&u.to_le_bytes());
                    mutant[8 * j..8 * j + 8].copy_from_slice(&v.to_le_bytes());
                    match decode_design_bytes(&mutant) {
                        Ok((nl, back, pl)) => {
                            let once = encode_design_bytes(&nl, &back, &pl);
                            let (nl, back, pl) = decode_design_bytes(&once)
                                .unwrap_or_else(|e| panic!("fields {i}, {j} = {u}, {v}: {e}"));
                            let twice = encode_design_bytes(&nl, &back, &pl);
                            assert_eq!(twice, once, "fields {i}, {j} = {u}, {v}");
                        }
                        Err(WireError::Malformed { .. }) => {}
                        Err(e) => panic!("fields {i}, {j} = {u}, {v}: {e}"),
                    }
                }
            }
        }
    }
}
