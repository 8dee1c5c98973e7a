//! Wire-version compatibility: legacy clients against this server.
//!
//! The v3 codec added control-plane frame kinds but changed nothing
//! about the v2 ones, and servers echo the codec version each request
//! arrived with. The live tests pin both halves from the *client's* byte
//! perspective: every reply a hand-rolled v2 client reads — response,
//! stats, progress, error — carries a version-2 header and a payload
//! that re-encodes byte for byte under the v2 stamp, so a client
//! compiled against the old codec can never observe a newer version on
//! its wire.
//!
//! The fixture tests pin the payloads themselves against bytes written
//! by the v3 encoder (`fixtures/wire/README.md`): frames without
//! extensions decode and re-encode byte for byte, and every v3
//! extension frame is a typed `Malformed`, because the v4 extension
//! block reads each legacy flags byte as an unknown tag.

use std::io::Read;
use std::net::TcpStream;

use dpm_ctl::{CtlConfig, CtlServer};
use dpm_diffusion::{DiffusionConfig, SolverKind};
use dpm_gen::{CircuitSpec, InflationSpec};
use dpm_geom::Point;
use dpm_netlist::{CellKind, NetlistBuilder, PinDir};
use dpm_place::{Die, Placement};
use dpm_serve::delta::{
    decode_delta_request, encode_delta_request, CellMove, CellResize, DeltaJobRequest, EcoDelta,
    NewCell,
};
use dpm_serve::wire::{
    decode_error, decode_progress, decode_request, decode_response, decode_stats, encode_error,
    encode_progress, encode_request, encode_response, encode_stats, fnv1a64, write_frame_versioned,
    FrameKind, JobKind, JobRequest, JobResponse, PayloadEncoding, WireError,
};

/// A v2 request: the plain v3 request without its trailing solver byte.
const V2_REQUEST: &[u8] = include_bytes!("fixtures/wire/v2_request.bin");
/// A plain v3 request asking for the spectral solver.
const V3_REQUEST_SPECTRAL: &[u8] = include_bytes!("fixtures/wire/v3_request_spectral.bin");
/// A plain v3 response.
const V3_RESPONSE: &[u8] = include_bytes!("fixtures/wire/v3_response.bin");
/// A plain (untraced) v3 delta request.
const V3_DELTA: &[u8] = include_bytes!("fixtures/wire/v3_delta.bin");
/// A v3 request with vol, exact-steps and trace extensions.
const V3_REQUEST_VOL_EXACT_TRACE: &[u8] =
    include_bytes!("fixtures/wire/v3_request_vol_exact_trace.bin");
/// A v3 response with vol, field and span-export extensions.
const V3_RESPONSE_VOL_FIELD_SPANS: &[u8] =
    include_bytes!("fixtures/wire/v3_response_vol_field_spans.bin");
/// A v3 delta request with a trace extension.
const V3_DELTA_TRACED: &[u8] = include_bytes!("fixtures/wire/v3_delta_traced.bin");
/// The planar f32 request of encoders that still had a field precision.
const V3_REQUEST_F32_PLANAR: &[u8] = include_bytes!("fixtures/wire/v3_request_f32_planar.bin");
/// The f32 request stacking vol, exact-steps and trace before its
/// precision byte.
const V3_REQUEST_F32_STACKED: &[u8] = include_bytes!("fixtures/wire/v3_request_f32_stacked.bin");

/// Reads one raw frame (header + payload) off a blocking stream.
fn read_raw_frame(stream: &mut TcpStream) -> (u16, u8, Vec<u8>) {
    let mut header = [0u8; 11];
    stream.read_exact(&mut header).expect("frame header");
    assert_eq!(&header[..4], b"DPMS", "magic");
    let version = u16::from_le_bytes([header[4], header[5]]);
    let kind = header[6];
    let len = u32::from_le_bytes([header[7], header[8], header[9], header[10]]) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("frame payload");
    (version, kind, payload)
}

/// Asserts `payload` re-encodes to the identical bytes via `reencode`,
/// i.e. nothing in the v2 payload shape drifted under the v3 codec.
fn assert_reencodes(payload: &[u8], reencode: impl FnOnce(&[u8]) -> Vec<u8>) {
    let again = reencode(payload);
    assert_eq!(again, payload, "payload must re-encode byte for byte");
}

fn v2_request(id: u64, progress_stride: u32) -> JobRequest {
    let mut bench = CircuitSpec::with_size("compat_v2", 160, 7).generate();
    bench.inflate(&InflationSpec::centered(0.3, 0.25, 0xD1E));
    JobRequest {
        id,
        deadline_ms: 0,
        progress_stride,
        kind: JobKind::Local,
        design: format!("compat_v2_{id}"),
        config: DiffusionConfig::default(),
        netlist: bench.netlist,
        die: bench.die,
        placement: bench.placement,
        vol: None,
        trace: None,
    }
}

#[test]
fn v2_frames_round_trip_byte_for_byte_against_a_v3_server() {
    let server = CtlServer::start(CtlConfig::default()).expect("server starts");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // Job request, stamped v2 on the wire.
    let req = v2_request(1, 0);
    let payload = encode_request(&req, PayloadEncoding::Binary);
    write_frame_versioned(&mut stream, 2, FrameKind::Request, &payload).expect("send v2 request");
    let (version, kind, reply) = read_raw_frame(&mut stream);
    assert_eq!(version, 2, "reply header must echo the request's v2");
    assert_eq!(kind, 2, "Response frame kind byte");
    let resp = decode_response(&reply).expect("v2 client can decode the response");
    assert_eq!(resp.id, 1);
    assert!(resp.steps > 0, "the job must do real work");
    assert_reencodes(&reply, |p| encode_response(&decode_response(p).unwrap()));

    // Stats request on the same connection: also echoed at v2.
    write_frame_versioned(&mut stream, 2, FrameKind::StatsRequest, &[]).expect("send v2 stats");
    let (version, kind, stats) = read_raw_frame(&mut stream);
    assert_eq!(version, 2);
    assert_eq!(kind, 6, "Stats frame kind byte");
    let snap = decode_stats(&stats).expect("v2 client can decode stats");
    assert_eq!(snap.served, 1);
    assert_reencodes(&stats, |p| encode_stats(&decode_stats(p).unwrap()));

    server.shutdown();
}

#[test]
fn v2_progress_and_error_frames_are_echoed_at_v2() {
    let server = CtlServer::start(CtlConfig::default()).expect("server starts");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    // A streaming request: progress frames must arrive v2-stamped too,
    // since a v2 client reads them with the old header check.
    let req = v2_request(2, 1);
    let payload = encode_request(&req, PayloadEncoding::Binary);
    write_frame_versioned(&mut stream, 2, FrameKind::Request, &payload).expect("send");
    let mut saw_progress = false;
    loop {
        let (version, kind, body) = read_raw_frame(&mut stream);
        assert_eq!(version, 2, "every frame on a v2 conversation is v2");
        match kind {
            4 => {
                saw_progress = true;
                assert_reencodes(&body, |p| encode_progress(&decode_progress(p).unwrap()));
            }
            2 => {
                assert_eq!(decode_response(&body).expect("response").id, 2);
                break;
            }
            other => panic!("unexpected frame kind {other}"),
        }
    }
    assert!(saw_progress, "stride-1 request must stream progress");

    // A malformed payload gets its error reply at v2 as well.
    write_frame_versioned(&mut stream, 2, FrameKind::Request, &[0xFF; 3]).expect("send junk");
    let (version, kind, err) = read_raw_frame(&mut stream);
    assert_eq!(version, 2);
    assert_eq!(kind, 3, "Error frame kind byte");
    let decoded = decode_error(&err).expect("typed error");
    assert_reencodes(&err, |p| encode_error(&decode_error(p).unwrap()));
    assert_eq!(decoded.id, 0, "undecodable request has no id to echo");

    server.shutdown();
}

/// The fixtures' design and parameters, as the generator built them.
fn fixture_request(kind: JobKind, solver: SolverKind) -> JobRequest {
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
        id: 77,
        deadline_ms: 250,
        progress_stride: 4,
        kind,
        design: "tiny".into(),
        config: fixture_config(solver),
        netlist,
        die: Die::new(96.0, 96.0, 12.0),
        placement,
        vol: None,
        trace: None,
    }
}

/// Explicit threads and solver: `DiffusionConfig::default()` reads both
/// from the environment.
fn fixture_config(solver: SolverKind) -> DiffusionConfig {
    DiffusionConfig {
        threads: 1,
        solver,
        ..DiffusionConfig::default().with_bin_size(24.0)
    }
}

fn fixture_response() -> JobResponse {
    JobResponse {
        id: 77,
        converged: true,
        steps: 42,
        rounds: 3,
        total_movement: 123.456,
        max_movement: 7.25,
        queue_ns: 1000,
        service_ns: 2000,
        positions: vec![
            Point::new(10.0, 12.0),
            Point::new(14.5, 12.0),
            Point::new(48.0, 48.0),
        ],
        vol: None,
        spans: Vec::new(),
    }
}

fn fixture_delta() -> DeltaJobRequest {
    DeltaJobRequest {
        id: 31,
        deadline_ms: 500,
        progress_stride: 0,
        kind: JobKind::Global,
        design: "eco-7".into(),
        tenant: "acme".into(),
        config: fixture_config(SolverKind::Spectral),
        baseline: 0x1234_5678_9abc_def0,
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
                name: "buf0".into(),
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

#[test]
fn wire_fixtures_are_the_committed_bytes() {
    // A regenerated fixture would pin the new encoder against itself.
    for (name, bytes, hash) in [
        ("v2_request", V2_REQUEST, 0xee29_e0aa_e404_dfa6),
        (
            "v3_request_spectral",
            V3_REQUEST_SPECTRAL,
            0x3d70_f888_4801_41a4,
        ),
        ("v3_response", V3_RESPONSE, 0xa562_0b24_a61d_02eb),
        ("v3_delta", V3_DELTA, 0x6db9_39fa_e095_af47),
        (
            "v3_request_vol_exact_trace",
            V3_REQUEST_VOL_EXACT_TRACE,
            0xfe52_28c3_e779_05db,
        ),
        (
            "v3_response_vol_field_spans",
            V3_RESPONSE_VOL_FIELD_SPANS,
            0xa6f7_2210_0b11_6509,
        ),
        ("v3_delta_traced", V3_DELTA_TRACED, 0xcc28_53f4_e4a5_4834),
        (
            "v3_request_f32_planar",
            V3_REQUEST_F32_PLANAR,
            0x422a_d7af_2d80_d2f4,
        ),
        (
            "v3_request_f32_stacked",
            V3_REQUEST_F32_STACKED,
            0x09ff_8ad7_b3e1_3e81,
        ),
    ] {
        assert_eq!(fnv1a64(bytes), hash, "{name}.bin changed");
    }
}

#[test]
fn plain_legacy_fixtures_decode_and_reencode_byte_for_byte() {
    // v2: no solver byte, so FTCS; re-encoding appends the byte.
    let expected = fixture_request(JobKind::Local, SolverKind::Ftcs);
    let req = decode_request(V2_REQUEST).expect("the v2 request decodes");
    assert_eq!((req.id, req.kind), (expected.id, expected.kind));
    assert_eq!(req.config, expected.config);
    assert_eq!(req.design, expected.design);
    assert!(req.vol.is_none() && req.trace.is_none());
    let v3_form = [V2_REQUEST, &[SolverKind::Ftcs as u8]].concat();
    assert_eq!(encode_request(&req, PayloadEncoding::Binary), v3_form);
    assert_eq!(encode_request(&expected, PayloadEncoding::Binary), v3_form);

    let expected = fixture_request(JobKind::Global, SolverKind::Spectral);
    let req = decode_request(V3_REQUEST_SPECTRAL).expect("the v3 request decodes");
    assert_eq!(req.config, expected.config);
    assert_eq!(req.kind, JobKind::Global);
    for c in expected.netlist.cell_ids() {
        assert_eq!(req.placement.get(c), expected.placement.get(c));
    }
    assert_eq!(
        encode_request(&req, PayloadEncoding::Binary),
        V3_REQUEST_SPECTRAL
    );
    assert_eq!(
        encode_request(&expected, PayloadEncoding::Binary),
        V3_REQUEST_SPECTRAL
    );

    let resp = decode_response(V3_RESPONSE).expect("the v3 response decodes");
    assert_eq!(resp, fixture_response());
    assert_eq!(encode_response(&resp), V3_RESPONSE);

    let expected = fixture_delta();
    let delta = decode_delta_request(V3_DELTA).expect("the v3 delta decodes");
    assert_eq!(delta.delta, expected.delta);
    assert_eq!(delta.config, expected.config);
    assert_eq!(delta.baseline, expected.baseline);
    assert!(delta.trace.is_none());
    assert_eq!(encode_delta_request(&delta), V3_DELTA);
    assert_eq!(encode_delta_request(&expected), V3_DELTA);
}

fn assert_malformed<T: std::fmt::Debug>(name: &str, got: Result<T, WireError>, ext: &str) {
    assert!(
        matches!(&got, Err(WireError::Malformed { context, .. }) if *context == ext),
        "{name}: {got:?}"
    );
}

#[test]
fn legacy_extension_fixtures_are_malformed() {
    for (name, bytes) in [
        ("v3_request_vol_exact_trace", V3_REQUEST_VOL_EXACT_TRACE),
        ("v3_request_f32_planar", V3_REQUEST_F32_PLANAR),
        ("v3_request_f32_stacked", V3_REQUEST_F32_STACKED),
    ] {
        assert_malformed(name, decode_request(bytes), "request.ext");
        // Each extends the plain request: the flags byte after the
        // solver byte is where the v4 extension block starts.
        let plain = &bytes[..V3_REQUEST_SPECTRAL.len()];
        assert!(decode_request(plain).expect(name).vol.is_none());
    }
    assert_malformed(
        "v3_response_vol_field_spans",
        decode_response(V3_RESPONSE_VOL_FIELD_SPANS),
        "response.ext",
    );
    assert_eq!(
        &V3_RESPONSE_VOL_FIELD_SPANS[..V3_RESPONSE.len()],
        V3_RESPONSE
    );
    assert_malformed(
        "v3_delta_traced",
        decode_delta_request(V3_DELTA_TRACED),
        "delta.ext",
    );
    assert_eq!(&V3_DELTA_TRACED[..V3_DELTA.len()], V3_DELTA);
}
