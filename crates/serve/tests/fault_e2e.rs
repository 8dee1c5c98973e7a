//! Fault injection for both routers: a tiny TCP backend that misbehaves
//! in one of four ways (closes on accept, truncates its reply frame,
//! answers garbage bytes, or sends a well-formed reply with the wrong
//! position count). The planar router must degrade the faulty shard's
//! region and keep the maximum principle; the volumetric router must
//! fail with a typed backend error naming the slab. Every fault closes
//! the connection, so no test can hang on a reply that never comes.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dpm_diffusion::{DiffusionConfig, ShardPartition, SolverKind};
use dpm_gen::{Benchmark, CircuitSpec, InflationSpec, VolBenchmark, VolCircuitSpec};
use dpm_serve::shard::{ShardBackend, ShardRouter, ShardRouterConfig};
use dpm_serve::wire::{
    decode_request, encode_response, read_frame, write_frame, FrameKind, JobKind, JobRequest,
    JobResponse, VolRequestExt, VolResponseExt, DEFAULT_MAX_FRAME_LEN,
};
use dpm_serve::zslab::{VolRouteError, VolRouter, VolRouterConfig};

/// How the backend misbehaves on every connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Close the connection right after accepting it.
    CloseOnAccept,
    /// Read the request, then send half of a valid response frame.
    TruncatedFrame,
    /// Read the request, then answer bytes that are not a frame.
    Garbage,
    /// Read the request, then send a well-formed response carrying one
    /// position fewer than the request had cells.
    WrongCount,
}

const FAULTS: [Fault; 4] = [
    Fault::CloseOnAccept,
    Fault::TruncatedFrame,
    Fault::Garbage,
    Fault::WrongCount,
];

/// A listener answering every connection with its [`Fault`]. Dropping
/// it stops the accept loop and joins the thread.
struct FaultBackend {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl FaultBackend {
    fn start(fault: Fault) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fault backend");
        let addr = listener.local_addr().expect("local addr");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    misbehave(fault, stream);
                }
            }
        });
        Self {
            addr,
            stop,
            thread: Some(thread),
        }
    }

    fn backend(&self) -> ShardBackend {
        ShardBackend::Tcp(self.addr)
    }
}

impl Drop for FaultBackend {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept so the loop sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            t.join().expect("fault backend thread");
        }
    }
}

fn misbehave(fault: Fault, mut stream: TcpStream) {
    if fault == Fault::CloseOnAccept {
        return;
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    // Consume the whole request frame first, so closing the socket
    // cannot reset the connection before the client reads the reply.
    let Ok(Some(frame)) = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) else {
        return;
    };
    let reply = match (fault, frame.kind) {
        (Fault::Garbage, _) => b"NOT A FRAME, JUST NOISE".to_vec(),
        (_, FrameKind::Request) => {
            let req = decode_request(&frame.payload).expect("router sends valid requests");
            let mut buf = Vec::new();
            write_frame(
                &mut buf,
                FrameKind::Response,
                &encode_response(&short_response(&req)),
            )
            .expect("encode into a Vec");
            if fault == Fault::TruncatedFrame {
                buf.truncate(buf.len() / 2);
            }
            buf
        }
        // Anything else (the planar router's closing stats probe) gets
        // a bare close.
        _ => Vec::new(),
    };
    let _ = stream.write_all(&reply);
    let _ = stream.shutdown(Shutdown::Both);
}

/// A response shaped like the real one — depths and field echoed for a
/// volumetric sub-job — except that it carries one position too few.
fn short_response(req: &JobRequest) -> JobResponse {
    let mut positions = req.placement.as_slice().to_vec();
    positions.pop();
    JobResponse {
        id: req.id,
        converged: true,
        steps: 1,
        rounds: 1,
        total_movement: 0.0,
        max_movement: 0.0,
        queue_ns: 0,
        service_ns: 0,
        positions,
        vol: req.vol.as_ref().map(|v| VolResponseExt {
            z: v.z.clone(),
            field: v.field.clone(),
        }),
        spans: Vec::new(),
    }
}

fn hot_bench(seed: u64) -> Benchmark {
    let mut b = CircuitSpec::with_size("fault_e2e", 200, seed).generate();
    b.inflate(&InflationSpec::centered(0.3, 0.25, seed ^ 0xFA17));
    b
}

fn planar_request(bench: &Benchmark) -> JobRequest {
    JobRequest {
        id: 1,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Local,
        design: "fault_planar".into(),
        config: DiffusionConfig::default(),
        netlist: bench.netlist.clone(),
        die: bench.die.clone(),
        placement: bench.placement.clone(),
        vol: None,
        trace: None,
    }
}

fn vol_request(bench: &VolBenchmark) -> JobRequest {
    JobRequest {
        id: 2,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Global,
        design: "fault_vol".into(),
        config: DiffusionConfig::default().with_solver(SolverKind::Ftcs),
        netlist: bench.netlist.clone(),
        die: bench.die.clone(),
        placement: bench.placement.xy.clone(),
        vol: Some(VolRequestExt {
            nz: bench.layers() as u32,
            z0: 0,
            global_nz: bench.layers() as u32,
            exact_steps: None,
            z: bench.placement.z.clone(),
            field: None,
        }),
        trace: None,
    }
}

#[test]
fn planar_route_degrades_a_faulty_shard_for_every_fault() {
    let bench = hot_bench(131);
    let req = planar_request(&bench);
    let partition = ShardPartition::new(&req.die, req.config.bin_size, 2, 2);
    let owners = partition.assign_owners(&req.netlist, &req.placement);
    assert!(
        owners.contains(&1),
        "shard 1 must own cells for this test to mean anything"
    );

    for fault in FAULTS {
        let backend = FaultBackend::start(fault);
        let router = ShardRouter::new(
            ShardRouterConfig {
                shards: 2,
                max_halo_rounds: 3,
            },
            vec![ShardBackend::InProcess, backend.backend()],
        );
        let reply = router.route(&req);
        drop(backend);

        assert_eq!(reply.shards, 2, "{fault:?}");
        assert!(reply.outcomes[0].error.is_none(), "{fault:?}");
        let err = reply.outcomes[1]
            .error
            .as_ref()
            .unwrap_or_else(|| panic!("{fault:?}: the faulty shard must report an error"));
        if fault == Fault::WrongCount {
            assert!(err.contains("positions"), "{fault:?}: {err}");
        }
        // The faulty shard's region comes back unmigrated...
        for (i, c) in req.netlist.cell_ids().enumerate() {
            if owners[i] == 1 {
                assert_eq!(
                    reply.response.positions[c.index()],
                    req.placement.get(c),
                    "{fault:?}: cell {c} of the faulty shard moved"
                );
            }
        }
        // ...and the stitch never raises the max density.
        let trace = &reply.max_density_trace;
        assert!(!trace.is_empty(), "{fault:?}");
        for w in trace.windows(2) {
            assert!(w[1] <= w[0], "{fault:?}: max density rose: {trace:?}");
        }
        assert!(
            reply.failovers.is_empty(),
            "{fault:?}: no spares configured"
        );
    }
}

#[test]
fn vol_route_fails_typed_for_every_fault() {
    let bench = VolCircuitSpec::with_size("fault_vol", 3, 150, 137)
        .with_hotspot(1)
        .generate();
    let req = vol_request(&bench);

    for fault in FAULTS {
        let backend = FaultBackend::start(fault);
        let router = VolRouter::new(
            VolRouterConfig { slabs: 2 },
            vec![ShardBackend::InProcess, backend.backend()],
        );
        let outcome = router.route(&req);
        drop(backend);

        match outcome {
            Err(VolRouteError::Backend { slab, message }) => {
                assert_eq!(slab, 1, "{fault:?}: {message}");
                if fault == Fault::WrongCount {
                    assert!(message.contains("positions"), "{fault:?}: {message}");
                }
            }
            other => panic!("{fault:?}: expected a typed backend failure, got {other:?}"),
        }
    }
}
