//! Acceptance test for fleet-wide distributed tracing: one volumetric
//! job enters the control plane's front door, fans out over a 2-backend
//! TCP `VolRouter`, and comes back with a single-trace span tree that
//! covers admission, queue wait, both slab dispatches, the halo rounds,
//! and the per-kernel work inside the remote engines — while the traced
//! placement stays bit-identical to the untraced one.

use std::collections::{HashMap, HashSet};

use dpm_diffusion::{DiffusionConfig, SolverKind, VolumetricDiffusion};
use dpm_gen::{VolBenchmark, VolCircuitSpec};
use dpm_obs::{SpanRecord, TraceExporter};
use dpm_serve::wire::{JobKind, JobRequest, PayloadEncoding, VolRequestExt};
use dpm_serve::{Reply, ServeClient, ServeConfig, Server, ShardBackend};

use dpm_ctl::{BackendRegistry, CtlConfig, CtlServer, ExecMode, TenantSpec};

fn hot_stack(seed: u64) -> VolBenchmark {
    VolCircuitSpec::with_size("trace_e2e", 3, 150, seed)
        .with_hotspot(1)
        .generate()
}

/// The z-slab contract is FTCS-only.
fn ftcs() -> DiffusionConfig {
    DiffusionConfig::default().with_solver(SolverKind::Ftcs)
}

fn vol_request(bench: &VolBenchmark, id: u64) -> JobRequest {
    JobRequest {
        id,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Global,
        design: "trace_e2e".into(),
        config: ftcs(),
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

/// Count of spans whose name matches `pred`.
fn count(spans: &[SpanRecord], pred: impl Fn(&str) -> bool) -> usize {
    spans.iter().filter(|s| pred(&s.name)).count()
}

#[test]
fn traced_volumetric_job_builds_one_cross_process_span_tree() {
    let bench = hot_stack(7);

    // Ground truth: the direct 3D engine run in this process.
    let mut direct = bench.placement.clone();
    let result = VolumetricDiffusion::new(ftcs(), bench.layers()).run(
        &bench.netlist,
        &bench.die,
        &mut direct,
    );
    assert!(result.steps > 0, "workload must do real work");

    // Fleet: a control plane fronting two real TCP backends, one z-slab
    // each.
    let backend_a = Server::start("127.0.0.1:0", ServeConfig::default()).expect("backend a");
    let backend_b = Server::start("127.0.0.1:0", ServeConfig::default()).expect("backend b");
    let registry = BackendRegistry::new(
        vec![
            ShardBackend::Tcp(backend_a.local_addr()),
            ShardBackend::Tcp(backend_b.local_addr()),
        ],
        vec![],
    );
    let ctl = CtlServer::start(CtlConfig {
        workers: 1,
        tenants: vec![TenantSpec::new("acme", 1, 64)],
        exec: ExecMode::Volumetric { slabs: 2, registry },
        ..CtlConfig::default()
    })
    .expect("ctl starts");

    // Untraced reference through the same fleet.
    let mut plain_client = ServeClient::connect(ctl.local_addr()).expect("connect");
    let plain = plain_client
        .request(&vol_request(&bench, 1), PayloadEncoding::Binary)
        .expect("untraced request");
    let Reply::Ok(plain) = plain else {
        panic!("untraced volumetric job rejected: {plain:?}");
    };
    assert!(plain.spans.is_empty(), "untraced reply must carry no spans");
    assert_eq!(plain.positions, direct.xy.as_slice().to_vec());
    assert_eq!(plain.vol.as_ref().expect("vol reply").z, direct.z);

    // Traced run: same job, tracing armed with a tenant label.
    let mut client = ServeClient::connect(ctl.local_addr())
        .expect("connect")
        .with_tracing(0xACE5_7ACE)
        .with_tenant("acme");
    let mut req = vol_request(&bench, 2);
    let root_ctx = client.begin_trace(&mut req).expect("tracing armed");
    let traced = client
        .request(&req, PayloadEncoding::Binary)
        .expect("traced request");
    let Reply::Ok(traced) = traced else {
        panic!("traced volumetric job rejected: {traced:?}");
    };

    // Tracing is observation-only: bit-identical to the untraced run.
    assert_eq!(
        traced.positions, plain.positions,
        "tracing must not perturb the placement"
    );
    assert_eq!(
        traced.vol.as_ref().expect("vol reply").z,
        plain.vol.as_ref().expect("vol reply").z,
        "tracing must not perturb the depths"
    );

    let spans = client.take_trace_spans();
    assert!(!spans.is_empty(), "traced reply must yield spans");
    ctl.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();

    // One trace id across every hop: client, ctl, router, backends.
    let trace_ids: HashSet<u64> = spans.iter().map(|s| s.trace_id).collect();
    assert_eq!(
        trace_ids,
        HashSet::from([root_ctx.trace_id]),
        "all spans must share the root's trace id"
    );

    // Span ids are unique and nonzero; every parent link lands on a
    // real span, so the records form one tree.
    let mut ids = HashSet::new();
    for s in &spans {
        assert_ne!(s.span_id, 0, "span id must be nonzero: {s:?}");
        assert!(ids.insert(s.span_id), "duplicate span id: {s:?}");
        assert!(s.end_ns >= s.start_ns, "inverted interval: {s:?}");
    }
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent_id == 0).collect();
    assert_eq!(roots.len(), 1, "exactly one root span: {roots:?}");
    let root = roots[0];
    assert_eq!(root.name, "client.request");
    assert_eq!(root.span_id, root_ctx.span_id);
    for s in &spans {
        if s.parent_id != 0 {
            assert!(ids.contains(&s.parent_id), "dangling parent link: {s:?}");
        }
        assert!(
            s.start_ns >= root.start_ns,
            "span starts before the root: {s:?}"
        );
    }

    // The tree covers every stage of the fleet.
    assert_eq!(
        count(&spans, |n| n == "ctl.admit{tenant=\"acme\"}"),
        1,
        "front-end admission span with the tenant label"
    );
    assert!(
        count(&spans, |n| n == "queue.wait") >= 1,
        "queue-wait span missing"
    );
    assert_eq!(count(&spans, |n| n == "ctl.execute"), 1);
    assert!(
        count(&spans, |n| n == "shard.dispatch") >= 2,
        "both slab dispatches must appear"
    );
    assert!(
        count(&spans, |n| n == "halo.round") >= 1,
        "at least one halo-exchange round"
    );
    assert!(
        count(&spans, |n| n == "job.volumetric") >= 2,
        "both remote backends must contribute job spans"
    );
    assert!(
        count(&spans, |n| n.starts_with("kernel.")) >= 1,
        "per-kernel child spans from the engines"
    );

    // Chrome-trace export: every span becomes one JSONL event, all
    // correlated by the same trace id, with the tenant on the root.
    let mut exporter = TraceExporter::new();
    for s in &spans {
        if s.parent_id == 0 {
            exporter.add_with_args(s, 1, 1, &[("tenant", client.tenant().unwrap())]);
        } else {
            exporter.add(s, 1, 1);
        }
    }
    let jsonl = exporter.to_jsonl();
    assert_eq!(jsonl.lines().count(), spans.len());
    let exported_ids: HashSet<&str> = jsonl
        .match_indices("\"trace_id\":\"")
        .map(|(i, pat)| &jsonl[i + pat.len()..i + pat.len() + 16])
        .collect();
    assert_eq!(
        exported_ids,
        HashSet::from([format!("{:016x}", root_ctx.trace_id).as_str()]),
        "the export must carry exactly one trace id"
    );
    assert!(jsonl.contains("\"tenant\":\"acme\""));
    assert!(jsonl.contains("\"ph\":\"X\""));
}

#[test]
fn traced_planar_job_falls_back_in_process_with_kernel_spans() {
    // A planar job in volumetric exec mode runs on the front-end's own
    // engine; the trace still gets admission, queue, execution, and
    // kernel spans, and the placement matches the untraced run.
    let bench = dpm_gen::CircuitSpec::with_size("trace_e2e_planar", 180, 11).generate();
    let request = |id: u64| JobRequest {
        id,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Local,
        design: "trace_e2e_planar".into(),
        config: DiffusionConfig::default(),
        netlist: bench.netlist.clone(),
        die: bench.die.clone(),
        placement: bench.placement.clone(),
        vol: None,
        trace: None,
    };
    let registry = BackendRegistry::new(vec![ShardBackend::InProcess], vec![]);
    let ctl = CtlServer::start(CtlConfig {
        workers: 1,
        tenants: vec![TenantSpec::new("acme", 1, 64)],
        exec: ExecMode::Volumetric { slabs: 2, registry },
        ..CtlConfig::default()
    })
    .expect("ctl starts");

    let mut plain_client = ServeClient::connect(ctl.local_addr()).expect("connect");
    let Reply::Ok(plain) = plain_client
        .request(&request(1), PayloadEncoding::Binary)
        .expect("untraced")
    else {
        panic!("untraced planar job rejected");
    };

    let mut client = ServeClient::connect(ctl.local_addr())
        .expect("connect")
        .with_tracing(42)
        .with_tenant("acme");
    let mut req = request(2);
    client.begin_trace(&mut req).expect("armed");
    let Reply::Ok(traced) = client
        .request(&req, PayloadEncoding::Binary)
        .expect("traced")
    else {
        panic!("traced planar job rejected");
    };
    assert_eq!(traced.positions, plain.positions);

    let spans = client.take_trace_spans();
    ctl.shutdown();
    let by_name: HashMap<&str, usize> = spans.iter().fold(HashMap::new(), |mut m, s| {
        *m.entry(s.name.as_str()).or_default() += 1;
        m
    });
    assert_eq!(by_name.get("client.request"), Some(&1));
    assert_eq!(by_name.get("ctl.admit{tenant=\"acme\"}"), Some(&1));
    assert_eq!(by_name.get("queue.wait"), Some(&1));
    assert_eq!(by_name.get("ctl.execute"), Some(&1));
    assert!(
        spans.iter().any(|s| s.name.starts_with("kernel.")),
        "in-process fallback must still bridge kernel spans: {by_name:?}"
    );
    // No router ran, so no dispatch or halo spans.
    assert_eq!(by_name.get("shard.dispatch"), None);
    assert_eq!(by_name.get("halo.round"), None);
}
