//! End-to-end tests for wire-propagated tracing at the serve layer: a
//! traced job against a single server exports a span tree and changes
//! nothing about the placement; traced shard routing stays bit-identical
//! to untraced routing at K = 1 and stitches remote spans at K = 2.

use std::collections::HashSet;

use dpm_ctl::{CtlConfig, CtlServer};
use dpm_diffusion::{DiffusionConfig, LocalDiffusion};
use dpm_gen::{Benchmark, CircuitSpec, InflationSpec};
use dpm_obs::{SpanRecord, TraceContext};
use dpm_serve::shard::{ShardBackend, ShardRouter, ShardRouterConfig};
use dpm_serve::wire::{JobKind, JobRequest, PayloadEncoding, Reply};
use dpm_serve::ServeClient;

fn hot_bench(cells: usize, seed: u64) -> Benchmark {
    let mut b = CircuitSpec::with_size("trace_e2e", cells, seed).generate();
    b.inflate(&InflationSpec::centered(0.3, 0.25, seed ^ 0xD1E));
    b
}

fn request(bench: &Benchmark, id: u64) -> JobRequest {
    JobRequest {
        id,
        deadline_ms: 0,
        progress_stride: 0,
        kind: JobKind::Local,
        design: format!("trace_e2e_{id}"),
        config: DiffusionConfig::default(),
        netlist: bench.netlist.clone(),
        die: bench.die.clone(),
        placement: bench.placement.clone(),
        vol: None,
        trace: None,
    }
}

/// Asserts the records form one tree: unique nonzero span ids, every
/// parent link landing on another record or on `graft`, all sharing
/// `trace_id`.
fn assert_tree(spans: &[SpanRecord], trace_id: u64, graft: u64) {
    let ids: HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    assert_eq!(ids.len(), spans.len(), "span ids must be unique");
    for s in spans {
        assert_eq!(s.trace_id, trace_id, "foreign trace id: {s:?}");
        assert_ne!(s.span_id, 0);
        assert!(s.end_ns >= s.start_ns, "inverted interval: {s:?}");
        assert!(
            s.parent_id == graft || ids.contains(&s.parent_id),
            "dangling parent link: {s:?}"
        );
    }
}

#[test]
fn traced_server_job_exports_spans_and_changes_nothing() {
    let bench = hot_bench(160, 51);
    let server = CtlServer::start(CtlConfig::default()).expect("server starts");

    let mut plain_client = ServeClient::connect(server.local_addr()).expect("connect");
    let Reply::Ok(plain) = plain_client
        .request(&request(&bench, 1), PayloadEncoding::Binary)
        .expect("untraced request")
    else {
        panic!("untraced job rejected");
    };
    assert!(plain.spans.is_empty(), "untraced reply must carry no spans");

    let mut client = ServeClient::connect(server.local_addr())
        .expect("connect")
        .with_tracing(0xBEEF);
    let mut req = request(&bench, 2);
    let root_ctx = client.begin_trace(&mut req).expect("tracing armed");
    let Reply::Ok(traced) = client
        .request(&req, PayloadEncoding::Binary)
        .expect("traced request")
    else {
        panic!("traced job rejected");
    };
    assert_eq!(
        traced.positions, plain.positions,
        "tracing must not perturb the placement"
    );

    let spans = client.take_trace_spans();
    assert!(!spans.is_empty());
    assert_tree(&spans, root_ctx.trace_id, 0);
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"client.request"), "{names:?}");
    assert!(names.contains(&"queue.wait"), "{names:?}");
    assert!(names.contains(&"job.local"), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("kernel.")), "{names:?}");

    // The export *drained* the trace: the server's ring no longer holds
    // any span of it, so a later stats scrape cannot double-report.
    assert!(
        server
            .spans()
            .iter()
            .all(|s| s.trace_id != root_ctx.trace_id),
        "drained spans must leave the server ring"
    );
    server.shutdown();
}

#[test]
fn traced_k1_shard_route_is_bit_identical_to_untraced() {
    let bench = hot_bench(180, 53);
    let untraced_req = request(&bench, 3);

    let mut direct = bench.placement.clone();
    LocalDiffusion::new(untraced_req.config.clone()).run(&bench.netlist, &bench.die, &mut direct);

    let router = ShardRouter::in_process(ShardRouterConfig {
        shards: 1,
        ..ShardRouterConfig::default()
    });
    let untraced = router.route(&untraced_req);
    assert!(untraced.response.spans.is_empty());

    let mut traced_req = request(&bench, 3);
    let ctx = TraceContext {
        trace_id: 0xCAFE,
        span_id: 0xF00D,
        parent_id: 0,
    };
    traced_req.trace = Some(ctx);
    let traced = router.route(&traced_req);

    assert_eq!(
        traced.response.positions,
        direct.as_slice().to_vec(),
        "traced K=1 route must stay bit-identical to the direct engine"
    );
    assert_eq!(traced.response.positions, untraced.response.positions);
    assert_eq!(traced.response.steps, untraced.response.steps);

    let spans = &traced.response.spans;
    assert!(!spans.is_empty(), "traced route must export spans");
    // The router grafts its subtree under the inherited span id.
    assert_tree(spans, ctx.trace_id, ctx.span_id);
    assert!(spans.iter().any(|s| s.name == "shard.dispatch"));
    assert!(spans.iter().any(|s| s.name == "halo.round"));
    // Normalized for the next hop: earliest start is zero.
    assert_eq!(spans.iter().map(|s| s.start_ns).min(), Some(0));
}

#[test]
fn traced_k2_tcp_shard_route_stitches_remote_spans() {
    let bench = hot_bench(170, 57);
    let server_a = CtlServer::start(CtlConfig::default()).expect("server a");
    let server_b = CtlServer::start(CtlConfig::default()).expect("server b");
    let router = ShardRouter::new(
        ShardRouterConfig {
            shards: 2,
            ..ShardRouterConfig::default()
        },
        vec![
            ShardBackend::Tcp(server_a.local_addr()),
            ShardBackend::Tcp(server_b.local_addr()),
        ],
    );

    let untraced = router.route(&request(&bench, 4));
    assert!(untraced.outcomes.iter().all(|o| o.error.is_none()));

    let mut traced_req = request(&bench, 4);
    let ctx = TraceContext {
        trace_id: 0xD15_7A7C,
        span_id: 0x40_07,
        parent_id: 0,
    };
    traced_req.trace = Some(ctx);
    let traced = router.route(&traced_req);
    server_a.shutdown();
    server_b.shutdown();

    assert_eq!(
        traced.response.positions, untraced.response.positions,
        "tracing must not perturb a sharded TCP run"
    );

    let spans = &traced.response.spans;
    assert_tree(spans, ctx.trace_id, ctx.span_id);
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert!(count("shard.dispatch") >= 2, "one dispatch per shard");
    assert!(count("halo.round") >= 1);
    // The remote engines' own spans came back over the wire and were
    // stitched into the same tree.
    assert!(count("job.local") >= 2, "both backends contribute");
    assert!(count("queue.wait") >= 2);
    assert!(spans.iter().any(|s| s.name.starts_with("kernel.")));
}
