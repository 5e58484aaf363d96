//! Cross-crate causal-tracing suite (DESIGN.md §12): hand-built
//! scatter-gather traces under a `VirtualClock`, end-to-end cluster
//! traces, byte-determinism of the Chrome export across identical seeded
//! chaos runs, a minimal trace-event schema check, and the envelope
//! wire-format compatibility contract (with and without trace context).

use bytes::{BufMut, Bytes, BytesMut};
use mendel_suite::core::{ClusterConfig, MendelCluster, QueryParams, TraceCollector, WireCluster};
use mendel_suite::dht::NodeId;
use mendel_suite::net::codec::{Decode, Encode};
use mendel_suite::net::{Envelope, NodeAddr};
use mendel_suite::obs::{Registry, SpanId, TraceContext, TraceId, VirtualClock};
use mendel_suite::seq::gen::NrLikeSpec;
use mendel_suite::seq::{SeqId, SeqStore};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// The acceptance scenario: a hand-built scatter-gather trace whose
/// critical path must equal the hand-computed chain of hops.
///
/// Timeline (µs):  query spans [0, 100] on node 0; group/0 finishes at
/// 40 on node 1; group/1 runs [10, 90] on node 2 and fans out to node/3
/// [15, 85] and node/4 [15, 30]. The slowest chain is therefore
/// query → group/1 → node/3.
#[test]
fn hand_built_scatter_gather_critical_path_matches_hand_computed_hops() {
    let clock = Arc::new(VirtualClock::new());
    let registry = Registry::with_clock(clock.clone());

    let root = registry.tracer(0).start_trace("query");
    clock.advance(us(10));
    let g0 = registry.tracer(1).child("group/0", root.context());
    let g1 = registry.tracer(2).child("group/1", root.context());
    clock.advance(us(5)); // t = 15
    let n3 = registry.tracer(3).child("node/3", g1.context());
    let n4 = registry.tracer(4).child("node/4", g1.context());
    clock.advance(us(15)); // t = 30
    n4.finish();
    clock.advance(us(10)); // t = 40
    g0.finish();
    clock.advance(us(45)); // t = 85
    n3.finish();
    clock.advance(us(5)); // t = 90
    g1.finish();
    clock.advance(us(10)); // t = 100
    let trace = root.trace();
    assert_eq!(root.finish(), us(100));

    let mut collector = TraceCollector::new();
    collector.ingest(registry.trace_records());
    let tree = collector.tree(trace).expect("trace reassembles");
    let path = tree.critical_path();
    let hops: Vec<(&str, u32, Duration)> = path
        .iter()
        .map(|h| (h.name.as_str(), h.node, h.duration))
        .collect();
    assert_eq!(
        hops,
        vec![
            ("query", 0, us(100)),
            ("group/1", 2, us(80)),
            ("node/3", 3, us(70)),
        ],
        "critical path must equal the hand-computed slowest chain"
    );
}

fn chaos_db(seed: u64) -> Arc<SeqStore> {
    Arc::new(
        NrLikeSpec {
            families: 10,
            members_per_family: 2,
            length_range: (140, 220),
            seed,
            ..Default::default()
        }
        .generate()
        .unwrap(),
    )
}

/// One seeded "chaos flavoured" traced run: a replicated cluster under a
/// `VirtualClock` loses a node, answers traced queries around the
/// failure, repairs, and answers again. Returns the Chrome export.
fn traced_chaos_export(seed: u64) -> String {
    let cfg = ClusterConfig {
        nodes: 6,
        groups: 2,
        replication: 2,
        ..ClusterConfig::small_protein()
    };
    let db = chaos_db(seed);
    let clock = Arc::new(VirtualClock::new());
    let cluster = MendelCluster::build_with_clock(cfg, db.clone(), clock).unwrap();
    cluster.set_tracing(true);
    let params = QueryParams::protein();
    let queries: Vec<Vec<u8>> = (0..3)
        .map(|i| db.get(SeqId(i * 5)).unwrap().residues.clone())
        .collect();

    cluster.query(&queries[0], &params).unwrap();
    cluster.fail_node(NodeId(1)).unwrap();
    let entry = NodeId(0);
    cluster.query_from(entry, &queries[1], &params).unwrap();
    cluster.recover_node(NodeId(1)).unwrap();
    cluster.repair();
    cluster.query(&queries[2], &params).unwrap();
    // A batch traces each of its sampled queries too.
    for report in cluster.query_batch(&queries, &params) {
        assert!(report.unwrap().trace.is_some());
    }
    cluster.chrome_trace()
}

/// Same seed ⇒ byte-identical trace JSON, run after run; a different
/// seed must not collide.
#[test]
fn same_seed_chaos_run_exports_byte_identical_chrome_json() {
    let a = traced_chaos_export(0xC0FFEE);
    let b = traced_chaos_export(0xC0FFEE);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must export byte-identical trace JSON");
    let c = traced_chaos_export(0x5EED5);
    assert_ne!(a, c, "different databases should not produce equal traces");
}

/// A minimal Chrome trace-event schema check: well-formed envelope,
/// every event a complete (`ph: "X"`) event with the required keys, and
/// structurally balanced braces outside strings.
fn assert_chrome_schema(json: &str) {
    assert!(
        json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"),
        "missing trace-event envelope"
    );
    assert!(json.ends_with("\n]}\n"), "unterminated traceEvents array");
    let body =
        &json["{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n".len()..json.len() - "\n]}\n".len()];
    let mut events = 0usize;
    for line in body.lines() {
        let event = line.strip_suffix(',').unwrap_or(line);
        assert!(
            event.starts_with('{') && event.ends_with("}}"),
            "event is not an object: {event}"
        );
        for key in [
            "\"ph\":\"X\"",
            "\"name\":\"",
            "\"cat\":\"mendel\"",
            "\"pid\":",
            "\"tid\":",
            "\"ts\":",
            "\"dur\":",
            "\"args\":{",
            "\"trace\":",
            "\"span\":",
        ] {
            assert!(event.contains(key), "event lacks {key}: {event}");
        }
        events += 1;
    }
    // Braces balance when quotes are respected.
    let (mut depth, mut in_str, mut escaped) = (0i64, false, false);
    for c in json.chars() {
        if in_str {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_str = false,
                _ => {}
            }
        } else {
            match c {
                '"' => in_str = true,
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced braces");
        }
    }
    assert_eq!(depth, 0, "unbalanced braces");
    assert!(events > 0, "no events in export");
}

#[test]
fn chrome_export_passes_schema_check() {
    assert_chrome_schema(&traced_chaos_export(0xAB));
}

/// End-to-end: the reported critical path is consistent with the tree
/// the flight recorders reassemble, and the root hop spans the whole
/// simulated turnaround.
#[test]
fn query_reports_trace_consistent_with_flight_recorders() {
    let db = chaos_db(0x7E);
    let clock = Arc::new(VirtualClock::new());
    let cluster =
        MendelCluster::build_with_clock(ClusterConfig::small_protein(), db.clone(), clock).unwrap();
    cluster.set_tracing(true);
    let q = db.get(SeqId(1)).unwrap().residues.clone();
    let report = cluster.query(&q, &QueryParams::protein()).unwrap();
    cluster.set_tracing(false);
    let untraced = cluster.query(&q, &QueryParams::protein()).unwrap();
    assert_eq!(untraced.hits, report.hits, "tracing must not change hits");
    assert!(untraced.trace.is_none());
    let trace = report.trace.expect("traced query names its trace");
    let tree = cluster.trace_tree(trace).expect("recorders hold the trace");
    assert_eq!(tree.critical_path(), report.critical_path);
    assert_eq!(report.critical_path[0].name, "query");
    assert_eq!(report.critical_path[0].duration, report.timings.total());
    assert!(
        report.critical_path.len() >= 2,
        "path descends into a stage"
    );
}

/// Drift guard: a query traced inside a batch of three records the
/// same span tree — names and parent links, depth first — as the same
/// query traced alone.
#[test]
fn query_in_a_batch_traces_like_the_same_query_alone() {
    let db = chaos_db(0x7F);
    let build = || {
        let clock = Arc::new(VirtualClock::new());
        let c = MendelCluster::build_with_clock(ClusterConfig::small_protein(), db.clone(), clock)
            .unwrap();
        c.set_tracing(true);
        c
    };
    fn shape(node: &mendel_suite::obs::TraceNode, parent: &str, out: &mut Vec<(String, String)>) {
        out.push((parent.to_string(), node.record.name.clone()));
        for child in &node.children {
            shape(child, &node.record.name, out);
        }
    }
    let shape_of = |cluster: &MendelCluster, trace| {
        let mut out = Vec::new();
        shape(&cluster.trace_tree(trace).unwrap().root, "", &mut out);
        out
    };
    let params = QueryParams::protein();
    let queries: Vec<Vec<u8>> = (0..3)
        .map(|i| db.get(SeqId(i * 4)).unwrap().residues.clone())
        .collect();

    let alone = build();
    let report = alone.query(&queries[1], &params).unwrap();
    let alone_shape = shape_of(&alone, report.trace.unwrap());
    assert!(alone_shape
        .iter()
        .any(|(p, n)| p.starts_with("group/") && n.starts_with("node/")));

    let batched = build();
    let reports = batched.query_batch(&queries, &params);
    let in_batch = reports[1].as_ref().unwrap();
    assert_eq!(shape_of(&batched, in_batch.trace.unwrap()), alone_shape);
    assert_eq!(in_batch.critical_path[0].name, "query");
    assert_eq!(in_batch.critical_path[0].duration, in_batch.timings.total());
}

/// A request the plan rejects draws no 1-in-N sampling tick, from either
/// evaluator: which later queries get traced does not depend on it.
#[test]
fn rejected_request_draws_no_sampling_tick() {
    let db = chaos_db(0x80);
    let q = db.get(SeqId(2)).unwrap().residues.clone();
    let params = QueryParams::protein();
    let build = || {
        let c = MendelCluster::build(ClusterConfig::small_protein(), db.clone()).unwrap();
        c.set_tracing(true);
        c.set_trace_sampling(2);
        Arc::new(c)
    };

    let c = build();
    let mut traced = Vec::new();
    for query in [&q[..], &q[..3], &q[..], &q[..]] {
        traced.push(c.query(query, &params).map(|r| r.trace.is_some()).ok());
    }
    assert_eq!(traced, [Some(true), None, Some(false), Some(true)]);

    let c = build();
    let wire = WireCluster::serve(c.clone());
    let mut traced = Vec::new();
    for query in [&q[..], &q[..3], &q[..], &q[..]] {
        let outcome = wire.query_outcome(query, &params);
        traced.push(outcome.map(|o| o.trace.is_some()).ok());
    }
    assert_eq!(traced, [Some(true), None, Some(false), Some(true)]);
    // The rejected request left no span behind either.
    let names: Vec<String> = c.trace_records().into_iter().map(|r| r.name).collect();
    assert_eq!(names.iter().filter(|n| *n == "query").count(), 2);
    assert_eq!(names.iter().filter(|n| *n == "decompose").count(), 2);
}

// ---- Satellite: envelope wire-format compatibility. ----

/// The legacy (pre-trace) encoding of an envelope, built by hand.
fn legacy_bytes(from: u16, to: u16, correlation: u64, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u16_le(from);
    buf.put_u16_le(to);
    buf.put_u64_le(correlation);
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(payload);
    buf.freeze()
}

#[test]
fn untraced_envelope_encoding_is_byte_identical_to_legacy() {
    let env = Envelope {
        from: NodeAddr(3),
        to: NodeAddr(9),
        correlation: 0xDEAD_BEEF,
        payload: Bytes::from_static(b"hello"),
        trace: None,
    };
    assert_eq!(env.to_bytes(), legacy_bytes(3, 9, 0xDEAD_BEEF, b"hello"));
}

#[test]
fn legacy_bytes_decode_to_an_untraced_envelope() {
    let mut raw = legacy_bytes(1, 2, 77, b"payload");
    let env = Envelope::decode(&mut raw).unwrap();
    assert_eq!(env.from, NodeAddr(1));
    assert_eq!(env.to, NodeAddr(2));
    assert_eq!(env.correlation, 77);
    assert_eq!(&env.payload[..], b"payload");
    assert_eq!(env.trace, None, "old wire frames carry no trace context");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Round-trip over both encodings: any envelope, with or without a
    /// trace context, decodes back exactly; the untraced encoding is
    /// always a strict prefix-compatible legacy frame.
    #[test]
    fn envelope_roundtrips_over_both_encodings(
        from in 0u16..64,
        to in 0u16..64,
        correlation in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        ctx in proptest::option::of((1u64..1 << 48, 1u64..1 << 48, any::<bool>())),
    ) {
        let env = Envelope {
            from: NodeAddr(from),
            to: NodeAddr(to),
            correlation,
            payload: Bytes::from(payload.clone()),
            trace: ctx.map(|(t, p, sampled)| TraceContext {
                trace: TraceId(t),
                parent: SpanId(p),
                sampled,
            }),
        };
        let wire = env.to_bytes();
        prop_assert_eq!(wire.len(), env.encoded_len());
        let mut buf = wire.clone();
        let back = Envelope::decode(&mut buf).unwrap();
        prop_assert_eq!(&back, &env);
        prop_assert!(buf.is_empty(), "decode consumes the whole frame");

        // The traced frame is the legacy frame plus a 17-byte tail; the
        // untraced frame IS the legacy frame.
        let legacy = legacy_bytes(from, to, correlation, &payload);
        match env.trace {
            None => prop_assert_eq!(&wire, &legacy),
            Some(_) => {
                prop_assert_eq!(wire.len(), legacy.len() + 17);
                prop_assert_eq!(&wire[..legacy.len()], &legacy[..]);
            }
        }
    }
}
