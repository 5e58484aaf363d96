//! Observability suite: the metric registry asserted end-to-end with
//! *exact* values (DESIGN.md §11).
//!
//! Two layers of oracle:
//!
//! 1. **vp-tree search work** — a single-leaf tree degenerates to a flat
//!    scan, so `mendel.vptree.dist_calls` must equal queries × points;
//!    a real tree must come in strictly under that bound (the §III-D
//!    prune doing its job), with the early-abandoning kernel bailing out
//!    inside calls (`early_abandons` > 0).
//! 2. **query pipeline** — `QueryReport.metrics` is a per-query delta:
//!    fan-out counter == `stats.groups_contacted`, one turnaround sample
//!    per query, gapped-extension and DP-cell counts equal on both
//!    evaluators, and identical serial runs produce identical counter
//!    deltas.

#![allow(
    clippy::unwrap_used,
    reason = "test support code outside #[test] functions fails the calling test on a broken fixture"
)]

use mendel_suite::core::{ClusterConfig, MendelCluster, QueryParams, WireCluster};
use mendel_suite::dht::NodeId;
use mendel_suite::obs::{MetricsSnapshot, Registry};
use mendel_suite::seq::gen::NrLikeSpec;
use mendel_suite::seq::{MatrixDistance, ScoringMatrix, SeqId, SeqStore, Unbounded};
use mendel_suite::vptree::{SearchMetrics, VpTree};
use std::sync::Arc;

const WINDOW_LEN: usize = 48;
const K: usize = 6;

/// Deterministic window workload (splitmix-style, no rand dependency).
fn windows(count: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    (0..count)
        .map(|_| (0..WINDOW_LEN).map(|_| (next() % 24) as u8).collect())
        .collect()
}

/// Family-clustered windows (centers plus point mutations, queries from
/// the same centers) — the redundancy regime where the τ-prune actually
/// fires. Uniform random windows concentrate in distance and defeat the
/// prune (see the visit-budget note on `VpTree::knn_with_budget`).
fn clustered(count: usize, queries: usize, seed: u64) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let centers = windows(count.div_ceil(16).max(1), seed);
    let noise = windows(count + queries, seed ^ 0x5A5A);
    let mutate = |center: &[u8], noise: &[u8]| {
        let mut w = center.to_vec();
        let len = w.len();
        for (slot, &v) in noise.iter().take(3).enumerate() {
            w[(v as usize * 7 + slot * 11) % len] = noise[slot + 3] % 24;
        }
        w
    };
    let points = (0..count)
        .map(|i| mutate(&centers[i % centers.len()], &noise[i]))
        .collect();
    let probes = (0..queries)
        .map(|i| mutate(&centers[i % centers.len()], &noise[count + i]))
        .collect();
    (points, probes)
}

fn small_db(seed: u64) -> Arc<SeqStore> {
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

// ---------------------------------------------------------------- layer 1

#[test]
fn single_leaf_tree_counts_every_distance_call_exactly() {
    let points = windows(300, 0x0B5);
    let queries = windows(12, 0x0B6);
    let n = points.len() as u64;
    let q = queries.len() as u64;

    let registry = Registry::new();
    let mut tree = VpTree::build(
        points,
        Unbounded(MatrixDistance::mendel(&ScoringMatrix::blosum62())),
        300,
        7,
    );
    tree.set_metrics(SearchMetrics::registered(&registry));
    for query in &queries {
        let _ = tree.knn(query, K);
    }

    let snap = registry.snapshot();
    assert_eq!(snap.counter("mendel.vptree.dist_calls"), q * n);
    assert_eq!(snap.counter("mendel.vptree.leaf_scans"), q);
    assert_eq!(snap.counter("mendel.vptree.nodes_visited"), q);
}

#[test]
fn pruned_search_shrinks_distance_calls_below_the_flat_scan() {
    let (points, queries) = clustered(800, 16, 0x0C1);
    let flat_scan = (points.len() * queries.len()) as u64;
    let matrix = MatrixDistance::mendel(&ScoringMatrix::blosum62());

    // Early-abandoning kernel, real geometry.
    let bounded = {
        let registry = Registry::new();
        let mut tree = VpTree::build(points.clone(), matrix.clone(), 16, 7);
        tree.set_metrics(SearchMetrics::registered(&registry));
        for query in &queries {
            let _ = tree.knn(query, K);
        }
        registry.snapshot()
    };
    // Full-compute kernel, identical geometry.
    let unbounded = {
        let registry = Registry::new();
        let mut tree = VpTree::build(points, Unbounded(matrix), 16, 7);
        tree.set_metrics(SearchMetrics::registered(&registry));
        for query in &queries {
            let _ = tree.knn(query, K);
        }
        registry.snapshot()
    };

    let calls = bounded.counter("mendel.vptree.dist_calls");
    assert!(calls > 0);
    assert!(
        calls < flat_scan,
        "prune must beat the flat scan: {calls} vs {flat_scan}"
    );
    assert!(
        bounded.counter("mendel.vptree.early_abandons") > 0,
        "the bounded kernel must bail out of some calls"
    );
    // Both kernels reject exactly when d > bound, so every counter —
    // including the abandons — is kernel-invariant over the same tree.
    assert_eq!(bounded.counters, unbounded.counters);
}

// ---------------------------------------------------------------- layer 2

#[test]
fn fanout_counter_matches_query_report() {
    let db = small_db(0x0D1);
    let cfg = ClusterConfig {
        nodes: 6,
        groups: 3,
        replication: 1,
        ..ClusterConfig::small_protein()
    };
    let cluster = MendelCluster::build(cfg, db.clone()).unwrap();
    let params = QueryParams::protein();

    for i in [0u32, 5, 11] {
        let query = db.get(SeqId(i)).unwrap().residues.clone();
        let report = cluster.query(&query, &params).unwrap();
        let fanout = report.metrics.counter("mendel.query.fanout_groups");
        assert_eq!(
            fanout as usize, report.stats.groups_contacted,
            "fan-out counter must equal the report's contacted-group count"
        );
        assert!(fanout >= 1);
        assert!(
            fanout as usize <= report.coverage.per_group.len(),
            "cannot contact more groups than exist"
        );
        assert_eq!(report.metrics.counter("mendel.query.count"), 1);
        assert!(report.metrics.counter("mendel.vptree.dist_calls") > 0);
    }

    // In a one-group cluster the fan-out is pinned: exactly the coverage
    // report's group count.
    let one = MendelCluster::build(
        ClusterConfig {
            nodes: 4,
            groups: 1,
            replication: 1,
            ..ClusterConfig::small_protein()
        },
        db.clone(),
    )
    .unwrap();
    let query = db.get(SeqId(0)).unwrap().residues.clone();
    let report = one.query(&query, &params).unwrap();
    assert_eq!(report.metrics.counter("mendel.query.fanout_groups"), 1);
    assert_eq!(report.coverage.per_group.len(), 1);
}

/// The `mendel.coverage.*` gauges are what `coverage()` reports at
/// snapshot time — with no query needed to notice a failed node.
#[test]
fn coverage_gauges_equal_the_coverage_report_without_a_query() {
    let cfg = ClusterConfig {
        replication: 1,
        ..ClusterConfig::small_protein()
    };
    let cluster = MendelCluster::build(cfg, small_db(0x0D2)).unwrap();
    let gauges_match_coverage = || {
        let snap = cluster.metrics_snapshot();
        let coverage = cluster.coverage();
        let gauges = (
            snap.gauge("mendel.coverage.blocks_expected"),
            snap.gauge("mendel.coverage.blocks_reachable"),
            snap.gauge("mendel.coverage.degraded"),
        );
        let report = (
            coverage.blocks_expected as i64,
            coverage.blocks_reachable as i64,
            coverage.degraded as i64,
        );
        assert_eq!(gauges, report);
        coverage.degraded
    };
    assert!(!gauges_match_coverage());
    cluster.fail_node(NodeId(1)).unwrap();
    assert!(gauges_match_coverage());
}

#[test]
fn per_query_deltas_include_stage_histograms() {
    let db = small_db(0x0D2);
    let cluster = MendelCluster::build(
        ClusterConfig {
            nodes: 4,
            groups: 2,
            replication: 1,
            ..ClusterConfig::small_protein()
        },
        db.clone(),
    )
    .unwrap();
    let query = db.get(SeqId(3)).unwrap().residues.clone();
    let report = cluster.query(&query, &QueryParams::protein()).unwrap();

    for stage in ["decompose", "scatter", "group_phase", "gather", "finalize"] {
        let name = format!("mendel.query.stage.{stage}.seconds");
        let h = report
            .metrics
            .histogram(&name)
            .unwrap_or_else(|| panic!("{name} missing from the per-query delta"));
        assert_eq!(h.count(), 1, "{name}: one sample per query");
    }
    let turnaround = report
        .metrics
        .histogram("mendel.query.turnaround.seconds")
        .unwrap();
    assert_eq!(turnaround.count(), 1);
    // The simulated stage timings themselves are what the histograms
    // record; both views must agree that time passed.
    assert!(turnaround.sum >= 0.0);
}

/// The finalize stage's budget in counts: every query exports how many
/// gapped extensions it ran and how many DP cells they evaluated, and
/// `MendelCluster::query` and `WireCluster` count the same for the same
/// query (one `finalize` behind both). Both also export the node search's
/// time, `mendel.query.local_search_nanos`, from the one site that fills
/// a member's receipt.
#[test]
fn gapped_extension_counts_are_exported_and_agree_across_evaluators() {
    let db = small_db(0x0D4);
    let cluster = Arc::new(
        MendelCluster::build(
            ClusterConfig {
                nodes: 4,
                groups: 2,
                replication: 1,
                ..ClusterConfig::small_protein()
            },
            db.clone(),
        )
        .unwrap(),
    );
    let wire = WireCluster::serve(cluster.clone());
    let params = QueryParams::protein();
    let names = [
        "mendel.query.gapped_extensions",
        "mendel.query.gapped_cells",
    ];
    let counts = |m: &MetricsSnapshot| names.map(|n| m.counter(n));
    let search_nanos = "mendel.query.local_search_nanos";
    let mut extensions = 0;
    for i in [0u32, 7, 13] {
        let query = db.get(SeqId(i)).unwrap().residues.clone();
        let report = cluster.query(&query, &params).unwrap();
        let exposition = report.metrics.to_prometheus();
        for name in names.iter().chain([&search_nanos]) {
            let prom = name.replace('.', "_");
            assert!(exposition.contains(&format!("\n{prom} ")), "{name}");
        }
        let in_process = counts(&report.metrics);
        assert!(report.metrics.counter(search_nanos) > 0, "seq {i}");

        let before = cluster.metrics_snapshot();
        let hits = wire.query(&query, &params).unwrap();
        let delta = cluster.metrics_snapshot().since(&before);
        let over_wire = counts(&delta);
        assert!(delta.counter(search_nanos) > 0, "seq {i}");
        assert_eq!(hits, report.hits, "seq {i}");
        assert_eq!(over_wire, in_process, "seq {i}: [extensions, cells]");
        // No extension evaluates no cell; every extension evaluates some.
        assert_eq!(in_process[0] == 0, in_process[1] == 0, "seq {i}");
        extensions += in_process[0];
    }
    assert!(extensions > 0, "the queries must reach a gapped extension");
}

#[test]
fn identical_serial_runs_produce_identical_counter_deltas() {
    let run = || {
        let db = small_db(0x0D3);
        let cluster = MendelCluster::build(
            ClusterConfig {
                nodes: 5,
                groups: 2,
                replication: 2,
                ..ClusterConfig::small_protein()
            },
            db.clone(),
        )
        .unwrap();
        let params = QueryParams::protein();
        let mut deltas = Vec::new();
        for i in 0..4u32 {
            let query = db.get(SeqId(i * 3)).unwrap().residues.clone();
            let report = cluster.query(&query, &params).unwrap();
            // The `*_nanos` counters meter real (wall-clock) compute
            // time; they are the one family that legitimately
            // varies between identical seeded runs, so they are excluded
            // from the determinism assertion.
            let mut counters = report.metrics.counters;
            counters.retain(|name, _| !name.ends_with("_nanos"));
            deltas.push(counters);
        }
        deltas
    };
    assert_eq!(
        run(),
        run(),
        "seeded serial evaluation must meter identically"
    );
}
