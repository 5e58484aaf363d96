//! Fault-tolerance and elasticity integration tests (the §VII-B
//! extensions this reproduction implements).

#![allow(
    clippy::unwrap_used,
    reason = "test support code outside #[test] functions fails the calling test on a broken fixture"
)]

use mendel_suite::core::{ClusterConfig, MendelCluster, MendelError, QueryParams};
use mendel_suite::dht::{GroupId, NodeId};
use mendel_suite::obs::SlowLogConfig;
use mendel_suite::seq::gen::NrLikeSpec;
use mendel_suite::seq::{SeqId, SeqStore};
use std::sync::Arc;
use std::time::Duration;

fn db(seed: u64) -> Arc<SeqStore> {
    Arc::new(
        NrLikeSpec {
            families: 16,
            members_per_family: 2,
            length_range: (150, 300),
            seed,
            ..Default::default()
        }
        .generate()
        .unwrap(),
    )
}

fn replicated_cluster(db: &Arc<SeqStore>, replication: usize) -> MendelCluster {
    let cfg = ClusterConfig {
        nodes: 8,
        groups: 2,
        replication,
        ..ClusterConfig::small_protein()
    };
    MendelCluster::build(cfg, db.clone()).unwrap()
}

#[test]
fn replication_multiplies_stored_blocks() {
    let db = db(1);
    let single = replicated_cluster(&db, 1);
    let double = replicated_cluster(&db, 2);
    assert_eq!(double.total_blocks(), 2 * single.total_blocks());
}

#[test]
fn single_failure_per_group_is_masked_with_replication_two() {
    let db = db(2);
    let cluster = replicated_cluster(&db, 2);
    let params = QueryParams::protein();
    let queries: Vec<Vec<u8>> = (0..6)
        .map(|i| db.get(SeqId(i * 5)).unwrap().residues.clone())
        .collect();
    let baselines: Vec<_> = queries
        .iter()
        .map(|q| cluster.query(q, &params).unwrap().best().unwrap().subject)
        .collect();

    cluster.fail_node(NodeId(1)).unwrap();
    cluster.fail_node(NodeId(5)).unwrap();
    for (q, baseline) in queries.iter().zip(&baselines) {
        let best = cluster
            .query_from(NodeId(0), q, &params)
            .unwrap()
            .best()
            .unwrap()
            .subject;
        assert_eq!(
            best, *baseline,
            "failures must be invisible behind replicas"
        );
    }
}

#[test]
fn unreplicated_cluster_degrades_but_does_not_error() {
    let db = db(3);
    let cluster = replicated_cluster(&db, 1);
    let params = QueryParams::protein();
    cluster.fail_node(NodeId(2)).unwrap();
    cluster.fail_node(NodeId(6)).unwrap();
    // Queries still run; some hits may be lost (blocks on failed nodes).
    for i in 0..4u32 {
        let q = db.get(SeqId(i)).unwrap().residues.clone();
        let _ = cluster.query_from(NodeId(0), &q, &params).unwrap();
    }
}

#[test]
fn recovery_restores_full_results() {
    let db = db(4);
    let cluster = replicated_cluster(&db, 1);
    let params = QueryParams::protein();
    let q = db.get(SeqId(8)).unwrap().residues.clone();
    let before = cluster.query(&q, &params).unwrap().hits;
    cluster.fail_node(NodeId(3)).unwrap();
    cluster.recover_node(NodeId(3)).unwrap();
    let after = cluster.query(&q, &params).unwrap().hits;
    assert_eq!(
        before, after,
        "recovery must restore exact pre-failure results"
    );
}

#[test]
fn failing_everything_in_a_group_yields_empty_group_results() {
    let db = db(5);
    let cluster = replicated_cluster(&db, 2);
    let params = QueryParams::protein();
    // Kill group 0 entirely (nodes 0..4); queries entering at group 1
    // still run and answer from group 1's blocks only.
    for n in 0..4u16 {
        cluster.fail_node(NodeId(n)).unwrap();
    }
    let q = db.get(SeqId(1)).unwrap().residues.clone();
    let report = cluster.query_from(NodeId(4), &q, &params).unwrap();
    assert!(
        report.stats.nodes_contacted <= 4,
        "only group 1's nodes can serve ({} contacted)",
        report.stats.nodes_contacted
    );
}

#[test]
fn failing_unknown_node_errors() {
    let db = db(6);
    let cluster = replicated_cluster(&db, 1);
    assert!(matches!(
        cluster.fail_node(NodeId(200)),
        Err(MendelError::NoSuchNode(_))
    ));
}

#[test]
fn repeated_scale_out_keeps_results_stable() {
    let db = db(7);
    let cluster = replicated_cluster(&db, 1);
    let params = QueryParams::protein();
    let q = db.get(SeqId(12)).unwrap().residues.clone();
    let baseline = cluster.query(&q, &params).unwrap().hits;
    let blocks = cluster.total_blocks();
    for _ in 0..3 {
        cluster.add_node();
        assert_eq!(
            cluster.total_blocks(),
            blocks,
            "rebalance must conserve blocks"
        );
        assert_eq!(cluster.query(&q, &params).unwrap().hits, baseline);
    }
    assert_eq!(cluster.topology().num_nodes(), 11);
}

#[test]
fn fail_is_idempotent_and_recover_is_symmetric() {
    let db = db(10);
    let cluster = replicated_cluster(&db, 2);
    // Failing twice is Ok and leaves one failed entry.
    cluster.fail_node(NodeId(4)).unwrap();
    cluster.fail_node(NodeId(4)).unwrap();
    assert_eq!(cluster.failed_nodes(), vec![NodeId(4)]);
    // Recovering an unknown id errors like fail_node does.
    assert!(matches!(
        cluster.recover_node(NodeId(200)),
        Err(MendelError::NoSuchNode(_))
    ));
    // Recovering a healthy node is Ok (idempotent no-op).
    cluster.recover_node(NodeId(0)).unwrap();
    cluster.recover_node(NodeId(4)).unwrap();
    cluster.recover_node(NodeId(4)).unwrap();
    assert!(cluster.failed_nodes().is_empty());
}

#[test]
fn recovery_after_rebalance_serves_current_placement() {
    // fail → add_node (rebalances the failed node's group under its
    // back) → recover. The recovered node's contents are stale; results
    // and block accounting must still match a cluster that never failed.
    let db = db(11);
    let params = QueryParams::protein();
    let faulty = replicated_cluster(&db, 2);
    let control = replicated_cluster(&db, 2);

    let queries: Vec<Vec<u8>> = (0..6)
        .map(|i| db.get(SeqId(i * 4)).unwrap().residues.clone())
        .collect();

    faulty.fail_node(NodeId(1)).unwrap();
    let grown_f = faulty.add_node();
    let grown_c = control.add_node();
    assert_eq!(grown_f, grown_c);
    faulty.recover_node(NodeId(1)).unwrap();

    for q in &queries {
        let a = faulty.query(q, &params).unwrap();
        let b = control.query(q, &params).unwrap();
        assert_eq!(a.hits, b.hits, "stale recovery must not change results");
        assert!(!a.coverage.degraded);
    }
    assert_eq!(
        faulty.total_blocks(),
        control.total_blocks(),
        "stale copies must be re-placed, not accumulated"
    );
}

#[test]
fn repair_restores_replication_factor() {
    let db = db(14);
    let cluster = replicated_cluster(&db, 2);
    let params = QueryParams::protein();
    let q = db.get(SeqId(10)).unwrap().residues.clone();
    let baseline = cluster.query(&q, &params).unwrap().hits;

    // One node down: coverage holds (replicas), but blocks it held are
    // now at a single live copy.
    cluster.fail_node(NodeId(0)).unwrap();
    let report = cluster.repair();
    assert!(
        report.copies_added > 0,
        "under-replicated blocks get copies"
    );
    assert_eq!(report.unreachable, 0);
    assert!(cluster.load_report().blocks_moved >= report.copies_added);
    // Repair is idempotent: a second pass finds nothing to do.
    assert_eq!(cluster.repair().copies_added, 0);

    // Now a *second* node in the same group dies. Without repair this
    // could lose both copies of some block; after repair the data
    // survives any further single failure.
    cluster.fail_node(NodeId(1)).unwrap();
    let after = cluster.query_from(NodeId(2), &q, &params).unwrap();
    assert!(
        !after.coverage.degraded,
        "repair restored the safety margin"
    );
    assert_eq!(after.hits, baseline);
}

#[test]
fn coverage_reports_degradation_and_heals_on_recovery() {
    let db = db(15);
    let cluster = replicated_cluster(&db, 1); // no redundancy
    cluster.set_slowlog_config(SlowLogConfig {
        threshold: Duration::ZERO, // log everything
        sample_every: 0,
        capacity: 16,
    });
    let params = QueryParams::protein();
    let q = db.get(SeqId(2)).unwrap().residues.clone();
    let healthy = cluster.query(&q, &params).unwrap();
    assert!(!healthy.coverage.degraded);
    assert_eq!(
        healthy.coverage.blocks_reachable,
        healthy.coverage.blocks_expected
    );

    cluster.fail_node(NodeId(6)).unwrap();
    let degraded = cluster.query_from(NodeId(0), &q, &params).unwrap();
    assert!(degraded.coverage.degraded, "lost blocks must be flagged");
    assert!(degraded.coverage.blocks_reachable < degraded.coverage.blocks_expected);
    // Each query is observed once — in its own counter delta and in the
    // slow-query log — and flagged degraded exactly when it was.
    assert_eq!(degraded.metrics.counter("mendel.query.count"), 1);
    assert_eq!(degraded.metrics.counter("mendel.query.degraded"), 1);
    assert_eq!(healthy.metrics.counter("mendel.query.degraded"), 0);
    let logged: Vec<bool> = cluster
        .slowlog()
        .entries()
        .iter()
        .map(|e| e.query.degraded)
        .collect();
    assert_eq!(logged, [false, true]);
    let down_group = degraded
        .coverage
        .per_group
        .iter()
        .find(|g| g.reachable < g.expected)
        .expect("some group lost blocks");
    assert_eq!(down_group.live_members, 3);
    // Repair cannot recreate single-replica data — only recovery can.
    let repaired = cluster.repair();
    assert!(repaired.unreachable > 0);
    cluster.recover_node(NodeId(6)).unwrap();
    let healed = cluster.query(&q, &params).unwrap();
    assert!(!healed.coverage.degraded);
}

#[test]
fn scale_out_actually_moves_load() {
    let db = db(8);
    let cluster = replicated_cluster(&db, 1);
    let before = cluster.load_report();
    let blocks_before = cluster.total_blocks();
    let new = cluster.add_node();
    let after = cluster.load_report();
    let new_bytes = after
        .per_node
        .iter()
        .find(|(n, _)| *n == new)
        .map(|(_, b)| *b)
        .unwrap();
    assert!(new_bytes > 0, "new node must hold data");
    assert_eq!(
        cluster.total_blocks(),
        blocks_before,
        "no blocks created or lost"
    );
    // A block costs its key plus its window wherever it lives (DESIGN.md
    // §10), so moving blocks conserves the byte total exactly.
    assert_eq!(
        after.total(),
        before.total(),
        "bytes moved, not made or lost"
    );
}

/// Sequences absent from every `db(seed)` corpus, for ingest tests.
fn fresh_sequences() -> Vec<mendel_suite::seq::Sequence> {
    NrLikeSpec {
        families: 3,
        members_per_family: 2,
        length_range: (150, 220),
        seed: 0xAB,
        ..Default::default()
    }
    .generate()
    .unwrap()
    .iter()
    .cloned()
    .collect()
}

/// An unreplicated ingest with a node down places the down node's share
/// on the next live member of its group: every new block is placed and
/// findable, none is dropped.
#[test]
fn ingest_with_a_node_down_places_every_block() {
    let db = db(9);
    let cluster = replicated_cluster(&db, 1);
    cluster.fail_node(NodeId(2)).unwrap();
    let before = cluster.coverage().blocks_expected;
    let seqs = fresh_sequences();
    let block_len = cluster.config().block_len;
    let new_blocks: usize = seqs.iter().map(|s| s.len() - block_len + 1).sum();
    let ids = cluster.insert_sequences(seqs).unwrap();
    assert_eq!(cluster.coverage().blocks_expected, before + new_blocks);
    let params = QueryParams::protein();
    for id in ids {
        let q = cluster.db().get(id).unwrap().residues.clone();
        let report = cluster.query(&q, &params).unwrap();
        assert!(
            report.hits.iter().any(|h| h.subject == id),
            "{id:?} must find itself"
        );
    }
}

/// A group whose every member is down refuses the ingest by name; the
/// other groups still take their blocks.
#[test]
fn ingest_into_a_group_with_every_member_down_names_it() {
    let db = db(10);
    let cluster = replicated_cluster(&db, 1);
    let topo = cluster.topology();
    for &n in topo.group_members(GroupId(0)) {
        cluster.fail_node(n).unwrap();
    }
    let before = cluster.coverage();
    assert_eq!(
        cluster.insert_sequences(fresh_sequences()),
        Err(MendelError::GroupDown(GroupId(0)))
    );
    let after = cluster.coverage();
    assert_eq!(after.per_group[0].expected, before.per_group[0].expected);
    assert!(after.per_group[1].expected > before.per_group[1].expected);
}
