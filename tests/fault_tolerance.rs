//! Fault-tolerance and elasticity integration tests (the §VII-B
//! extensions this reproduction implements).

use mendel_suite::core::{ClusterConfig, MendelCluster, MendelError, QueryParams};
use mendel_suite::dht::NodeId;
use mendel_suite::seq::gen::NrLikeSpec;
use mendel_suite::seq::{SeqId, SeqStore};
use std::sync::Arc;

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
fn heartbeat_suspicion_drives_failover() {
    // Wire the net-layer failure detector to the cluster's failover: a
    // node that stops beating gets suspected, the cluster routes around
    // it, and queries keep answering (replication 2 masks the loss).
    use mendel_suite::net::{HeartbeatMonitor, NodeAddr};
    use std::time::{Duration, Instant};

    let db = db(9);
    let cluster = replicated_cluster(&db, 2);
    let params = QueryParams::protein();
    let q = db.get(SeqId(3)).unwrap().residues.clone();
    let baseline = cluster.query(&q, &params).unwrap().best().unwrap().subject;

    // Simulated beat history: node 2 went silent 200 ms ago.
    let mut monitor = HeartbeatMonitor::new(Duration::from_millis(100));
    let now = Instant::now();
    for n in 0..8u16 {
        let when = if n == 2 {
            now - Duration::from_millis(200)
        } else {
            now
        };
        monitor.observe_at(NodeAddr(n), when);
    }
    let suspects = monitor.suspects_at(now);
    assert_eq!(suspects, vec![NodeAddr(2)]);

    // Act on the suspicion.
    for s in &suspects {
        cluster.fail_node(NodeId(s.0)).unwrap();
    }
    let masked = cluster
        .query_from(NodeId(0), &q, &params)
        .unwrap()
        .best()
        .unwrap()
        .subject;
    assert_eq!(
        masked, baseline,
        "suspected node's data must be served by replicas"
    );

    // Everyone beats again (wall time has moved on since `now`, maybe
    // past the timeout — the query above isn't free): suspicion clears.
    let later = Instant::now();
    for n in 0..8u16 {
        monitor.observe_at(NodeAddr(n), later);
    }
    assert!(monitor.suspects_at(later).is_empty());
    cluster.recover_node(NodeId(2)).unwrap();
    assert!(cluster.failed_nodes().is_empty());
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
fn detector_sync_fails_suspects_and_recovers_on_fresh_beats() {
    // False-positive recovery: a slow-but-alive node is suspected,
    // routed around, then unsuspected once it beats again.
    use mendel_suite::net::{HeartbeatMonitor, NodeAddr};
    use std::time::{Duration, Instant};

    let db = db(12);
    let cluster = replicated_cluster(&db, 2);
    let params = QueryParams::protein();
    let q = db.get(SeqId(6)).unwrap().residues.clone();
    let baseline = cluster.query(&q, &params).unwrap().best().unwrap().subject;

    // The timeout races the wall clock between here and the second
    // sync below (a sync and a query: ~90 ms under strict-invariants),
    // hence seconds.
    let mut monitor = HeartbeatMonitor::new(Duration::from_secs(2));
    let now = Instant::now();
    for n in 0..8u16 {
        let when = if n == 3 {
            now - Duration::from_secs(5) // slow node: beats arrive late
        } else {
            now
        };
        monitor.observe_at(NodeAddr(n), when);
    }
    let delta = cluster.sync_failure_detector(&monitor);
    assert_eq!(delta.suspected, vec![NodeId(3)]);
    assert!(delta.recovered.is_empty());
    assert_eq!(cluster.failed_nodes(), vec![NodeId(3)]);
    // Routed around: replicas mask the suspect.
    let masked = cluster.query(&q, &params).unwrap();
    assert_eq!(masked.best().unwrap().subject, baseline);
    assert!(!masked.coverage.degraded, "replication keeps full coverage");

    // Re-syncing while still silent must not re-suspect (idempotent).
    let again = cluster.sync_failure_detector(&monitor);
    assert!(again.suspected.is_empty() && again.recovered.is_empty());

    // The node beats again → auto-recovery.
    monitor.observe(NodeAddr(3));
    let delta = cluster.sync_failure_detector(&monitor);
    assert_eq!(delta.recovered, vec![NodeId(3)]);
    assert!(cluster.failed_nodes().is_empty());
    assert_eq!(
        cluster.query(&q, &params).unwrap().best().unwrap().subject,
        baseline
    );
}

#[test]
fn detector_never_recovers_operator_failed_nodes() {
    use mendel_suite::net::{HeartbeatMonitor, NodeAddr};
    use std::time::Duration;

    let db = db(13);
    let cluster = replicated_cluster(&db, 2);
    cluster.fail_node(NodeId(5)).unwrap(); // operator decision
    let mut monitor = HeartbeatMonitor::new(Duration::from_millis(100));
    monitor.observe(NodeAddr(5)); // the node is beating happily
    let delta = cluster.sync_failure_detector(&monitor);
    assert!(delta.recovered.is_empty(), "operator failures stick");
    assert_eq!(cluster.failed_nodes(), vec![NodeId(5)]);
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
    let params = QueryParams::protein();
    let q = db.get(SeqId(2)).unwrap().residues.clone();
    let healthy = cluster.query(&q, &params).unwrap();
    assert!(!healthy.coverage.degraded);
    assert_eq!(healthy.coverage.fraction(), 1.0);

    cluster.fail_node(NodeId(6)).unwrap();
    let degraded = cluster.query_from(NodeId(0), &q, &params).unwrap();
    assert!(degraded.coverage.degraded, "lost blocks must be flagged");
    assert!(degraded.coverage.fraction() < 1.0);
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
    // Stored bytes are arena-accounted (DESIGN.md §10): each node charges
    // a sequence's backing once, so spreading a sequence's blocks over
    // one more node may grow the byte total — but never by more than one
    // extra copy of the database per added node, and never shrink.
    assert!(after.total() >= before.total(), "no data lost");
    let db_bytes = db.total_residues() as u64;
    assert!(
        after.total() <= before.total() + db_bytes,
        "at most one extra backing copy per added node"
    );
}
