//! Cluster operations walkthrough: load balance, node failure + masking
//! via replication, and elastic scale-out.
//!
//! Exercises the §VII-B "future work" features this reproduction
//! implements (fault tolerance, elasticity).
//!
//! ```sh
//! cargo run --release --example cluster_ops
//! ```

#![allow(
    clippy::print_stdout,
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "an example narrates on stdout and stops at a failed step with the message as the diagnostic"
)]

use mendel_suite::core::{ClusterConfig, MendelCluster, QueryParams};
use mendel_suite::dht::NodeId;
use mendel_suite::seq::gen::{NrLikeSpec, QuerySetSpec};
use std::sync::Arc;

fn main() {
    let db = Arc::new(
        NrLikeSpec {
            families: 48,
            members_per_family: 3,
            length_range: (200, 400),
            seed: 0x0F5,
            ..Default::default()
        }
        .generate()
        .expect("valid spec"),
    );

    // Replication 2 so failures can be masked.
    let mut cfg = ClusterConfig::small_protein();
    cfg.nodes = 10;
    cfg.groups = 2;
    cfg.replication = 2;
    let cluster = MendelCluster::build(cfg, db.clone()).expect("valid config");
    let params = QueryParams::protein();
    let query = QuerySetSpec {
        count: 1,
        length: 250,
        identity: 0.85,
        seed: 3,
    }
    .generate(&db)
    .unwrap()
    .remove(0);

    // --- 1. Load balance (the Fig. 5 measurement) ---------------------
    let report = cluster.load_report();
    println!("per-node data share (two-tier vp-LSH + SHA-1, replication 2):");
    print!("{}", report.ascii_chart());
    println!(
        "max-min spread: {:.2} percentage points\n",
        report.spread_pct()
    );

    // --- 2. Failure + failover ----------------------------------------
    let before = cluster.query(&query.query.residues, &params).unwrap();
    println!(
        "healthy cluster: best hit {} (E = {:.1e})",
        db.get(before.best().unwrap().subject).unwrap().name,
        before.best().unwrap().evalue
    );
    cluster.fail_node(NodeId(2)).unwrap();
    cluster.fail_node(NodeId(7)).unwrap();
    println!("injected failures on n2 and n7 (one per group)");
    let degraded = cluster
        .query_from(NodeId(0), &query.query.residues, &params)
        .unwrap();
    assert_eq!(
        degraded.best().unwrap().subject,
        before.best().unwrap().subject,
        "replication must mask single-node failures"
    );
    println!(
        "degraded cluster still answers: best hit {} (replicas served the lost blocks)",
        db.get(degraded.best().unwrap().subject).unwrap().name
    );
    cluster.recover_node(NodeId(2)).expect("node 2 exists");
    cluster.recover_node(NodeId(7)).expect("node 7 exists");
    println!(
        "nodes recovered; failed set = {:?}\n",
        cluster.failed_nodes()
    );

    // --- 3. Elastic scale-out ------------------------------------------
    let blocks_before = cluster.total_blocks();
    let new_node = cluster.add_node();
    let after = cluster.query(&query.query.residues, &params).unwrap();
    assert_eq!(after.hits, before.hits, "scale-out must not change results");
    let share = cluster
        .load_report()
        .per_node
        .iter()
        .find(|(n, _)| *n == new_node)
        .map(|(_, b)| *b)
        .unwrap();
    println!(
        "scaled out: added {new_node}, rebalanced its group ({} -> {} blocks cluster-wide, new node holds {} bytes)",
        blocks_before,
        cluster.total_blocks(),
        share
    );
    assert!(share > 0);

    println!("\nOK: load balance, failover and scale-out all verified.");
}
