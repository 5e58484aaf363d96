//! Quickstart: build a small Mendel cluster over a synthetic protein
//! database, run one similarity query, and read the report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![allow(
    clippy::print_stdout,
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "an example narrates on stdout and stops at a failed step with the message as the diagnostic"
)]

use mendel_suite::core::{ClusterConfig, MendelCluster, QueryParams};
use mendel_suite::seq::gen::{NrLikeSpec, QuerySetSpec};
use std::sync::Arc;

fn main() {
    // 1. A reference database standing in for NCBI nr: 64 protein
    //    families with mutated members, Swiss-Prot residue composition.
    let db = Arc::new(
        NrLikeSpec {
            families: 64,
            members_per_family: 3,
            length_range: (200, 500),
            ..Default::default()
        }
        .generate()
        .expect("valid spec"),
    );
    println!(
        "database: {} sequences, {} residues",
        db.len(),
        db.total_residues()
    );

    // 2. A cluster: 6 storage nodes in 2 groups. Indexing fragments every
    //    sequence into overlapping blocks, routes each block to a group
    //    via the vp-prefix LSH, and places it on a node via SHA-1.
    let cluster =
        MendelCluster::build(ClusterConfig::small_protein(), db.clone()).expect("config is valid");
    println!(
        "indexed {} blocks across {} nodes in {:?}",
        cluster.total_blocks(),
        cluster.topology().num_nodes(),
        cluster.index_elapsed()
    );

    // 3. A query: a 300-residue fragment of some database sequence,
    //    mutated to 85% identity (what a homology search looks like).
    let queries = QuerySetSpec {
        count: 1,
        length: 300,
        identity: 0.85,
        seed: 42,
    }
    .generate(&db)
    .expect("database has long sequences");
    let q = &queries[0];
    println!(
        "\nquery: {} residues, mutated copy of {} (85% identity)",
        q.query.len(),
        db.get(q.source).unwrap().name
    );

    // 4. Query parameters — Table I of the paper.
    let params = QueryParams::protein();
    println!("\n{}", params.table());

    // 5. Run it and read the report.
    let report = cluster
        .query(&q.query.residues, &params)
        .expect("query is well-formed");
    println!(
        "turnaround (simulated 50-node clock): {:?}  |  {} subqueries, {} groups, {} nodes, {} anchors",
        report.turnaround(),
        report.stats.subqueries,
        report.stats.groups_contacted,
        report.stats.nodes_contacted,
        report.stats.anchors,
    );
    println!("\ntop hits:");
    for hit in report.hits.iter().take(5) {
        let name = &db.get(hit.subject).unwrap().name;
        println!(
            "  {name:<12} score {:>5}  bits {:>7.1}  E {:>10.2e}  identity {:>5.1}%  q[{}..{}]",
            hit.score,
            hit.bits,
            hit.evalue,
            hit.identity * 100.0,
            hit.query_start,
            hit.query_end
        );
    }
    let best = report.best().expect("the source sequence must be found");
    assert_eq!(best.subject, q.source, "the true source should rank first");
    println!("\nOK: the true source sequence ranks first.");
}
