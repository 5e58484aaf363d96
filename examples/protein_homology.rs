//! Protein homology search: Mendel vs the BLAST baseline, side by side.
//!
//! Runs the same remote-homology queries (50–90% identity fragments)
//! through both engines over the same `nr`-like database and compares
//! recall of the true source and wall-clock per query — a miniature of
//! the paper's §VI evaluation.
//!
//! ```sh
//! cargo run --release --example protein_homology
//! ```

#![allow(
    clippy::print_stdout,
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "an example narrates on stdout and stops at a failed step with the message as the diagnostic"
)]

use mendel_suite::blast::{Blast, BlastParams};
use mendel_suite::core::{ClusterConfig, MendelCluster, QueryParams};
use mendel_suite::seq::gen::{NrLikeSpec, QuerySetSpec};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let db = Arc::new(
        NrLikeSpec {
            families: 96,
            members_per_family: 3,
            length_range: (250, 600),
            seed: 0x50524f54,
            ..Default::default()
        }
        .generate()
        .expect("valid spec"),
    );
    println!(
        "database: {} sequences / {} residues\n",
        db.len(),
        db.total_residues()
    );

    let t = Instant::now();
    let cluster =
        MendelCluster::build(ClusterConfig::small_protein(), db.clone()).expect("valid config");
    println!(
        "Mendel indexing: {:?} ({} blocks)",
        t.elapsed(),
        cluster.total_blocks()
    );

    let t = Instant::now();
    let blast = Blast::new(db.clone(), BlastParams::protein());
    println!("BLAST  indexing: {:?}\n", t.elapsed());

    let mendel_params = QueryParams::protein();
    println!(
        "{:>9} | {:>13} | {:>13} | {:>11} | {:>11}",
        "identity", "Mendel recall", "BLAST recall", "Mendel t/q", "BLAST t/q"
    );
    println!("{}", "-".repeat(72));

    for identity in [0.9, 0.7, 0.5] {
        let queries = QuerySetSpec {
            count: 12,
            length: 300,
            identity,
            seed: 7 + (identity * 100.0) as u64,
        }
        .generate(&db)
        .expect("long sequences exist");

        let t = Instant::now();
        let mendel_found = queries
            .iter()
            .filter(|q| {
                cluster
                    .query(&q.query.residues, &mendel_params)
                    .map(|r| r.hits.iter().any(|h| h.subject == q.source))
                    .unwrap_or(false)
            })
            .count();
        let mendel_t = t.elapsed() / queries.len() as u32;

        let t = Instant::now();
        let blast_found = queries
            .iter()
            .filter(|q| {
                blast
                    .search(&q.query.residues)
                    .iter()
                    .any(|h| h.subject == q.source)
            })
            .count();
        let blast_t = t.elapsed() / queries.len() as u32;

        println!(
            "{:>8.0}% | {:>10}/{:<2} | {:>10}/{:<2} | {:>11?} | {:>11?}",
            identity * 100.0,
            mendel_found,
            queries.len(),
            blast_found,
            queries.len(),
            mendel_t,
            blast_t
        );
    }

    // Show one alignment in detail.
    let q = QuerySetSpec {
        count: 1,
        length: 240,
        identity: 0.75,
        seed: 99,
    }
    .generate(&db)
    .unwrap()
    .remove(0);
    let report = cluster.query(&q.query.residues, &mendel_params).unwrap();
    let best = report.best().expect("75% identity query must hit");
    println!(
        "\nexample hit: query {} -> {} | score {} | {:.1} bits | E = {:.2e} | identity {:.0}%",
        q.query.name,
        db.get(best.subject).unwrap().name,
        best.score,
        best.bits,
        best.evalue,
        best.identity * 100.0
    );
    assert_eq!(best.subject, q.source);
    println!("\nOK: both engines recover homologs; see the recall table above.");
}
