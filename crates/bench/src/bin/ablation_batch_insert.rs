//! Ablation — batched vs one-at-a-time vp-tree insertion (§III-D).
//!
//! "Naïvely inserting subsequences one-at-a-time quickly leads to an
//! unbalanced tree ... we strike a middle ground by adding elements in
//! large batches." This sweep inserts the same block population three
//! ways — bulk build, batches of several sizes, and one-at-a-time — and
//! measures build time, tree balance, and subsequent query latency.
//!
//! ```sh
//! cargo run --release -p mendel-bench --bin ablation_batch_insert
//! ```

#![allow(clippy::print_stdout, reason = "a bench binary reports on stdout")]

use mendel::MetricKind;
use mendel_bench::{figure_header, protein_db};
use mendel_vptree::VpTree;
use std::time::Instant;

const BLOCK_LEN: usize = 16;
const BUCKET: usize = 32;

fn main() {
    figure_header(
        "Ablation: batch insertion",
        "bulk vs batched vs one-at-a-time dynamic vp-tree construction",
    );
    let db = protein_db(120_000);
    let windows: Vec<Vec<u8>> = db
        .iter()
        .flat_map(|s| {
            s.residues
                .windows(BLOCK_LEN)
                .step_by(3)
                .map(|w| w.to_vec())
                .collect::<Vec<_>>()
        })
        .collect();
    let queries: Vec<Vec<u8>> = windows.iter().step_by(997).cloned().collect();
    println!(
        "{} blocks, {} probe queries\n",
        windows.len(),
        queries.len()
    );

    println!(
        "{:>16} | {:>10} | {:>9} | {:>9} | {:>12} | {:>10}",
        "strategy", "build (ms)", "max depth", "rebuilds", "knn (µs/qry)", "mean fill"
    );
    println!("{}", "-".repeat(80));

    let strategies: Vec<(String, usize)> = vec![
        ("bulk".into(), usize::MAX),
        ("batch 10000".into(), 10_000),
        ("batch 1000".into(), 1_000),
        ("one-at-a-time".into(), 1),
    ];
    for (name, batch) in strategies {
        let metric = MetricKind::MendelBlosum62.instantiate();
        let t = Instant::now();
        let tree = if batch == usize::MAX {
            VpTree::build(windows.clone(), metric, BUCKET, 42)
        } else {
            let mut tree = VpTree::new(metric, BUCKET, 42);
            if batch == 1 {
                for w in windows.iter().cloned() {
                    tree.insert(w);
                }
            } else {
                for chunk in windows.chunks(batch) {
                    tree.insert_batch(chunk.to_vec());
                }
            }
            tree
        };
        let build = t.elapsed();
        let stats = tree.stats();

        let t = Instant::now();
        for q in &queries {
            let _ = tree.knn_with_budget(q, 8, 4096);
        }
        let per_query_us = t.elapsed().as_secs_f64() * 1e6 / queries.len() as f64;

        println!(
            "{name:>16} | {:>10.1} | {:>9} | {:>9} | {per_query_us:>12.1} | {:>10.2}",
            build.as_secs_f64() * 1e3,
            stats.max_depth,
            tree.rebuilds(),
            stats.mean_bucket_fill,
        );
    }
    println!(
        "\nreading: larger batches amortize rebalancing and keep the tree as\nbalanced (and as fast to query) as a bulk build; per-element insertion\npays constant rebalancing and ends up deeper with fuller buckets\n(§III-D's motivation for the batched middle ground)."
    );
}
