//! Ablation — the node-local search budget: the recall–cost frontier.
//!
//! This repository's one algorithmic addition over the paper (documented
//! in DESIGN.md/README): exact vp-tree k-NN over short windows
//! degenerates to a full scan because window distances concentrate, so
//! node-local searches run a best-first traversal capped at a budget of
//! distance calls. This sweep measures what the budget buys, per leaf
//! bucket (the old 32 and the served default) and budget:
//!
//! * end-to-end recall — the query's source among the hits;
//! * filter-surviving recall — of each subquery window's exhaustive
//!   top-n on one storage node's share of the blocks, the neighbours
//!   that pass the §V-B identity filter (the only ones that can become
//!   anchors), the share the budgeted search returns. The share is every
//!   `nodes`-th window, a uniform sample of a node's density rather than
//!   its vp-prefix group's;
//! * vp-tree distance calls and vertices visited per query, across the
//!   cluster;
//! * µs per search on the node share's tree (median of seven passes);
//! * simulated turnaround and k-NN candidates per query.
//!
//! ```sh
//! cargo run --release -p mendel-bench --bin ablation_budget
//! ```

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "a bench binary reports on stdout and aborts on impossible fixture state with the message as the diagnostic"
)]

use mendel::query::{identity, subquery_offsets};
use mendel::{ClusterConfig, MendelCluster, QueryParams};
use mendel_bench::{figure_header, protein_db, query_set};
use mendel_vptree::VpTree;
use std::hint::black_box;
use std::time::Instant;

/// Timed passes over the subquery windows per point.
const PASSES: usize = 7;

fn main() {
    figure_header(
        "Ablation: search budget",
        "budgeted best-first node-local k-NN: recall and cost vs bucket and budget",
    );
    let db = protein_db(1_000_000);
    let served = ClusterConfig::paper_testbed_protein();
    // Moderately hard queries: 70% identity fragments.
    let queries = query_set(&db, 10, 400, 0.70);
    let base = QueryParams::protein();

    // One node's share of the blocks, and every subquery window with the
    // exhaustive answer's identity-filter survivors on that share.
    let len = served.block_len;
    let share: Vec<Vec<u8>> = db
        .iter()
        .flat_map(|s| s.residues.windows(len))
        .step_by(served.nodes)
        .map(<[u8]>::to_vec)
        .collect();
    let metric = served.metric.instantiate();
    let flat = VpTree::build(share.clone(), metric.clone(), share.len(), served.seed);
    let windows: Vec<(Vec<u8>, Vec<u32>)> = queries
        .iter()
        .flat_map(|q| {
            let r = &q.query.residues;
            subquery_offsets(r.len(), len, base.k)
                .into_iter()
                .map(move |o| r[o..o + len].to_vec())
        })
        .map(|w| {
            let wanted = flat
                .knn(&w, base.n)
                .iter()
                .filter(|nb| identity(&w, &share[nb.index as usize]) >= base.i)
                .map(|nb| nb.index)
                .collect();
            (w, wanted)
        })
        .collect();
    let wanted: usize = windows.iter().map(|(_, want)| want.len()).sum();
    println!(
        "database: {} residues; {} subquery windows, {wanted} filter survivors on a {}-block node share\n",
        db.total_residues(),
        windows.len(),
        share.len(),
    );

    // Every (bucket, budget) row's counts, then its timed passes: the
    // passes take the rows in turn, so a swing in the host's speed lands
    // on all of them alike.
    let budgets = [256usize, 512, 1024, 2048, 4096, 16384, usize::MAX];
    let mut trees = Vec::new();
    let mut rows = Vec::new();
    for bucket in [32, served.bucket_capacity] {
        let config = ClusterConfig {
            bucket_capacity: bucket,
            ..served.clone()
        };
        let cluster = MendelCluster::build(config, db.clone()).expect("valid config");
        let tree = VpTree::build(share.clone(), metric.clone(), bucket, served.seed);
        for budget in budgets {
            let params = QueryParams {
                search_budget: budget,
                ..base.clone()
            };
            let counters = || {
                let m = cluster.metrics_snapshot();
                (
                    m.counter("mendel.vptree.dist_calls"),
                    m.counter("mendel.vptree.nodes_visited"),
                )
            };
            let before = counters();
            let mut found = 0usize;
            let mut candidates = 0usize;
            let mut sim_total = std::time::Duration::ZERO;
            for q in &queries {
                let r = cluster
                    .query(&q.query.residues, &params)
                    .expect("valid query");
                if r.hits.iter().any(|h| h.subject == q.source) {
                    found += 1;
                }
                candidates += r.stats.candidates;
                sim_total += r.turnaround();
            }
            let after = counters();
            let per_query = |n: u64| n / queries.len() as u64;
            let survived: usize = windows
                .iter()
                .map(|(w, want)| {
                    let got = tree.knn_with_budget(w, base.n, budget);
                    want.iter()
                        .filter(|&&i| got.iter().any(|g| g.index == i))
                        .count()
                })
                .sum();
            let label = if budget == usize::MAX {
                "exact".to_string()
            } else {
                budget.to_string()
            };
            let row = format!(
                "{bucket:>6} | {label:>8} | {:>4}/{:<2} | {:>13.3} | {:>14} | {:>12}",
                found,
                queries.len(),
                survived as f64 / wanted.max(1) as f64,
                per_query(after.0 - before.0),
                per_query(after.1 - before.1),
            );
            let tail = format!(
                "{:>15.2} | {:>10}",
                sim_total.as_secs_f64() * 1e3 / queries.len() as f64,
                candidates / queries.len(),
            );
            rows.push((trees.len(), budget, row, tail, Vec::new()));
        }
        trees.push(tree);
    }
    for _ in 0..PASSES {
        for (tree, budget, _, _, passes) in &mut rows {
            let start = Instant::now();
            for (w, _) in &windows {
                black_box(trees[*tree].knn_with_budget(w, base.n, *budget));
            }
            passes.push(start.elapsed().as_secs_f64() * 1e6 / windows.len() as f64);
        }
    }

    println!(
        "{:>6} | {:>8} | {:>7} | {:>13} | {:>14} | {:>12} | {:>11} | {:>15} | {:>10}",
        "bucket",
        "budget",
        "recall",
        "filter recall",
        "dist calls / q",
        "vertices / q",
        "µs / search",
        "turnaround (ms)",
        "candidates"
    );
    println!("{}", "-".repeat(125));
    for (_, _, row, tail, mut passes) in rows {
        passes.sort_by(f64::total_cmp);
        println!("{row} | {:>11.1} | {tail}", passes[PASSES / 2]);
    }
    println!(
        "\nreading: end-to-end recall saturates at small budgets on realistic\nhomology, so it cannot price the budget; filter-surviving recall\ncan. A budget counts leaf candidates and vantage distances alike, and\na leaf candidate is the cheap one (16 to a lane-kernel call): at\nbucket 256 a budget visits about a sixth of the vertices it does at\n32, so twice the budget takes less time. The served point (bucket\n256, budget 2,048) was picked on the frontier corpus\n(crates/vptree/tests/frontier.rs) as the fastest setting with no\nlower filter-surviving recall than bucket 32 at 1,024 at four tree\nsizes. On this ~20 k-block node share it reads 0.338 against the old\npoint's 0.243, in less time per search (0.48-0.75x over three runs)\nand with 0.28x its vertices; the depth-first search both replaced\nread 0.329 at 4,096 here. A budget that scales with tree size is open."
    );
}
