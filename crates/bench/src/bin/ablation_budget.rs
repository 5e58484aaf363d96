//! Ablation — the node-local search budget: the recall–cost frontier.
//!
//! This repository's one algorithmic addition over the paper (documented
//! in DESIGN.md/README): exact vp-tree k-NN over short windows
//! degenerates to a full scan because window distances concentrate, so
//! node-local searches run a best-first traversal capped at a budget of
//! distance calls. This sweep measures what the budget buys, per budget:
//!
//! * end-to-end recall — the query's source among the hits;
//! * filter-surviving recall — of each subquery window's exhaustive
//!   top-n on one storage node's share of the blocks, the neighbours
//!   that pass the §V-B identity filter (the only ones that can become
//!   anchors), the share the budgeted search returns. The share is every
//!   `nodes`-th window, a uniform sample of a node's density rather than
//!   its vp-prefix group's;
//! * vp-tree distance calls per query, across the cluster;
//! * simulated turnaround and k-NN candidates per query.
//!
//! ```sh
//! cargo run --release -p mendel-bench --bin ablation_budget
//! ```

// Benchmark reports go to stdout by design.
#![allow(clippy::print_stdout)]

use mendel::query::{identity, subquery_offsets};
use mendel::{ClusterConfig, MendelCluster, QueryParams};
use mendel_bench::{figure_header, protein_db, query_set};
use mendel_vptree::VpTree;

fn main() {
    figure_header(
        "Ablation: search budget",
        "budgeted best-first node-local k-NN: recall and cost vs budget",
    );
    let db = protein_db(1_000_000);
    let cluster = MendelCluster::build(ClusterConfig::paper_testbed_protein(), db.clone())
        .expect("valid config"); // audit:allow(expect): bench binary; aborts on impossible fixture state with the message as the diagnostic
    let config = cluster.config();
    // Moderately hard queries: 70% identity fragments.
    let queries = query_set(&db, 10, 400, 0.70);
    let base = QueryParams::protein();

    // One node's share of the blocks, and every subquery window with the
    // exhaustive answer's identity-filter survivors on that share.
    let len = config.block_len;
    let share: Vec<Vec<u8>> = db
        .iter()
        .flat_map(|s| s.residues.windows(len))
        .step_by(config.nodes)
        .map(<[u8]>::to_vec)
        .collect();
    let metric = config.metric.instantiate();
    let flat = VpTree::build(share.clone(), metric.clone(), share.len(), config.seed);
    let tree = VpTree::build(share.clone(), metric, config.bucket_capacity, config.seed);
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
        "database: {} residues; blocks per node ≈ {}; {} subquery windows, {wanted} filter survivors\n",
        db.total_residues(),
        cluster.total_blocks() / config.nodes,
        windows.len(),
    );

    println!(
        "{:>8} | {:>7} | {:>13} | {:>15} | {:>15} | {:>10}",
        "budget", "recall", "filter recall", "dist calls / q", "turnaround (ms)", "candidates"
    );
    println!("{}", "-".repeat(83));
    for budget in [256usize, 512, 1024, 2048, 4096, 16384, usize::MAX] {
        let params = QueryParams {
            search_budget: budget,
            ..base.clone()
        };
        let calls_before = cluster
            .metrics_snapshot()
            .counter("mendel.vptree.dist_calls");
        let mut found = 0usize;
        let mut candidates = 0usize;
        let mut sim_total = std::time::Duration::ZERO;
        for q in &queries {
            let r = cluster
                .query(&q.query.residues, &params)
                .expect("valid query"); // audit:allow(expect): bench binary; aborts on impossible fixture state with the message as the diagnostic
            if r.hits.iter().any(|h| h.subject == q.source) {
                found += 1;
            }
            candidates += r.stats.candidates;
            sim_total += r.turnaround();
        }
        let calls = cluster
            .metrics_snapshot()
            .counter("mendel.vptree.dist_calls")
            - calls_before;
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
        println!(
            "{label:>8} | {:>4}/{:<2} | {:>13.3} | {:>15} | {:>15.2} | {:>10}",
            found,
            queries.len(),
            survived as f64 / wanted.max(1) as f64,
            calls / queries.len() as u64,
            sim_total.as_secs_f64() * 1e3 / queries.len() as f64,
            candidates / queries.len(),
        );
    }
    println!(
        "\nreading: end-to-end recall saturates at small budgets on realistic\nhomology, so it cannot price the budget; filter-surviving recall\ncan. The served default, QueryParams::protein().search_budget, was\nsized on ~100 k-point node trees, where it finds more than the\ndepth-first search it replaced did at 4,096\n(crates/vptree/tests/frontier.rs). On this smaller node share it\nfinds less: the depth-first search read 0.329 at 4,096 here, which\nonly 2,048 matches. A budget that scales with tree size is open."
    );
}
