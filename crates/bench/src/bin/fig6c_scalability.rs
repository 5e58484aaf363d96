//! Figure 6c — average turnaround vs cluster size.
//!
//! The paper indexes `nr` over clusters of varying sizes and measures
//! the `e_coli` query set's average turnaround on each: "Figure 6c shows
//! a sufficient scalability with respect to the size of the cluster" —
//! adding nodes reduces turnaround, sublinearly.
//!
//! Beside each turnaround sit its two largest stages: the group phase
//! (node search, the part more nodes divide) and finalize (the entry
//! point's gapped extension, the same work at every cluster size).
//!
//! ```sh
//! cargo run --release -p mendel-bench --bin fig6c_scalability
//! ```

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "a bench binary reports on stdout and aborts on impossible fixture state with the message as the diagnostic"
)]

use mendel_bench::{
    bench_params, cluster_with, figure_header, ms, protein_db, query_set, ratios, stage_means,
};

const NODE_COUNTS: [usize; 6] = [5, 10, 20, 30, 40, 50];
const DB_RESIDUES: usize = 1_000_000;
const QUERIES: usize = 5;

fn main() {
    figure_header(
        "Figure 6c",
        "avg turnaround vs cluster size (nodes), fixed database + query set",
    );
    let db = protein_db(DB_RESIDUES);
    let queries = query_set(&db, QUERIES, 1000, 0.85);
    let params = bench_params();
    println!(
        "database: {} residues; {} queries of 1000 residues\n",
        db.total_residues(),
        QUERIES
    );
    println!(
        "{:>7} | {:>7} | {:>16} | {:>16} | {:>13} | {:>9}",
        "nodes", "groups", "Mendel avg (ms)", "group phase (ms)", "finalize (ms)", "index (s)"
    );
    println!("{}", "-".repeat(84));

    // Per cluster size: mean turnaround, group phase, finalize.
    let mut series = Vec::new();
    for nodes in NODE_COUNTS {
        let groups = (nodes / 5).max(1);
        let cluster = cluster_with(&db, nodes, groups);
        let timings: Vec<_> = queries
            .iter()
            .map(|q| {
                cluster
                    .query(&q.query.residues, &params)
                    .expect("valid")
                    .timings
            })
            .collect();
        let row = stage_means(&timings);
        let [t, g, f] = row.map(ms);
        let index_s = cluster.index_elapsed().as_secs_f64();
        println!("{nodes:>7} | {groups:>7} | {t:>16} | {g:>16} | {f:>13} | {index_s:>9.2}");
        series.push(row);
    }
    let [t, g, f] = ratios(series[0], series[series.len() - 1]);
    println!("\n5 -> 50 nodes speedup: Mendel avg {t:.2}x (group phase {g:.2}x, finalize {f:.2}x)");
    println!(
        "paper shape, read on Mendel avg: turnaround decreases as nodes are added -> {}",
        if t > 1.5 {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}
