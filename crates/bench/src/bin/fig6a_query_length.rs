//! Figure 6a — average turnaround vs query length, Mendel vs BLAST.
//!
//! The paper runs `s_aureus` queries of 500–3000 residues against `nr`
//! (90% of real BLAST queries are under 1000 residues) and finds "the
//! length of an alignment query has little effect on the overall
//! performance in Mendel", while BLAST's cost grows with query length.
//!
//! Mendel's turnaround is the simulated 50-node cluster clock (real
//! node-local compute + LAN model, DESIGN.md §3); BLAST's is measured
//! single-machine wall time — matching what each system *is*. Beside
//! each turnaround sit its two largest stages: the group phase (node
//! search) and finalize (the entry point's gapped extension), which
//! grows with query length whatever the search does.
//!
//! ```sh
//! cargo run --release -p mendel-bench --bin fig6a_query_length
//! ```

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "a bench binary reports on stdout and aborts on impossible fixture state with the message as the diagnostic"
)]

use mendel::{ClusterConfig, MendelCluster};
use mendel_bench::{
    bench_params, figure_header, mean_duration, ms, ratios, stage_means, DB_SEED, QUERY_SEED,
};
use mendel_blast::{Blast, BlastParams};
use mendel_seq::gen::{NrLikeSpec, QuerySetSpec};
use std::sync::Arc;
use std::time::Instant;

const LENGTHS: [usize; 6] = [500, 1000, 1500, 2000, 2500, 3000];
const QUERIES_PER_LEN: usize = 4;

fn main() {
    figure_header(
        "Figure 6a",
        "avg turnaround vs query length (500-3000 residues), Mendel vs BLAST",
    );
    // A database whose sequences are long enough to source 3000-residue
    // queries (the paper's query sets are whole-genome fragments).
    let db = Arc::new(
        NrLikeSpec {
            families: 320,
            members_per_family: 2,
            length_range: (400, 3600),
            seed: DB_SEED,
            ..Default::default()
        }
        .generate()
        .expect("valid spec"),
    );
    println!(
        "database: {} sequences / {} residues",
        db.len(),
        db.total_residues()
    );

    let cluster = MendelCluster::build(ClusterConfig::paper_testbed_protein(), db.clone())
        .expect("valid config");
    println!(
        "Mendel: indexed {} blocks in {:?}",
        cluster.total_blocks(),
        cluster.index_elapsed()
    );
    let blast = Blast::new(db.clone(), BlastParams::protein());

    println!(
        "\n{:>8} | {:>16} | {:>16} | {:>13} | {:>16}",
        "len", "Mendel avg (ms)", "group phase (ms)", "finalize (ms)", "BLAST avg (ms)"
    );
    println!("{}", "-".repeat(82));
    // Per length: mean turnaround, group phase, finalize, BLAST.
    let mut series = Vec::new();
    for len in LENGTHS {
        let queries = QuerySetSpec {
            count: QUERIES_PER_LEN,
            length: len,
            identity: 0.9,
            seed: QUERY_SEED + len as u64,
        }
        .generate(&db)
        .expect("long sequences exist");

        // Table I's `k` exists "to reduce the amplification of the
        // subqueries"; the natural operator setting scales the stride
        // with query length so every query decomposes into a similar
        // number of subqueries.
        let mut params = bench_params();
        params.k = (len / 64).max(8);
        let timings: Vec<_> = queries
            .iter()
            .map(|q| {
                cluster
                    .query(&q.query.residues, &params)
                    .expect("valid query")
                    .timings
            })
            .collect();
        let blast_times: Vec<_> = queries
            .iter()
            .map(|q| {
                let t = Instant::now();
                let _ = blast.search(&q.query.residues);
                t.elapsed()
            })
            .collect();
        let [total, group, finalize] = stage_means(&timings);
        let row = [total, group, finalize, mean_duration(&blast_times)];
        let [t, g, f, b] = row.map(ms);
        println!("{len:>8} | {t:>16} | {g:>16} | {f:>13} | {b:>16}");
        series.push(row);
    }

    let [t, g, f, b] = ratios(series[series.len() - 1], series[0]);
    println!(
        "\n500->3000 growth factor: Mendel avg {t:.2}x (group phase {g:.2}x, finalize {f:.2}x) vs BLAST avg {b:.2}x"
    );
    println!(
        "paper shape, read on Mendel avg vs BLAST avg: Mendel ~flat, BLAST grows -> {}",
        if t < b {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}
