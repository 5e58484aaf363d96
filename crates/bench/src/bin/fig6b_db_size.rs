//! Figure 6b — average turnaround vs database size, Mendel vs BLAST.
//!
//! The paper fixes queries at 1000 residues and grows the database:
//! "Database size has a less impact on the performance of the system in
//! comparison to BLAST. We observe nearly constant average turnaround
//! times" while "[BLAST's] progress comes to a halt when the data
//! volumes grow large."
//!
//! ```sh
//! cargo run --release -p mendel-bench --bin fig6b_db_size
//! ```

#![allow(
    clippy::print_stdout,
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a bench binary reports on stdout and aborts on impossible fixture state with the message as the diagnostic"
)]

use mendel_bench::{bench_params, figure_header, mean_duration, ms, paper_cluster, protein_db};
use mendel_blast::{Blast, BlastParams};
use mendel_seq::gen::QuerySetSpec;
use std::time::Instant;

const DB_SIZES: [usize; 5] = [250_000, 500_000, 1_000_000, 2_000_000, 4_000_000];
const QUERY_LEN: usize = 1000;
const QUERIES: usize = 4;

fn main() {
    figure_header(
        "Figure 6b",
        "avg turnaround vs database size (1000-residue queries), Mendel vs BLAST",
    );
    println!(
        "{:>12} | {:>16} | {:>16} | {:>14}",
        "db residues", "Mendel avg (ms)", "BLAST avg (ms)", "index (s)"
    );
    println!("{}", "-".repeat(68));
    let params = bench_params();
    let mut mendel_series = Vec::new();
    let mut blast_series = Vec::new();
    for size in DB_SIZES {
        let db = protein_db(size);
        let cluster = paper_cluster(&db);
        let blast = Blast::new(db.clone(), BlastParams::protein());
        let queries = QuerySetSpec {
            count: QUERIES,
            length: QUERY_LEN,
            identity: 0.9,
            seed: 0x6B + size as u64,
        }
        .generate(&db)
        .expect("long sequences exist");

        let mendel_times: Vec<_> = queries
            .iter()
            .map(|q| {
                cluster
                    .query(&q.query.residues, &params)
                    .expect("valid")
                    .turnaround()
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
        let m = mean_duration(&mendel_times);
        let b = mean_duration(&blast_times);
        println!(
            "{:>12} | {:>16} | {:>16} | {:>14.2}",
            db.total_residues(),
            ms(m),
            ms(b),
            cluster.index_elapsed().as_secs_f64()
        );
        mendel_series.push(m);
        blast_series.push(b);
    }
    let mendel_growth =
        mendel_series.last().unwrap().as_secs_f64() / mendel_series[0].as_secs_f64();
    let blast_growth = blast_series.last().unwrap().as_secs_f64() / blast_series[0].as_secs_f64();
    println!(
        "\n16x database growth factor: Mendel {mendel_growth:.2}x vs BLAST {blast_growth:.2}x"
    );
    println!(
        "paper shape: Mendel ~constant, BLAST degrades with volume -> {}",
        if mendel_growth < blast_growth {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}
