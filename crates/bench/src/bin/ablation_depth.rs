//! Ablation — vp-prefix depth threshold (§III-F, §V-A2).
//!
//! "The depth threshold is set to half the tree's depth to strike a
//! balance between timely calculation of hash values and achieving a
//! balanced distribution of data over the cluster." Deeper thresholds
//! cost more distance evaluations per hash and fragment the data into
//! more buckets (finer similarity resolution — Fig. 2), but too-shallow
//! trees cannot spread load over the groups. This sweep measures all
//! three quantities per depth: hash throughput, group load spread, and
//! LSH recall (how often a mutated window still hashes with its source).
//!
//! ```sh
//! cargo run --release -p mendel-bench --bin ablation_depth
//! ```

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "a bench binary reports on stdout and aborts on impossible fixture state with the message as the diagnostic"
)]

use mendel::MetricKind;
use mendel_bench::{figure_header, protein_db, DB_SEED};
use mendel_seq::gen::mutate_to_identity;
use mendel_seq::Alphabet;
use mendel_vptree::{GroupAssignment, VpPrefixTree};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

const BLOCK_LEN: usize = 16;
const GROUPS: usize = 10;

fn main() {
    figure_header(
        "Ablation: prefix depth",
        "hash cost vs load balance vs LSH recall across depth thresholds",
    );
    let db = protein_db(200_000);
    let windows: Vec<Vec<u8>> = db
        .iter()
        .flat_map(|s| {
            s.residues
                .windows(BLOCK_LEN)
                .step_by(11)
                .map(|w| w.to_vec())
                .collect::<Vec<_>>()
        })
        .collect();
    let sample: Vec<Vec<u8>> = windows.iter().step_by(7).take(4096).cloned().collect();
    println!(
        "{} windows, {} sampled for tree construction\n",
        windows.len(),
        sample.len()
    );

    let mut rng = ChaCha8Rng::seed_from_u64(0xDE);
    let mutants: Vec<(usize, Vec<u8>)> = (0..500)
        .map(|i| {
            let idx = i * windows.len() / 500;
            let m = mutate_to_identity(Alphabet::Protein, &windows[idx], 0.85, &mut rng)
                .expect("valid identity");
            (idx, m)
        })
        .collect();

    println!(
        "{:>6} | {:>14} | {:>14} | {:>12} | {:>12}",
        "depth", "hash (µs/blk)", "spread (pp)", "recall@0", "recall@τ"
    );
    println!("{}", "-".repeat(70));
    for depth in [2usize, 3, 4, 5, 6, 8, 10] {
        let metric = MetricKind::MendelBlosum62.instantiate();
        let tree = VpPrefixTree::build(sample.clone(), metric, depth, DB_SEED);
        // A shallow tree cannot address all 10 groups — that IS the
        // shallow-depth failure mode; clamp and let the spread show it.
        let groups = GROUPS.min(tree.num_buckets());
        let assign = GroupAssignment::new(tree.num_buckets(), groups);

        // Hash throughput.
        let t = Instant::now();
        let mut group_bytes = vec![0u64; groups];
        for w in &windows {
            let g = assign.group_of_bucket(tree.bucket_index(tree.hash(w)));
            group_bytes[g] += BLOCK_LEN as u64;
        }
        let per_block_us = t.elapsed().as_secs_f64() * 1e6 / windows.len() as f64;

        // Group spread (percentage points of total), over the *intended*
        // 10 groups — unaddressable groups count as empty.
        let total: u64 = group_bytes.iter().sum();
        let mut shares: Vec<f64> = group_bytes
            .iter()
            .map(|&b| 100.0 * b as f64 / total as f64)
            .collect();
        shares.resize(GROUPS, 0.0);
        let spread = shares.iter().copied().fold(f64::MIN, f64::max)
            - shares.iter().copied().fold(f64::MAX, f64::min);

        // LSH recall: does a 85%-identity mutant hash with its source?
        let exact_hits = mutants
            .iter()
            .filter(|(idx, m)| tree.hash(m) == tree.hash(&windows[*idx]))
            .count();
        let tol_hits = mutants
            .iter()
            .filter(|(idx, m)| {
                tree.hash_with_tolerance(m, 8.0)
                    .contains(&tree.hash(&windows[*idx]))
            })
            .count();

        println!(
            "{depth:>6} | {per_block_us:>14.2} | {spread:>14.3} | {:>11.1}% | {:>11.1}%",
            100.0 * exact_hits as f64 / mutants.len() as f64,
            100.0 * tol_hits as f64 / mutants.len() as f64,
        );
    }
    println!(
        "\nreading: deeper = slower hashing and lower exact recall (finer similarity\nresolution, Fig. 2), shallower = coarse groups that cannot spread load.\nThe paper's \"half the tree depth\" sits where all three stay acceptable."
    );
}
