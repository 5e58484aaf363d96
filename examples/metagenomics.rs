//! Metagenomics read binning — the paper's §I-A usage scenario.
//!
//! "Metagenomics ... is a powerful tool for analyzing microbial
//! communities in their natural environment ... The extracted DNA is
//! mapped to known sequences within a database."
//!
//! This example simulates that workload end-to-end: a reference database
//! of "known organism" genomes, an environmental sample of noisy
//! next-generation-sequencer reads drawn from a hidden community mix, and
//! Mendel assigning every read back to its organism. Accuracy is measured
//! against the hidden ground truth.
//!
//! ```sh
//! cargo run --release --example metagenomics
//! ```

#![allow(
    clippy::print_stdout,
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "an example narrates on stdout and stops at a failed step with the message as the diagnostic"
)]

use mendel_suite::core::{ClusterConfig, MendelCluster, QueryParams};
use mendel_suite::seq::gen::{random_sequence, MutationModel};
use mendel_suite::seq::{Alphabet, SeqId, SeqStore, Sequence};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

const N_ORGANISMS: usize = 12;
const GENOME_LEN: usize = 4_000;
const N_READS: usize = 120;
const READ_LEN: usize = 150;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x4d45_5441);

    // Reference database: one "genome" per known organism.
    let mut store = SeqStore::new();
    for i in 0..N_ORGANISMS {
        let codes = random_sequence(Alphabet::Dna, GENOME_LEN, &mut rng);
        let mut s = Sequence::from_codes(format!("organism_{i}"), Alphabet::Dna, codes);
        s.description = format!("reference genome of organism {i}");
        store.insert(s);
    }
    let db = Arc::new(store);

    // Hidden community: organisms are present with skewed abundance.
    let abundance: Vec<f64> = (0..N_ORGANISMS).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    let total_ab: f64 = abundance.iter().sum();

    // The sequencer: reads are random windows with 2% substitution noise
    // and 0.4% indels.
    let noise = MutationModel::with_indels(0.02, 0.004);
    let mut reads: Vec<(Vec<u8>, SeqId)> = Vec::with_capacity(N_READS);
    for _ in 0..N_READS {
        let mut pick = rng.random::<f64>() * total_ab;
        let mut org = 0usize;
        for (i, a) in abundance.iter().enumerate() {
            if pick < *a {
                org = i;
                break;
            }
            pick -= a;
        }
        let genome = db.get(SeqId(org as u32)).unwrap();
        let start = rng.random_range(0..genome.len() - READ_LEN);
        let window = &genome.residues[start..start + READ_LEN];
        reads.push((
            noise.mutate(Alphabet::Dna, window, &mut rng),
            SeqId(org as u32),
        ));
    }
    println!(
        "sample: {N_READS} reads of ~{READ_LEN} bp from {N_ORGANISMS} organisms (skewed abundance)"
    );

    // Index the reference genomes in a DNA cluster.
    let mut cfg = ClusterConfig::small_dna();
    cfg.nodes = 8;
    cfg.groups = 2;
    let cluster = MendelCluster::build(cfg, db.clone()).expect("valid config");
    println!(
        "indexed {} blocks over {} nodes in {:?}\n",
        cluster.total_blocks(),
        cluster.topology().num_nodes(),
        cluster.index_elapsed()
    );

    // Bin every read: best hit wins.
    let params = QueryParams::dna();
    let mut correct = 0usize;
    let mut unassigned = 0usize;
    let mut per_org = [0usize; N_ORGANISMS];
    for (read, truth) in &reads {
        let report = cluster.query(read, &params).expect("read is long enough");
        match report.best() {
            Some(hit) => {
                per_org[hit.subject.index()] += 1;
                if hit.subject == *truth {
                    correct += 1;
                }
            }
            None => unassigned += 1,
        }
    }

    println!("binning accuracy: {correct}/{N_READS} reads assigned to the true organism");
    println!("unassigned reads: {unassigned}");
    println!("\nestimated community profile (reads per organism):");
    for (i, n) in per_org.iter().enumerate() {
        println!("  organism_{i:<2} {:>3} reads  {}", n, "*".repeat(*n));
    }
    assert!(
        correct as f64 >= 0.9 * N_READS as f64,
        "low-noise reads must bin correctly ({correct}/{N_READS})"
    );
    println!("\nOK: >= 90% of reads binned to the correct organism.");
}
