//! Figure 6d — sensitivity vs similarity level, Mendel vs BLAST.
//!
//! The paper's final benchmark: "We generated a 1000 amino acid residue
//! target sequence ... At decreasing similarity levels, groups of
//! sequences are generated by randomly mutating residues from the
//! original sequence corresponding to the desired similarity level. For
//! each similarity level, an **all versus all** query is conducted and
//! the percentage of matches found was recorded."
//!
//! All-vs-all inside a cohort is the hard case: two mutants at level `s`
//! to the target share only ≈ `s²` pairwise identity (plus a little
//! chance agreement), so the 50% cohort probes ~26% pairwise identity
//! and the 30% cohort ~10% — the twilight zone where seeding strategy
//! decides sensitivity. Claim to reproduce: "the NNS algorithm ... can
//! better identify lower similarity matches" than BLAST's exact-word
//! heuristic.
//!
//! ```sh
//! cargo run --release -p mendel-bench --bin fig6d_sensitivity
//! ```

#![allow(
    clippy::print_stdout,
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a bench binary reports on stdout and aborts on impossible fixture state with the message as the diagnostic"
)]

use mendel::{ClusterConfig, MendelCluster, QueryParams};
use mendel_bench::figure_header;
use mendel_blast::{Blast, BlastParams};
use mendel_seq::gen::{mutate_to_identity, random_sequence, NrLikeSpec};
use mendel_seq::{Alphabet, SeqId, SeqStore, Sequence};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

const TARGET_LEN: usize = 1000;
const COHORT: usize = 10;
const LEVELS: [f64; 7] = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3];

fn main() {
    figure_header(
        "Figure 6d",
        "sensitivity vs similarity (all-vs-all mutant cohorts of a 1000-residue target)",
    );
    let mut rng = ChaCha8Rng::seed_from_u64(0x6D);

    // Background database (so E-values face a realistic search space)...
    let mut store = NrLikeSpec {
        families: 40,
        members_per_family: 2,
        length_range: (300, 900),
        seed: 0xB6,
        ..Default::default()
    }
    .generate()
    .expect("valid spec");
    // ...plus, per similarity level, a cohort of mutants of one target.
    let target = random_sequence(Alphabet::Protein, TARGET_LEN, &mut rng);
    let mut cohorts: Vec<(f64, Vec<SeqId>)> = Vec::new();
    for &level in &LEVELS {
        let ids: Vec<SeqId> = (0..COHORT)
            .map(|m| {
                let codes = mutate_to_identity(Alphabet::Protein, &target, level, &mut rng)
                    .expect("valid level");
                store.insert(Sequence::from_codes(
                    format!("lvl{}_m{m}", (level * 100.0) as u32),
                    Alphabet::Protein,
                    codes,
                ))
            })
            .collect();
        cohorts.push((level, ids));
    }
    let db: Arc<SeqStore> = Arc::new(store);
    println!(
        "database: {} sequences / {} residues; {} cohorts x {COHORT} mutants\n",
        db.len(),
        db.total_residues(),
        LEVELS.len()
    );

    let cluster = MendelCluster::build(ClusterConfig::paper_testbed_protein(), db.clone())
        .expect("valid config");
    let blast = Blast::new(db.clone(), BlastParams::protein());

    // Sensitivity-oriented Mendel parameters: thresholds below the
    // lowest pairwise identity probed, wide NNS, generous extension.
    let mut params = QueryParams::protein();
    params.i = 0.15;
    params.c = 0.20;
    params.n = 16;
    params.k = 4;
    params.group_tolerance = 8.0;
    params.x_drop_ungapped = 30;
    params.min_anchor_score = 28;
    params.search_budget = 16_384;

    println!(
        "{:>10} | {:>9} | {:>13} | {:>13}",
        "similarity", "pairwise", "Mendel found", "BLAST found"
    );
    println!("{}", "-".repeat(56));
    let mut mendel_curve = Vec::new();
    let mut blast_curve = Vec::new();
    for (level, ids) in &cohorts {
        let total_pairs = ids.len() * (ids.len() - 1);
        let mut mendel_pairs = 0usize;
        let mut blast_pairs = 0usize;
        let mut pairwise_id = 0.0f64;
        for (qi, &qid) in ids.iter().enumerate() {
            let qseq = &db.get(qid).unwrap().residues;
            let m_hits: Vec<SeqId> = cluster
                .query(qseq, &params)
                .expect("valid query")
                .hits
                .iter()
                .map(|h| h.subject)
                .collect();
            let b_hits: Vec<SeqId> = blast.search(qseq).iter().map(|h| h.subject).collect();
            for (si, &sid) in ids.iter().enumerate() {
                if qi == si {
                    continue;
                }
                if m_hits.contains(&sid) {
                    mendel_pairs += 1;
                }
                if b_hits.contains(&sid) {
                    blast_pairs += 1;
                }
                let sseq = &db.get(sid).unwrap().residues;
                let same = qseq.iter().zip(sseq.iter()).filter(|(a, b)| a == b).count();
                pairwise_id += same as f64 / TARGET_LEN as f64;
            }
        }
        let m_pct = 100.0 * mendel_pairs as f64 / total_pairs as f64;
        let b_pct = 100.0 * blast_pairs as f64 / total_pairs as f64;
        println!(
            "{:>9.0}% | {:>8.1}% | {:>12.1}% | {:>12.1}%",
            level * 100.0,
            100.0 * pairwise_id / total_pairs as f64,
            m_pct,
            b_pct
        );
        mendel_curve.push(m_pct);
        blast_curve.push(b_pct);
    }

    let mendel_total: f64 = mendel_curve.iter().sum();
    let blast_total: f64 = blast_curve.iter().sum();
    let tail = LEVELS.len() - 3..LEVELS.len();
    let mendel_low: f64 = mendel_curve[tail.clone()].iter().sum();
    let blast_low: f64 = blast_curve[tail].iter().sum();
    println!(
        "\narea under curve: Mendel {:.0} vs BLAST {:.0}; low-similarity tail (<=50%): Mendel {:.0} vs BLAST {:.0}",
        mendel_total, blast_total, mendel_low, blast_low
    );
    println!(
        "paper shape: both high at high similarity; Mendel decays slower -> {}",
        if mendel_low >= blast_low && mendel_curve[0] > 99.0 {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}
