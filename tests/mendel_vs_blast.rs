//! Cross-engine agreement: Mendel and the BLAST baseline must agree on
//! unambiguous searches (the paper's §VI compares the two throughout).

#![allow(
    clippy::unwrap_used,
    reason = "test support code outside #[test] functions fails the calling test on a broken fixture"
)]

use mendel_suite::blast::{Blast, BlastParams};
use mendel_suite::core::{ClusterConfig, MendelCluster, QueryParams};
use mendel_suite::seq::gen::{NrLikeSpec, QuerySetSpec};
use mendel_suite::seq::{SeqId, SeqStore};
use std::sync::Arc;

fn db() -> Arc<SeqStore> {
    Arc::new(
        NrLikeSpec {
            families: 24,
            members_per_family: 3,
            length_range: (200, 450),
            seed: 0xAB,
            ..Default::default()
        }
        .generate()
        .unwrap(),
    )
}

#[test]
fn both_engines_agree_on_self_hits() {
    let db = db();
    let cluster = MendelCluster::build(ClusterConfig::small_protein(), db.clone()).unwrap();
    let blast = Blast::new(db.clone(), BlastParams::protein());
    let params = QueryParams::protein();
    for id in (0..db.len() as u32).step_by(11) {
        let q = db.get(SeqId(id)).unwrap().residues.clone();
        let m = cluster.query(&q, &params).unwrap();
        let b = blast.search(&q);
        assert_eq!(m.best().unwrap().subject, SeqId(id), "Mendel self-hit {id}");
        assert_eq!(b[0].subject, SeqId(id), "BLAST self-hit {id}");
    }
}

#[test]
fn high_identity_recall_matches() {
    let db = db();
    let cluster = MendelCluster::build(ClusterConfig::small_protein(), db.clone()).unwrap();
    let blast = Blast::new(db.clone(), BlastParams::protein());
    let params = QueryParams::protein();
    let queries = QuerySetSpec {
        count: 10,
        length: 150,
        identity: 0.85,
        seed: 5,
    }
    .generate(&db)
    .unwrap();
    for q in &queries {
        let m_found = cluster
            .query(&q.query.residues, &params)
            .unwrap()
            .hits
            .iter()
            .any(|h| h.subject == q.source);
        let b_found = blast
            .search(&q.query.residues)
            .iter()
            .any(|h| h.subject == q.source);
        assert!(m_found, "Mendel misses an 85%-identity source");
        assert!(b_found, "BLAST misses an 85%-identity source");
    }
}

#[test]
fn scores_of_identical_alignments_are_comparable() {
    // Same matrix, same gap penalties: a full-length self-alignment must
    // score identically in both engines.
    let db = db();
    let cluster = MendelCluster::build(ClusterConfig::small_protein(), db.clone()).unwrap();
    let blast = Blast::new(db.clone(), BlastParams::protein());
    let q = db.get(SeqId(6)).unwrap().residues.clone();
    let m = cluster.query(&q, &QueryParams::protein()).unwrap();
    let b = blast.search(&q);
    let m_best = m.best().unwrap();
    let b_best = &b[0];
    assert_eq!(m_best.subject, b_best.subject);
    assert_eq!(
        m_best.score, b_best.score,
        "identical self-alignments must score identically (Mendel {} vs BLAST {})",
        m_best.score, b_best.score
    );
}

#[test]
fn neither_engine_hallucinates_on_random_queries() {
    use mendel_suite::seq::gen::random_sequence;
    use mendel_suite::seq::Alphabet;
    use rand::SeedableRng;
    let db = db();
    let mut strict_b = BlastParams::protein();
    strict_b.evalue_cutoff = 1e-4;
    let blast = Blast::new(db.clone(), strict_b);
    let cluster = MendelCluster::build(ClusterConfig::small_protein(), db.clone()).unwrap();
    let mut strict_m = QueryParams::protein();
    strict_m.e = 1e-4;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
    for _ in 0..5 {
        let q = random_sequence(Alphabet::Protein, 250, &mut rng);
        assert!(
            cluster.query(&q, &strict_m).unwrap().hits.is_empty(),
            "Mendel false positive"
        );
        assert!(blast.search(&q).is_empty(), "BLAST false positive");
    }
}
