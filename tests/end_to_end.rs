//! Workspace integration: the full index → query pipeline through the
//! public API, spanning mendel-seq, mendel-vptree, mendel-dht and the
//! mendel core.

#![allow(
    clippy::expect_used,
    reason = "test support code outside #[test] functions fails the calling test on a broken fixture"
)]

use mendel_suite::core::{ClusterConfig, MendelCluster, QueryParams};
use mendel_suite::dht::NodeId;
use mendel_suite::seq::gen::{NrLikeSpec, QuerySetSpec};
use mendel_suite::seq::{SeqId, SeqStore};
use std::sync::Arc;

fn family_db(seed: u64) -> Arc<SeqStore> {
    Arc::new(
        NrLikeSpec {
            families: 20,
            members_per_family: 3,
            length_range: (150, 350),
            seed,
            ..Default::default()
        }
        .generate()
        .expect("valid spec"),
    )
}

#[test]
fn every_database_sequence_finds_itself() {
    let db = family_db(1);
    let cluster = MendelCluster::build(ClusterConfig::small_protein(), db.clone()).unwrap();
    let params = QueryParams::protein();
    for id in (0..db.len() as u32).step_by(7) {
        let q = db.get(SeqId(id)).unwrap();
        let report = cluster.query(&q.residues, &params).unwrap();
        assert_eq!(
            report.best().map(|h| h.subject),
            Some(SeqId(id)),
            "sequence {} must be its own best hit",
            q.name
        );
    }
}

#[test]
fn mutated_fragments_locate_their_sources() {
    let db = family_db(2);
    let cluster = MendelCluster::build(ClusterConfig::small_protein(), db.clone()).unwrap();
    let queries = QuerySetSpec {
        count: 12,
        length: 120,
        identity: 0.8,
        seed: 3,
    }
    .generate(&db)
    .unwrap();
    let params = QueryParams::protein();
    let mut found = 0;
    for q in &queries {
        let report = cluster.query(&q.query.residues, &params).unwrap();
        if report.hits.iter().any(|h| h.subject == q.source) {
            found += 1;
        }
    }
    assert_eq!(
        found,
        queries.len(),
        "80%-identity fragments must all be found"
    );
}

#[test]
fn family_structure_is_reflected_in_rankings() {
    let db = family_db(4);
    let cluster = MendelCluster::build(ClusterConfig::small_protein(), db.clone()).unwrap();
    let q = db.iter().find(|s| s.name == "fam7_m0").unwrap();
    let report = cluster.query(&q.residues, &QueryParams::protein()).unwrap();
    assert!(
        report.hits.len() >= 3,
        "ancestor should find its descendants"
    );
    for hit in report.hits.iter().take(3) {
        assert!(
            db.get(hit.subject).unwrap().name.starts_with("fam7_"),
            "top hits must be family members, got {}",
            db.get(hit.subject).unwrap().name
        );
    }
}

#[test]
fn entry_point_symmetry_holds_cluster_wide() {
    let db = family_db(5);
    let cluster = MendelCluster::build(ClusterConfig::small_protein(), db.clone()).unwrap();
    let q = db.get(SeqId(11)).unwrap().residues.clone();
    let params = QueryParams::protein();
    let reference = cluster.query_from(NodeId(0), &q, &params).unwrap().hits;
    for node in 1..cluster.config().nodes as u16 {
        let hits = cluster.query_from(NodeId(node), &q, &params).unwrap().hits;
        assert_eq!(
            hits, reference,
            "entry node {node} must produce identical results"
        );
    }
}

#[test]
fn dna_and_protein_clusters_coexist() {
    use mendel_suite::seq::gen::random_sequence;
    use mendel_suite::seq::{Alphabet, Sequence};
    use rand::SeedableRng;

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let mut dna_store = SeqStore::new();
    for i in 0..6 {
        dna_store.insert(Sequence::from_codes(
            format!("g{i}"),
            Alphabet::Dna,
            random_sequence(Alphabet::Dna, 500, &mut rng),
        ));
    }
    let dna_db = Arc::new(dna_store);
    let dna_cluster = MendelCluster::build(ClusterConfig::small_dna(), dna_db.clone()).unwrap();

    let prot_db = family_db(8);
    let prot_cluster =
        MendelCluster::build(ClusterConfig::small_protein(), prot_db.clone()).unwrap();

    let dq = dna_db.get(SeqId(2)).unwrap().residues[100..300].to_vec();
    let pr = prot_db.get(SeqId(3)).unwrap().residues.clone();
    assert_eq!(
        dna_cluster
            .query(&dq, &QueryParams::dna())
            .unwrap()
            .best()
            .unwrap()
            .subject,
        SeqId(2)
    );
    assert_eq!(
        prot_cluster
            .query(&pr, &QueryParams::protein())
            .unwrap()
            .best()
            .unwrap()
            .subject,
        SeqId(3)
    );
}

#[test]
fn wire_mode_agrees_through_the_suite_facade() {
    use mendel_suite::core::WireCluster;
    let db = family_db(11);
    let cluster =
        Arc::new(MendelCluster::build(ClusterConfig::small_protein(), db.clone()).unwrap());
    let wire = WireCluster::serve(cluster.clone());
    let params = QueryParams::protein();
    for id in [0u32, 17, 40] {
        let q = db.get(SeqId(id)).unwrap().residues.clone();
        assert_eq!(
            wire.query(&q, &params).unwrap(),
            cluster.query(&q, &params).unwrap().hits,
            "seq {id}"
        );
    }
    assert!(wire.bytes_sent() > 0);
}

#[test]
fn stats_and_timings_are_consistent() {
    let db = family_db(9);
    let cluster = MendelCluster::build(ClusterConfig::small_protein(), db.clone()).unwrap();
    let q = db.get(SeqId(0)).unwrap().residues.clone();
    let r = cluster.query(&q, &QueryParams::protein()).unwrap();
    assert_eq!(
        r.turnaround(),
        r.timings.decompose
            + r.timings.scatter
            + r.timings.group_phase
            + r.timings.gather
            + r.timings.finalize
    );
    assert!(r.stats.groups_contacted <= cluster.config().groups);
    assert!(r.stats.nodes_contacted <= cluster.config().nodes);
    assert!(
        r.stats.candidates >= r.stats.anchors,
        "filters can only reduce"
    );
}
