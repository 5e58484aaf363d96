//! The control plane's bytes at served size: one `mendel serve` process
//! of protein-long's shape (3 nodes, 1 group, replication 1, a corpus of
//! 60 families × 6 members × 800 residues) keeps a placement ledger of
//! 4 bytes per block key, 8 per sequence and a small holder-set table,
//! whichever node it hosts. Too slow for a debug build; `ci.sh` runs it
//! in release.

use mendel::{ClusterConfig, MendelCluster};
use mendel_dht::NodeId;
use mendel_seq::gen::NrLikeSpec;
use std::sync::Arc;

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn served_size_ledger_costs_four_bytes_a_block() {
    let db = NrLikeSpec {
        families: 60,
        members_per_family: 6,
        length_range: (800, 800),
        seed: 0xF007,
        ..Default::default()
    }
    .generate()
    .unwrap();
    let config = ClusterConfig {
        nodes: 3,
        groups: 1,
        replication: 1,
        ..ClusterConfig::small_protein()
    };
    let len = config.block_len;
    let blocks: usize = db.iter().map(|s| (s.len() + 1).saturating_sub(len)).sum();
    let sequences = db.len();
    let db = Arc::new(db);
    for member in 0..3 {
        let c =
            MendelCluster::build_member(config.clone(), db.clone(), NodeId(member), None).unwrap();
        assert_eq!(c.placed_copies(), blocks, "node {member}");
        let bytes = c.ledger_bytes();
        let bound = 4 * blocks + 8 * sequences + 4096;
        assert!(
            bytes <= bound,
            "node {member}: the ledger holds {bytes} bytes for {blocks} blocks (bound {bound})"
        );
    }
}
