//! The control plane's bytes at served size: one `mendel serve` process
//! of protein-long's shape (3 nodes, 1 group, a corpus of 60 families ×
//! 6 members × 800 residues) keeps a placement ledger of 4 bytes per
//! block key, 8 per sequence and a small holder-set table, whichever
//! node it hosts, at replication 1 and with holder sets of two. Too slow
//! for a debug build; `ci.sh` runs it in release.

#![allow(
    clippy::unwrap_used,
    reason = "test support code outside #[test] functions fails the calling test on a broken fixture"
)]

use mendel::{ClusterConfig, MendelCluster};
use mendel_dht::NodeId;
use mendel_seq::gen::NrLikeSpec;
use mendel_seq::SeqStore;
use std::sync::Arc;

fn corpus() -> Arc<SeqStore> {
    let db = NrLikeSpec {
        families: 60,
        members_per_family: 6,
        length_range: (800, 800),
        seed: 0xF007,
        ..Default::default()
    }
    .generate()
    .unwrap();
    Arc::new(db)
}

/// Block keys of `db`, one per step-one window.
fn blocks_of(db: &SeqStore) -> usize {
    let len = ClusterConfig::small_protein().block_len;
    db.iter().map(|s| (s.len() + 1).saturating_sub(len)).sum()
}

/// Each of the three members at `replication`, checked to keep its
/// ledger within 4 bytes a block key, 8 a sequence and 4 KiB: the copies
/// its ledger places and the blocks its RAM holds.
fn members(db: &Arc<SeqStore>, replication: usize) -> Vec<(usize, usize)> {
    let config = ClusterConfig {
        nodes: 3,
        groups: 1,
        replication,
        ..ClusterConfig::small_protein()
    };
    let blocks = blocks_of(db);
    let bound = 4 * blocks + 8 * db.len() + 4096;
    (0..3)
        .map(|member| {
            let c = MendelCluster::build_member(config.clone(), db.clone(), NodeId(member), None)
                .unwrap();
            let bytes = c.ledger_bytes();
            assert!(
                bytes <= bound,
                "node {member}: the ledger holds {bytes} bytes for {blocks} blocks (bound {bound})"
            );
            (c.placed_copies(), c.total_blocks())
        })
        .collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn served_size_ledger_costs_four_bytes_a_block() {
    let db = corpus();
    let blocks = blocks_of(&db);
    let members = members(&db, 1);
    assert!(members.iter().all(|&(copies, _)| copies == blocks));
    assert_eq!(members.iter().map(|&(_, held)| held).sum::<usize>(), blocks);
}

/// Replication 2: every key's holder set has two members, so the
/// members hold twice the corpus between them, and the ledger still
/// costs one slot a key.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn holder_sets_of_two_cost_the_same_four_bytes_a_block() {
    let db = corpus();
    let blocks = blocks_of(&db);
    let members = members(&db, 2);
    assert!(members.iter().all(|&(copies, _)| copies == 2 * blocks));
    assert_eq!(
        members.iter().map(|&(_, held)| held).sum::<usize>(),
        2 * blocks
    );
}
