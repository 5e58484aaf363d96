//! Inverted-index blocks (§V-A1).
//!
//! "Segments of the sequence are created from the input data. The
//! sequences are iterated with a k-length sliding window producing L−k
//! segments per sequence. These segments, called inverted index blocks,
//! are the basic unit of computation and storage in the system." Each
//! block carries its provenance metadata — sequence id and start — from
//! which its previous/next neighbour references follow (the windows
//! overlap with step one).

use mendel_seq::{SeqId, Sequence, WindowView};
use std::sync::Arc;

/// The globally unique key of a block: (sequence, start offset). Its
/// byte form feeds the second-tier SHA-1 placement hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockKey {
    /// Owning sequence.
    pub seq: SeqId,
    /// Start offset of the window.
    pub start: u32,
}

impl BlockKey {
    /// Stable byte form for hashing.
    pub fn as_bytes(&self) -> [u8; 8] {
        let mut b = [0u8; 8];
        b[..4].copy_from_slice(&self.seq.0.to_le_bytes());
        b[4..].copy_from_slice(&self.start.to_le_bytes());
        b
    }
}

/// One inverted-index block: provenance plus a zero-copy window view.
///
/// The window is a [`WindowView`] over a shared backing buffer — all
/// L−k+1 overlapping blocks of one sequence reference a single buffer
/// instead of materializing k× its bytes (see DESIGN.md §10). The view
/// dereferences to `&[u8]`, so content access is unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Owning sequence.
    pub seq: SeqId,
    /// Start offset of this window within the sequence.
    pub start: u32,
    /// The window's residue codes (length = the cluster's block length).
    pub window: WindowView,
}

impl Block {
    /// This block's placement key.
    #[inline]
    pub fn key(&self) -> BlockKey {
        BlockKey {
            seq: self.seq,
            start: self.start,
        }
    }

    /// Key of the previous overlapping block, if any (§V-A1: blocks keep
    /// "references to the previous/next blocks").
    pub fn prev_key(&self) -> Option<BlockKey> {
        (self.start > 0).then(|| BlockKey {
            seq: self.seq,
            start: self.start - 1,
        })
    }

    /// Key of the next overlapping block given the owning sequence's
    /// length, if any.
    pub fn next_key(&self, seq_len: usize) -> Option<BlockKey> {
        (self.start as usize + self.window.len() < seq_len).then(|| BlockKey {
            seq: self.seq,
            start: self.start + 1,
        })
    }
}

/// Phase 1 of indexing: fragment `seq` into its inverted-index blocks
/// with a step-one sliding window of length `block_len`. A sequence
/// shorter than the window yields no blocks.
///
/// The sequence's residues are copied into **one** shared backing buffer;
/// every block's window is a view into it, so fragmentation costs O(L)
/// bytes instead of O(L·k).
pub fn make_blocks(seq: &Sequence, block_len: usize) -> Vec<Block> {
    assert!(block_len >= 1, "block length must be positive");
    if seq.len() < block_len {
        return Vec::new();
    }
    let backing: Arc<[u8]> = Arc::from(seq.residues.as_slice());
    let blocks: Vec<Block> = (0..=seq.len() - block_len)
        .map(|start| Block {
            seq: seq.id,
            start: start as u32,
            window: WindowView::new(backing.clone(), start, block_len),
        })
        .collect();
    #[cfg(feature = "strict-invariants")]
    #[expect(
        clippy::panic,
        reason = "strict-invariants mode aborts on a corrupt fragmentation by design"
    )]
    if let Err(e) = check_block_chain(&blocks, seq.len()) {
        panic!(
            "block chain invariant violated fragmenting {:?}: {e}",
            seq.id
        );
    }
    blocks
}

/// Chain-linkage validation (the `strict-invariants` checker) for the
/// blocks of one sequence of length `seq_len`, in fragmentation order:
///
/// - **sliding-window coverage** — exactly `L − k + 1` windows of
///   uniform length `k`, with contiguous step-one starts;
/// - **overlap** — consecutive windows share `k − 1` residues;
/// - **linkage** — every block's `prev`/`next` reference resolves to
///   the adjacent block's key, and only the chain ends lack one.
///
/// An empty slice is valid (a sequence shorter than the window yields
/// no blocks). Returns the first violation found.
pub fn check_block_chain(blocks: &[Block], seq_len: usize) -> Result<(), String> {
    let Some(first) = blocks.first() else {
        return Ok(());
    };
    let k = first.window.len();
    if k == 0 {
        return Err("blocks have zero-length windows".into());
    }
    if seq_len < k {
        return Err(format!(
            "sequence of length {seq_len} cannot carry {k}-windows"
        ));
    }
    if blocks.len() != seq_len - k + 1 {
        return Err(format!(
            "expected L−k+1 = {} blocks for L = {seq_len}, k = {k}; got {}",
            seq_len - k + 1,
            blocks.len()
        ));
    }
    for (i, b) in blocks.iter().enumerate() {
        if b.seq != first.seq {
            return Err(format!(
                "block {i} belongs to {:?}, chain to {:?}",
                b.seq, first.seq
            ));
        }
        if b.start as usize != i {
            return Err(format!(
                "block {i} starts at {}, expected step-one starts",
                b.start
            ));
        }
        if b.window.len() != k {
            return Err(format!("block {i} window length {} ≠ {k}", b.window.len()));
        }
        if i > 0 && b.window[..k - 1] != blocks[i - 1].window[1..] {
            return Err(format!(
                "blocks {} and {i} do not overlap by k−1 residues",
                i - 1
            ));
        }
        match b.prev_key() {
            Some(p) if i == 0 => return Err(format!("first block has prev reference {p:?}")),
            Some(p) if p != blocks[i - 1].key() => {
                return Err(format!("block {i} prev reference {p:?} does not resolve"))
            }
            None if i > 0 => return Err(format!("block {i} lacks its prev reference")),
            _ => {}
        }
        match b.next_key(seq_len) {
            Some(n) if i + 1 == blocks.len() => {
                return Err(format!("last block has next reference {n:?}"))
            }
            Some(n) if n != blocks[i + 1].key() => {
                return Err(format!("block {i} next reference {n:?} does not resolve"))
            }
            None if i + 1 < blocks.len() => {
                return Err(format!("block {i} lacks its next reference"))
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mendel_seq::Alphabet;

    fn seq(ascii: &[u8]) -> Sequence {
        let mut s = Sequence::from_ascii("t", Alphabet::Dna, ascii).unwrap();
        s.id = SeqId(7);
        s
    }

    #[test]
    fn block_count_is_l_minus_k_plus_one() {
        // (The paper says "L − k segments"; a step-one window over L
        // residues yields L − k + 1 — we take the inclusive count.)
        let blocks = make_blocks(&seq(b"ACGTACGT"), 5);
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks[0].window.len(), 5);
        assert_eq!(blocks[0].start, 0);
        assert_eq!(blocks[3].start, 3);
    }

    #[test]
    fn blocks_reassemble_the_sequence() {
        let s = seq(b"ACGTACGTAC");
        let blocks = make_blocks(&s, 4);
        // First block plus every block's last residue reconstructs s.
        let mut rebuilt = blocks[0].window.to_vec();
        for b in &blocks[1..] {
            rebuilt.push(*b.window.last().unwrap());
        }
        assert_eq!(rebuilt, s.residues);
    }

    #[test]
    fn short_sequence_yields_nothing() {
        assert!(make_blocks(&seq(b"ACG"), 5).is_empty());
        assert_eq!(make_blocks(&seq(b"ACGTA"), 5).len(), 1);
    }

    #[test]
    fn neighbor_keys() {
        let s = seq(b"ACGTACGT"); // len 8
        let blocks = make_blocks(&s, 5); // starts 0..=3
        assert_eq!(blocks[0].prev_key(), None);
        assert_eq!(
            blocks[1].prev_key(),
            Some(BlockKey {
                seq: SeqId(7),
                start: 0
            })
        );
        assert_eq!(blocks[3].next_key(8), None);
        assert_eq!(
            blocks[2].next_key(8),
            Some(BlockKey {
                seq: SeqId(7),
                start: 3
            })
        );
    }

    #[test]
    fn key_bytes_are_unique_per_block() {
        let s = seq(b"ACGTACGT");
        let blocks = make_blocks(&s, 4);
        let mut keys: Vec<[u8; 8]> = blocks.iter().map(|b| b.key().as_bytes()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), blocks.len());
    }

    #[test]
    fn anchored_and_standalone_blocks_compare_equal() {
        let s = seq(b"ACGTACGT");
        let blocks = make_blocks(&s, 4);
        let standalone = Block {
            window: WindowView::standalone(blocks[2].window.to_vec()),
            ..blocks[2].clone()
        };
        assert_eq!(standalone, blocks[2], "a copied window loses nothing");
        assert_eq!(standalone.window.offset(), 0);
        assert_eq!(
            blocks[2].window.offset(),
            2,
            "fragmented views are anchored"
        );
    }

    #[test]
    #[should_panic(expected = "block length")]
    fn zero_block_len_rejected() {
        make_blocks(&seq(b"ACGT"), 0);
    }

    #[test]
    fn chain_checker_accepts_fragmentations() {
        let s = seq(b"ACGTACGTACGTAC");
        for k in [1usize, 4, 14] {
            assert_eq!(
                check_block_chain(&make_blocks(&s, k), s.len()),
                Ok(()),
                "k = {k}"
            );
        }
        assert_eq!(
            check_block_chain(&[], 3),
            Ok(()),
            "short sequence yields no blocks"
        );
    }

    #[test]
    fn chain_checker_rejects_corruption() {
        let s = seq(b"ACGTACGTAC");
        // A missing interior block breaks step-one starts.
        let mut blocks = make_blocks(&s, 4);
        blocks.remove(2);
        assert!(check_block_chain(&blocks, s.len()).is_err());
        // A mutated window breaks the k−1 overlap.
        let mut blocks = make_blocks(&s, 4);
        let mut corrupt = blocks[3].window.to_vec();
        corrupt[0] ^= 1;
        blocks[3].window = WindowView::standalone(corrupt);
        assert!(check_block_chain(&blocks, s.len())
            .unwrap_err()
            .contains("overlap"));
        // A foreign block breaks chain ownership.
        let mut blocks = make_blocks(&s, 4);
        blocks[1].seq = SeqId(99);
        assert!(check_block_chain(&blocks, s.len()).is_err());
        // A wrong length claim breaks the L−k+1 count.
        let blocks = make_blocks(&s, 4);
        assert!(check_block_chain(&blocks, s.len() + 1).is_err());
    }
}
