//! Second-tier flat placement: block key → node within a group (§V-A2).
//!
//! "Mendel uses a tried-and-true flat hashing scheme, SHA-1, to disperse
//! the blocks within a group. The trade-off being queries must be
//! replicated to all nodes within a group ... Load balancing within
//! groups will be near optimal with a flat hashing system."
//!
//! Placement optionally yields `replication` distinct nodes (primary
//! first) — the fault-tolerance extension of §VII-B.

use crate::sha1::KeyHasher;
use crate::topology::{GroupId, NodeId, Topology};

/// SHA-1-based flat placement within groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatPlacement {
    /// Number of distinct nodes each block is stored on (≥ 1).
    pub replication: usize,
}

impl FlatPlacement {
    /// Placement with no redundancy (the paper's baseline).
    pub fn new() -> Self {
        FlatPlacement { replication: 1 }
    }

    /// Placement storing each block on `replication` distinct group
    /// members (clamped to the group size at assignment time).
    // audit:allow(unreached): tests/properties.rs and crates/dht/tests/properties.rs build replica sets with it
    pub fn with_replication(replication: usize) -> Self {
        assert!(replication >= 1, "replication factor must be at least 1");
        FlatPlacement { replication }
    }

    /// The primary node for `key` within group `g`.
    pub fn primary(&self, topo: &Topology, g: GroupId, key: &[u8]) -> Option<NodeId> {
        Self::ring(topo, g, key).next()
    }

    /// All replica nodes for `key` (primary first): the primary plus the
    /// next `replication − 1` members in ring order, so replica sets are
    /// distinct and deterministic.
    pub fn replicas(&self, topo: &Topology, g: GroupId, key: &[u8]) -> Vec<NodeId> {
        Self::ring(topo, g, key).take(self.replication).collect()
    }

    /// The placement ring of `key` in group `g`: every member once, from
    /// the primary (SHA-1 of `key` mod the group size) on in membership
    /// order, wrapping. Hashes at most once and walks the member list in
    /// place; empty for an empty group. A one-member group's ring is that
    /// member whatever the hash (`x mod 1 = 0`), so it hashes nothing.
    pub fn ring<'t>(
        topo: &'t Topology,
        g: GroupId,
        key: &[u8],
    ) -> impl Iterator<Item = NodeId> + 't {
        let start = Self::ring_start(KeyHasher::dispatched(), topo.group_members(g).len(), key);
        Self::ring_from(topo, g, start)
    }

    /// Where `key`'s ring starts in a group of `members`: SHA-1 of the
    /// key mod the group size, hashed on `hasher`'s kernel. A group of
    /// zero or one member starts at 0 without hashing.
    #[inline]
    pub fn ring_start(hasher: KeyHasher, members: usize, key: &[u8]) -> usize {
        match members as u64 {
            0 | 1 => 0,
            n => (hasher.head(key) % n) as usize,
        }
    }

    /// Group `g`'s ring from the member at `start` ([`Self::ring_start`])
    /// on, in membership order, wrapping.
    pub fn ring_from(
        topo: &Topology,
        g: GroupId,
        start: usize,
    ) -> impl Iterator<Item = NodeId> + '_ {
        let (before, from) = topo.group_members(g).split_at(start);
        from.iter().chain(before).copied()
    }
}

impl Default for FlatPlacement {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mendel_net::NodeSpeed;

    fn topo() -> Topology {
        Topology::new(10, 2)
    }

    #[test]
    fn primary_is_deterministic_and_in_group() {
        let t = topo();
        let p = FlatPlacement::new();
        for key in [b"block-a".as_slice(), b"block-b", b""] {
            let n1 = p.primary(&t, GroupId(1), key).unwrap();
            let n2 = p.primary(&t, GroupId(1), key).unwrap();
            assert_eq!(n1, n2);
            assert!(t.group_members(GroupId(1)).contains(&n1));
        }
    }

    #[test]
    fn placement_is_balanced_within_group() {
        // §V-A2: "Load balancing within groups will be near optimal".
        let t = Topology::new(5, 1);
        let p = FlatPlacement::new();
        let mut counts = vec![0usize; 5];
        for i in 0..50_000u32 {
            let n = p.primary(&t, GroupId(0), &i.to_le_bytes()).unwrap();
            counts[n.0 as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(
            (*max as f64) / (*min as f64) < 1.05,
            "flat hash should balance within 5%: {counts:?}"
        );
    }

    #[test]
    fn one_member_ring_is_that_member_for_every_key() {
        let t = Topology::new(3, 3); // three groups of one
        for g in t.group_ids() {
            let member = t.group_members(g)[0];
            for i in 0..10_000u32 {
                let ring: Vec<NodeId> = FlatPlacement::ring(&t, g, &i.to_le_bytes()).collect();
                assert_eq!(ring, vec![member], "group {g}, key {i}");
            }
        }
    }

    #[test]
    fn different_groups_may_differ() {
        let t = topo();
        let p = FlatPlacement::new();
        let a = p.primary(&t, GroupId(0), b"k").unwrap();
        let b = p.primary(&t, GroupId(1), b"k").unwrap();
        assert_ne!(t.node_group(a), t.node_group(b));
    }

    #[test]
    fn replicas_are_distinct_and_primary_first() {
        let t = Topology::new(6, 2);
        let p = FlatPlacement::with_replication(3);
        let reps = p.replicas(&t, GroupId(0), b"block-9");
        assert_eq!(reps.len(), 3);
        assert_eq!(reps[0], p.primary(&t, GroupId(0), b"block-9").unwrap());
        let mut dedup = reps.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 3, "replicas must be distinct: {reps:?}");
    }

    #[test]
    fn replication_clamps_to_group_size() {
        let t = Topology::new(4, 2); // groups of 2
        let p = FlatPlacement::with_replication(5);
        let reps = p.replicas(&t, GroupId(0), b"x");
        assert_eq!(reps.len(), 2);
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn zero_replication_rejected() {
        FlatPlacement::with_replication(0);
    }

    #[test]
    fn placement_tracks_membership_changes() {
        let mut t = Topology::new(3, 1);
        let p = FlatPlacement::new();
        // A join grows the group, so some keys remap to the joiner and
        // every key still lands on a member.
        let (joiner, g) = t.join(NodeSpeed::HP_DL160);
        assert_eq!(g, GroupId(0));
        let keys: Vec<[u8; 4]> = (0u32..64).map(u32::to_le_bytes).collect();
        let placed: Vec<NodeId> = keys.iter().map(|k| p.primary(&t, g, k).unwrap()).collect();
        assert!(placed.contains(&joiner));
        assert!(placed.iter().all(|n| t.group_members(g).contains(n)));
    }
}
