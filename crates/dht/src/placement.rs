//! Second-tier flat placement: block key → node within a group (§V-A2).
//!
//! "Mendel uses a tried-and-true flat hashing scheme, SHA-1, to disperse
//! the blocks within a group. The trade-off being queries must be
//! replicated to all nodes within a group ... Load balancing within
//! groups will be near optimal with a flat hashing system."
//!
//! Placement optionally yields `replication` distinct nodes (primary
//! first) — the fault-tolerance extension of §VII-B.

use crate::sha1::sha1_u64;
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
    pub fn with_replication(replication: usize) -> Self {
        assert!(replication >= 1, "replication factor must be at least 1");
        FlatPlacement { replication }
    }

    /// The primary node for `key` within group `g`.
    pub fn primary(&self, topo: &Topology, g: GroupId, key: &[u8]) -> Option<NodeId> {
        let members = topo.group_members(g);
        if members.is_empty() {
            return None;
        }
        let h = sha1_u64(key);
        Some(members[(h % members.len() as u64) as usize])
    }

    /// All replica nodes for `key` (primary first): the primary plus the
    /// next `replication − 1` members in ring order, so replica sets are
    /// distinct and deterministic.
    pub fn replicas(&self, topo: &Topology, g: GroupId, key: &[u8]) -> Vec<NodeId> {
        let members = topo.group_members(g);
        if members.is_empty() {
            return Vec::new();
        }
        let h = sha1_u64(key);
        let start = (h % members.len() as u64) as usize;
        let n = self.replication.min(members.len());
        (0..n)
            .map(|i| members[(start + i) % members.len()])
            .collect()
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
    fn empty_group_yields_no_placement() {
        let mut t = Topology::new(2, 2);
        t.leave(NodeId(0));
        let p = FlatPlacement::new();
        assert!(p.primary(&t, GroupId(0), b"x").is_none());
        assert!(p.replicas(&t, GroupId(0), b"x").is_empty());
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
        // Find a key placed on node 1, then remove node 1: the key must
        // remap to a surviving member.
        let key = (0u32..)
            .map(|i| i.to_le_bytes())
            .find(|k| p.primary(&t, GroupId(0), k) == Some(NodeId(1)))
            .unwrap();
        t.leave(NodeId(1));
        let new = p.primary(&t, GroupId(0), &key).unwrap();
        assert_ne!(new, NodeId(1));
    }
}
