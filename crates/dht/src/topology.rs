//! Cluster topology: node groups, zero-hop routing state, elastic
//! membership (§IV-C).
//!
//! "Each storage node within the system is placed in a group. The size
//! and quantity of groups are a user-configurable parameter." Every node
//! (and the client façade) holds the full topology — that is what makes
//! the DHT *zero-hop*: any request routes directly to its destination.

use mendel_net::NodeSpeed;

/// Identifier of a storage node within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a node group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GroupId(pub u16);

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Full cluster membership: which nodes exist, which group each belongs
/// to, and each node's hardware speed class.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    groups: Vec<Vec<NodeId>>,
    /// Per-node speed factor, indexed by `NodeId.0`.
    speeds: Vec<NodeSpeed>,
}

impl Topology {
    /// Build a topology of `nodes` storage nodes spread over `groups`
    /// groups (contiguous split, like the paper's 50 nodes in groups of
    /// five). Speeds follow the paper's heterogeneous 50/50 mix.
    ///
    /// # Panics
    /// Panics unless `1 ≤ groups ≤ nodes`.
    pub fn new(nodes: usize, groups: usize) -> Self {
        assert!(groups >= 1, "at least one group");
        assert!(
            groups <= nodes,
            "more groups ({groups}) than nodes ({nodes})"
        );
        assert!(nodes <= u16::MAX as usize, "node id space is u16");
        let mut g: Vec<Vec<NodeId>> = vec![Vec::new(); groups];
        for n in 0..nodes {
            g[n * groups / nodes].push(NodeId(n as u16));
        }
        let speeds = (0..nodes).map(NodeSpeed::paper_mix).collect();
        let topo = Topology { groups: g, speeds };
        #[cfg(feature = "strict-invariants")]
        topo.assert_invariants("new");
        topo
    }

    /// Number of nodes; ids run from 0 to one less than this.
    pub fn num_nodes(&self) -> usize {
        self.speeds.len()
    }

    /// Members of group `g`.
    pub fn group_members(&self, g: GroupId) -> &[NodeId] {
        &self.groups[g.0 as usize]
    }

    /// The group a node belongs to, or `None` for an unknown node.
    pub fn node_group(&self, node: NodeId) -> Option<GroupId> {
        self.groups
            .iter()
            .position(|members| members.contains(&node))
            .map(|g| GroupId(g as u16))
    }

    /// Speed factor of a node.
    pub fn node_speed(&self, node: NodeId) -> Option<NodeSpeed> {
        self.speeds.get(node.0 as usize).copied()
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.groups.iter().flatten().copied()
    }

    /// Iterate over all group ids.
    pub fn group_ids(&self) -> impl Iterator<Item = GroupId> {
        (0..self.groups.len() as u16).map(GroupId)
    }

    /// Elastic scale-out: add a node to the smallest group ("commodity
    /// hardware can be added incrementally", §I). Returns the new id and
    /// its group.
    pub fn join(&mut self, speed: NodeSpeed) -> (NodeId, GroupId) {
        assert!(
            self.speeds.len() < u16::MAX as usize,
            "node id space exhausted"
        );
        let id = NodeId(self.speeds.len() as u16);
        self.speeds.push(speed);
        // `new` guarantees at least one group.
        let g = (0..self.groups.len())
            .min_by_key(|&i| self.groups[i].len())
            .unwrap_or(0);
        self.groups[g].push(id);
        #[cfg(feature = "strict-invariants")]
        self.assert_invariants("join");
        (id, GroupId(g as u16))
    }

    /// Deep membership validation (the `strict-invariants` checker):
    ///
    /// - groups are **disjoint** and only list allocated ids;
    /// - every node sits in **exactly one** group;
    /// - **routing is total**: [`Self::node_group`] resolves every node
    ///   to the group that lists it.
    ///
    /// Returns the first violation found. Compiled unconditionally so
    /// any test can call it; the `strict-invariants` feature
    /// additionally asserts it after every join.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.groups.is_empty() {
            return Err("topology has no groups".into());
        }
        let mut membership = vec![0usize; self.speeds.len()];
        for (g, members) in self.groups.iter().enumerate() {
            for &n in members {
                let Some(count) = membership.get_mut(n.0 as usize) else {
                    return Err(format!("group g{g} lists unallocated node {n}"));
                };
                *count += 1;
                if *count > 1 {
                    return Err(format!("node {n} appears in more than one group slot"));
                }
            }
        }
        for (idx, &count) in membership.iter().enumerate() {
            let n = NodeId(idx as u16);
            if count == 0 {
                return Err(format!("node {n} belongs to no group"));
            }
            match self.node_group(n) {
                Some(g) if self.groups[g.0 as usize].contains(&n) => {}
                Some(g) => return Err(format!("node {n} routes to {g}, which does not list it")),
                None => return Err(format!("routing cannot resolve node {n}")),
            }
        }
        Ok(())
    }

    /// Abort with the violation when [`Self::check_invariants`] fails —
    /// called after `new` and `join` under `strict-invariants`.
    #[cfg(feature = "strict-invariants")]
    fn assert_invariants(&self, site: &str) {
        #[expect(
            clippy::panic,
            reason = "strict-invariants mode aborts on membership corruption by design"
        )]
        if let Err(e) = self.check_invariants() {
            panic!("topology invariant violated after {site}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_is_50_nodes_10_groups_of_5() {
        let t = Topology::new(50, 10);
        assert_eq!(t.num_nodes(), 50);
        assert_eq!(t.group_ids().count(), 10);
        for g in t.group_ids() {
            assert_eq!(t.group_members(g).len(), 5, "group {g}");
        }
    }

    #[test]
    fn contiguous_assignment() {
        let t = Topology::new(6, 2);
        assert_eq!(
            t.group_members(GroupId(0)),
            &[NodeId(0), NodeId(1), NodeId(2)]
        );
        assert_eq!(
            t.group_members(GroupId(1)),
            &[NodeId(3), NodeId(4), NodeId(5)]
        );
    }

    #[test]
    fn uneven_split_spreads_remainder() {
        let t = Topology::new(7, 3);
        let sizes: Vec<usize> = t.group_ids().map(|g| t.group_members(g).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 7);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3), "{sizes:?}");
    }

    #[test]
    fn node_group_lookup() {
        let t = Topology::new(10, 5);
        assert_eq!(t.node_group(NodeId(0)), Some(GroupId(0)));
        assert_eq!(t.node_group(NodeId(9)), Some(GroupId(4)));
        assert_eq!(t.node_group(NodeId(10)), None);
    }

    #[test]
    fn speeds_follow_paper_mix() {
        let t = Topology::new(50, 10);
        assert_eq!(t.node_speed(NodeId(0)), Some(NodeSpeed::HP_DL160));
        assert_eq!(t.node_speed(NodeId(1)), Some(NodeSpeed::SUNFIRE_X4100));
    }

    #[test]
    fn join_targets_smallest_group() {
        let mut t = Topology::new(7, 3); // sizes 3,2,2 (contiguous split: 0-2,3-4,5-6)
        let sizes: Vec<usize> = t.group_ids().map(|g| t.group_members(g).len()).collect();
        let smallest = sizes.iter().copied().min().unwrap();
        let (id, g) = t.join(NodeSpeed::HP_DL160);
        assert_eq!(id, NodeId(7));
        assert_eq!(t.group_members(g).len(), smallest + 1);
        assert_eq!(t.num_nodes(), 8);
    }

    #[test]
    #[should_panic(expected = "more groups")]
    fn more_groups_than_nodes_rejected() {
        Topology::new(2, 3);
    }

    #[test]
    fn invariants_hold_through_churn() {
        let mut t = Topology::new(7, 3);
        assert_eq!(t.check_invariants(), Ok(()));
        t.join(NodeSpeed::HP_DL160);
        assert_eq!(t.check_invariants(), Ok(()));
    }

    #[test]
    fn corrupted_membership_is_detected() {
        let mut t = Topology::new(6, 2);
        // A node listed in two groups.
        let n = t.groups[0][0];
        t.groups[1].push(n);
        assert!(t
            .check_invariants()
            .unwrap_err()
            .contains("more than one group"));

        // A node in no group.
        let mut t = Topology::new(6, 2);
        t.groups[0].retain(|&n| n != NodeId(0));
        assert!(t.check_invariants().unwrap_err().contains("no group"));
    }

    #[test]
    fn nodes_iterator_covers_everyone() {
        let t = Topology::new(12, 4);
        let mut ids: Vec<u16> = t.nodes().map(|n| n.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..12).collect::<Vec<u16>>());
    }
}
