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
    /// Per-node speed factor, indexed by `NodeId.0`; `None` marks a node
    /// that left the cluster (ids are never reused).
    speeds: Vec<Option<NodeSpeed>>,
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
        let speeds = (0..nodes).map(|n| Some(NodeSpeed::paper_mix(n))).collect();
        let topo = Topology { groups: g, speeds };
        #[cfg(feature = "strict-invariants")]
        topo.assert_invariants("new");
        topo
    }

    /// Number of live nodes.
    pub fn num_nodes(&self) -> usize {
        self.speeds.iter().filter(|s| s.is_some()).count()
    }

    /// Number of node ids ever allocated (live + departed).
    pub fn id_space(&self) -> usize {
        self.speeds.len()
    }

    /// Live members of group `g`.
    pub fn group_members(&self, g: GroupId) -> &[NodeId] {
        &self.groups[g.0 as usize]
    }

    /// The group a node belongs to, or `None` for departed/unknown nodes.
    pub fn node_group(&self, node: NodeId) -> Option<GroupId> {
        self.groups
            .iter()
            .position(|members| members.contains(&node))
            .map(|g| GroupId(g as u16))
    }

    /// Speed factor of a live node.
    pub fn node_speed(&self, node: NodeId) -> Option<NodeSpeed> {
        self.speeds.get(node.0 as usize).copied().flatten()
    }

    /// Iterate over all live node ids.
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
        self.speeds.push(Some(speed));
        let g = match self
            .groups
            .iter()
            .enumerate()
            .min_by_key(|(_, members)| members.len())
            .map(|(i, _)| i)
        {
            Some(smallest) => smallest,
            // `new` guarantees at least one group, but an elastic join
            // on a groupless topology can simply open the first group
            // instead of failing.
            None => {
                self.groups.push(Vec::new());
                0
            }
        };
        self.groups[g].push(id);
        #[cfg(feature = "strict-invariants")]
        self.assert_invariants("join");
        (id, GroupId(g as u16))
    }

    /// Remove a node (failure or decommission). Returns its former group,
    /// or `None` if it was not a live member.
    // audit:allow(unreached): the departure placement.rs's membership tests and crates/dht/tests/properties.rs's churn invariants drive; the cluster fails nodes instead of removing them
    pub fn leave(&mut self, node: NodeId) -> Option<GroupId> {
        let g = self.node_group(node)?;
        self.groups[g.0 as usize].retain(|&n| n != node);
        self.speeds[node.0 as usize] = None;
        #[cfg(feature = "strict-invariants")]
        self.assert_invariants("leave");
        Some(g)
    }

    /// Deep membership validation (the `strict-invariants` checker):
    ///
    /// - groups are **disjoint** and only list live, allocated ids;
    /// - every live node sits in **exactly one** group and carries a
    ///   speed (ids of departed nodes are retired, never reused);
    /// - **routing is total**: [`Self::node_group`] resolves every live
    ///   node to the group that lists it.
    ///
    /// Returns the first violation found. Compiled unconditionally so
    /// any test can call it; the `strict-invariants` feature
    /// additionally asserts it after every join/leave.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.groups.is_empty() {
            return Err("topology has no groups".into());
        }
        let mut membership = vec![0usize; self.speeds.len()];
        for (g, members) in self.groups.iter().enumerate() {
            for &n in members {
                let idx = n.0 as usize;
                match self.speeds.get(idx) {
                    None => return Err(format!("group g{g} lists unallocated node {n}")),
                    Some(None) => return Err(format!("group g{g} lists departed node {n}")),
                    Some(Some(_)) => {}
                }
                membership[idx] += 1;
                if membership[idx] > 1 {
                    return Err(format!("node {n} appears in more than one group slot"));
                }
            }
        }
        for (idx, speed) in self.speeds.iter().enumerate() {
            let n = NodeId(idx as u16);
            if speed.is_some() {
                if membership[idx] == 0 {
                    return Err(format!("live node {n} belongs to no group"));
                }
                match self.node_group(n) {
                    Some(g) if self.groups[g.0 as usize].contains(&n) => {}
                    Some(g) => {
                        return Err(format!("node {n} routes to {g}, which does not list it"))
                    }
                    None => return Err(format!("routing cannot resolve live node {n}")),
                }
            }
        }
        Ok(())
    }

    /// Abort with the violation when [`Self::check_invariants`] fails —
    /// called after churn operations under `strict-invariants`.
    #[cfg(feature = "strict-invariants")]
    fn assert_invariants(&self, site: &str) {
        if let Err(e) = self.check_invariants() {
            // audit:allow(panic): strict-invariants mode aborts on membership corruption by design.
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
    fn leave_removes_membership_but_not_id() {
        let mut t = Topology::new(4, 2);
        assert_eq!(t.leave(NodeId(1)), Some(GroupId(0)));
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.node_group(NodeId(1)), None);
        assert_eq!(t.node_speed(NodeId(1)), None);
        assert_eq!(t.leave(NodeId(1)), None, "double-leave is a no-op");
        // Ids are never reused.
        let (id, _) = t.join(NodeSpeed::HP_DL160);
        assert_eq!(id, NodeId(4));
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
        t.leave(NodeId(2));
        t.leave(NodeId(5));
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

        // A departed node still listed.
        let mut t = Topology::new(6, 2);
        t.speeds[3] = None;
        assert!(t.check_invariants().unwrap_err().contains("departed"));

        // A live node in no group.
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
