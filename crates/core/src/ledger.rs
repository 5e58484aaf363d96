//! The placement ledger: who holds which block key, kept current where
//! placement changes and read in O(groups) (DESIGN.md §9).
//!
//! Per group it records `key → holder set` and, beside it, how many
//! distinct keys each holder set has. A key is *expected* while any
//! node — live, failed or dark — is recorded as holding it, and
//! *reachable* under a given set of live nodes when its holder set
//! contains one of them. Holder sets are interned: a group has a
//! handful of distinct ones (one per ring position, plus what
//! failures and repairs left behind), so coverage for **any** set of
//! unreachable nodes is one pass over that handful — nothing
//! proportional to the number of blocks is read or allocated.

use crate::block::BlockKey;
use mendel_dht::{GroupId, NodeId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Index of an interned holder set within its group.
type SetId = u32;

/// A group's interned holder sets (sorted node ids) and, for each, the
/// number of keys held by exactly that set. A set whose count fell to
/// zero stays interned and is reused when the same set forms again.
type HolderSets = Vec<(Vec<NodeId>, usize)>;

fn intern(sets: &mut HolderSets, set: Vec<NodeId>) -> SetId {
    let at = sets.iter().position(|(s, _)| *s == set);
    at.unwrap_or_else(|| {
        sets.push((set, 0));
        sets.len() - 1
    }) as SetId
}

#[derive(Default)]
struct GroupLedger {
    /// Every placed key → its holder set.
    keys: HashMap<BlockKey, SetId>,
    sets: HolderSets,
}

/// Block placement of every group; see the module docs.
pub(crate) struct Ledger {
    groups: Vec<GroupLedger>,
}

impl Ledger {
    pub(crate) fn new(groups: usize) -> Self {
        Ledger {
            groups: (0..groups).map(|_| GroupLedger::default()).collect(),
        }
    }

    /// Record that `node`, a member of `g`, now holds `keys`.
    pub(crate) fn place(
        &mut self,
        g: GroupId,
        node: NodeId,
        keys: impl IntoIterator<Item = BlockKey>,
    ) {
        let GroupLedger { keys: placed, sets } = &mut self.groups[g.0 as usize];
        let alone = intern(sets, vec![node]);
        // Holder set → the same set with `node` in it, worked out once
        // per distinct set rather than once per key.
        let mut joined: HashMap<SetId, SetId> = HashMap::new();
        for key in keys {
            match placed.entry(key) {
                Entry::Vacant(e) => {
                    e.insert(alone);
                    sets[alone as usize].1 += 1;
                }
                Entry::Occupied(mut e) => {
                    let old = *e.get();
                    let new = *joined.entry(old).or_insert_with(|| {
                        let mut set = sets[old as usize].0.clone();
                        if let Err(at) = set.binary_search(&node) {
                            set.insert(at, node);
                        }
                        intern(sets, set)
                    });
                    e.insert(new);
                    sets[old as usize].1 -= 1;
                    sets[new as usize].1 += 1;
                }
            }
        }
    }

    /// Record that `node`, a member of `g`, holds nothing any more. A
    /// key it alone held is no longer placed anywhere and leaves the
    /// ledger.
    pub(crate) fn clear(&mut self, g: GroupId, node: NodeId) {
        let GroupLedger { keys, sets } = &mut self.groups[g.0 as usize];
        // Holder set with `node` in it → where its keys go (`None`:
        // nowhere, `node` was the only holder).
        let mut moved: HashMap<SetId, Option<SetId>> = HashMap::new();
        for id in 0..sets.len() {
            if sets[id].1 == 0 || !sets[id].0.contains(&node) {
                continue;
            }
            let rest: Vec<NodeId> = sets[id].0.iter().copied().filter(|&n| n != node).collect();
            let count = std::mem::take(&mut sets[id].1);
            let to = (!rest.is_empty()).then(|| intern(sets, rest));
            if let Some(to) = to {
                sets[to as usize].1 += count;
            }
            moved.insert(id as SetId, to);
        }
        if moved.is_empty() {
            return;
        }
        keys.retain(|_, set| match moved.get(set) {
            None => true,
            Some(Some(to)) => {
                *set = *to;
                true
            }
            Some(None) => false,
        });
    }

    /// Distinct keys placed in `g`.
    pub(crate) fn expected(&self, g: GroupId) -> usize {
        self.groups[g.0 as usize].keys.len()
    }

    /// Distinct keys of `g` with a holder for which `live` holds.
    pub(crate) fn reachable(&self, g: GroupId, live: impl Fn(NodeId) -> bool) -> usize {
        self.groups[g.0 as usize]
            .sets
            .iter()
            .filter(|(set, _)| set.iter().any(|&n| live(n)))
            .map(|(_, count)| count)
            .sum()
    }

    /// The keys of `g` held by at least one but fewer than `want` of the
    /// `live` nodes, in key order, each with those holders in `live`
    /// order — the work list of a repair pass.
    pub(crate) fn under_replicated(
        &self,
        g: GroupId,
        live: &[NodeId],
        want: usize,
    ) -> Vec<(BlockKey, Vec<NodeId>)> {
        let group = &self.groups[g.0 as usize];
        let live_holders: Vec<Vec<NodeId>> = group
            .sets
            .iter()
            .map(|(set, _)| live.iter().copied().filter(|n| set.contains(n)).collect())
            .collect();
        let short = |holders: &[NodeId]| !holders.is_empty() && holders.len() < want;
        // A healthy group is told apart without looking at a key.
        let sets = group.sets.iter().zip(&live_holders);
        if !sets
            .into_iter()
            .any(|((_, count), h)| *count > 0 && short(h))
        {
            return Vec::new();
        }
        let mut out: Vec<(BlockKey, Vec<NodeId>)> = group
            .keys
            .iter()
            .map(|(key, &set)| (*key, &live_holders[set as usize]))
            .filter(|(_, holders)| short(holders))
            .map(|(key, holders)| (key, holders.clone()))
            .collect();
        out.sort_unstable_by_key(|(key, _)| *key);
        out
    }

    /// Accounting validation (part of `MendelCluster::check_ledger`): holder
    /// sets are sorted, duplicate-free and interned once, no key points
    /// at an empty set, and each set's count equals the number of keys
    /// that point at it.
    #[cfg(any(test, feature = "strict-invariants"))]
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        for (g, group) in self.groups.iter().enumerate() {
            let sets = &group.sets;
            let mut counted = vec![0usize; sets.len()];
            for (key, &set) in &group.keys {
                match counted.get_mut(set as usize) {
                    Some(n) => *n += 1,
                    None => return Err(format!("group {g}: {key:?} names unknown set {set}")),
                }
            }
            for (id, ((set, count), counted)) in sets.iter().zip(&counted).enumerate() {
                if count != counted {
                    return Err(format!(
                        "group {g}: set {set:?} counts {count} keys, {counted} point at it"
                    ));
                }
                if set.is_empty() || !set.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("group {g}: holder set {set:?} is malformed"));
                }
                if sets[..id].iter().any(|(s, _)| s == set) {
                    return Err(format!("group {g}: holder set {set:?} is interned twice"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mendel_seq::SeqId;

    fn key(start: u32) -> BlockKey {
        BlockKey {
            seq: SeqId(0),
            start,
        }
    }

    const G: GroupId = GroupId(0);

    #[test]
    fn coverage_follows_holder_sets_for_any_live_set() {
        let mut l = Ledger::new(1);
        l.place(G, NodeId(0), (0..10).map(key));
        l.place(G, NodeId(1), (5..15).map(key));
        l.place(G, NodeId(1), (5..15).map(key)); // re-placing changes nothing
        l.check_invariants().unwrap();
        assert_eq!(l.expected(G), 15);
        assert_eq!(l.reachable(G, |_| true), 15);
        assert_eq!(l.reachable(G, |n| n == NodeId(0)), 10);
        assert_eq!(l.reachable(G, |n| n == NodeId(1)), 10);
        assert_eq!(l.reachable(G, |_| false), 0);
    }

    #[test]
    fn clearing_a_node_forgets_only_what_it_alone_held() {
        let mut l = Ledger::new(1);
        l.place(G, NodeId(0), (0..10).map(key));
        l.place(G, NodeId(1), (5..15).map(key));
        l.clear(G, NodeId(0));
        l.check_invariants().unwrap();
        assert_eq!(l.expected(G), 10);
        assert_eq!(l.reachable(G, |n| n == NodeId(0)), 0);
        assert_eq!(l.reachable(G, |n| n == NodeId(1)), 10);
        l.clear(G, NodeId(7)); // a node that holds nothing
        assert_eq!(l.expected(G), 10);
    }

    #[test]
    fn under_replicated_lists_keys_short_of_live_copies_in_key_order() {
        let mut l = Ledger::new(1);
        l.place(G, NodeId(2), (0..4).map(key));
        l.place(G, NodeId(0), (2..6).map(key));
        l.place(G, NodeId(1), (6..8).map(key));
        // Node 1 is down: its keys have no live holder and are not repairable.
        let work = l.under_replicated(G, &[NodeId(0), NodeId(2)], 2);
        let keys: Vec<u32> = work.iter().map(|(k, _)| k.start).collect();
        assert_eq!(keys, vec![0, 1, 4, 5]);
        assert_eq!(work[0].1, vec![NodeId(2)]);
        assert_eq!(work[2].1, vec![NodeId(0)]);
    }
}
