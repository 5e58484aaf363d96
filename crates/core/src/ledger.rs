//! The placement ledger: who holds which block key, kept current where
//! placement changes and read in O(holder sets) (DESIGN.md §9).
//!
//! §V-A cuts every sequence into L − k + 1 step-one windows, so the block
//! keys `(seq, start)` of the reference store form a dense, append-only
//! key space. The ledger keeps one 4-byte slot per key of that space,
//! slot `base[seq] + start`, where `base` is the prefix sum of each
//! sequence's window count in id order. A slot holds [`NONE`] (placed
//! nowhere) or the id of an interned *holder set*: a group, the sorted
//! members that hold the key, and how many keys that set holds. A
//! cluster has a handful of distinct sets (one per ring position, plus
//! what failures and repairs left behind), so coverage for **any** set
//! of unreachable nodes is one pass over that handful: a key is
//! *expected* while any node — live, failed or dark — is recorded as
//! holding it, and *reachable* under a given set of live nodes when its
//! holder set contains one of them. Writes are array stores; the lists
//! that name keys (repair's work list, the strict-invariants check) walk
//! the slots, and so come out in key order.
//!
//! The ledger refuses a key before it writes any slot when the key's
//! sequence is absent from the store, its window runs past its
//! sequence's end, or its slot already names another group (a block's
//! group is its window's group, and no operation moves a key between
//! groups). Nothing is ever allocated by a key's value.

use crate::block::BlockKey;
use crate::error::MendelError;
use mendel_dht::{GroupId, NodeId};
use mendel_seq::{SeqId, SeqStore};

/// Index of an interned holder set.
type SetId = u32;

/// The slot of a key placed nowhere.
const NONE: SetId = SetId::MAX;

/// One interned holder set: `members` (sorted, of `group`) hold exactly
/// `keys` keys. A set whose count fell to zero stays interned and is
/// reused when the same set forms again.
struct HolderSet {
    group: GroupId,
    members: Vec<NodeId>,
    keys: usize,
}

fn intern(sets: &mut Vec<HolderSet>, group: GroupId, members: Vec<NodeId>) -> SetId {
    let at = sets
        .iter()
        .position(|s| s.group == group && s.members == members);
    at.unwrap_or_else(|| {
        sets.push(HolderSet {
            group,
            members,
            keys: 0,
        });
        sets.len() - 1
    }) as SetId
}

/// Block placement of every group; see the module docs.
pub(crate) struct Ledger {
    block_len: usize,
    /// `base[s]` is the slot of sequence `s`'s first window;
    /// `base[s + 1] - base[s]` its window count, so the last entry is
    /// `slots.len()`.
    base: Vec<usize>,
    /// One per block key of the store, in key order.
    slots: Vec<SetId>,
    sets: Vec<HolderSet>,
}

impl Ledger {
    /// An empty ledger over `db`'s block key space: every slot `NONE`.
    pub(crate) fn new(db: &SeqStore, block_len: usize) -> Self {
        let mut ledger = Ledger {
            block_len,
            base: Vec::with_capacity(db.len() + 1),
            slots: Vec::new(),
            sets: Vec::new(),
        };
        ledger.base.push(0);
        ledger.extend_to(db);
        ledger
    }

    /// Grow the key space over the sequences `db` appended since the
    /// ledger last saw it (store ids are dense and append-only); their
    /// slots start `NONE`. A store the ledger has seen all of changes
    /// nothing.
    pub(crate) fn extend_to(&mut self, db: &SeqStore) {
        let seen = self.base.len() - 1;
        let mut end = self.slots.len();
        for s in db.iter().skip(seen) {
            end += s.len().saturating_sub(self.block_len - 1);
            self.base.push(end);
        }
        self.slots.resize(end, NONE);
    }

    /// The slot of `key`, if its sequence is in the key space and its
    /// window inside that sequence.
    fn slot_of(&self, key: BlockKey) -> Option<usize> {
        let s = key.seq.index();
        let (lo, hi) = (*self.base.get(s)?, *self.base.get(s + 1)?);
        let at = lo + key.start as usize;
        (at < hi).then_some(at)
    }

    /// Whether [`Self::place`] in `g` would take every one of `keys`;
    /// the first refusal otherwise.
    pub(crate) fn check(
        &self,
        g: GroupId,
        keys: impl IntoIterator<Item = BlockKey>,
    ) -> Result<(), MendelError> {
        for key in keys {
            let refuse = |why: String| {
                Err(MendelError::Store(format!(
                    "the ledger refuses block (seq {}, start {}): {why}",
                    key.seq.0, key.start
                )))
            };
            let Some(at) = self.slot_of(key) else {
                return if self.base.get(key.seq.index() + 1).is_none() {
                    refuse("its sequence is not in the reference store".into())
                } else {
                    refuse("its window runs past its sequence's end".into())
                };
            };
            let set = self.slots[at];
            if set != NONE && self.sets[set as usize].group != g {
                let other = self.sets[set as usize].group;
                return refuse(format!("it is placed in group {other}, not {g}"));
            }
        }
        Ok(())
    }

    /// Record that `node`, a member of `g`, now holds `keys`. Refuses
    /// (see the module docs) before writing any slot.
    pub(crate) fn place(
        &mut self,
        g: GroupId,
        node: NodeId,
        keys: impl Iterator<Item = BlockKey> + Clone,
    ) -> Result<(), MendelError> {
        self.check(g, keys.clone())?;
        let alone = intern(&mut self.sets, g, vec![node]);
        // Holder set → the same set with `node` in it, worked out once
        // per distinct set rather than once per key.
        let mut joined: Vec<(SetId, SetId)> = Vec::new();
        for key in keys {
            let Some(at) = self.slot_of(key) else {
                continue; // `check` refused such a key above
            };
            let old = self.slots[at];
            let new = if old == NONE {
                alone
            } else if let Some(&(_, new)) = joined.iter().find(|(from, _)| *from == old) {
                new
            } else {
                let mut members = self.sets[old as usize].members.clone();
                if let Err(at) = members.binary_search(&node) {
                    members.insert(at, node);
                }
                let new = intern(&mut self.sets, g, members);
                joined.push((old, new));
                new
            };
            if new != old {
                self.slots[at] = new;
                if old != NONE {
                    self.sets[old as usize].keys -= 1;
                }
                self.sets[new as usize].keys += 1;
            }
        }
        Ok(())
    }

    /// Record that `node`, a member of `g`, holds nothing any more. A
    /// key it alone held is no longer placed anywhere. The sets that
    /// name `node` are remapped first, then the slots in one pass.
    pub(crate) fn clear(&mut self, g: GroupId, node: NodeId) {
        let interned = self.sets.len();
        let mut remap: Vec<SetId> = (0..interned as SetId).collect();
        let mut moved = false;
        for (id, to) in remap.iter_mut().enumerate() {
            let set = &mut self.sets[id];
            if set.group != g || set.keys == 0 || !set.members.contains(&node) {
                continue;
            }
            let rest: Vec<NodeId> = set.members.iter().copied().filter(|&n| n != node).collect();
            let count = std::mem::take(&mut set.keys);
            *to = if rest.is_empty() {
                NONE
            } else {
                let to = intern(&mut self.sets, g, rest);
                self.sets[to as usize].keys += count;
                to
            };
            moved = true;
        }
        if !moved {
            return;
        }
        for slot in self.slots.iter_mut().filter(|s| **s != NONE) {
            *slot = remap[*slot as usize];
        }
    }

    /// The interned sets of `g`.
    fn sets_of(&self, g: GroupId) -> impl Iterator<Item = &HolderSet> {
        self.sets.iter().filter(move |s| s.group == g)
    }

    /// Distinct keys placed in `g`.
    pub(crate) fn expected(&self, g: GroupId) -> usize {
        self.sets_of(g).map(|s| s.keys).sum()
    }

    /// Distinct keys of `g` with a holder for which `live` holds.
    pub(crate) fn reachable(&self, g: GroupId, live: impl Fn(NodeId) -> bool) -> usize {
        self.sets_of(g)
            .filter(|s| s.members.iter().any(|&n| live(n)))
            .map(|s| s.keys)
            .sum()
    }

    /// Block copies placed, every group and holder counted: Σ over holder
    /// sets of their size times their key count. Read in O(holder sets).
    pub(crate) fn copies(&self) -> usize {
        self.sets.iter().map(|s| s.members.len() * s.keys).sum()
    }

    /// Bytes the ledger holds, by capacity: the slot array, its sequence
    /// bases and the holder-set table.
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of;
        let members: usize = self.sets.iter().map(|s| s.members.capacity()).sum();
        self.slots.capacity() * size_of::<SetId>()
            + self.base.capacity() * size_of::<usize>()
            + self.sets.capacity() * size_of::<HolderSet>()
            + members * size_of::<NodeId>()
    }

    /// Every placed key with its holder set, in key order.
    fn placed(&self) -> impl Iterator<Item = (BlockKey, SetId)> + '_ {
        self.base.windows(2).enumerate().flat_map(move |(seq, w)| {
            let slots = self.slots[w[0]..w[1]].iter().enumerate();
            slots
                .filter(|(_, &set)| set != NONE)
                .map(move |(start, &set)| {
                    let key = BlockKey {
                        seq: SeqId(seq as u32),
                        start: start as u32,
                    };
                    (key, set)
                })
        })
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
        // Per set, its live holders when it is one of `g`'s and short.
        let short: Vec<Option<Vec<NodeId>>> = self
            .sets
            .iter()
            .map(|s| {
                let holders: Vec<NodeId> = live
                    .iter()
                    .copied()
                    .filter(|n| s.members.contains(n))
                    .collect();
                let is_short = !holders.is_empty() && holders.len() < want;
                (s.group == g && s.keys > 0 && is_short).then_some(holders)
            })
            .collect();
        // A healthy group is told apart without looking at a key.
        if short.iter().all(Option::is_none) {
            return Vec::new();
        }
        self.placed()
            .filter_map(|(key, set)| Some((key, short[set as usize].clone()?)))
            .collect()
    }

    /// Every key of `g` whose holder set names `node`, in key order (what
    /// `MendelCluster::check_ledger` compares a hosted node's RAM with).
    #[cfg(any(test, feature = "strict-invariants"))]
    pub(crate) fn keys_held_by(&self, g: GroupId, node: NodeId) -> Vec<BlockKey> {
        let names: Vec<bool> = self
            .sets
            .iter()
            .map(|s| s.group == g && s.members.contains(&node))
            .collect();
        self.placed()
            .filter(|(_, set)| names[*set as usize])
            .map(|(key, _)| key)
            .collect()
    }

    /// Accounting validation (part of `MendelCluster::check_ledger`):
    /// holder sets are non-empty, sorted, duplicate-free and interned
    /// once; every non-`NONE` slot names an interned set of its key's
    /// group (`group_of`, the key's window's group); each set's count
    /// equals the slots that name it, and so each group's placed count
    /// equals its recount.
    #[cfg(any(test, feature = "strict-invariants"))]
    pub(crate) fn check_invariants(
        &self,
        group_of: impl Fn(BlockKey) -> Option<GroupId>,
    ) -> Result<(), String> {
        let sets = &self.sets;
        let mut counted = vec![0usize; sets.len()];
        for (slot, &set) in self.slots.iter().enumerate() {
            if set != NONE && set as usize >= sets.len() {
                return Err(format!("slot {slot} names unknown set {set}"));
            }
        }
        for (key, set) in self.placed() {
            counted[set as usize] += 1;
            let group = sets[set as usize].group;
            if group_of(key) != Some(group) {
                return Err(format!(
                    "{key:?} is placed in group {group}, its window routes to {:?}",
                    group_of(key)
                ));
            }
        }
        for (id, (set, counted)) in sets.iter().zip(&counted).enumerate() {
            let (g, members) = (set.group, &set.members);
            if set.keys != *counted {
                return Err(format!(
                    "group {g}: set {members:?} counts {} keys, {counted} slots name it",
                    set.keys
                ));
            }
            if members.is_empty() || !members.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("group {g}: holder set {members:?} is malformed"));
            }
            let twin = |s: &HolderSet| s.group == g && s.members == *members;
            if sets[..id].iter().any(twin) {
                return Err(format!(
                    "group {g}: holder set {members:?} is interned twice"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mendel_seq::{Alphabet, Sequence};
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    const BLOCK: usize = 4;
    const G: GroupId = GroupId(0);

    /// A store of sequences `lens` residues long.
    fn store(lens: &[usize]) -> SeqStore {
        let mut db = SeqStore::new();
        for (i, &len) in lens.iter().enumerate() {
            db.insert(Sequence::from_codes(
                format!("s{i}"),
                Alphabet::Protein,
                vec![0; len],
            ));
        }
        db
    }

    fn key(seq: u32, start: u32) -> BlockKey {
        BlockKey {
            seq: SeqId(seq),
            start,
        }
    }

    /// The invariants with every key's window routed to `G`.
    fn one_group(l: &Ledger) -> Result<(), String> {
        l.check_invariants(|_| Some(G))
    }

    fn keys(range: std::ops::Range<u32>) -> impl Iterator<Item = BlockKey> + Clone {
        range.map(|s| key(0, s))
    }

    #[test]
    fn coverage_follows_holder_sets_for_any_live_set() {
        let mut l = Ledger::new(&store(&[20]), BLOCK);
        l.place(G, NodeId(0), keys(0..10)).unwrap();
        l.place(G, NodeId(1), keys(5..15)).unwrap();
        l.place(G, NodeId(1), keys(5..15)).unwrap(); // re-placing changes nothing
        one_group(&l).unwrap();
        assert_eq!(l.expected(G), 15);
        assert_eq!(l.reachable(G, |_| true), 15);
        assert_eq!(l.reachable(G, |n| n == NodeId(0)), 10);
        assert_eq!(l.reachable(G, |n| n == NodeId(1)), 10);
        assert_eq!(l.reachable(G, |_| false), 0);
        assert_eq!(l.copies(), 20);
        assert_eq!(
            l.keys_held_by(G, NodeId(1)),
            keys(5..15).collect::<Vec<_>>()
        );
    }

    #[test]
    fn clearing_a_node_forgets_only_what_it_alone_held() {
        let mut l = Ledger::new(&store(&[20]), BLOCK);
        l.place(G, NodeId(0), keys(0..10)).unwrap();
        l.place(G, NodeId(1), keys(5..15)).unwrap();
        l.clear(G, NodeId(0));
        one_group(&l).unwrap();
        assert_eq!(l.expected(G), 10);
        assert_eq!(l.reachable(G, |n| n == NodeId(0)), 0);
        assert_eq!(l.reachable(G, |n| n == NodeId(1)), 10);
        l.clear(G, NodeId(7)); // a node that holds nothing
        assert_eq!(l.expected(G), 10);
        assert_eq!(l.copies(), 10);
        assert!(l.keys_held_by(G, NodeId(0)).is_empty());
    }

    #[test]
    fn under_replicated_lists_keys_short_of_live_copies_in_key_order() {
        let mut l = Ledger::new(&store(&[20]), BLOCK);
        l.place(G, NodeId(2), keys(0..4)).unwrap();
        l.place(G, NodeId(0), keys(2..6)).unwrap();
        l.place(G, NodeId(1), keys(6..8)).unwrap();
        // Node 1 is down: its keys have no live holder and are not repairable.
        let work = l.under_replicated(G, &[NodeId(0), NodeId(2)], 2);
        let starts: Vec<u32> = work.iter().map(|(k, _)| k.start).collect();
        assert_eq!(starts, vec![0, 1, 4, 5]);
        assert_eq!(work[0].1, vec![NodeId(2)]);
        assert_eq!(work[2].1, vec![NodeId(0)]);
    }

    #[test]
    fn keys_outside_the_key_space_or_group_are_refused_untouched() {
        // Sequence 1 is shorter than a block: it has no window at all.
        let mut l = Ledger::new(&store(&[10, 3, 6]), BLOCK);
        let slots = l.slots.len();
        assert_eq!(slots, 7 + 3);
        l.place(G, NodeId(0), [key(0, 2)].into_iter()).unwrap();
        let refused = [
            key(3, 0),        // absent sequence
            key(0, 7),        // one past sequence 0's last window
            key(1, 0),        // a sequence with no window
            key(2, u32::MAX), // a start no sequence reaches
        ];
        for bad in refused {
            // A good key ahead of the bad one is not written either.
            let batch = [key(2, 0), bad];
            assert!(l.place(G, NodeId(0), batch.into_iter()).is_err(), "{bad:?}");
            assert_eq!(l.slots.len(), slots);
            assert_eq!(l.expected(G), 1);
        }
        // A key placed in group 0 is refused to group 1.
        assert!(l
            .place(GroupId(1), NodeId(3), [key(0, 2)].into_iter())
            .is_err());
        assert_eq!(l.expected(GroupId(1)), 0);
        one_group(&l).unwrap();
    }

    #[test]
    fn extending_the_store_extends_the_key_space() {
        let mut db = store(&[8]);
        let mut l = Ledger::new(&db, BLOCK);
        assert!(l.place(G, NodeId(0), [key(1, 0)].into_iter()).is_err());
        db.insert_batch(store(&[6, 2]).iter().cloned());
        l.extend_to(&db);
        l.extend_to(&db); // seen already: no change
        assert_eq!(l.slots.len(), 5 + 3);
        l.place(G, NodeId(0), (0..3).map(|s| key(1, s))).unwrap();
        assert_eq!(l.expected(G), 3);
        assert!(l.place(G, NodeId(0), [key(2, 0)].into_iter()).is_err());
        one_group(&l).unwrap();
    }

    /// Key → (group, holders), the ledger's meaning spelled out.
    type Model = BTreeMap<BlockKey, (GroupId, BTreeSet<NodeId>)>;

    /// Random `place` / `clear` runs over three groups of three nodes,
    /// re-placing and sharing keys, against [`Model`]: after every step
    /// every read equals the model's.
    #[test]
    fn random_place_and_clear_runs_match_a_key_map_model() {
        let lens = [12, 3, 30, 7, 19];
        let db = store(&lens);
        // Each key's group is fixed, as a window's group is.
        let group_of = |k: BlockKey| GroupId(((k.seq.0 + k.start) % 3) as u16);
        let members = |g: GroupId| (0..3).map(move |i| NodeId(g.0 * 3 + i));
        let all: Vec<BlockKey> = lens
            .iter()
            .enumerate()
            .flat_map(|(s, &len)| (0..=len.saturating_sub(BLOCK)).map(move |t| (s, t, len)))
            .filter(|&(_, _, len)| len >= BLOCK)
            .map(|(s, t, _)| key(s as u32, t as u32))
            .collect();
        for seed in 0..40 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut l = Ledger::new(&db, BLOCK);
            let mut model = Model::new();
            for _ in 0..30 {
                let g = GroupId(rng.random_range(0..3u16));
                let node = NodeId(g.0 * 3 + rng.random_range(0..3u16));
                if rng.random_bool(0.2) {
                    l.clear(g, node);
                    model.retain(|_, (_, hs)| {
                        hs.remove(&node);
                        !hs.is_empty()
                    });
                } else {
                    let lo = rng.random_range(0..all.len());
                    let hi = rng.random_range(lo..all.len() + 1);
                    let batch: Vec<BlockKey> = all[lo..hi]
                        .iter()
                        .copied()
                        .filter(|&k| group_of(k) == g)
                        .collect();
                    l.place(g, node, batch.iter().copied()).unwrap();
                    for k in batch {
                        model
                            .entry(k)
                            .or_insert((g, BTreeSet::new()))
                            .1
                            .insert(node);
                    }
                }
                l.check_invariants(|k| Some(group_of(k))).unwrap();
                let copies: usize = model.values().map(|(_, hs)| hs.len()).sum();
                assert_eq!(l.copies(), copies);
                for g in (0..3).map(GroupId) {
                    let of_g = || model.iter().filter(move |(_, (mg, _))| *mg == g);
                    assert_eq!(l.expected(g), of_g().count());
                    let group: Vec<NodeId> = members(g).collect();
                    for mask in 0..8u32 {
                        let live: Vec<NodeId> = (0..3)
                            .filter(|i| mask & (1 << i) != 0)
                            .map(|i| group[i])
                            .collect();
                        let reach =
                            of_g().filter(|(_, (_, hs))| live.iter().any(|n| hs.contains(n)));
                        assert_eq!(l.reachable(g, |n| live.contains(&n)), reach.count());
                        for want in 1..=3 {
                            let short: Vec<(BlockKey, Vec<NodeId>)> = of_g()
                                .map(|(k, (_, hs))| {
                                    let held = live.iter().copied().filter(|n| hs.contains(n));
                                    (*k, held.collect::<Vec<_>>())
                                })
                                .filter(|(_, h)| !h.is_empty() && h.len() < want)
                                .collect();
                            assert_eq!(l.under_replicated(g, &live, want), short);
                        }
                    }
                    for n in group {
                        let held = of_g().filter(|(_, (_, hs))| hs.contains(&n));
                        let held: Vec<BlockKey> = held.map(|(k, _)| *k).collect();
                        assert_eq!(l.keys_held_by(g, n), held);
                    }
                }
            }
        }
    }
}
