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
use std::ops::Range;

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

    /// The slots of those of the `n` keys of `first`'s sequence from
    /// `first` on that are in the key space: a prefix of them.
    fn slots_in(&self, first: BlockKey, n: usize) -> Range<usize> {
        let s = first.seq.index();
        let (Some(&lo), Some(&hi)) = (self.base.get(s), self.base.get(s + 1)) else {
            return 0..0;
        };
        let at = (lo + first.start as usize).min(hi);
        at..(at + n).min(hi)
    }

    /// The slots of the `n` keys of `first`'s sequence from `first` on,
    /// if they are all in the key space.
    fn run_slots(&self, first: BlockKey, n: usize) -> Option<Range<usize>> {
        Some(self.slots_in(first, n)).filter(|r| r.len() == n)
    }

    /// Whether [`Self::place`] in `g` would take every one of `keys`;
    /// the first refusal otherwise.
    pub(crate) fn check(
        &self,
        g: GroupId,
        keys: impl IntoIterator<Item = BlockKey>,
    ) -> Result<(), MendelError> {
        keys.into_iter().try_for_each(|key| self.check_key(g, key))
    }

    /// Whether a slot of `g` would take `key` (see the module docs).
    fn check_key(&self, g: GroupId, key: BlockKey) -> Result<(), MendelError> {
        let refuse = |why: String| {
            Err(MendelError::Store(format!(
                "the ledger refuses block (seq {}, start {}): {why}",
                key.seq.0, key.start
            )))
        };
        let Some(at) = self.run_slots(key, 1).map(|r| r.start) else {
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
        Ok(())
    }

    /// Record that `node`, a member of `g`, now holds `keys` as well as
    /// whoever held them before. Refuses (see the module docs) before
    /// writing any slot.
    pub(crate) fn place(
        &mut self,
        g: GroupId,
        node: NodeId,
        keys: impl Iterator<Item = BlockKey> + Clone,
    ) -> Result<(), MendelError> {
        let runs = keys.map(|key| (key, 1));
        let one = [(g, vec![node])];
        let placed = self.place_walk(&one, |_| NodeId(0), runs, false, |_, _, _| {});
        placed.map_err(|(_, e)| e)
    }

    /// Record one placement walk, in one pass over its keys. They come in
    /// runs `(first, n)`: the `n` keys of `first`'s sequence from
    /// `first` on. The i-th key of the walk is now held by
    /// `sets[route(i)]` — a group and some of its members, indexed by
    /// the node the key's ring starts at — and, unless the walk
    /// `replace`s holders, by whoever held it before as well. A set with
    /// no member takes nothing: its keys keep their holders, and are not
    /// checked. Refuses (see the module docs) before writing any slot,
    /// naming the ring start of the first key refused. Once the j-th key
    /// of a run is written, `each(first, j, its route)` sees it,
    /// in the same pass. The joined set of a slot's old set and a
    /// start's set is worked out once per distinct pair, not once per
    /// key.
    pub(crate) fn place_walk(
        &mut self,
        sets: &[(GroupId, Vec<NodeId>)],
        route: impl Fn(usize) -> NodeId,
        runs: impl Iterator<Item = (BlockKey, usize)> + Clone,
        replace: bool,
        mut each: impl FnMut(BlockKey, usize, NodeId),
    ) -> Result<(), (NodeId, MendelError)> {
        // Per start, the group its keys are placed in, if any.
        let into: Vec<Option<GroupId>> = sets
            .iter()
            .map(|(g, members)| (!members.is_empty()).then_some(*g))
            .collect();
        let mut i = 0;
        for (first, n) in runs.clone() {
            let at = i;
            i += n;
            let clash = |(j, &set): (usize, &SetId)| {
                let g = into[route(at + j).0 as usize];
                set != NONE && g.is_some_and(|g| self.sets[set as usize].group != g)
            };
            let fits = self.run_slots(first, n);
            if fits.is_none_or(|r| self.slots[r].iter().enumerate().any(clash)) {
                // Name the first key refused.
                for j in 0..n {
                    let p = route(at + j);
                    if let Some(g) = into[p.0 as usize] {
                        let start = first.start.wrapping_add(j as u32);
                        let key = BlockKey { start, ..first };
                        self.check_key(g, key).map_err(|e| (p, e))?;
                    }
                }
            }
        }
        // Per start, its set's id once a slot it takes alone has needed
        // it; per (old set, start), the joined set.
        let mut alone: Vec<Option<SetId>> = vec![None; sets.len()];
        let mut joined: Vec<(SetId, NodeId, SetId)> = Vec::new();
        let mut i = 0;
        for (first, n) in runs {
            let at = i;
            i += n;
            // Keys past the key space were refused above, or place nowhere.
            let slots = self.slots_in(first, n);
            for (j, slot) in self.slots[slots].iter_mut().enumerate() {
                let p = route(at + j);
                let (g, members) = &sets[p.0 as usize];
                let old = *slot;
                let new = if members.is_empty() {
                    old
                } else if old == NONE || replace {
                    *alone[p.0 as usize].get_or_insert_with(|| {
                        let mut members = members.clone();
                        members.sort_unstable();
                        intern(&mut self.sets, *g, members)
                    })
                } else if let Some(&(_, _, new)) =
                    joined.iter().find(|&&(from, by, _)| from == old && by == p)
                {
                    new
                } else {
                    let mut union = self.sets[old as usize].members.clone();
                    for &n in members {
                        if let Err(at) = union.binary_search(&n) {
                            union.insert(at, n);
                        }
                    }
                    let new = intern(&mut self.sets, *g, union);
                    joined.push((old, p, new));
                    new
                };
                if new != old {
                    *slot = new;
                    if old != NONE {
                        self.sets[old as usize].keys -= 1;
                    }
                    self.sets[new as usize].keys += 1;
                }
                each(first, j, p);
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

    /// Every key of `g` whose holder set names a node `holder` picks, in
    /// key order: what a rebalance re-places, and what
    /// `MendelCluster::check_ledger` compares a hosted node's RAM with.
    pub(crate) fn keys_held_by(
        &self,
        g: GroupId,
        holder: impl Fn(NodeId) -> bool,
    ) -> Vec<BlockKey> {
        let names: Vec<bool> = self
            .sets
            .iter()
            .map(|s| s.group == g && s.members.iter().any(|&n| holder(n)))
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
            l.keys_held_by(G, |h| h == NodeId(1)),
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
        assert!(l.keys_held_by(G, |h| h == NodeId(0)).is_empty());
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

    /// One walk over runs of keys places what one `place` per node
    /// places: random routes over three ring starts whose sets overlap
    /// (one of them empty), over keys some of which a fourth node
    /// already holds. A run that leaves its sequence is refused with
    /// nothing written, unless the keys past its end place nowhere.
    #[test]
    fn a_walk_places_what_one_place_per_node_places() {
        let lens = [12, 3, 30, 7, 19];
        let db = store(&lens);
        let runs: Vec<(BlockKey, usize)> = (0..lens.len() as u32)
            .filter(|&s| lens[s as usize] >= BLOCK)
            .map(|s| (key(s, 0), lens[s as usize] + 1 - BLOCK))
            .collect();
        let all: Vec<BlockKey> = runs
            .iter()
            .flat_map(|&(first, n)| (0..n as u32).map(move |t| key(first.seq.0, t)))
            .collect();
        let sets = [
            (G, vec![NodeId(2), NodeId(0)]),
            (G, vec![NodeId(1)]),
            (G, Vec::new()),
        ];
        for seed in 0..20 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut walked = Ledger::new(&db, BLOCK);
            let held: Vec<BlockKey> = all
                .iter()
                .copied()
                .filter(|_| rng.random_bool(0.3))
                .collect();
            walked.place(G, NodeId(3), held.iter().copied()).unwrap();
            let mut placed = Ledger::new(&db, BLOCK);
            placed.place(G, NodeId(3), held.iter().copied()).unwrap();
            let routes: Vec<NodeId> = all.iter().map(|_| NodeId(rng.random_range(0..3))).collect();
            let mut seen = Vec::new();
            walked
                .place_walk(
                    &sets,
                    |i| routes[i],
                    runs.iter().copied(),
                    false,
                    |first, j, p| {
                        seen.push((
                            BlockKey {
                                start: j as u32,
                                ..first
                            },
                            p,
                        ))
                    },
                )
                .unwrap();
            for (p, (_, members)) in sets.iter().enumerate() {
                for &n in members {
                    let mine = all.iter().zip(&routes).filter(|(_, r)| r.0 as usize == p);
                    placed.place(G, n, mine.map(|(k, _)| *k)).unwrap();
                }
            }
            one_group(&walked).unwrap();
            assert_eq!(
                seen,
                all.iter()
                    .copied()
                    .zip(routes.iter().copied())
                    .collect::<Vec<_>>()
            );
            assert_eq!(walked.copies(), placed.copies());
            assert_eq!(walked.expected(G), placed.expected(G));
            for n in (0..4).map(NodeId) {
                assert_eq!(
                    walked.keys_held_by(G, |h| h == n),
                    placed.keys_held_by(G, |h| h == n),
                    "{seed} {n}"
                );
            }
            // A run past its sequence's end is refused, naming the start
            // of its first key out of range, with nothing written...
            let past_the_end = [(key(0, 7), 3)];
            let before = walked.keys_held_by(G, |h| h == NodeId(1));
            let to = [2, 2, 1];
            let run = past_the_end.into_iter();
            let refused = walked.place_walk(&sets, |i| NodeId(to[i]), run, false, |_, _, _| {});
            assert_eq!(refused.map_err(|(p, _)| p), Err(NodeId(1)));
            assert_eq!(walked.keys_held_by(G, |h| h == NodeId(1)), before);
            // ...unless what runs past it places nowhere: its keys in
            // range are written.
            let to = [1, 1, 2];
            let run = past_the_end.into_iter();
            let placed = walked.place_walk(&sets, |i| NodeId(to[i]), run, false, |_, _, _| {});
            placed.unwrap();
            let mut want = before.clone();
            want.extend([key(0, 7), key(0, 8)]);
            want.sort_unstable();
            want.dedup();
            assert_eq!(walked.keys_held_by(G, |h| h == NodeId(1)), want);
        }
    }

    /// A replacing walk gives each key its start's set in place of the
    /// holders it had, and leaves a key whose start has no taker with
    /// the holders it had; a joining walk adds the start's set to them.
    /// Either way no key is dropped.
    #[test]
    fn a_replacing_walk_swaps_holders_only_where_a_start_takes() {
        let db = store(&[12]);
        let sets = [(G, vec![NodeId(2), NodeId(1)]), (G, Vec::new())];
        let routes = [0, 1, 0, 1, 1, 0, 0, 1, 0];
        let all = || keys(0..9);
        let taken = || all().filter(|k| routes[k.start as usize] == 0);
        let kept = || all().filter(|k| routes[k.start as usize] == 1);
        for replace in [false, true] {
            let mut l = Ledger::new(&db, BLOCK);
            l.place(G, NodeId(0), all()).unwrap();
            l.place(G, NodeId(2), keys(0..3)).unwrap();
            let run = [(key(0, 0), 9)].into_iter();
            let walk = l.place_walk(&sets, |i| NodeId(routes[i]), run, replace, |_, _, _| {});
            walk.unwrap();
            one_group(&l).unwrap();
            let held = |n: u16| l.keys_held_by(G, |h| h == NodeId(n));
            let zero: Vec<BlockKey> = if replace {
                kept().collect()
            } else {
                all().collect()
            };
            let two = all().filter(|k| routes[k.start as usize] == 0 || k.start < 3);
            assert_eq!(held(0), zero, "{replace}");
            assert_eq!(held(1), taken().collect::<Vec<_>>(), "{replace}");
            assert_eq!(held(2), two.collect::<Vec<_>>(), "{replace}");
            assert_eq!(l.expected(G), 9);
            assert_eq!(l.copies(), held(0).len() + held(1).len() + held(2).len());
        }
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
                        assert_eq!(l.keys_held_by(g, |h| h == n), held);
                    }
                }
            }
        }
    }
}
