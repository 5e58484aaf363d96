//! Dynamic vp-tree insertion (§III-D): the [`VpTree`] methods that grow
//! a built (or empty, `VpTree::build(Vec::new(), …)`) tree.
//!
//! The original vp-tree is static: "the dataset in its entirety must be
//! present and inserted at the time of creation". Mendel needs ongoing
//! ingest, so this module implements the four dynamic-update cases of
//! Fu et al. (VLDB J. 2000) that the paper adopts:
//!
//! 1. leaf bucket not full → add to bucket;
//! 2. leaf full but sibling has room → redistribute under the parent;
//! 3. leaf and sibling full but an ancestor's subtree has room →
//!    redistribute under that ancestor;
//! 4. completely full tree → split the root (rebuild, growing a level).
//!
//! "Redistribute" is a balanced rebuild of the affected subtree, so every
//! case leaves the touched region median-balanced. The paper's preferred
//! *batch* path (`insert_batch`) rebuilds once per batch — "a middle
//! ground ... which maintains an acceptable performance while maintaining
//! an optimized, balanced vp-tree". Insertion ids are stable across all
//! rebuilds, so external references (Mendel's inverted-index block keys)
//! never dangle. A rebuild moves the windows of the subtree it replaces
//! into the new one, so the orphaned nodes hold no bytes.

use crate::tree::{flat, ById, Elements, Leaf, Node, Staged, VpTree, NIL};
use mendel_seq::Metric;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// Which of the four §III-D cases an insertion exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Case 1: the leaf bucket had room (also covers filling an empty slot).
    Appended,
    /// Case 2: leaf full, values redistributed under the immediate parent.
    RebuiltParent,
    /// Case 3: redistributed under an ancestor `levels` above the leaf
    /// (`levels ≥ 2`).
    RebuiltAncestor(usize),
    /// Case 4: the whole tree was full and was rebuilt one level deeper.
    RebuiltRoot,
}

impl<M: Metric<[u8]>> VpTree<M> {
    /// Insert one window, returning its insertion id and the §III-D case
    /// taken.
    ///
    /// # Panics
    /// Panics when the window is empty or its length differs from the
    /// tree's.
    pub fn insert(&mut self, point: impl AsRef<[u8]>) -> (u32, InsertOutcome) {
        let point = point.as_ref();
        let id = self.admit(point);
        let outcome = self.place(id, point).unwrap_or_else(|| {
            // Case 4 reads every window: the tree's own, then `point`,
            // in the slot `windows` leaves zero for an id it does not hold.
            let len = self.window_len;
            let mut all = self.windows();
            all[id as usize * len..].copy_from_slice(point);
            self.rebuild_root(&ById::new(flat(&all, len)));
            InsertOutcome::RebuiltRoot
        });
        #[cfg(feature = "strict-invariants")]
        self.assert_invariants("dynamic insert");
        (id, outcome)
    }

    /// Place element `idx`, already admitted, by the §III-D cases 1–3,
    /// returning the case taken; `None`, with the tree unchanged, when
    /// the tree is full and only a root rebuild (case 4) takes it.
    fn place(&mut self, idx: u32, point: &[u8]) -> Option<InsertOutcome> {
        let leaf_of = |point: &[u8]| Node::Leaf(Leaf::new([(idx, point)].into_iter(), point.len()));

        if self.root == NIL {
            self.root = self.push_node(leaf_of(point), None);
            return Some(InsertOutcome::Appended);
        }

        // Descend to the leaf, recording the path and expanding the child
        // bounds along the way so ancestor prunes stay sound for the new
        // element.
        let mut path: Vec<u32> = Vec::new();
        let mut node = self.root;
        let next_node = self.nodes.len() as u32;
        loop {
            path.push(node);
            let Node::Internal {
                radius,
                left,
                right,
                left_bounds,
                right_bounds,
                ..
            } = &mut self.nodes[node as usize]
            else {
                break;
            };
            let window = &self.vantages[node as usize * point.len()..][..point.len()];
            let d = self.metric.dist(point, window);
            let (child, bounds) = if d <= *radius {
                (left, left_bounds)
            } else {
                (right, right_bounds)
            };
            bounds.0 = bounds.0.min(d);
            bounds.1 = bounds.1.max(d);
            if *child == NIL {
                // Empty slot (possible after duplicate-heavy builds):
                // create a fresh leaf in place.
                *child = next_node;
                self.push_node(leaf_of(point), None);
                return Some(InsertOutcome::Appended);
            }
            node = *child;
        }

        // Case 1: room in the leaf bucket. The loop above only breaks on
        // a leaf, so `node` is its index; the append re-lays the bucket's
        // last lane group.
        if let Node::Leaf(leaf) = &mut self.nodes[node as usize] {
            if leaf.len() < self.bucket_capacity {
                leaf.push(idx, point);
                return Some(InsertOutcome::Appended);
            }
        }

        // Cases 2–4: walk up until a subtree has spare capacity, then
        // redistribute (rebuild) it including the new element.
        for (levels_up, anc_pos) in (0..path.len() - 1).rev().enumerate() {
            let anc = path[anc_pos];
            let (count, height) = self.subtree_occupancy(anc);
            // "Has room" = a balanced rebuild can absorb the new element
            // without growing the subtree's height: a height-h vp-tree
            // holds at most 2^h full buckets plus 2^h − 1 vantage elements.
            let capacity = (1usize << height) * self.bucket_capacity + ((1usize << height) - 1);
            if count < capacity {
                let parent = path.get(anc_pos.wrapping_sub(1)).copied();
                self.rebuild_subtree(anc, parent, idx, point);
                let levels = levels_up + 1;
                return Some(if levels == 1 {
                    InsertOutcome::RebuiltParent
                } else {
                    InsertOutcome::RebuiltAncestor(levels)
                });
            }
        }

        // Case 4: the tree is completely full — the caller splits the
        // root (a rebuild; the build routine grows the extra level it
        // needs).
        None
    }

    /// Batched insertion (§III-D's recommended "middle ground") of
    /// `count` windows, those of the next insertion ids: the one batch
    /// entry. `window(id)` is the window of any id the tree holds once
    /// the batch is in — each of the batch's, and each held before it,
    /// as it was inserted — so a rebuild reads the windows it places
    /// from there, and no copy of them is made first. A batch that is
    /// large relative to the existing tree (≥ 25%) triggers one balanced
    /// rebuild over everything; smaller batches fall back to per-element
    /// insertion, whose §III-D cases only rebuild the affected subtrees.
    /// Returns the insertion ids.
    ///
    /// # Panics
    /// Panics when a window is empty, or differs in length from the
    /// batch's first or from the windows the tree holds.
    pub fn insert_windows<'w>(
        &mut self,
        count: usize,
        window: impl Fn(u32) -> &'w [u8],
    ) -> Range<u32> {
        let start = self.len as u32;
        if count == 0 {
            return start..start;
        }
        if count * 4 >= self.len {
            // The first window fixes or checks the length; the build
            // checks every window it reads against it.
            self.admit(window(start));
            self.len += count - 1;
            self.rebuild_root(&ById::new(&window));
            #[cfg(feature = "strict-invariants")]
            self.assert_invariants("batch rebuild");
        } else {
            for id in start..start + count as u32 {
                let point = window(id);
                self.admit(point);
                if self.place(id, point).is_none() {
                    self.rebuild_root(&ById::new(&window));
                }
                #[cfg(feature = "strict-invariants")]
                self.assert_invariants("dynamic insert");
            }
        }
        start..self.len as u32
    }

    /// [`Self::insert_windows`] over windows given one by one; the
    /// windows the tree holds are read out of it first, for a rebuild.
    ///
    /// # Panics
    /// Panics when a window is empty or the windows differ in length.
    pub fn insert_batch<P: AsRef<[u8]>>(&mut self, batch: impl IntoIterator<Item = P>) -> Vec<u32> {
        let mut batch = batch.into_iter().peekable();
        let Some(len) = batch.peek().map(|p| p.as_ref().len()) else {
            return Vec::new();
        };
        let mut all = self.windows();
        let mut count = 0;
        for p in batch {
            let p = p.as_ref();
            assert_eq!(p.len(), len, "vp-tree windows must share one length");
            all.extend_from_slice(p);
            count += 1;
        }
        self.insert_windows(count, flat(&all, len)).collect()
    }

    /// (elements, height) of the subtree rooted at `node`; a lone leaf has
    /// height 0.
    fn subtree_occupancy(&self, node: u32) -> (usize, usize) {
        match &self.nodes[node as usize] {
            Node::Leaf(leaf) => (leaf.len(), 0),
            Node::Internal { left, right, .. } => {
                let (mut c, mut h) = (1usize, 0usize); // vantage counts as an element
                for child in [*left, *right] {
                    if child != NIL {
                        let (cc, ch) = self.subtree_occupancy(child);
                        c += cc;
                        h = h.max(ch + 1);
                    }
                }
                (c, h.max(1))
            }
        }
    }

    /// Move every element under `node` into `out` — vantage, then the
    /// left subtree, then the right — leaving each node it empties an
    /// empty leaf that holds no ids or windows.
    fn drain_subtree(&mut self, node: u32, out: &mut Staged) {
        let len = self.window_len;
        let drained =
            std::mem::replace(&mut self.nodes[node as usize], Node::Leaf(Leaf::default()));
        match drained {
            Node::Leaf(leaf) => {
                out.ids.extend(leaf.ids());
                out.bytes.extend(leaf.windows(len));
            }
            Node::Internal {
                vantage,
                left,
                right,
                ..
            } => {
                out.push(vantage, self.vantage_window(node));
                for child in [left, right] {
                    if child != NIL {
                        self.drain_subtree(child, out);
                    }
                }
            }
        }
    }

    /// Rebuild the subtree at `node` with element `(id, window)` added,
    /// grafting the new subtree into `parent` (or the root slot). Old
    /// arena nodes become empty garbage that holds no windows.
    fn rebuild_subtree(&mut self, node: u32, parent: Option<u32>, id: u32, window: &[u8]) {
        let mut staged = Staged::default();
        self.drain_subtree(node, &mut staged);
        staged.push(id, window);
        self.rebuild_count += 1;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ (self.rebuild_count as u64) << 17);
        let mut items: Vec<u32> = (0..staged.ids.len() as u32).collect();
        let new_node = self.build_rec(&mut items, &staged, &mut rng);
        match parent {
            None => self.root = new_node,
            Some(p) => match &mut self.nodes[p as usize] {
                Node::Internal { left, right, .. } => {
                    if *left == node {
                        *left = new_node;
                    } else {
                        debug_assert_eq!(*right, node, "parent must reference the old subtree");
                        *right = new_node;
                    }
                }
                Node::Leaf { .. } => unreachable!("parent of a subtree is internal"),
            },
        }
    }

    /// Rebuild the whole tree over its elements, ids `0..len`, reading
    /// each window from `all` (case 4 and the batch path).
    fn rebuild_root(&mut self, all: &impl Elements) {
        self.rebuild_count += 1;
        self.nodes.clear();
        self.vantages.clear();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ (self.rebuild_count as u64) << 17);
        let mut items: Vec<u32> = (0..self.len as u32).collect();
        self.root = self.build_rec(&mut items, all, &mut rng);
    }

    /// How many subtree/root rebuilds have run so far.
    #[inline]
    pub fn rebuilds(&self) -> usize {
        self.rebuild_count
    }

    /// Forget every element. Metric, bucket capacity, seed and search
    /// counters stay; the rebuild count restarts at 0, because it seeds
    /// every rebuild (`seed ^ rebuilds << 17`), so a cleared tree regrows
    /// exactly like a fresh empty one.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.vantages.clear();
        self.root = NIL;
        self.len = 0;
        self.window_len = 0;
        self.rebuild_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::brute_force_knn;
    use mendel_seq::Hamming;
    use rand::Rng;

    type Tree = VpTree<Hamming>;

    fn empty(bucket: usize) -> Tree {
        VpTree::new(Hamming, bucket, 99)
    }

    fn random_points(n: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..len).map(|_| rng.random_range(0..20u8)).collect())
            .collect()
    }

    #[test]
    fn first_insert_creates_root_leaf() {
        let mut t = empty(4);
        let (idx, outcome) = t.insert(vec![1, 2, 3]);
        assert_eq!(idx, 0);
        assert_eq!(outcome, InsertOutcome::Appended);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn case1_fills_bucket_without_rebuild() {
        let mut t = empty(4);
        for p in random_points(4, 6, 1) {
            let (_, o) = t.insert(p);
            assert_eq!(o, InsertOutcome::Appended);
        }
        assert_eq!(t.rebuilds(), 0);
    }

    #[test]
    fn overflow_triggers_redistribution() {
        let mut t = empty(4);
        let mut seen_rebuild = false;
        for p in random_points(20, 6, 2) {
            let (_, o) = t.insert(p);
            if o != InsertOutcome::Appended {
                seen_rebuild = true;
            }
        }
        assert!(
            seen_rebuild,
            "20 inserts into bucket-4 tree must rebuild at least once"
        );
        assert_eq!(t.len(), 20);
    }

    #[test]
    fn all_four_cases_are_reachable() {
        let mut t = empty(2);
        let mut outcomes = std::collections::HashSet::new();
        for p in random_points(300, 8, 3) {
            let (_, o) = t.insert(p);
            outcomes.insert(std::mem::discriminant(&o));
        }
        assert!(outcomes.contains(&std::mem::discriminant(&InsertOutcome::Appended)));
        assert!(
            outcomes.len() >= 3,
            "expected at least 3 distinct §III-D cases, saw {}",
            outcomes.len()
        );
    }

    #[test]
    fn incremental_tree_answers_knn_exactly() {
        let points = random_points(400, 8, 4);
        let mut t = empty(8);
        for p in points.clone() {
            t.insert(p);
        }
        for q in random_points(20, 8, 5) {
            let got: Vec<f32> = t.knn(&q, 4).iter().map(|n| n.dist).collect();
            let want: Vec<f32> = brute_force_knn(&points, &Hamming, &q, 4)
                .iter()
                .map(|n| n.dist)
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn invariants_hold_through_insert_churn() {
        let mut t = empty(2); // tiny buckets force every §III-D case
        for (i, p) in random_points(300, 8, 50).into_iter().enumerate() {
            t.insert(p);
            if i % 37 == 0 {
                assert_eq!(t.check_invariants(), Ok(()), "after insert {i}");
            }
        }
        assert_eq!(t.check_invariants(), Ok(()));
        t.insert_batch(random_points(200, 8, 51)); // large batch: root rebuild
        assert_eq!(t.check_invariants(), Ok(()));
        t.insert_batch(random_points(5, 8, 52)); // small batch: per-element
        assert_eq!(t.check_invariants(), Ok(()));
    }

    /// Every §III-D path — appends, parent and ancestor rebuilds, root
    /// splits, both batch paths — keeps each insertion id
    /// mapped to the window inserted under it, and leaves no replaced
    /// node holding windows.
    #[test]
    fn indices_are_stable_across_rebuilds() {
        let mut t = empty(2); // tiny buckets force many rebuilds
        let mut inserted: Vec<Vec<u8>> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let check = |t: &Tree, inserted: &[Vec<u8>], after: &str| {
            let windows = t.windows();
            assert_eq!(windows.len(), inserted.len() * 8, "{after}");
            for (i, (got, want)) in windows.chunks_exact(8).zip(inserted).enumerate() {
                assert_eq!(got, &want[..], "id {i} after {after}");
            }
            assert_eq!(t.check_invariants(), Ok(()), "{after}");
        };
        for p in random_points(200, 8, 6) {
            let (id, outcome) = t.insert(&p);
            assert_eq!(id as usize, inserted.len());
            inserted.push(p);
            seen.insert(std::mem::discriminant(&outcome));
            check(&t, &inserted, &format!("{outcome:?}"));
        }
        assert_eq!(seen.len(), 4, "all four §III-D cases ran");
        for (batch, seed) in [(150usize, 7u64), (5, 8)] {
            let points = random_points(batch, 8, seed);
            let ids = t.insert_batch(points.iter());
            assert_eq!(ids[0] as usize, inserted.len());
            inserted.extend(points);
            check(&t, &inserted, &format!("a batch of {batch}"));
        }
    }

    #[test]
    fn batch_insert_is_balanced() {
        // §III-D: batches keep the tree "optimized, balanced".
        let mut t = empty(8);
        t.insert_batch(random_points(2048, 8, 7));
        let s = t.stats();
        assert_eq!(s.points, 2048);
        assert!(
            s.max_depth <= 13,
            "batched tree must stay balanced, depth {}",
            s.max_depth
        );
        assert_eq!(t.rebuilds(), 1, "one rebuild per batch");
    }

    #[test]
    fn batch_insert_returns_contiguous_indices() {
        let mut t = empty(4);
        t.insert(vec![0u8; 4]);
        let ids = t.insert_batch(vec![vec![1u8; 4], vec![2u8; 4]]);
        assert_eq!(ids, vec![1, 2]);
        let empty_ids = t.insert_batch(Vec::<Vec<u8>>::new());
        assert!(empty_ids.is_empty());
    }

    #[test]
    fn naive_inserts_are_less_balanced_than_batch() {
        // The §III-D motivation: one-at-a-time insertion degrades balance
        // relative to a batch rebuild over the same data.
        let points = random_points(1024, 8, 8);
        let mut naive = empty(8);
        for p in points.clone() {
            naive.insert(p);
        }
        let mut batched = empty(8);
        batched.insert_batch(points);
        assert!(
            naive.stats().max_depth >= batched.stats().max_depth,
            "naive {} vs batched {}",
            naive.stats().max_depth,
            batched.stats().max_depth
        );
    }

    #[test]
    fn dynamic_searches_route_through_the_bounded_kernel_bit_identically() {
        // A grown tree searches (knn / budgeted knn / range) through the
        // same bounded kernels as a built one; incremental inserts must
        // not break the bit-identity contract against an `Unbounded`
        // twin grown through the same mutation sequence.
        use mendel_seq::{MatrixDistance, ScoringMatrix, Unbounded};
        let matrix = MatrixDistance::mendel(&ScoringMatrix::blosum62());
        let mut bounded = VpTree::new(matrix.clone(), 4, 7);
        let mut baseline = VpTree::new(Unbounded(matrix), 4, 7);
        for chunk in random_points(300, 12, 40).chunks(60) {
            bounded.insert_batch(chunk.to_vec());
            baseline.insert_batch(chunk.to_vec());
        }
        for q in random_points(12, 12, 41) {
            for (g, w) in [
                (bounded.knn(&q, 5), baseline.knn(&q, 5)),
                (
                    bounded.knn_with_budget(&q, 5, 64),
                    baseline.knn_with_budget(&q, 5, 64),
                ),
                (bounded.range(&q, 30.0), baseline.range(&q, 30.0)),
            ] {
                assert_eq!(g.len(), w.len());
                for (a, b) in g.iter().zip(&w) {
                    assert_eq!(a.index, b.index);
                    assert_eq!(a.dist.to_bits(), b.dist.to_bits());
                }
            }
        }
    }

    #[test]
    fn mixed_batch_and_single_inserts() {
        let a = random_points(64, 6, 10);
        let b = random_points(64, 6, 11);
        let mut t = empty(4);
        t.insert_batch(a.clone());
        for p in b.clone() {
            t.insert(p);
        }
        let mut all = a;
        all.extend(b);
        for q in random_points(10, 6, 12) {
            let got: Vec<f32> = t.knn(&q, 3).iter().map(|n| n.dist).collect();
            let want: Vec<f32> = brute_force_knn(&all, &Hamming, &q, 3)
                .iter()
                .map(|n| n.dist)
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn cleared_tree_regrows_like_a_fresh_one() {
        // Large batches take the root rebuild, small ones the per-element
        // §III-D cases, so both rebuild seeds are exercised.
        let batches = [
            random_points(200, 8, 60),
            random_points(7, 8, 61),
            random_points(120, 8, 62),
            random_points(3, 8, 63),
        ];
        let grow = |t: &mut Tree| {
            for b in &batches {
                t.insert_batch(b.clone());
            }
        };
        let mut cleared = empty(4);
        let counters = crate::metrics::SearchMetrics::default();
        cleared.set_metrics(counters.clone());
        grow(&mut cleared);
        cleared.knn(&[0u8; 8], 3);
        cleared.clear();
        assert!(cleared.is_empty());
        assert_eq!(cleared.rebuilds(), 0);
        grow(&mut cleared);
        let mut fresh = empty(4);
        grow(&mut fresh);
        assert_eq!(cleared.stats(), fresh.stats());
        assert_eq!(cleared.rebuilds(), fresh.rebuilds());
        assert_eq!(cleared.check_invariants(), Ok(()));
        let before = counters.dist_calls.get();
        for q in random_points(12, 8, 64) {
            let (got, want) = (cleared.knn(&q, 5), fresh.knn(&q, 5));
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.index, w.index);
                assert_eq!(g.dist.to_bits(), w.dist.to_bits());
            }
        }
        assert!(
            counters.dist_calls.get() > before,
            "clear keeps the search counters attached"
        );
    }
}
