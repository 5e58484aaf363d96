//! Dynamic vp-tree insertion (§III-D).
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
//! an optimized, balanced vp-tree". Point arena indices are stable across
//! all rebuilds, so external references (Mendel's inverted-index block
//! ids) never dangle.

use crate::knn::Neighbor;
use crate::tree::{Node, VpTree, VpTreeStats, NIL};
use mendel_seq::Metric;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

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

/// A vp-tree supporting single-element and batched insertion.
#[derive(Debug)]
pub struct DynamicVpTree<P, M> {
    tree: VpTree<P, M>,
    rebuild_count: usize,
}

impl<P: Clone, M: Metric<P>> DynamicVpTree<P, M> {
    /// An empty dynamic tree.
    pub fn new(metric: M, bucket_capacity: usize, seed: u64) -> Self {
        DynamicVpTree {
            tree: VpTree::build(Vec::new(), metric, bucket_capacity, seed),
            rebuild_count: 0,
        }
    }

    /// Bulk-build from an initial collection (preferred when the data is
    /// known up front).
    pub fn build(points: Vec<P>, metric: M, bucket_capacity: usize, seed: u64) -> Self {
        DynamicVpTree {
            tree: VpTree::build(points, metric, bucket_capacity, seed),
            rebuild_count: 0,
        }
    }

    /// Insert one element, returning its stable arena index and the
    /// §III-D case taken.
    pub fn insert(&mut self, point: P) -> (u32, InsertOutcome) {
        let result = self.insert_inner(point);
        #[cfg(feature = "strict-invariants")]
        self.tree.assert_invariants("dynamic insert");
        result
    }

    fn insert_inner(&mut self, point: P) -> (u32, InsertOutcome) {
        let idx = self.tree.points.len() as u32;
        self.tree.points.push(point);

        if self.tree.root == NIL {
            self.tree.nodes.push(Node::Leaf { bucket: vec![idx] });
            self.tree.root = (self.tree.nodes.len() - 1) as u32;
            return (idx, InsertOutcome::Appended);
        }

        // Descend to the leaf, recording the path and expanding the child
        // bounds along the way so ancestor prunes stay sound for the new
        // element.
        let mut path: Vec<u32> = Vec::new();
        let mut node = self.tree.root;
        loop {
            path.push(node);
            match &mut self.tree.nodes[node as usize] {
                Node::Leaf { .. } => break,
                Node::Internal {
                    vantage,
                    radius,
                    left,
                    right,
                    left_bounds,
                    right_bounds,
                } => {
                    let d = self.tree.metric.dist(
                        &self.tree.points[idx as usize],
                        &self.tree.points[*vantage as usize],
                    );
                    let go_left = d <= *radius;
                    let (child, bounds) = if go_left {
                        (left, left_bounds)
                    } else {
                        (right, right_bounds)
                    };
                    bounds.0 = bounds.0.min(d);
                    bounds.1 = bounds.1.max(d);
                    if *child == NIL {
                        // Empty slot (possible after duplicate-heavy builds):
                        // create a fresh leaf in place.
                        self.tree.nodes.push(Node::Leaf { bucket: vec![idx] });
                        let new_leaf = (self.tree.nodes.len() - 1) as u32;
                        match &mut self.tree.nodes[node as usize] {
                            Node::Internal { left, right, .. } => {
                                if go_left {
                                    *left = new_leaf;
                                } else {
                                    *right = new_leaf;
                                }
                            }
                            Node::Leaf { .. } => unreachable!(),
                        }
                        return (idx, InsertOutcome::Appended);
                    }
                    node = *child;
                }
            }
        }

        // Case 1: room in the leaf bucket. The loop above only breaks on
        // a leaf, so `node` is its index.
        let leaf = node;
        if let Node::Leaf { bucket } = &mut self.tree.nodes[leaf as usize] {
            if bucket.len() < self.tree.bucket_capacity {
                bucket.push(idx);
                return (idx, InsertOutcome::Appended);
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
            let capacity =
                (1usize << height) * self.tree.bucket_capacity + ((1usize << height) - 1);
            if count + 1 <= capacity {
                self.rebuild_subtree(anc, path.get(anc_pos.wrapping_sub(1)).copied(), idx);
                let levels = levels_up + 1;
                return (
                    idx,
                    if levels == 1 {
                        InsertOutcome::RebuiltParent
                    } else {
                        InsertOutcome::RebuiltAncestor(levels)
                    },
                );
            }
        }

        // Case 4: the tree is completely full — split the root (rebuild;
        // the build routine grows the extra level it needs).
        self.rebuild_root();
        (idx, InsertOutcome::RebuiltRoot)
    }

    /// Batched insertion (§III-D's recommended "middle ground"). A batch
    /// that is large relative to the existing tree (≥ 25%) triggers one
    /// balanced rebuild over everything; smaller batches fall back to
    /// per-element insertion, whose §III-D cases only rebuild the
    /// affected subtrees. Returns the stable indices.
    pub fn insert_batch(&mut self, batch: impl IntoIterator<Item = P>) -> Vec<u32> {
        let batch: Vec<P> = batch.into_iter().collect();
        let start = self.tree.points.len() as u32;
        if batch.is_empty() {
            return Vec::new();
        }
        if batch.len() * 4 >= self.tree.points.len() {
            self.tree.points.extend(batch);
            self.rebuild_root();
            #[cfg(feature = "strict-invariants")]
            self.tree.assert_invariants("batch rebuild");
            (start..self.tree.points.len() as u32).collect()
        } else {
            batch.into_iter().map(|p| self.insert(p).0).collect()
        }
    }

    /// (elements, height) of the subtree rooted at `node`; a lone leaf has
    /// height 0.
    fn subtree_occupancy(&self, node: u32) -> (usize, usize) {
        match &self.tree.nodes[node as usize] {
            Node::Leaf { bucket } => (bucket.len(), 0),
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

    /// Collect every element index under `node`.
    fn collect_subtree(&self, node: u32, out: &mut Vec<u32>) {
        match &self.tree.nodes[node as usize] {
            Node::Leaf { bucket } => out.extend_from_slice(bucket),
            Node::Internal {
                vantage,
                left,
                right,
                ..
            } => {
                out.push(*vantage);
                if *left != NIL {
                    self.collect_subtree(*left, out);
                }
                if *right != NIL {
                    self.collect_subtree(*right, out);
                }
            }
        }
    }

    /// Rebuild the subtree at `node` with `extra` added, grafting the new
    /// subtree into `parent` (or the root slot). Old arena nodes become
    /// garbage; [`Self::compact`] reclaims them.
    fn rebuild_subtree(&mut self, node: u32, parent: Option<u32>, extra: u32) {
        let mut items = Vec::new();
        self.collect_subtree(node, &mut items);
        items.push(extra);
        self.rebuild_count += 1;
        let mut rng = ChaCha8Rng::seed_from_u64(self.tree.seed ^ (self.rebuild_count as u64) << 17);
        let new_node = self.tree.build_rec(&mut items, &mut rng);
        match parent {
            None => self.tree.root = new_node,
            Some(p) => match &mut self.tree.nodes[p as usize] {
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

    /// Rebuild the whole tree from the point arena (case 4 and batch path).
    fn rebuild_root(&mut self) {
        self.rebuild_count += 1;
        self.tree.nodes.clear();
        let mut rng = ChaCha8Rng::seed_from_u64(self.tree.seed ^ (self.rebuild_count as u64) << 17);
        let mut items: Vec<u32> = (0..self.tree.points.len() as u32).collect();
        self.tree.root = self.tree.build_rec(&mut items, &mut rng);
    }

    /// Drop garbage arena nodes left behind by subtree rebuilds (a full
    /// rebuild, which also rebalances).
    pub fn compact(&mut self) {
        self.rebuild_root();
        #[cfg(feature = "strict-invariants")]
        self.tree.assert_invariants("compact");
    }

    /// Deep structural validation of the underlying tree — see
    /// [`VpTree::check_invariants`]. After subtree rebuilds the arena
    /// holds orphan nodes; the checker only audits what is reachable,
    /// so it holds at every point of a dynamic tree's life.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.tree.check_invariants()
    }

    /// How many subtree/root rebuilds have run so far.
    #[inline]
    pub fn rebuilds(&self) -> usize {
        self.rebuild_count
    }

    /// The `n` nearest neighbours of `query` (see [`VpTree::knn`]).
    pub fn knn(&self, query: &P, n: usize) -> Vec<Neighbor> {
        self.tree.knn(query, n)
    }

    /// Budgeted k-NN (see [`VpTree::knn_with_budget`]).
    pub fn knn_with_budget(&self, query: &P, n: usize, budget: usize) -> Vec<Neighbor> {
        self.tree.knn_with_budget(query, n, budget)
    }

    /// All neighbours within `radius` (see [`VpTree::range`]).
    pub fn range(&self, query: &P, radius: f32) -> Vec<Neighbor> {
        self.tree.range(query, radius)
    }

    /// Number of indexed elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when nothing is indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The element at stable arena index `i`.
    #[inline]
    pub fn point(&self, i: u32) -> &P {
        self.tree.point(i)
    }

    /// Structural statistics of the underlying tree.
    pub fn stats(&self) -> VpTreeStats {
        self.tree.stats()
    }

    /// Borrow the underlying static tree.
    pub fn as_tree(&self) -> &VpTree<P, M> {
        &self.tree
    }

    /// Attach search counters to the underlying tree (preserved across
    /// rebuilds, which restructure the arena in place).
    pub fn set_metrics(&mut self, metrics: crate::metrics::SearchMetrics) {
        self.tree.set_metrics(metrics);
    }

    /// The underlying tree's search counters.
    pub fn search_metrics(&self) -> &crate::metrics::SearchMetrics {
        self.tree.search_metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::brute_force_knn;
    use mendel_seq::{BlockDistance, Hamming};
    use rand::Rng;

    type Tree = DynamicVpTree<Vec<u8>, BlockDistance<Hamming>>;

    fn empty(bucket: usize) -> Tree {
        DynamicVpTree::new(BlockDistance::new(Hamming), bucket, 99)
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
        let metric = BlockDistance::new(Hamming);
        let mut t = empty(8);
        for p in points.clone() {
            t.insert(p);
        }
        for q in random_points(20, 8, 5) {
            let got: Vec<f32> = t.knn(&q, 4).iter().map(|n| n.dist).collect();
            let want: Vec<f32> = brute_force_knn(&points, &metric, &q, 4)
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
        t.compact();
        assert_eq!(t.check_invariants(), Ok(()));
        t.insert_batch(random_points(200, 8, 51)); // large batch: root rebuild
        assert_eq!(t.check_invariants(), Ok(()));
        t.insert_batch(random_points(5, 8, 52)); // small batch: per-element
        assert_eq!(t.check_invariants(), Ok(()));
    }

    #[test]
    fn indices_are_stable_across_rebuilds() {
        let points = random_points(200, 8, 6);
        let mut t = empty(2); // tiny buckets force many rebuilds
        let mut indices = Vec::new();
        for p in points.clone() {
            indices.push(t.insert(p).0);
        }
        assert!(t.rebuilds() > 0);
        for (i, p) in indices.into_iter().zip(points.iter()) {
            assert_eq!(t.point(i), p, "index {i} must still address its point");
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
    fn compact_preserves_answers() {
        let mut t = empty(2);
        let points = random_points(100, 6, 9);
        for p in points {
            t.insert(p);
        }
        let q = vec![1u8; 6];
        let before: Vec<f32> = t.knn(&q, 5).iter().map(|n| n.dist).collect();
        t.compact();
        let after: Vec<f32> = t.knn(&q, 5).iter().map(|n| n.dist).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn dynamic_searches_route_through_the_bounded_kernel_bit_identically() {
        // The dynamic tree delegates knn / budgeted knn / range to the
        // inner VpTree's bounded-kernel search; incremental inserts must
        // not break the bit-identity contract against an `Unbounded`
        // twin grown through the same mutation sequence.
        use mendel_seq::{MatrixDistance, ScoringMatrix, Unbounded};
        let matrix = MatrixDistance::mendel(&ScoringMatrix::blosum62());
        let mut bounded = DynamicVpTree::new(BlockDistance::new(matrix.clone()), 4, 7);
        let mut baseline = DynamicVpTree::new(BlockDistance::new(Unbounded(matrix)), 4, 7);
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
        let metric = BlockDistance::new(Hamming);
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
            let want: Vec<f32> = brute_force_knn(&all, &metric, &q, 3)
                .iter()
                .map(|n| n.dist)
                .collect();
            assert_eq!(got, want);
        }
    }
}
