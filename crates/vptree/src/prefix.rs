//! The vantage-point *prefix* tree LSH (§III-E/F).
//!
//! A full vp-tree over a voluminous dataset cannot serve as a hash
//! function ("maintaining a vp-tree for the entire dataset at this scale
//! is non-trivial"), so the paper builds a *depth-limited* vp-tree over a
//! sample of the data and uses root-to-node binary path prefixes as the
//! hash value: the root's prefix is 1, a left step shifts in a 0, a right
//! step shifts in a 1. Traversal stops at a cutoff depth threshold — "the
//! depth of the threshold effectively determines the resolution of
//! similarity that each group maintains" (Fig. 2) — and similar inputs
//! collide into the same bucket, which the two-tier DHT maps onto a node
//! group.
//!
//! Queries carry a tolerance τ: when a query ball straddles a partition
//! boundary (`|d − μ| ≤ τ`) the traversal follows *both* children and the
//! query is replicated to every group reached (§V-B).
//!
//! Routing wants the *group*, not the bucket. A [`GroupAssignment`] maps
//! contiguous bucket ranges to groups, so a vertex whose buckets all lie
//! in one group already names it: [`VpPrefixTree::group_of`] and
//! [`VpPrefixTree::groups_with_tolerance`] stop there and compute no
//! distance below it. With one group the root is decided and a window
//! routes with no distance at all.

use mendel_seq::Metric;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One internal vertex of the prefix tree: a vantage window and its μ.
#[derive(Debug, Clone)]
struct PrefixNode {
    vantage: Vec<u8>,
    radius: f32,
}

/// A depth-limited vp-tree over byte windows, used as a
/// locality-sensitive hash function.
#[derive(Debug)]
pub struct VpPrefixTree<M> {
    metric: M,
    depth: usize,
    /// Complete binary tree in heap order: node `i` has children `2i+1`,
    /// `2i+2`; there are `2^depth − 1` internal vertices.
    nodes: Vec<PrefixNode>,
}

impl<M: Metric<[u8]>> VpPrefixTree<M> {
    /// Build the hash tree from a `sample` of the data. `depth` is the
    /// cutoff threshold; the tree hashes into `2^depth` buckets.
    ///
    /// # Panics
    /// Panics if the sample is empty or `depth == 0`.
    pub fn build(sample: Vec<Vec<u8>>, metric: M, depth: usize, seed: u64) -> Self {
        assert!(depth >= 1, "depth threshold must be at least 1");
        assert!(!sample.is_empty(), "prefix tree needs a non-empty sample");
        let n_nodes = (1usize << depth) - 1;
        let fallback = sample[0].clone();
        let mut nodes: Vec<Option<PrefixNode>> = vec![None; n_nodes];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut tree = VpPrefixTree {
            metric,
            depth,
            nodes: Vec::new(),
        };
        tree.build_rec(0, sample, &fallback, &mut nodes, &mut rng);
        tree.nodes = nodes
            .into_iter()
            // `build_rec` fills every heap slot; should one ever be
            // missed, degrade to the total fallback router (everything
            // left) instead of aborting ingest.
            .map(|n| {
                n.unwrap_or_else(|| PrefixNode {
                    vantage: fallback.clone(),
                    radius: f32::INFINITY,
                })
            })
            .collect();
        #[cfg(feature = "strict-invariants")]
        tree.assert_invariants(std::slice::from_ref(&fallback), "build");
        tree
    }

    fn build_rec(
        &self,
        node: usize,
        mut items: Vec<Vec<u8>>,
        fallback: &[u8],
        out: &mut Vec<Option<PrefixNode>>,
        rng: &mut ChaCha8Rng,
    ) {
        if node >= out.len() {
            return;
        }
        if items.is_empty() {
            // Starved branch (duplicate-heavy samples): route everything
            // left with an infinite radius so hashing stays total.
            out[node] = Some(PrefixNode {
                vantage: fallback.to_vec(),
                radius: f32::INFINITY,
            });
            self.build_rec(2 * node + 1, Vec::new(), fallback, out, rng);
            self.build_rec(2 * node + 2, Vec::new(), fallback, out, rng);
            return;
        }
        // Random vantage from the sample (the spread heuristic matters
        // little at the coarse resolutions used for group hashing).
        let v_idx = rng.random_range(0..items.len());
        let vantage = items.swap_remove(v_idx);
        let mut dists: Vec<(Vec<u8>, f32)> = items
            .into_iter()
            .map(|p| {
                let d = self.metric.dist(&vantage, &p);
                (p, d)
            })
            .collect();
        let radius = if dists.is_empty() {
            0.0
        } else {
            let mid = (dists.len() - 1) / 2;
            dists.select_nth_unstable_by(mid, |a, b| a.1.total_cmp(&b.1));
            dists[mid].1
        };
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for (p, d) in dists {
            if d <= radius {
                left.push(p);
            } else {
                right.push(p);
            }
        }
        out[node] = Some(PrefixNode { vantage, radius });
        self.build_rec(2 * node + 1, left, fallback, out, rng);
        self.build_rec(2 * node + 2, right, fallback, out, rng);
    }

    /// Number of hash buckets (`2^depth`).
    #[inline]
    pub fn num_buckets(&self) -> usize {
        1 << self.depth
    }

    /// Hash a window to its path prefix. The prefix always has the top bit
    /// at position `depth` (root's 1), so distinct depths never collide.
    pub fn hash(&self, window: &[u8]) -> u64 {
        let mut prefix = 1u64;
        let mut node = 0usize;
        for _ in 0..self.depth {
            let pn = &self.nodes[node];
            let d = self.metric.dist(window, &pn.vantage);
            if d <= pn.radius {
                prefix <<= 1;
                node = 2 * node + 1;
            } else {
                prefix = (prefix << 1) | 1;
                node = 2 * node + 2;
            }
        }
        prefix
    }

    /// Hash with tolerance: whenever the query ball of radius `tau`
    /// straddles a vertex's boundary (`|d − μ| ≤ τ`) both children are
    /// followed. Returns the sorted, de-duplicated set of reachable
    /// prefixes (always at least one).
    pub fn hash_with_tolerance(&self, window: &[u8], tau: f32) -> Vec<u64> {
        let mut out = Vec::new();
        self.hash_tol_rec(0, 1, 0, window, tau, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn hash_tol_rec(
        &self,
        node: usize,
        prefix: u64,
        level: usize,
        window: &[u8],
        tau: f32,
        out: &mut Vec<u64>,
    ) {
        if level == self.depth {
            out.push(prefix);
            return;
        }
        let pn = &self.nodes[node];
        let d = self.metric.dist(window, &pn.vantage);
        let go_left = d <= pn.radius + tau;
        let go_right = d + tau > pn.radius;
        if go_left {
            self.hash_tol_rec(2 * node + 1, prefix << 1, level + 1, window, tau, out);
        }
        if go_right || !go_left {
            self.hash_tol_rec(2 * node + 2, (prefix << 1) | 1, level + 1, window, tau, out);
        }
    }

    /// The group of `window` under `groups`: exactly
    /// `groups.group_of_bucket(self.bucket_index(self.hash(window)))`, but
    /// the descent stops at the first vertex whose buckets all map to one
    /// group, so no distance is computed below it.
    pub fn group_of(&self, window: &[u8], groups: &GroupAssignment) -> usize {
        debug_assert_eq!(groups.num_buckets(), self.num_buckets());
        let mut node = 0usize;
        loop {
            if let Some(g) = self.decided(node, groups) {
                return g;
            }
            let pn = &self.nodes[node];
            let right = self.metric.dist(window, &pn.vantage) > pn.radius;
            node = 2 * node + 1 + usize::from(right);
        }
    }

    /// The groups `window` reaches under tolerance `tau`, sorted and
    /// de-duplicated: exactly the groups of [`Self::hash_with_tolerance`]'s
    /// buckets, with every branch stopped at the first vertex whose
    /// buckets all map to one group.
    pub fn groups_with_tolerance(
        &self,
        window: &[u8],
        tau: f32,
        groups: &GroupAssignment,
    ) -> Vec<usize> {
        debug_assert_eq!(groups.num_buckets(), self.num_buckets());
        let mut out = Vec::new();
        self.groups_tol_rec(0, window, tau, groups, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn groups_tol_rec(
        &self,
        node: usize,
        window: &[u8],
        tau: f32,
        groups: &GroupAssignment,
        out: &mut Vec<usize>,
    ) {
        if let Some(g) = self.decided(node, groups) {
            out.push(g);
            return;
        }
        let pn = &self.nodes[node];
        let d = self.metric.dist(window, &pn.vantage);
        let go_left = d <= pn.radius + tau;
        let go_right = d + tau > pn.radius;
        if go_left {
            self.groups_tol_rec(2 * node + 1, window, tau, groups, out);
        }
        if go_right || !go_left {
            self.groups_tol_rec(2 * node + 2, window, tau, groups, out);
        }
    }

    /// The group of every bucket under heap vertex `node` (the leaves
    /// past the internal vertices are the buckets), when they share one.
    /// The vertex's path prefix is `node + 1`, whose bit length puts it at
    /// level `l`, and it covers the `2^(depth − l)` buckets whose prefixes
    /// extend it; an assignment is monotone, so the range's ends deciding
    /// alike decides the whole range. A leaf is always decided.
    #[inline]
    fn decided(&self, node: usize, groups: &GroupAssignment) -> Option<usize> {
        let prefix = node + 1;
        let shift = self.depth - prefix.ilog2() as usize;
        let lo = (prefix << shift) - self.num_buckets();
        let g = groups.group_of_bucket(lo);
        (g == groups.group_of_bucket(lo + (1 << shift) - 1)).then_some(g)
    }

    /// Structural validation of the hash tree (the `strict-invariants`
    /// checker): heap completeness (`2^depth − 1` vertices), well-formed
    /// radii (non-negative; `+∞` marks starved fallback branches), and —
    /// for each supplied probe — path consistency: the hash is stable,
    /// carries the top bit at `depth`, maps to a dense bucket in range,
    /// and the tolerance traversal at `τ = 0` reproduces exactly it.
    pub fn check_invariants(&self, probes: &[Vec<u8>]) -> Result<(), String> {
        if self.depth == 0 {
            return Err("depth threshold is zero".into());
        }
        let want = (1usize << self.depth) - 1;
        if self.nodes.len() != want {
            return Err(format!(
                "heap-order tree has {} vertices, depth {} needs {want}",
                self.nodes.len(),
                self.depth
            ));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.radius.is_nan() || n.radius < 0.0 {
                return Err(format!("vertex {i} has invalid radius {}", n.radius));
            }
        }
        for (i, p) in probes.iter().enumerate() {
            let h = self.hash(p);
            if h >> self.depth != 1 {
                return Err(format!(
                    "probe {i}: prefix {h:#b} lacks the top bit at depth {}",
                    self.depth
                ));
            }
            if self.hash(p) != h {
                return Err(format!("probe {i}: hash is not deterministic"));
            }
            let bucket = (h as usize) - (1usize << self.depth);
            if bucket >= self.num_buckets() {
                return Err(format!(
                    "probe {i}: bucket {bucket} out of range ({} buckets)",
                    self.num_buckets()
                ));
            }
            let exact = self.hash_with_tolerance(p, 0.0);
            if exact != [h] {
                return Err(format!(
                    "probe {i}: τ = 0 traversal yields {exact:?}, expected [{h}]"
                ));
            }
        }
        Ok(())
    }

    /// Abort with the violation when [`Self::check_invariants`] fails —
    /// called after builds under `strict-invariants`.
    #[cfg(feature = "strict-invariants")]
    fn assert_invariants(&self, probes: &[Vec<u8>], site: &str) {
        #[expect(
            clippy::panic,
            reason = "strict-invariants mode aborts on structural corruption by design"
        )]
        if let Err(e) = self.check_invariants(probes) {
            panic!("vp-prefix-tree invariant violated after {site}: {e}");
        }
    }

    /// Convert a depth-level prefix to a dense bucket index in
    /// `[0, 2^depth)`.
    #[inline]
    pub fn bucket_index(&self, prefix: u64) -> usize {
        debug_assert_eq!(
            prefix >> self.depth,
            1,
            "prefix {prefix:#b} is not at depth {}",
            self.depth
        );
        (prefix as usize) - (1usize << self.depth)
    }
}

/// Maps hash buckets onto a fixed set of node groups. Contiguous prefix
/// ranges map to the same group, preserving what path locality the prefix
/// carries (§IV-C: "The size and quantity of groups are a
/// user-configurable parameter").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupAssignment {
    /// `log2` of the bucket count.
    shift: u32,
    groups: usize,
}

impl GroupAssignment {
    /// Assignment of `buckets` hash buckets — a power of two, as a prefix
    /// tree's `2^depth` is — onto `groups` groups.
    ///
    /// # Panics
    /// Panics unless `buckets` is a power of two and `1 ≤ groups ≤ buckets`.
    pub fn new(buckets: usize, groups: usize) -> Self {
        assert!(
            buckets.is_power_of_two(),
            "bucket count {buckets} is not a power of two"
        );
        assert!(groups >= 1, "at least one group");
        assert!(
            groups <= buckets,
            "more groups ({groups}) than buckets ({buckets})"
        );
        GroupAssignment {
            shift: buckets.trailing_zeros(),
            groups,
        }
    }

    /// Group of a dense bucket index: `⌊bucket · groups / buckets⌋`, a
    /// shift because the bucket count is a power of two.
    #[inline]
    pub fn group_of_bucket(&self, bucket: usize) -> usize {
        debug_assert!(bucket < self.num_buckets());
        (bucket * self.groups) >> self.shift
    }

    /// Number of buckets.
    #[inline]
    pub fn num_buckets(&self) -> usize {
        1 << self.shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mendel_seq::Hamming;
    use rand::Rng;

    type Tree = VpPrefixTree<Hamming>;

    fn random_points(n: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..len).map(|_| rng.random_range(0..20u8)).collect())
            .collect()
    }

    fn build(depth: usize, seed: u64) -> (Tree, Vec<Vec<u8>>) {
        let sample = random_points(1000, 16, seed);
        (
            VpPrefixTree::build(sample.clone(), Hamming, depth, seed),
            sample,
        )
    }

    #[test]
    fn hash_is_deterministic_and_in_range() {
        let (t, sample) = build(4, 1);
        for p in sample.iter().take(100) {
            let h1 = t.hash(p);
            let h2 = t.hash(p);
            assert_eq!(h1, h2);
            assert_eq!(h1 >> 4, 1, "top bit at depth position");
            assert!(t.bucket_index(h1) < t.num_buckets());
        }
    }

    #[test]
    fn identical_points_always_collide() {
        let (t, _) = build(5, 2);
        let p = random_points(1, 16, 3).pop().unwrap();
        assert_eq!(t.hash(&p), t.hash(&p.clone()));
    }

    #[test]
    fn similar_points_collide_more_than_dissimilar() {
        // The LSH property (§III-E): near neighbours should land in the
        // same bucket far more often than random pairs.
        let (t, _) = build(4, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut near_hits = 0;
        let mut far_hits = 0;
        const TRIALS: usize = 300;
        for _ in 0..TRIALS {
            let p: Vec<u8> = (0..16).map(|_| rng.random_range(0..20u8)).collect();
            // 1-substitution neighbour.
            let mut near = p.clone();
            let pos: usize = rng.random_range(0..16);
            near[pos] = (near[pos] + 1 + rng.random_range(0..18u8)) % 20;
            // Unrelated point.
            let far: Vec<u8> = (0..16).map(|_| rng.random_range(0..20u8)).collect();
            if t.hash(&p) == t.hash(&near) {
                near_hits += 1;
            }
            if t.hash(&p) == t.hash(&far) {
                far_hits += 1;
            }
        }
        assert!(
            near_hits > far_hits + TRIALS / 10,
            "near collisions ({near_hits}) must clearly exceed far ({far_hits})"
        );
    }

    #[test]
    fn deeper_threshold_means_finer_resolution() {
        // Fig. 2: the depth threshold sets the similarity resolution —
        // deeper trees spread the same data across more buckets.
        let sample = random_points(2000, 16, 6);
        let shallow = VpPrefixTree::build(sample.clone(), Hamming, 2, 6);
        let deep = VpPrefixTree::build(sample.clone(), Hamming, 6, 6);
        let count_distinct = |t: &Tree| {
            let mut set = std::collections::HashSet::new();
            for p in sample.iter() {
                set.insert(t.hash(p));
            }
            set.len()
        };
        assert!(count_distinct(&deep) > count_distinct(&shallow));
        assert!(count_distinct(&shallow) <= 4);
    }

    #[test]
    fn tolerance_zero_matches_plain_hash() {
        let (t, sample) = build(5, 7);
        for p in sample.iter().take(50) {
            assert_eq!(t.hash_with_tolerance(p, 0.0), vec![t.hash(p)]);
        }
    }

    #[test]
    fn tolerance_fanout_is_superset_and_grows() {
        let (t, sample) = build(5, 8);
        for p in sample.iter().take(50) {
            let exact = t.hash(p);
            let small = t.hash_with_tolerance(p, 2.0);
            let large = t.hash_with_tolerance(p, 8.0);
            assert!(small.contains(&exact));
            assert!(
                small.iter().all(|h| large.contains(h)),
                "fanout must be monotone in τ"
            );
        }
        let total: usize = sample
            .iter()
            .take(50)
            .map(|p| t.hash_with_tolerance(p, 8.0).len())
            .sum();
        assert!(total > 50, "a large τ must branch somewhere");
    }

    #[test]
    fn infinite_tolerance_reaches_every_bucket() {
        let (t, sample) = build(3, 9);
        let all = t.hash_with_tolerance(&sample[0], f32::INFINITY);
        assert_eq!(all.len(), t.num_buckets());
    }

    #[test]
    fn duplicate_sample_still_hashes_totally() {
        let sample = vec![vec![7u8; 8]; 64];
        let t: Tree = VpPrefixTree::build(sample, Hamming, 4, 10);
        let h = t.hash(&[7u8; 8]);
        assert!(t.bucket_index(h) < 16);
        let other = t.hash(&[3u8; 8]);
        assert!(t.bucket_index(other) < 16);
    }

    #[test]
    fn invariants_hold_for_built_hash_trees() {
        for depth in [1usize, 3, 6] {
            let (t, sample) = build(depth, depth as u64);
            assert_eq!(t.check_invariants(&sample[..100]), Ok(()), "depth {depth}");
        }
        // Duplicate-heavy samples build starved (fallback) branches.
        let dup: Tree = VpPrefixTree::build(vec![vec![7u8; 8]; 64], Hamming, 4, 10);
        assert_eq!(dup.check_invariants(&[vec![7u8; 8], vec![3u8; 8]]), Ok(()));
    }

    #[test]
    fn truncated_heap_is_detected() {
        let (mut t, sample) = build(4, 77);
        t.nodes.pop();
        let err = t.check_invariants(&sample[..1]).unwrap_err();
        assert!(err.contains("vertices"), "unexpected message: {err}");
    }

    #[test]
    #[should_panic(expected = "non-empty sample")]
    fn empty_sample_rejected() {
        let _: Tree = VpPrefixTree::build(vec![], Hamming, 3, 0);
    }

    #[test]
    #[should_panic(expected = "depth threshold")]
    fn zero_depth_rejected() {
        let _: Tree = VpPrefixTree::build(vec![vec![0u8]], Hamming, 0, 0);
    }

    /// For every depth 1–6 and every group count the tree allows, the
    /// early-stopping traversals route random windows (and the sample)
    /// exactly as grouping the full traversals' buckets does.
    #[test]
    fn group_traversals_equal_grouped_bucket_hashes() {
        for depth in 1..=6usize {
            let (t, sample) = build(depth, 40 + depth as u64);
            let mut windows = random_points(100, 16, 90 + depth as u64);
            windows.extend_from_slice(&sample[..20]);
            for groups in 1..=t.num_buckets() {
                let ga = GroupAssignment::new(t.num_buckets(), groups);
                for (i, w) in windows.iter().enumerate() {
                    let want = ga.group_of_bucket(t.bucket_index(t.hash(w)));
                    assert_eq!(
                        t.group_of(w, &ga),
                        want,
                        "depth {depth}, {groups} groups, window {i}"
                    );
                    for tau in [0.0, 0.5, 1.0, 1.5, 4.0, f32::INFINITY] {
                        let mut want: Vec<usize> = t
                            .hash_with_tolerance(w, tau)
                            .into_iter()
                            .map(|p| ga.group_of_bucket(t.bucket_index(p)))
                            .collect();
                        want.dedup();
                        assert_eq!(
                            t.groups_with_tolerance(w, tau, &ga),
                            want,
                            "depth {depth}, {groups} groups, window {i}, τ {tau}"
                        );
                    }
                }
            }
        }
    }

    /// Hamming, counting its calls.
    #[derive(Default)]
    struct Counting(std::sync::atomic::AtomicUsize);

    impl Metric<[u8]> for Counting {
        fn dist(&self, a: &[u8], b: &[u8]) -> f32 {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed); // audit:ordering(Relaxed): a single-threaded test's call count
            Hamming.dist(a, b)
        }
    }

    /// Distances the group traversals compute for `windows` under `ga`:
    /// one descent each, then one tolerance descent each at `tau`.
    fn distances(
        t: &VpPrefixTree<Counting>,
        windows: &[Vec<u8>],
        ga: &GroupAssignment,
        tau: f32,
    ) -> [usize; 2] {
        let count = || t.metric.0.swap(0, std::sync::atomic::Ordering::Relaxed); // audit:ordering(Relaxed): a single-threaded test's call count
        count();
        for w in windows {
            let _ = t.group_of(w, ga);
        }
        let exact = count();
        for w in windows {
            let _ = t.groups_with_tolerance(w, tau, ga);
        }
        [exact, count()]
    }

    #[test]
    fn one_group_routes_with_no_distance() {
        let sample = random_points(500, 16, 11);
        let t = VpPrefixTree::build(sample.clone(), Counting::default(), 5, 11);
        let one = GroupAssignment::new(t.num_buckets(), 1);
        for tau in [0.0, 1.0, f32::INFINITY] {
            assert_eq!(distances(&t, &sample, &one, tau), [0, 0], "τ {tau}");
        }
        // The full traversals pay a distance per level on the same tree.
        let every = GroupAssignment::new(t.num_buckets(), t.num_buckets());
        assert_eq!(distances(&t, &sample, &every, 0.0), [5 * 500, 5 * 500]);
    }

    /// Depth 3 over three groups (buckets → 0 0 0 1 1 1 2 2): three of the
    /// four level-2 vertices are decided, so only windows that reach the
    /// second of them pay a third distance.
    #[test]
    fn three_groups_stop_at_three_of_four_level_two_vertices() {
        let t = VpPrefixTree::build(random_points(500, 16, 12), Counting::default(), 3, 12);
        let ga = GroupAssignment::new(8, 3);
        let decided: Vec<bool> = (3..7).map(|v| t.decided(v, &ga).is_some()).collect();
        assert_eq!(decided, [true, false, true, true]);
        assert!((0..3).all(|v| t.decided(v, &ga).is_none()));
        let windows = random_points(300, 16, 13);
        let via_vertex_4 = windows
            .iter()
            .filter(|w| matches!(t.bucket_index(t.hash(w)), 2 | 3))
            .count();
        assert_eq!(distances(&t, &windows, &ga, 0.0)[0], 2 * 300 + via_vertex_4);
    }

    #[test]
    fn group_assignment_covers_all_groups_evenly() {
        let ga = GroupAssignment::new(64, 10);
        let mut counts = vec![0usize; 10];
        for b in 0..64 {
            counts[ga.group_of_bucket(b)] += 1;
        }
        assert!(counts.iter().all(|c| (6..=7).contains(c)), "{counts:?}");
    }

    #[test]
    fn group_assignment_is_monotone() {
        // Contiguous buckets map to contiguous groups, preserving prefix
        // locality.
        let ga = GroupAssignment::new(32, 8);
        for b in 1..32 {
            assert!(ga.group_of_bucket(b) >= ga.group_of_bucket(b - 1));
        }
    }

    #[test]
    #[should_panic(expected = "more groups")]
    fn too_many_groups_rejected() {
        GroupAssignment::new(4, 8);
    }

    /// The shift is the division it replaces, for every bucket of every
    /// assignment a depth 1–8 tree can make.
    #[test]
    fn group_of_bucket_is_the_floor_of_the_proportional_share() {
        for depth in 1..=8 {
            let buckets = 1usize << depth;
            for groups in 1..=buckets {
                let ga = GroupAssignment::new(buckets, groups);
                for b in 0..buckets {
                    assert_eq!(ga.group_of_bucket(b), b * groups / buckets);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bucket_count_must_be_a_power_of_two() {
        GroupAssignment::new(48, 3);
    }
}
