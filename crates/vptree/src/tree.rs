//! The bulk-built vantage-point tree (§III-A/C/D).
//!
//! A binary metric-space partitioning tree: each internal vertex holds a
//! vantage point and a radius μ covering roughly half of its elements
//! (those within μ go left, the rest right). Both §III-D optimizations
//! are implemented:
//!
//! 1. **leaf buckets** — leaves hold up to `bucket_capacity` elements,
//!    shrinking the vertex count dramatically for large collections;
//! 2. **subtree bounds** — every internal vertex stores the `[min, max]`
//!    distance band of each child's elements as seen from its vantage
//!    point, giving the search a tighter prune than μ alone.

use crate::knn::{KnnHeap, Neighbor};
use crate::metrics::{SearchMetrics, SearchTally};
use mendel_seq::Metric;
use rand::seq::index::sample;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Sentinel for "no node".
pub(crate) const NIL: u32 = u32::MAX;

/// Candidates scored per [`Metric::scan_bounded`] call during a k-NN leaf
/// scan. One chunk shares a single bound (τ at chunk start): smaller
/// chunks track the shrinking τ more closely, larger ones fill the
/// kernel's lanes better. 32 is the paper testbed's bucket capacity, so a
/// full leaf is one call.
const LEAF_CHUNK: usize = 32;

/// Arena node of a vp-tree.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    /// Internal vertex: vantage element, radius μ, children, and the
    /// distance bounds of each child's elements from the vantage point.
    Internal {
        /// Index of the vantage element in the point arena.
        vantage: u32,
        /// Partition radius μ: left elements satisfy `d ≤ μ`, right `d ≥ μ`.
        radius: f32,
        /// Left ("near") child node index.
        left: u32,
        /// Right ("far") child node index.
        right: u32,
        /// `[min, max]` distances of left-subtree elements to `vantage`.
        left_bounds: (f32, f32),
        /// `[min, max]` distances of right-subtree elements to `vantage`.
        right_bounds: (f32, f32),
    },
    /// Leaf vertex holding a bucket of element indices.
    Leaf {
        /// Indices into the point arena.
        bucket: Vec<u32>,
    },
}

/// A bulk-built vantage-point tree over points of type `P` under metric `M`.
#[derive(Debug)]
pub struct VpTree<P, M> {
    pub(crate) metric: M,
    pub(crate) points: Vec<P>,
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: u32,
    pub(crate) bucket_capacity: usize,
    pub(crate) seed: u64,
    /// Search instrumentation (`mendel.vptree.*`); detached by default,
    /// attach registry-backed handles with [`VpTree::set_metrics`].
    pub(crate) obs: SearchMetrics,
}

/// The mutable state of one k-NN search, threaded through the recursion.
/// The survivors scratch lives here so a leaf scan allocates nothing.
struct Search {
    heap: KnnHeap,
    budget: usize,
    tally: SearchTally,
    /// `(position in chunk, distance)` pairs of the chunk being replayed.
    survivors: Vec<(u32, f32)>,
}

/// Structural statistics, used by balance tests and the ablation benches.
#[derive(Debug, Clone, PartialEq)]
pub struct VpTreeStats {
    /// Total elements indexed.
    pub points: usize,
    /// Number of internal vertices.
    pub internal_nodes: usize,
    /// Number of leaf vertices.
    pub leaves: usize,
    /// Maximum root-to-leaf depth (root = 0; empty tree = 0).
    pub max_depth: usize,
    /// Minimum root-to-leaf depth.
    pub min_depth: usize,
    /// Mean leaf-bucket occupancy.
    pub mean_bucket_fill: f64,
}

impl<P, M: Metric<P>> VpTree<P, M> {
    /// Build a tree over `points` with the given leaf-bucket capacity.
    /// `seed` drives vantage-point sampling; the same inputs always build
    /// the same tree.
    pub fn build(points: Vec<P>, metric: M, bucket_capacity: usize, seed: u64) -> Self {
        assert!(bucket_capacity >= 1, "bucket capacity must be at least 1");
        let mut tree = VpTree {
            metric,
            points,
            nodes: Vec::new(),
            root: NIL,
            bucket_capacity,
            seed,
            obs: SearchMetrics::default(),
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut items: Vec<u32> = (0..tree.points.len() as u32).collect();
        tree.root = tree.build_rec(&mut items, &mut rng);
        #[cfg(feature = "strict-invariants")]
        tree.assert_invariants("build");
        tree
    }

    /// Recursively build the subtree over `items`, returning its node index.
    pub(crate) fn build_rec(&mut self, items: &mut [u32], rng: &mut impl Rng) -> u32 {
        if items.is_empty() {
            return NIL;
        }
        if items.len() <= self.bucket_capacity {
            self.nodes.push(Node::Leaf {
                bucket: items.to_vec(),
            });
            return (self.nodes.len() - 1) as u32;
        }
        let v_pos = self.pick_vantage(items, rng);
        items.swap(0, v_pos);
        let vantage = items[0];
        let rest = &mut items[1..];

        // Distances of the remaining elements to the vantage point.
        let mut dists: Vec<(u32, f32)> = rest
            .iter()
            .map(|&i| {
                (
                    i,
                    self.metric
                        .dist(&self.points[vantage as usize], &self.points[i as usize]),
                )
            })
            .collect();
        // Median split: the radius must "encompass roughly half of the data
        // points in order to maintain a balanced vp-tree" (§III-A).
        let mid = (dists.len() - 1) / 2;
        dists.select_nth_unstable_by(mid, |a, b| a.1.total_cmp(&b.1));
        let mut radius = dists[mid].1;
        // Left: d ≤ μ. Right: d > μ. Ties beyond the median spill left, so
        // rebalance pure-tie splits by count to avoid degenerate recursion.
        let mut left: Vec<(u32, f32)> = Vec::with_capacity(mid + 1);
        let mut right: Vec<(u32, f32)> = Vec::with_capacity(dists.len() - mid);
        for &(i, d) in dists.iter() {
            if d <= radius {
                left.push((i, d));
            } else {
                right.push((i, d));
            }
        }
        if right.is_empty() && left.len() > self.bucket_capacity {
            // The upper half of the distances ties the median, so `d > μ`
            // selected nothing. Lower μ to the largest distance *below*
            // the tie so the boundary points go right — keeping descent
            // deterministic for equal inputs. Only when every element is
            // exactly equidistant is an arbitrary count split unavoidable.
            let maxd = radius;
            let below = left
                .iter()
                .map(|&(_, d)| d)
                .filter(|&d| d < maxd)
                .fold(f32::NEG_INFINITY, f32::max);
            if below.is_finite() {
                radius = below;
                right = left.iter().copied().filter(|&(_, d)| d > radius).collect();
                left.retain(|&(_, d)| d <= radius);
            } else {
                let half = left.len() / 2;
                right = left.split_off(half);
            }
        }

        let bounds = |side: &[(u32, f32)]| -> (f32, f32) {
            side.iter()
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &(_, d)| {
                    (lo.min(d), hi.max(d))
                })
        };
        let left_bounds = bounds(&left);
        let right_bounds = bounds(&right);

        let mut left_items: Vec<u32> = left.into_iter().map(|(i, _)| i).collect();
        let mut right_items: Vec<u32> = right.into_iter().map(|(i, _)| i).collect();
        let left_node = self.build_rec(&mut left_items, rng);
        let right_node = self.build_rec(&mut right_items, rng);
        self.nodes.push(Node::Internal {
            vantage,
            radius,
            left: left_node,
            right: right_node,
            left_bounds,
            right_bounds,
        });
        (self.nodes.len() - 1) as u32
    }

    /// Yianilos' spread heuristic: sample a few candidates, estimate each
    /// one's distance spread against a random subset, keep the widest.
    fn pick_vantage(&self, items: &[u32], rng: &mut impl Rng) -> usize {
        const CANDIDATES: usize = 5;
        const PROBES: usize = 12;
        if items.len() <= 2 {
            return 0;
        }
        let n_cand = CANDIDATES.min(items.len());
        let n_probe = PROBES.min(items.len());
        let cands = sample(rng, items.len(), n_cand);
        let probes: Vec<usize> = sample(rng, items.len(), n_probe).into_iter().collect();
        let mut best = (0usize, f32::NEG_INFINITY);
        for c in cands {
            let cp = &self.points[items[c] as usize];
            let ds: Vec<f32> = probes
                .iter()
                .map(|&p| self.metric.dist(cp, &self.points[items[p] as usize]))
                .collect();
            let mean = ds.iter().sum::<f32>() / ds.len() as f32;
            let var = ds.iter().map(|d| (d - mean) * (d - mean)).sum::<f32>() / ds.len() as f32;
            if var > best.1 {
                best = (c, var);
            }
        }
        best.0
    }

    /// Number of indexed elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the tree indexes nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The indexed point at arena index `i` (as returned in [`Neighbor`]).
    #[inline]
    pub fn point(&self, i: u32) -> &P {
        &self.points[i as usize]
    }

    /// All points, in arena order.
    #[inline]
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// The `n` nearest neighbours of `query`, sorted by ascending distance
    /// (§III-C's single root-to-leaf style traversal with shrinking τ).
    pub fn knn(&self, query: &P, n: usize) -> Vec<Neighbor> {
        self.knn_with_budget(query, n, usize::MAX)
    }

    /// k-NN with a *visit budget*: the traversal follows the normal
    /// near-side-first order but stops once `budget` distance
    /// evaluations have been spent.
    ///
    /// Why this exists: the paper claims O(log n) average searches, but
    /// for short sequence windows pairwise distances concentrate (random
    /// 16-residue windows all sit within a few σ of the mean), so the τ
    /// prune almost never fires and exact k-NN degenerates to a full
    /// scan. Near-first traversal reaches genuinely similar blocks in
    /// the first few hundred visits; the budget caps the exhaustive tail
    /// that could only ever return chance neighbours. `usize::MAX` gives
    /// the exact search. The sensitivity cost of finite budgets is
    /// measured in the Fig. 6d harness (see EXPERIMENTS.md).
    pub fn knn_with_budget(&self, query: &P, n: usize, budget: usize) -> Vec<Neighbor> {
        if self.root == NIL || n == 0 || budget == 0 {
            return Vec::new();
        }
        let mut search = Search {
            heap: KnnHeap::new(n),
            budget,
            tally: SearchTally::default(),
            survivors: Vec::with_capacity(LEAF_CHUNK),
        };
        self.search_rec(self.root, query, &mut search);
        search.tally.flush(&self.obs);
        search.heap.into_sorted()
    }

    /// All neighbours within distance `radius` of `query`, sorted by
    /// ascending distance.
    pub fn range(&self, query: &P, radius: f32) -> Vec<Neighbor> {
        let mut out = Vec::new();
        if self.root != NIL {
            let mut tally = SearchTally::default();
            let mut survivors = Vec::new();
            self.range_rec(
                self.root,
                query,
                radius,
                &mut out,
                &mut survivors,
                &mut tally,
            );
            tally.flush(&self.obs);
        }
        out.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.index.cmp(&b.index)));
        out
    }

    /// The one leaf scan: score `ids` against `query` under `bound` in a
    /// single kernel call, leaving `(position in ids, distance)` of every
    /// candidate with `d ≤ bound` in `survivors`, in bucket order.
    #[inline]
    fn scan_leaf(&self, query: &P, ids: &[u32], bound: f32, survivors: &mut Vec<(u32, f32)>) {
        survivors.clear();
        let cands = ids.iter().map(|&i| &self.points[i as usize]);
        self.metric.scan_bounded(query, cands, bound, survivors);
    }

    fn search_rec(&self, node: u32, query: &P, s: &mut Search) {
        if s.budget == 0 {
            return;
        }
        s.tally.nodes_visited += 1;
        match &self.nodes[node as usize] {
            Node::Leaf { bucket } => {
                s.tally.leaf_scans += 1;
                // Whole-chunk leaf scan. A chunk is scored under the τ
                // held when it starts and its survivors are replayed, in
                // bucket order, against the live τ — which only shrinks,
                // so `τ_live ≤ τ_chunk` and by the `scan_bounded` contract
                // (`d` reported ⟺ `d ≤ bound`):
                //   * not reported ⟹ d > τ_chunk ≥ τ_live: the one-by-one
                //     scan would abandon it too;
                //   * reported, d ≤ τ_live: the one-by-one scan would see
                //     the same bits and offer them;
                //   * reported, d > τ_live: one-by-one abandons.
                // Truncating the chunk to the remaining budget stops on
                // the candidate the one-by-one loop would stop on, so
                // results and all four counters are those of scoring the
                // bucket a candidate at a time.
                for chunk in bucket.chunks(LEAF_CHUNK) {
                    if s.budget == 0 {
                        return;
                    }
                    let chunk = &chunk[..chunk.len().min(s.budget)];
                    self.scan_leaf(query, chunk, s.heap.tau(), &mut s.survivors);
                    s.budget -= chunk.len();
                    s.tally.dist_calls += chunk.len() as u64;
                    let mut offered = 0;
                    for &(j, d) in &s.survivors {
                        if d <= s.heap.tau() {
                            s.heap.offer(chunk[j as usize], d);
                            offered += 1;
                        }
                    }
                    s.tally.early_abandons += chunk.len() as u64 - offered;
                }
            }
            Node::Internal {
                vantage,
                radius,
                left,
                right,
                left_bounds,
                right_bounds,
            } => {
                // The vantage distance also routes the descent, so it needs a
                // looser bound than τ: past `τ + max(child hi)` the vantage
                // cannot enter the heap (d > τ) *and* the query ball misses
                // both child bands (d − τ > hi), so the whole subtree is
                // pruned — exactly what the unbounded traversal would do.
                let tau = s.heap.tau();
                let vantage_bound = if tau.is_infinite() {
                    f32::INFINITY
                } else {
                    tau + left_bounds.1.max(right_bounds.1)
                };
                let bounded =
                    self.metric
                        .dist_bounded(query, &self.points[*vantage as usize], vantage_bound);
                s.budget -= 1;
                s.tally.dist_calls += 1;
                let Some(d) = bounded else {
                    s.tally.early_abandons += 1;
                    return;
                };
                s.heap.offer(*vantage, d);
                // Visit the likelier side first so τ shrinks early (and so
                // a finite budget is spent where matches actually live).
                let (first, second, fb, sb) = if d <= *radius {
                    (*left, *right, *left_bounds, *right_bounds)
                } else {
                    (*right, *left, *right_bounds, *left_bounds)
                };
                if first != NIL && Self::band_intersects(d, s.heap.tau(), fb) {
                    self.search_rec(first, query, s);
                }
                if second != NIL && Self::band_intersects(d, s.heap.tau(), sb) {
                    self.search_rec(second, query, s);
                }
            }
        }
    }

    /// §III-D bound prune: the child can contain a result only if the query
    /// ball `[d−τ, d+τ]` intersects the child's distance band `[lo, hi]`
    /// as seen from the vantage point.
    #[inline]
    pub(crate) fn band_intersects(d: f32, tau: f32, (lo, hi): (f32, f32)) -> bool {
        if tau.is_infinite() {
            return true;
        }
        d - tau <= hi && d + tau >= lo
    }

    fn range_rec(
        &self,
        node: u32,
        query: &P,
        radius: f32,
        out: &mut Vec<Neighbor>,
        survivors: &mut Vec<(u32, f32)>,
        tally: &mut SearchTally,
    ) {
        tally.nodes_visited += 1;
        match &self.nodes[node as usize] {
            Node::Leaf { bucket } => {
                tally.leaf_scans += 1;
                // The bound never moves, so the whole bucket is one scan
                // and a survivor (d ≤ radius) is exactly a member.
                self.scan_leaf(query, bucket, radius, survivors);
                tally.dist_calls += bucket.len() as u64;
                tally.early_abandons += (bucket.len() - survivors.len()) as u64;
                out.extend(survivors.iter().map(|&(j, dist)| Neighbor {
                    index: bucket[j as usize],
                    dist,
                }));
            }
            Node::Internal {
                vantage,
                left,
                right,
                left_bounds,
                right_bounds,
                ..
            } => {
                // Same argument as the k-NN vantage bound with τ = radius:
                // past `radius + max(child hi)` neither the vantage nor any
                // subtree element can be in range.
                let vantage_bound = if radius.is_infinite() {
                    f32::INFINITY
                } else {
                    radius + left_bounds.1.max(right_bounds.1)
                };
                tally.dist_calls += 1;
                let Some(d) =
                    self.metric
                        .dist_bounded(query, &self.points[*vantage as usize], vantage_bound)
                else {
                    tally.early_abandons += 1;
                    return;
                };
                if d <= radius {
                    out.push(Neighbor {
                        index: *vantage,
                        dist: d,
                    });
                }
                if *left != NIL && Self::band_intersects(d, radius, *left_bounds) {
                    self.range_rec(*left, query, radius, out, survivors, tally);
                }
                if *right != NIL && Self::band_intersects(d, radius, *right_bounds) {
                    self.range_rec(*right, query, radius, out, survivors, tally);
                }
            }
        }
    }

    /// Attach search counters (e.g. registry-backed handles from
    /// [`SearchMetrics::registered`]); the default is detached handles.
    /// Cloning one `SearchMetrics` into several trees aggregates their
    /// traffic onto the same counters.
    pub fn set_metrics(&mut self, metrics: SearchMetrics) {
        self.obs = metrics;
    }

    /// The tree's search counters.
    pub fn search_metrics(&self) -> &SearchMetrics {
        &self.obs
    }

    /// Structural statistics (depth, balance, bucket fill).
    pub fn stats(&self) -> VpTreeStats {
        let mut s = VpTreeStats {
            points: self.points.len(),
            internal_nodes: 0,
            leaves: 0,
            max_depth: 0,
            min_depth: usize::MAX,
            mean_bucket_fill: 0.0,
        };
        let mut fill = 0usize;
        if self.root != NIL {
            self.stats_rec(self.root, 0, &mut s, &mut fill);
        }
        if s.leaves > 0 {
            s.mean_bucket_fill = fill as f64 / s.leaves as f64;
        } else {
            s.min_depth = 0;
        }
        s
    }

    /// Deep structural validation (the `strict-invariants` checker):
    ///
    /// - **μ split** — every element in a left subtree is within its
    ///   ancestor's radius (`d ≤ μ`), every right element outside or on
    ///   it (`d ≥ μ`; ties land right after the equidistant rebalance);
    /// - **bounds containment** — every subtree element's distance to
    ///   the ancestor vantage lies inside the stored `[lo, hi]` band
    ///   (bounds may over-approximate after expand-only dynamic
    ///   updates, so containment — not tightness — is the invariant);
    /// - **arena accounting** — every point index appears exactly once
    ///   among reachable vantages and leaf buckets, every reachable
    ///   node is visited at most once (no cycles or shared subtrees;
    ///   orphan nodes left by subtree rebuilds are legal garbage);
    /// - **leaf occupancy** — buckets hold `1..=bucket_capacity`
    ///   elements.
    ///
    /// Returns the first violation found. Compiled unconditionally so
    /// any test can call it; the `strict-invariants` feature
    /// additionally asserts it after every build and rebalancing
    /// mutation.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.points.is_empty() {
            return if self.root == NIL {
                Ok(())
            } else {
                Err("empty tree has a root node".into())
            };
        }
        if self.root == NIL {
            return Err(format!("{} points but no root node", self.points.len()));
        }
        let mut visited = vec![false; self.nodes.len()];
        let mut elements = Vec::with_capacity(self.points.len());
        self.check_node(self.root, &mut visited, &mut elements)?;
        let mut count = vec![0usize; self.points.len()];
        for &e in &elements {
            match count.get_mut(e as usize) {
                Some(c) => *c += 1,
                None => {
                    return Err(format!(
                        "element index {e} out of range ({} points)",
                        self.points.len()
                    ))
                }
            }
        }
        if let Some(i) = count.iter().position(|&c| c == 0) {
            return Err(format!("point {i} is not reachable from the root"));
        }
        if let Some(i) = count.iter().position(|&c| c > 1) {
            return Err(format!("point {i} appears {} times in the tree", count[i]));
        }
        Ok(())
    }

    /// Validate the subtree at `node`, appending its elements to `out`.
    fn check_node(
        &self,
        node: u32,
        visited: &mut [bool],
        out: &mut Vec<u32>,
    ) -> Result<(), String> {
        match visited.get_mut(node as usize) {
            None => {
                return Err(format!(
                    "node index {node} out of bounds ({} arena nodes)",
                    self.nodes.len()
                ))
            }
            Some(slot) if *slot => {
                return Err(format!(
                    "node {node} is reachable twice (cycle or shared subtree)"
                ))
            }
            Some(slot) => *slot = true,
        }
        match &self.nodes[node as usize] {
            Node::Leaf { bucket } => {
                if bucket.is_empty() {
                    return Err(format!("leaf {node} has an empty bucket"));
                }
                if bucket.len() > self.bucket_capacity {
                    return Err(format!(
                        "leaf {node} holds {} elements, capacity is {}",
                        bucket.len(),
                        self.bucket_capacity
                    ));
                }
                out.extend_from_slice(bucket);
                Ok(())
            }
            Node::Internal {
                vantage,
                radius,
                left,
                right,
                left_bounds,
                right_bounds,
            } => {
                if !radius.is_finite() || *radius < 0.0 {
                    return Err(format!("node {node} has invalid radius {radius}"));
                }
                if (self.points.len() as u32) <= *vantage {
                    return Err(format!("node {node} vantage {vantage} out of range"));
                }
                out.push(*vantage);
                let mut left_elems = Vec::new();
                if *left != NIL {
                    self.check_node(*left, visited, &mut left_elems)?;
                }
                let mut right_elems = Vec::new();
                if *right != NIL {
                    self.check_node(*right, visited, &mut right_elems)?;
                }
                self.check_side(node, *vantage, *radius, &left_elems, *left_bounds, true)?;
                self.check_side(node, *vantage, *radius, &right_elems, *right_bounds, false)?;
                out.append(&mut left_elems);
                out.append(&mut right_elems);
                Ok(())
            }
        }
    }

    /// Check one child's element set against the split radius and the
    /// stored distance band.
    fn check_side(
        &self,
        node: u32,
        vantage: u32,
        radius: f32,
        elems: &[u32],
        (lo, hi): (f32, f32),
        is_left: bool,
    ) -> Result<(), String> {
        let side = if is_left { "left" } else { "right" };
        if elems.is_empty() {
            return Ok(());
        }
        if !(lo <= hi) {
            return Err(format!(
                "node {node} {side} bounds [{lo}, {hi}] are not ordered"
            ));
        }
        let vp = &self.points[vantage as usize];
        for &e in elems {
            if (self.points.len() as u32) <= e {
                return Err(format!("node {node} {side} element {e} out of range"));
            }
            let d = self.metric.dist(vp, &self.points[e as usize]);
            if d < lo || d > hi {
                return Err(format!(
                    "node {node} {side} element {e}: d = {d} outside bounds [{lo}, {hi}]"
                ));
            }
            if is_left && d > radius {
                return Err(format!(
                    "node {node} left element {e}: d = {d} exceeds μ = {radius}"
                ));
            }
            if !is_left && d < radius {
                return Err(format!(
                    "node {node} right element {e}: d = {d} inside μ = {radius}"
                ));
            }
        }
        Ok(())
    }

    /// Abort with the violation when [`Self::check_invariants`] fails —
    /// called at build/rebalance sites under `strict-invariants`.
    #[cfg(feature = "strict-invariants")]
    pub(crate) fn assert_invariants(&self, site: &str) {
        if let Err(e) = self.check_invariants() {
            // audit:allow(panic): strict-invariants mode aborts on structural corruption by design.
            panic!("vp-tree invariant violated after {site}: {e}");
        }
    }

    fn stats_rec(&self, node: u32, depth: usize, s: &mut VpTreeStats, fill: &mut usize) {
        match &self.nodes[node as usize] {
            Node::Leaf { bucket } => {
                s.leaves += 1;
                s.max_depth = s.max_depth.max(depth);
                s.min_depth = s.min_depth.min(depth);
                *fill += bucket.len();
            }
            Node::Internal { left, right, .. } => {
                s.internal_nodes += 1;
                if *left != NIL {
                    self.stats_rec(*left, depth + 1, s, fill);
                }
                if *right != NIL {
                    self.stats_rec(*right, depth + 1, s, fill);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::brute_force_knn;
    use mendel_seq::{BlockDistance, Hamming};

    type Tree = VpTree<Vec<u8>, BlockDistance<Hamming>>;

    fn random_points(n: usize, len: usize, alphabet: u8, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..len).map(|_| rng.random_range(0..alphabet)).collect())
            .collect()
    }

    fn build(points: Vec<Vec<u8>>, bucket: usize) -> Tree {
        VpTree::build(points, BlockDistance::new(Hamming), bucket, 42)
    }

    #[test]
    fn empty_tree() {
        let t = build(vec![], 4);
        assert!(t.is_empty());
        assert!(t.knn(&vec![0u8; 4], 3).is_empty());
        assert!(t.range(&vec![0u8; 4], 10.0).is_empty());
        assert_eq!(t.stats().points, 0);
    }

    #[test]
    fn single_point() {
        let t = build(vec![vec![1, 2, 3]], 4);
        let nn = t.knn(&vec![1, 2, 4], 1);
        assert_eq!(nn.len(), 1);
        assert_eq!(nn[0].dist, 1.0);
    }

    #[test]
    fn knn_matches_brute_force_on_random_data() {
        let points = random_points(500, 12, 4, 7);
        let t = build(points.clone(), 8);
        let metric = BlockDistance::new(Hamming);
        let queries = random_points(25, 12, 4, 8);
        for q in &queries {
            let got = t.knn(q, 5);
            let want = brute_force_knn(&points, &metric, q, 5);
            let gd: Vec<f32> = got.iter().map(|n| n.dist).collect();
            let wd: Vec<f32> = want.iter().map(|n| n.dist).collect();
            assert_eq!(gd, wd, "distances must match the oracle");
        }
    }

    #[test]
    fn knn_exact_match_is_found_first() {
        let points = random_points(300, 10, 4, 9);
        let needle = points[137].clone();
        let t = build(points, 16);
        let nn = t.knn(&needle, 1);
        assert_eq!(nn[0].dist, 0.0);
        assert_eq!(t.point(nn[0].index), &needle);
    }

    #[test]
    fn range_search_matches_filter() {
        let points = random_points(400, 8, 4, 10);
        let t = build(points.clone(), 8);
        let metric = BlockDistance::new(Hamming);
        let q = random_points(1, 8, 4, 11).pop().unwrap();
        for radius in [0.0, 1.0, 3.0, 8.0] {
            let got: Vec<u32> = t.range(&q, radius).iter().map(|n| n.index).collect();
            let mut want: Vec<u32> = points
                .iter()
                .enumerate()
                .filter(|(_, p)| metric.dist(&q, p) <= radius)
                .map(|(i, _)| i as u32)
                .collect();
            let mut got_sorted = got.clone();
            got_sorted.sort();
            want.sort();
            assert_eq!(got_sorted, want, "radius {radius}");
        }
    }

    #[test]
    fn duplicate_points_do_not_break_construction() {
        let mut points = vec![vec![1u8, 1, 1]; 100];
        points.extend(random_points(50, 3, 4, 12));
        let t = build(points.clone(), 4);
        assert_eq!(t.len(), 150);
        let nn = t.knn(&vec![1u8, 1, 1], 3);
        assert!(
            nn.iter().all(|n| n.dist == 0.0),
            "duplicates are all at distance 0"
        );
    }

    #[test]
    fn knn_returns_fewer_when_tree_is_small() {
        let t = build(random_points(3, 6, 4, 13), 2);
        assert_eq!(t.knn(&vec![0u8; 6], 10).len(), 3);
    }

    #[test]
    fn bulk_tree_is_balanced() {
        // §III-A: median splits keep the tree logarithmic.
        let t = build(random_points(4096, 10, 20, 14), 8);
        let s = t.stats();
        // Integer distances tie heavily, so splits skew a little past the
        // perfect log2(4096/8) = 9; allow ~2x.
        assert!(
            s.max_depth <= 18,
            "max depth {} too deep for 4096/8",
            s.max_depth
        );
        assert!(
            s.mean_bucket_fill >= 2.0,
            "buckets nearly empty: {}",
            s.mean_bucket_fill
        );
    }

    #[test]
    fn buckets_reduce_node_count() {
        // §III-D(1): "Adding large buckets ... vastly reduces the total
        // number of vertices".
        let points = random_points(2000, 10, 4, 15);
        let small = build(points.clone(), 1);
        let large = build(points, 32);
        let (ss, ls) = (small.stats(), large.stats());
        assert!(
            ls.internal_nodes + ls.leaves < (ss.internal_nodes + ss.leaves) / 4,
            "bucketed tree should be much smaller: {ls:?} vs {ss:?}"
        );
    }

    #[test]
    fn deterministic_construction() {
        let points = random_points(256, 8, 4, 16);
        let a = build(points.clone(), 8);
        let b = build(points, 8);
        let q = vec![0u8; 8];
        let na: Vec<u32> = a.knn(&q, 7).iter().map(|n| n.index).collect();
        let nb: Vec<u32> = b.knn(&q, 7).iter().map(|n| n.index).collect();
        assert_eq!(na, nb);
    }

    #[test]
    #[should_panic(expected = "bucket capacity")]
    fn zero_bucket_capacity_rejected() {
        build(vec![], 0);
    }

    #[test]
    fn unbounded_budget_equals_exact_knn() {
        let points = random_points(600, 10, 4, 20);
        let t = build(points, 8);
        for q in random_points(10, 10, 4, 21) {
            let exact: Vec<f32> = t.knn(&q, 5).iter().map(|n| n.dist).collect();
            let budgeted: Vec<f32> = t
                .knn_with_budget(&q, 5, usize::MAX)
                .iter()
                .map(|n| n.dist)
                .collect();
            assert_eq!(exact, budgeted);
        }
    }

    #[test]
    fn budget_caps_work_but_near_first_order_finds_exact_matches() {
        // 4096 points, budget 256: the near-first descent must still land
        // on an indexed duplicate of the query.
        let points = random_points(4096, 12, 20, 22);
        let needle = points[2048].clone();
        let t = build(points, 16);
        let nn = t.knn_with_budget(&needle, 1, 256);
        assert_eq!(
            nn[0].dist, 0.0,
            "exact match must be inside the first 256 visits"
        );
    }

    #[test]
    fn zero_budget_returns_nothing() {
        let t = build(random_points(64, 8, 4, 23), 8);
        assert!(t.knn_with_budget(&vec![0u8; 8], 3, 0).is_empty());
    }

    #[test]
    fn invariants_hold_for_built_trees() {
        assert_eq!(build(vec![], 4).check_invariants(), Ok(()));
        assert_eq!(build(vec![vec![1, 2, 3]], 4).check_invariants(), Ok(()));
        for (n, bucket) in [(50usize, 1usize), (500, 8), (2000, 32)] {
            let t = build(random_points(n, 10, 20, n as u64), bucket);
            assert_eq!(t.check_invariants(), Ok(()), "n = {n}, bucket = {bucket}");
        }
        // Duplicate-heavy data exercises the equidistant rebalance path.
        let mut points = vec![vec![1u8, 1, 1]; 100];
        points.extend(random_points(50, 3, 4, 12));
        assert_eq!(build(points, 4).check_invariants(), Ok(()));
    }

    #[test]
    fn corrupted_radius_is_detected() {
        let mut t = build(random_points(200, 8, 4, 40), 4);
        let root = t.root as usize;
        if let Node::Internal { radius, .. } = &mut t.nodes[root] {
            *radius -= 1.0; // μ no longer covers the left side
        }
        let err = t.check_invariants().unwrap_err();
        assert!(err.contains("μ"), "unexpected message: {err}");
    }

    #[test]
    fn corrupted_bounds_are_detected() {
        let mut t = build(random_points(200, 8, 4, 41), 4);
        let root = t.root as usize;
        if let Node::Internal { left_bounds, .. } = &mut t.nodes[root] {
            left_bounds.1 = left_bounds.0.max(0.5) - 0.5; // shrink the band below its max
        }
        assert!(t.check_invariants().is_err());
    }

    #[test]
    fn lost_element_is_detected() {
        let mut t = build(random_points(100, 8, 4, 42), 8);
        for node in &mut t.nodes {
            if let Node::Leaf { bucket } = node {
                if bucket.len() >= 2 {
                    bucket.pop(); // lose one element without emptying the leaf
                    break;
                }
            }
        }
        let err = t.check_invariants().unwrap_err();
        assert!(err.contains("not reachable"), "unexpected message: {err}");
    }

    #[test]
    fn shared_subtree_is_detected() {
        let mut t = build(random_points(100, 8, 4, 43), 4);
        let root = t.root as usize;
        if let Node::Internal { left, right, .. } = &mut t.nodes[root] {
            *right = *left; // alias the two children
        }
        let err = t.check_invariants().unwrap_err();
        assert!(err.contains("reachable twice"), "unexpected message: {err}");
    }

    #[test]
    fn overfull_bucket_is_detected() {
        let mut t = build(random_points(100, 8, 4, 44), 4);
        t.bucket_capacity = 0; // stored capacity no longer matches the leaves
        assert!(t.check_invariants().is_err());
    }

    /// The whole-leaf scan is an implementation strategy, not a different
    /// search: over identical tree geometry, the production metrics
    /// (early-abandoning per-pair kernel on vantage points, chunked
    /// `scan_bounded` in the leaves, SIMD lanes where they apply) must
    /// return the same neighbours — indices and distance bits — and the
    /// same four counters as an [`Unbounded`] twin, whose every distance
    /// is a full per-pair `dist` call. Covers both metrics, buckets
    /// smaller than, equal to and larger than a scan chunk, budgets that
    /// run out on a vantage point, mid-chunk and never, window lengths on
    /// and off the 16-residue tile, and range search.
    #[test]
    fn whole_leaf_scan_equals_the_per_pair_search() {
        use mendel_seq::{MatrixDistance, ScoringMatrix, Unbounded};
        fn counters<P, M: Metric<P>>(t: &VpTree<P, M>) -> [u64; 4] {
            let m = t.search_metrics();
            [
                m.dist_calls.get(),
                m.early_abandons.get(),
                m.nodes_visited.get(),
                m.leaf_scans.get(),
            ]
        }
        fn check<M: Metric<Vec<u8>> + Clone>(metric: M, alphabet: u8, len: usize, what: &str) {
            let points = random_points(900, len, alphabet, 50 + len as u64);
            let queries = random_points(6, len, alphabet, 51 + len as u64);
            for bucket in [1usize, 7, 32, 40] {
                let fast = VpTree::build(points.clone(), metric.clone(), bucket, 99);
                let slow = VpTree::build(points.clone(), Unbounded(metric.clone()), bucket, 99);
                let same = |got: &[Neighbor], want: &[Neighbor], search: &str| {
                    assert_eq!(got.len(), want.len(), "{what} bucket {bucket} {search}");
                    for (g, w) in got.iter().zip(want) {
                        assert_eq!(g.index, w.index, "{what} bucket {bucket} {search}");
                        assert_eq!(
                            g.dist.to_bits(),
                            w.dist.to_bits(),
                            "{what} bucket {bucket} {search}"
                        );
                    }
                    assert_eq!(
                        counters(&fast),
                        counters(&slow),
                        "{what} bucket {bucket} {search}: counters"
                    );
                };
                for q in &queries {
                    for budget in [1usize, 17, 4096, usize::MAX] {
                        for k in [1usize, 6] {
                            same(
                                &fast.knn_with_budget(q, k, budget),
                                &slow.knn_with_budget(q, k, budget),
                                &format!("knn k {k} budget {budget}"),
                            );
                        }
                    }
                    let radius = 2.5 * len as f32;
                    same(&fast.range(q, radius), &slow.range(q, radius), "range");
                }
            }
        }
        let protein = MatrixDistance::mendel(&ScoringMatrix::blosum62());
        for len in [12usize, 16, 20, 40] {
            // All 24 codes: the ambiguity letters sit at the table maximum.
            check(BlockDistance::new(protein.clone()), 24, len, "protein");
            check(BlockDistance::new(Hamming), 4, len, "dna");
        }
    }

    #[test]
    fn degenerate_searches_return_nothing_and_count_nothing() {
        let t = build(random_points(40, 8, 4, 3), 4);
        let q = vec![0u8; 8];
        assert!(t.knn_with_budget(&q, 0, usize::MAX).is_empty());
        assert!(t.knn_with_budget(&q, 4, 0).is_empty());
        assert_eq!(t.search_metrics().dist_calls.get(), 0);
        // Budget 1 is spent on the root vantage.
        assert_eq!(t.knn_with_budget(&q, 4, 1).len(), 1);
        assert_eq!(t.search_metrics().dist_calls.get(), 1);
    }

    /// The work profile of a fixed-seed search set, as integer literals
    /// captured at the commit before the whole-leaf scan landed (PR 23's
    /// parent). A kernel or scan change that alters the traversal — not
    /// just its speed — trips this test instead of a benchmark.
    #[test]
    fn fixed_seed_search_counters_are_pinned() {
        use mendel_seq::{MatrixDistance, ScoringMatrix};
        fn profile<M: Metric<Vec<u8>>>(metric: M, alphabet: u8) -> [u64; 4] {
            let tree = VpTree::build(random_points(6000, 16, alphabet, 0x23), metric, 32, 0x23);
            for q in random_points(24, 16, alphabet, 0x24) {
                tree.knn_with_budget(&q, 8, 1024);
            }
            let m = tree.search_metrics();
            [
                m.dist_calls.get(),
                m.early_abandons.get(),
                m.nodes_visited.get(),
                m.leaf_scans.get(),
            ]
        }
        let protein = MatrixDistance::mendel(&ScoringMatrix::blosum62());
        assert_eq!(
            profile(BlockDistance::new(protein), 20),
            [24_576, 22_585, 2_190, 1_054]
        );
        assert_eq!(
            profile(BlockDistance::new(Hamming), 4),
            [24_576, 22_221, 2_297, 1_099]
        );
    }

    #[test]
    fn bounded_knn_still_matches_brute_force() {
        let points = random_points(600, 12, 4, 60);
        let t = build(points.clone(), 8);
        let metric = BlockDistance::new(Hamming);
        for q in random_points(20, 12, 4, 61) {
            let got: Vec<f32> = t.knn(&q, 5).iter().map(|n| n.dist).collect();
            let want: Vec<f32> = brute_force_knn(&points, &metric, &q, 5)
                .iter()
                .map(|n| n.dist)
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn budgeted_results_are_a_prefix_quality_subset() {
        // Budgeted distances can only be >= the exact ones, element-wise.
        let points = random_points(2000, 10, 20, 24);
        let t = build(points, 8);
        for q in random_points(8, 10, 20, 25) {
            let exact: Vec<f32> = t.knn(&q, 4).iter().map(|n| n.dist).collect();
            let approx: Vec<f32> = t
                .knn_with_budget(&q, 4, 128)
                .iter()
                .map(|n| n.dist)
                .collect();
            for (e, a) in exact.iter().zip(&approx) {
                assert!(a >= e, "approx {a} better than exact {e}?");
            }
        }
    }
}
