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
//!
//! The tree owns the windows it indexes, laid out for the search: an
//! internal vertex's vantage window sits in one arena at the vertex's
//! node index, and a leaf holds its elements' insertion ids and their
//! windows lane-major ([`mendel_seq::lanes`]) in one allocation, so the
//! leaf kernel loads one 16-candidate column per position and a candidate
//! is never behind a pointer of its own (DESIGN.md §15.1).

use crate::knn::{KnnHeap, Neighbor};
use crate::metrics::{SearchMetrics, SearchTally};
use mendel_seq::lanes::{self, lane_bytes, LaneGroup, GROUP};
use mendel_seq::Metric;
use rand::seq::index::sample;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;

/// Sentinel for "no node".
pub(crate) const NIL: u32 = u32::MAX;

/// Arena node of a vp-tree.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    /// Internal vertex: vantage element, radius μ, children, and the
    /// distance bounds of each child's elements from the vantage point.
    /// The vantage's window is the tree's `vantages` slot of this node.
    Internal {
        /// Insertion id of the vantage element.
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
    /// Leaf vertex holding a bucket of elements.
    Leaf(Leaf),
}

/// A leaf bucket in one allocation: its elements' insertion ids, as
/// little-endian `u32`s in bucket order, then their windows lane-major in
/// groups of sixteen ([`mendel_seq::lanes`]), tail slack included. A
/// default (empty) leaf allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct Leaf {
    count: u32,
    bytes: Box<[u8]>,
}

impl Leaf {
    /// A leaf over `(id, window)` elements, in bucket order, with windows
    /// of length `len`.
    pub(crate) fn new<'a, I>(elements: I, len: usize) -> Leaf
    where
        I: ExactSizeIterator<Item = (u32, &'a [u8])> + Clone,
    {
        let count = elements.len();
        let mut bytes = vec![0u8; 4 * count + lane_bytes(count, len)];
        let (head, lanes) = bytes.split_at_mut(4 * count);
        for (slot, (id, _)) in head.chunks_exact_mut(4).zip(elements.clone()) {
            slot.copy_from_slice(&id.to_le_bytes());
        }
        lanes::write_lanes(elements.map(|(_, window)| window), len, lanes);
        Leaf {
            count: count as u32,
            bytes: bytes.into(),
        }
    }

    /// Elements in the bucket.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.count as usize
    }

    /// Insertion id of the `j`-th element.
    #[inline]
    pub(crate) fn id(&self, j: usize) -> u32 {
        let at = &self.bytes[4 * j..4 * j + 4];
        u32::from_le_bytes([at[0], at[1], at[2], at[3]])
    }

    /// Insertion ids in bucket order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len()).map(|j| self.id(j))
    }

    /// The lane groups of the bucket's windows of length `len`.
    #[inline]
    fn groups(&self, len: usize) -> impl Iterator<Item = (usize, LaneGroup<'_>)> {
        lanes::groups(&self.bytes[4 * self.len()..], self.len(), len)
    }

    /// The bucket's windows of length `len`, concatenated in bucket order.
    pub(crate) fn windows(&self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; self.len() * len];
        let lanes = &self.bytes[4 * self.len()..];
        for (j, window) in out.chunks_exact_mut(len).enumerate() {
            lanes::read_window(lanes, self.len(), j, window);
        }
        out
    }

    /// Append element `id`: the full groups keep their bytes, the last
    /// one is re-laid at its new width.
    pub(crate) fn push(&mut self, id: u32, window: &[u8]) {
        let (count, len) = (self.len(), window.len());
        let kept = count - count % GROUP;
        let old = &self.bytes[4 * count..];
        let mut tail = vec![0u8; (count + 1 - kept) * len];
        for (j, slot) in (kept..count).zip(tail.chunks_exact_mut(len)) {
            lanes::read_window(old, count, j, slot);
        }
        tail[(count - kept) * len..].copy_from_slice(window);
        let mut bytes = vec![0u8; 4 * (count + 1) + lane_bytes(count + 1, len)];
        let (head, lanes) = bytes.split_at_mut(4 * (count + 1));
        head[..4 * count].copy_from_slice(&self.bytes[..4 * count]);
        head[4 * count..].copy_from_slice(&id.to_le_bytes());
        lanes[..kept * len].copy_from_slice(&old[..kept * len]);
        lanes::write_lanes(tail.chunks_exact(len), len, &mut lanes[kept * len..]);
        *self = Leaf {
            count: (count + 1) as u32,
            bytes: bytes.into(),
        };
    }

    /// Bytes held: ids, lanes and slack.
    fn held(&self) -> usize {
        self.bytes.len()
    }
}

/// A vantage-point tree over fixed-length byte windows under metric `M`:
/// bulk-built, then grown by the §III-D insertion of [`crate::dynamic`].
///
/// Elements are named by insertion id — `i` for the `i`-th window the
/// tree was given, by [`Self::build`] or an insert — which every rebuild
/// keeps.
#[derive(Debug)]
pub struct VpTree<M> {
    pub(crate) metric: M,
    pub(crate) nodes: Vec<Node>,
    /// Node `i`'s vantage window at `i·L .. (i+1)·L` (zeros for a leaf).
    pub(crate) vantages: Vec<u8>,
    pub(crate) root: u32,
    /// Elements held; their ids are `0..len`.
    pub(crate) len: usize,
    /// The one window length, fixed by the first element.
    pub(crate) window_len: usize,
    pub(crate) bucket_capacity: usize,
    pub(crate) seed: u64,
    /// Subtree/root rebuilds run by dynamic insertion; each seeds its
    /// own vantage sampling from it (see [`VpTree::rebuilds`]).
    pub(crate) rebuild_count: usize,
    /// Search instrumentation (`mendel.vptree.*`); detached by default,
    /// attach registry-backed handles with [`VpTree::set_metrics`].
    pub(crate) obs: SearchMetrics,
}

/// What a (sub)tree build reads its elements from: element `p`'s
/// insertion id and window of length `len`. Builds are generic over it,
/// so every read is inlined.
pub(crate) trait Elements {
    /// Whether a window is read through the caller's function (a
    /// storage node's reads its key, then the reference store) rather
    /// than from a compact copy the build made.
    const SCATTERED: bool = false;

    fn id(&self, p: u32) -> u32;
    fn window(&self, p: u32, len: usize) -> &[u8];
}

/// The elements of a subtree on their way into its rebuild: element `p`
/// has insertion id `ids[p]` and window `bytes[p·L .. (p+1)·L]`.
#[derive(Debug, Default)]
pub(crate) struct Staged {
    pub(crate) ids: Vec<u32>,
    pub(crate) bytes: Vec<u8>,
}

impl Staged {
    pub(crate) fn push(&mut self, id: u32, window: &[u8]) {
        self.ids.push(id);
        self.bytes.extend_from_slice(window);
    }
}

impl Elements for Staged {
    #[inline]
    fn id(&self, p: u32) -> u32 {
        self.ids[p as usize]
    }

    #[inline]
    fn window(&self, p: u32, len: usize) -> &[u8] {
        &self.bytes[p as usize * len..][..len]
    }
}

/// Every element of a whole-tree build, by insertion id: element `p` is
/// id `p`, its window whatever `F` returns for it — a slice of a flat
/// buffer, or of the sequence a storage node's key names.
pub(crate) struct ById<'w, F>(F, PhantomData<&'w [u8]>);

impl<'w, F: Fn(u32) -> &'w [u8]> ById<'w, F> {
    pub(crate) fn new(window: F) -> Self {
        ById(window, PhantomData)
    }
}

impl<'w, F: Fn(u32) -> &'w [u8]> Elements for ById<'w, F> {
    const SCATTERED: bool = true;

    #[inline]
    fn id(&self, p: u32) -> u32 {
        p
    }

    #[inline]
    fn window(&self, p: u32, len: usize) -> &[u8] {
        let window = (self.0)(p);
        assert_eq!(window.len(), len, "vp-tree windows must share one length");
        window
    }
}

/// The windows of length `len` packed back to back in `bytes`, by
/// position.
pub(crate) fn flat<'b>(bytes: &'b [u8], len: usize) -> impl Fn(u32) -> &'b [u8] + 'b {
    move |p| &bytes[p as usize * len..][..len]
}

/// One build's scratch, reused down its recursion: a vertex is done with
/// it before it recurses, so the build writes its pages once rather than
/// a fresh set per vertex.
#[derive(Default)]
pub(crate) struct BuildScratch {
    /// `(position, distance to the vantage)` of a vertex's elements.
    dists: Vec<(u32, f32)>,
    /// One lane group's bytes.
    lanes: Vec<u8>,
    /// The elements of the subtree being built from a local copy.
    local: Staged,
}

/// Most window bytes a subtree built from scattered elements copies into
/// [`BuildScratch::local`], to read them from there at every level below.
const LOCAL_BYTES: usize = 64 << 10;

/// The mutable state of one k-NN search. The survivors scratch lives
/// here so a leaf scan allocates nothing.
struct Search {
    heap: KnnHeap,
    budget: usize,
    tally: SearchTally,
    /// `(lane, distance)` pairs of the lane group being replayed.
    survivors: Vec<(u32, f32)>,
}

/// A subtree on the best-first frontier, packed so one integer compare
/// orders the smallest lower bound first (high half: bit order is numeric
/// order for non-negative floats, and `+ 0.0` maps −0.0 to +0.0), ties
/// to the lower node index (low half). No two subtrees share a key.
fn pending(lb: f32, node: u32) -> u64 {
    u64::from((lb + 0.0).to_bits()) << 32 | u64::from(node)
}

/// Start loading `*target` into cache: a hint, with no effect on what the
/// program computes (and none at all off x86_64).
#[inline]
fn prefetch<T>(target: Option<&T>) {
    #[cfg(target_arch = "x86_64")]
    if let Some(target) = target {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: SSE is part of the x86_64 baseline, and a prefetch reads
        // nothing the program sees; the address is a live reference.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((target as *const T).cast()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = target;
}

/// The larger of two distances, none of them NaN: one `maxss`, where
/// `f32::max`'s NaN rules cost four instructions on this hot path.
#[inline]
fn max(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
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

impl<M: Metric<[u8]>> VpTree<M> {
    /// An empty tree with the given leaf-bucket capacity; `seed` drives
    /// vantage-point sampling.
    pub fn new(metric: M, bucket_capacity: usize, seed: u64) -> Self {
        assert!(bucket_capacity >= 1, "bucket capacity must be at least 1");
        VpTree {
            metric,
            nodes: Vec::new(),
            vantages: Vec::new(),
            root: NIL,
            len: 0,
            window_len: 0,
            bucket_capacity,
            seed,
            rebuild_count: 0,
            obs: SearchMetrics::default(),
        }
    }

    /// Build a tree over `points` with the given leaf-bucket capacity.
    /// `seed` drives vantage-point sampling; the same inputs always build
    /// the same tree. Point `i` gets insertion id `i`.
    ///
    /// # Panics
    /// Panics when the windows are empty or differ in length.
    pub fn build<P: AsRef<[u8]>>(
        points: Vec<P>,
        metric: M,
        bucket_capacity: usize,
        seed: u64,
    ) -> Self {
        let mut tree = Self::new(metric, bucket_capacity, seed);
        let mut bytes = Vec::new();
        for p in points {
            tree.admit(p.as_ref());
            bytes.extend_from_slice(p.as_ref());
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut items: Vec<u32> = (0..tree.len as u32).collect();
        let len = tree.window_len;
        tree.root = tree.build_rec(&mut items, &ById::new(flat(&bytes, len)), &mut rng);
        #[cfg(feature = "strict-invariants")]
        tree.assert_invariants("build");
        tree
    }

    /// Give `window` the next insertion id. The first element of an empty
    /// tree fixes the window length; every later one must match it.
    pub(crate) fn admit(&mut self, window: &[u8]) -> u32 {
        if self.len == 0 {
            assert!(!window.is_empty(), "vp-tree windows must be non-empty");
            self.window_len = window.len();
        }
        assert_eq!(
            window.len(),
            self.window_len,
            "vp-tree windows must share one length"
        );
        self.len += 1;
        (self.len - 1) as u32
    }

    /// Recursively build the subtree over the elements of `staged` at
    /// positions `items`, returning its node index.
    pub(crate) fn build_rec(
        &mut self,
        items: &mut [u32],
        staged: &impl Elements,
        rng: &mut impl Rng,
    ) -> u32 {
        self.build_with(items, staged, rng, &mut BuildScratch::default())
    }

    /// [`Self::build_rec`] on one scratch for the whole recursion.
    fn build_with<S: Elements>(
        &mut self,
        items: &mut [u32],
        staged: &S,
        rng: &mut impl Rng,
        scratch: &mut BuildScratch,
    ) -> u32 {
        if items.is_empty() {
            return NIL;
        }
        let len = self.window_len;
        if items.len() <= self.bucket_capacity {
            let elements = items.iter().map(|&p| (staged.id(p), staged.window(p, len)));
            return self.push_node(Node::Leaf(Leaf::new(elements, len)), None);
        }
        if S::SCATTERED && items.len() * len <= LOCAL_BYTES {
            // A subtree this small is built from a copy of its elements,
            // read once here and then from cache at every level below; the
            // positions are renamed to the copy's, in the same order, so
            // the build makes the same choices.
            let mut local = std::mem::take(&mut scratch.local);
            local.ids.clear();
            local.bytes.clear();
            for (j, p) in items.iter_mut().enumerate() {
                local.push(staged.id(*p), staged.window(*p, len));
                *p = j as u32;
            }
            let node = self.build_with(items, &local, rng, scratch);
            scratch.local = local;
            return node;
        }
        let v_pos = self.pick_vantage(items, staged, rng, &mut scratch.lanes);
        items.swap(0, v_pos);
        let vantage = staged.window(items[0], len);
        let vantage_id = staged.id(items[0]);
        let rest = &mut items[1..];
        let BuildScratch { dists, lanes, .. } = scratch;
        // The first vertex to fill the scratch is the build's top one.
        let top = dists.capacity() == 0;

        // Distances of the remaining elements to the vantage point, in
        // one unbounded scan — it keeps every element, in order — then
        // keyed by staged position.
        self.scan_all(vantage, rest, staged, dists, lanes);
        for (entry, &i) in dists.iter_mut().zip(rest.iter()) {
            entry.0 = i;
        }
        // Median split: the radius must "encompass roughly half of the data
        // points in order to maintain a balanced vp-tree" (§III-A).
        let mid = (dists.len() - 1) / 2;
        dists.select_nth_unstable_by(mid, |a, b| a.1.total_cmp(&b.1));
        let mut radius = dists[mid].1;
        // Left: d ≤ μ. Right: d > μ. Ties beyond the median spill left, so
        // rebalance pure-tie splits by count to avoid degenerate recursion.
        let within = |radius: f32| dists.iter().filter(|e| e.1 <= radius).count();
        let mut left = within(radius);
        // Left: the first `left` elements in `dists` order, on a pure tie.
        let mut by_count = false;
        if left == dists.len() && left > self.bucket_capacity {
            // The upper half of the distances ties the median, so `d > μ`
            // selected nothing. Lower μ to the largest distance *below*
            // the tie so the boundary points go right — keeping descent
            // deterministic for equal inputs. Only when every element is
            // exactly equidistant is an arbitrary count split unavoidable.
            let maxd = radius;
            let below = dists
                .iter()
                .map(|&(_, d)| d)
                .filter(|&d| d < maxd)
                .fold(f32::NEG_INFINITY, f32::max);
            if below.is_finite() {
                radius = below;
                left = within(radius);
            } else {
                left /= 2;
                by_count = true;
            }
        }

        // The children's items go back into `rest`, left then right, each
        // side in `dists` order, and each side's distance bounds with them.
        let (mut to_left, mut to_right) = (0, left);
        let mut bounds = [(f32::INFINITY, f32::NEG_INFINITY); 2];
        for (j, &(i, d)) in dists.iter().enumerate() {
            let goes_left = if by_count { j < left } else { d <= radius };
            let at = if goes_left {
                &mut to_left
            } else {
                &mut to_right
            };
            rest[*at] = i;
            *at += 1;
            let (lo, hi) = &mut bounds[usize::from(!goes_left)];
            (*lo, *hi) = (lo.min(d), hi.max(d));
        }
        let [left_bounds, right_bounds] = bounds;
        // The children reuse the scratch, which this vertex is done with.
        // None of them needs more than the larger child's share, so the
        // top vertex gives the rest back before the tree's own allocations
        // grow (no deeper one does: a later sibling would grow it again).
        if top {
            dists.clear();
            dists.shrink_to(left.max(rest.len() - left));
        }
        let (left_items, right_items) = rest.split_at_mut(left);
        let left_node = self.build_with(left_items, staged, rng, scratch);
        let right_node = self.build_with(right_items, staged, rng, scratch);
        let node = Node::Internal {
            vantage: vantage_id,
            radius,
            left: left_node,
            right: right_node,
            left_bounds,
            right_bounds,
        };
        self.push_node(node, Some(vantage))
    }

    /// Append `node` to the arena with its vantage `window` (a leaf has
    /// none: its slot is zeros), returning its index.
    pub(crate) fn push_node(&mut self, node: Node, window: Option<&[u8]>) -> u32 {
        let len = self.window_len;
        match window {
            Some(window) => self.vantages.extend_from_slice(window),
            None => self.vantages.resize(self.vantages.len() + len, 0),
        }
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    /// Node `node`'s vantage window.
    #[inline]
    pub(crate) fn vantage_window(&self, node: u32) -> &[u8] {
        &self.vantages[node as usize * self.window_len..][..self.window_len]
    }

    /// Score `from` against the staged elements at `positions` under no
    /// bound, through the metric's lane kernel: each run of up to
    /// [`GROUP`] of them is packed into one reused scratch group. `out` is
    /// replaced by `(j, d)` for every `j`, in order, each `d`
    /// bit-identical to `Metric::dist`. `lanes` is the group's scratch.
    fn scan_all(
        &self,
        from: &[u8],
        positions: &[u32],
        staged: &impl Elements,
        out: &mut Vec<(u32, f32)>,
        lanes: &mut Vec<u8>,
    ) {
        out.clear();
        lanes.resize(lane_bytes(GROUP, self.window_len), 0);
        for run in positions.chunks(GROUP) {
            let first = out.len() as u32;
            let group = self.pack(run, staged, lanes);
            self.metric.scan_lanes(from, group, f32::INFINITY, out);
            for scored in &mut out[first as usize..] {
                scored.0 += first;
            }
        }
        assert_eq!(
            out.len(),
            positions.len(),
            "an unbounded scan keeps every element"
        );
    }

    /// Lay the staged windows at `run` (at most [`GROUP`]) out lane-major
    /// at the front of `scratch`, as one live lane group.
    fn pack<'s>(
        &self,
        run: &[u32],
        staged: &impl Elements,
        scratch: &'s mut [u8],
    ) -> LaneGroup<'s> {
        let len = self.window_len;
        let bytes = &mut scratch[..lane_bytes(run.len(), len)];
        lanes::write_lanes(run.iter().map(|&p| staged.window(p, len)), len, bytes);
        LaneGroup {
            bytes,
            width: run.len(),
            live: run.len(),
        }
    }

    /// Yianilos' spread heuristic: sample a few candidates, estimate each
    /// one's distance spread against a random subset, keep the widest.
    /// The probes are packed into one lane group once per vertex.
    fn pick_vantage(
        &self,
        items: &[u32],
        staged: &impl Elements,
        rng: &mut impl Rng,
        lanes: &mut Vec<u8>,
    ) -> usize {
        const CANDIDATES: usize = 5;
        const PROBES: usize = 12;
        const _: () = assert!(PROBES <= GROUP, "the probes fill one lane group");
        if items.len() <= 2 {
            return 0;
        }
        let len = self.window_len;
        let n_cand = CANDIDATES.min(items.len());
        let n_probe = PROBES.min(items.len());
        let cands = sample(rng, items.len(), n_cand);
        let probes: Vec<u32> = sample(rng, items.len(), n_probe)
            .into_iter()
            .map(|p| items[p])
            .collect();
        lanes.resize(lane_bytes(GROUP, len), 0);
        let probes = self.pack(&probes, staged, lanes);
        let mut best = (0usize, f32::NEG_INFINITY);
        let mut scored = Vec::with_capacity(n_probe);
        for c in cands {
            let cp = staged.window(items[c], len);
            scored.clear();
            self.metric
                .scan_lanes(cp, probes, f32::INFINITY, &mut scored);
            assert_eq!(scored.len(), n_probe, "an unbounded scan keeps every probe");
            let ds = scored.iter().map(|&(_, d)| d);
            let mean = ds.clone().sum::<f32>() / n_probe as f32;
            let var = ds.map(|d| (d - mean) * (d - mean)).sum::<f32>() / n_probe as f32;
            if var > best.1 {
                best = (c, var);
            }
        }
        best.0
    }

    /// Number of indexed elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Heap bytes the tree holds, by capacity: its vertices, their leaves'
    /// allocations and the vantage arena.
    pub fn heap_bytes(&self) -> usize {
        let leaves: usize = self
            .nodes
            .iter()
            .map(|node| match node {
                Node::Leaf(leaf) => leaf.bytes.len(),
                Node::Internal { .. } => 0,
            })
            .sum();
        self.nodes.capacity() * std::mem::size_of::<Node>() + leaves + self.vantages.capacity()
    }

    /// True when the tree indexes nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Length of every indexed window (0 while the tree is empty).
    #[inline]
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// Every indexed window, by insertion id: element `i`'s window is
    /// bytes `i·L .. (i+1)·L` ([`Self::window_len`]), zeros for an id the
    /// tree does not hold.
    pub fn windows(&self) -> Vec<u8> {
        let len = self.window_len;
        let mut out = vec![0u8; self.len * len];
        let mut place = |id: u32, window: &[u8]| {
            if let Some(slot) = out.get_mut(id as usize * len..(id as usize + 1) * len) {
                slot.copy_from_slice(window);
            }
        };
        let mut stack = Vec::new();
        if self.root != NIL {
            stack.push(self.root);
        }
        while let Some(node) = stack.pop() {
            match &self.nodes[node as usize] {
                Node::Leaf(leaf) => {
                    let windows = leaf.windows(len);
                    for (id, window) in leaf.ids().zip(windows.chunks_exact(len)) {
                        place(id, window);
                    }
                }
                Node::Internal {
                    vantage,
                    left,
                    right,
                    ..
                } => {
                    place(*vantage, self.vantage_window(node));
                    stack.extend([*left, *right].into_iter().filter(|&c| c != NIL));
                }
            }
        }
        out
    }

    /// The `n` nearest neighbours of `query`, sorted by ascending distance
    /// (§III-C's k-NN with shrinking τ); exactly the brute-force answer,
    /// ties included (see [`KnnHeap::offer`]).
    pub fn knn(&self, query: &[u8], n: usize) -> Vec<Neighbor> {
        self.knn_with_budget(query, n, usize::MAX)
    }

    /// k-NN with a *budget* of distance calls: a best-first traversal that stops
    /// once `budget` distance evaluations have been spent, or once the
    /// smallest lower bound left on its frontier exceeds τ — the point
    /// where the answer is final, so `usize::MAX` gives the exact search.
    ///
    /// Why this exists: the paper claims O(log n) average searches, but
    /// for short sequence windows pairwise distances concentrate (random
    /// 16-residue windows all sit within a few σ of the mean), so the τ
    /// prune almost never fires and exact k-NN degenerates to a full
    /// scan. The budget caps that scan, and best-first order spends it
    /// nearest the query, finding more of the exhaustive answer per call
    /// than the depth-first descent it replaced: recall per budget is in
    /// `crates/vptree/tests/frontier.rs` and the `ablation_budget` bin.
    pub fn knn_with_budget(&self, query: &[u8], n: usize, budget: usize) -> Vec<Neighbor> {
        if self.root == NIL || n == 0 || budget == 0 {
            return Vec::new();
        }
        let mut search = Search {
            heap: KnnHeap::new(n),
            budget,
            tally: SearchTally::default(),
            survivors: Vec::with_capacity(GROUP),
        };
        self.search(query, &mut search);
        search.tally.flush(&self.obs);
        search.heap.into_sorted()
    }

    /// All neighbours within distance `radius` of `query`, sorted by
    /// ascending distance.
    pub fn range(&self, query: &[u8], radius: f32) -> Vec<Neighbor> {
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

    /// The one k-NN traversal: expand the frontier subtree with the
    /// smallest lower bound until the budget is spent or that bound
    /// exceeds τ — every subtree left is then as far, so the heap is exact.
    ///
    /// Two shortcuts leave that order as it is. An internal vertex's
    /// nearer child is expanded next without a trip through the frontier
    /// whenever its key — `(lower bound, node)`, unique per subtree — is
    /// below every key on the frontier, which is exactly when the frontier
    /// would pop it next. And both children's nodes and vantage windows
    /// are prefetched as soon as their parent is read.
    fn search(&self, query: &[u8], s: &mut Search) {
        let mut frontier = BinaryHeap::with_capacity(64);
        let mut next = Some(pending(0.0, self.root));
        while let Some(key) = next.take().or_else(|| frontier.pop().map(|Reverse(k)| k)) {
            let (lb, node) = (f32::from_bits((key >> 32) as u32), key as u32);
            if lb > s.heap.tau() {
                break;
            }
            if s.budget == 0 {
                s.tally.budget_exhausted = 1;
                break;
            }
            s.tally.nodes_visited += 1;
            match &self.nodes[node as usize] {
                Node::Leaf(leaf) => {
                    s.tally.leaf_scans += 1;
                    self.scan_leaf(query, leaf, s);
                }
                Node::Internal {
                    vantage,
                    left,
                    right,
                    left_bounds,
                    right_bounds,
                    ..
                } => {
                    // Either child may be expanded next or pushed: start
                    // loading both nodes and vantage windows now, so the
                    // distance below hides the wait.
                    for child in [*left, *right] {
                        prefetch(self.nodes.get(child as usize));
                        prefetch(self.vantages.get(child as usize * self.window_len));
                    }
                    // The vantage distance also bounds the children, so it
                    // gets a looser bound than τ: past `τ + max(child hi)`
                    // (∞ while τ is; at least one band is non-empty) the
                    // vantage cannot enter the heap and both children's
                    // `d − hi` exceed τ — the unbounded search prunes the
                    // whole subtree too.
                    let vantage_bound = s.heap.tau() + left_bounds.1.max(right_bounds.1);
                    let window = self.vantage_window(node);
                    let bounded = self.metric.dist_bounded(query, window, vantage_bound);
                    s.budget -= 1;
                    s.tally.dist_calls += 1;
                    let Some(d) = bounded else {
                        s.tally.early_abandons += 1;
                        continue;
                    };
                    s.heap.offer(*vantage, d);
                    // §III-D bounds: every element of a child lies in its
                    // band `[lo, hi]` around the vantage, so by the triangle
                    // inequality it is at least `max(d − hi, lo − d)` from
                    // the query — and no nearer than its parent's bound.
                    let mut near = None;
                    for (child, (lo, hi)) in [(*left, *left_bounds), (*right, *right_bounds)] {
                        let lb = max(max(lb, d - hi), lo - d);
                        if child == NIL || lb > s.heap.tau() {
                            continue;
                        }
                        let key = pending(lb, child);
                        match near {
                            Some(n) if n < key => frontier.push(Reverse(key)),
                            Some(n) => {
                                frontier.push(Reverse(n));
                                near = Some(key);
                            }
                            None => near = Some(key),
                        }
                    }
                    if let Some(n) = near {
                        if frontier.peek().is_none_or(|&Reverse(m)| n < m) {
                            next = Some(n);
                        } else {
                            frontier.push(Reverse(n));
                        }
                    }
                }
            }
        }
    }

    /// The k-NN leaf scan, one lane group per kernel call. A group is
    /// scored under the τ held when it starts and its survivors are
    /// replayed, in bucket order, against the live τ — which only shrinks,
    /// so `τ_live ≤ τ_group` and by the `scan_lanes` contract (`d`
    /// reported ⟺ `d ≤ bound`):
    ///   * not reported ⟹ d > τ_group ≥ τ_live: the one-by-one scan would
    ///     abandon it too;
    ///   * reported, d ≤ τ_live: the one-by-one scan would see the same
    ///     bits and offer them;
    ///   * reported, d > τ_live: one-by-one abandons.
    ///
    /// Scoring only the group's first `budget` windows stops on the
    /// candidate the one-by-one loop would stop on, so results and all
    /// counters are those of scoring the bucket a candidate at a time.
    fn scan_leaf(&self, query: &[u8], leaf: &Leaf, s: &mut Search) {
        for (first, mut group) in leaf.groups(self.window_len) {
            if s.budget < group.width {
                s.tally.budget_exhausted = 1;
            }
            if s.budget == 0 {
                break;
            }
            group.live = group.width.min(s.budget);
            s.survivors.clear();
            self.metric
                .scan_lanes(query, group, s.heap.tau(), &mut s.survivors);
            s.budget -= group.live;
            s.tally.dist_calls += group.live as u64;
            let mut offered = 0;
            for &(j, d) in &s.survivors {
                if d <= s.heap.tau() {
                    s.heap.offer(leaf.id(first + j as usize), d);
                    offered += 1;
                }
            }
            s.tally.early_abandons += group.live as u64 - offered;
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
        query: &[u8],
        radius: f32,
        out: &mut Vec<Neighbor>,
        survivors: &mut Vec<(u32, f32)>,
        tally: &mut SearchTally,
    ) {
        tally.nodes_visited += 1;
        match &self.nodes[node as usize] {
            Node::Leaf(leaf) => {
                tally.leaf_scans += 1;
                // The bound never moves, so a survivor (d ≤ radius) is
                // exactly a member.
                for (first, group) in leaf.groups(self.window_len) {
                    survivors.clear();
                    self.metric.scan_lanes(query, group, radius, survivors);
                    tally.dist_calls += group.width as u64;
                    tally.early_abandons += (group.width - survivors.len()) as u64;
                    out.extend(survivors.iter().map(|&(j, dist)| Neighbor {
                        index: leaf.id(first + j as usize),
                        dist,
                    }));
                }
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
                let window = self.vantage_window(node);
                let Some(d) = self.metric.dist_bounded(query, window, vantage_bound) else {
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
    // audit:allow(unreached): the per-tree counters this file's tests and crates/vptree/tests/frontier.rs count distance calls with; served trees share registered ones
    pub fn search_metrics(&self) -> &SearchMetrics {
        &self.obs
    }

    /// Structural statistics (depth, balance, bucket fill).
    pub fn stats(&self) -> VpTreeStats {
        let mut s = VpTreeStats {
            points: self.len,
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
    /// - **id accounting** — every insertion id appears exactly once
    ///   among reachable vantages and leaf buckets, every reachable
    ///   node is visited at most once (no cycles or shared subtrees);
    /// - **window layout** — the vantage arena holds one window of the
    ///   tree's length per node, and each leaf its ids and exactly the
    ///   lane bytes of its bucket; nodes orphaned by subtree rebuilds
    ///   (legal garbage until the next root rebuild) are empty leaves;
    /// - **leaf occupancy** — buckets hold `1..=bucket_capacity`
    ///   elements.
    ///
    /// Returns the first violation found. Compiled unconditionally so
    /// any test can call it; the `strict-invariants` feature
    /// additionally asserts it after every build and rebalancing
    /// mutation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let want = self.nodes.len() * self.window_len;
        if self.vantages.len() != want {
            return Err(format!(
                "vantage windows hold {} bytes for {} nodes of length {}",
                self.vantages.len(),
                self.nodes.len(),
                self.window_len
            ));
        }
        let mut visited = vec![false; self.nodes.len()];
        if self.len == 0 {
            if self.root != NIL {
                return Err("empty tree has a root node".into());
            }
        } else {
            if self.root == NIL {
                return Err(format!("{} points but no root node", self.len));
            }
            let mut elements = Staged::default();
            self.check_node(self.root, &mut visited, &mut elements)?;
            let mut count = vec![0usize; self.len];
            for &e in &elements.ids {
                match count.get_mut(e as usize) {
                    Some(c) => *c += 1,
                    None => {
                        return Err(format!("element id {e} out of range ({} points)", self.len))
                    }
                }
            }
            if let Some(i) = count.iter().position(|&c| c == 0) {
                return Err(format!("point {i} is not reachable from the root"));
            }
            if let Some(i) = count.iter().position(|&c| c > 1) {
                return Err(format!("point {i} appears {} times in the tree", count[i]));
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let empty = matches!(node, Node::Leaf(leaf) if leaf.held() == 0);
            if !visited[i] && !empty {
                return Err(format!(
                    "node {i} is no longer in the tree but still holds windows"
                ));
            }
        }
        Ok(())
    }

    /// Validate the subtree at `node`, appending its elements' ids and
    /// windows to `out`.
    fn check_node(&self, node: u32, visited: &mut [bool], out: &mut Staged) -> Result<(), String> {
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
        let len = self.window_len;
        match &self.nodes[node as usize] {
            Node::Leaf(leaf) => {
                if leaf.len() == 0 {
                    return Err(format!("leaf {node} has an empty bucket"));
                }
                if leaf.len() > self.bucket_capacity {
                    return Err(format!(
                        "leaf {node} holds {} elements, capacity is {}",
                        leaf.len(),
                        self.bucket_capacity
                    ));
                }
                let want = 4 * leaf.len() + lane_bytes(leaf.len(), len);
                if leaf.held() != want {
                    return Err(format!(
                        "leaf {node} holds {} bytes for {} elements of length {len}, not {want}",
                        leaf.held(),
                        leaf.len()
                    ));
                }
                out.ids.extend(leaf.ids());
                out.bytes.extend(leaf.windows(len));
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
                let window = self.vantage_window(node);
                out.push(*vantage, window);
                let mut left_elems = Staged::default();
                if *left != NIL {
                    self.check_node(*left, visited, &mut left_elems)?;
                }
                let mut right_elems = Staged::default();
                if *right != NIL {
                    self.check_node(*right, visited, &mut right_elems)?;
                }
                self.check_side(node, window, *radius, &left_elems, *left_bounds, true)?;
                self.check_side(node, window, *radius, &right_elems, *right_bounds, false)?;
                out.ids.append(&mut left_elems.ids);
                out.bytes.append(&mut left_elems.bytes);
                out.ids.append(&mut right_elems.ids);
                out.bytes.append(&mut right_elems.bytes);
                Ok(())
            }
        }
    }

    /// Check one child's elements against the split radius and the
    /// stored distance band of the vantage window `vp`.
    fn check_side(
        &self,
        node: u32,
        vp: &[u8],
        radius: f32,
        elems: &Staged,
        (lo, hi): (f32, f32),
        is_left: bool,
    ) -> Result<(), String> {
        let side = if is_left { "left" } else { "right" };
        if elems.ids.is_empty() {
            return Ok(());
        }
        if lo.partial_cmp(&hi).is_none_or(std::cmp::Ordering::is_gt) {
            return Err(format!(
                "node {node} {side} bounds [{lo}, {hi}] are not ordered"
            ));
        }
        let windows = elems.bytes.chunks_exact(self.window_len);
        for (&e, window) in elems.ids.iter().zip(windows) {
            let d = self.metric.dist(vp, window);
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
        #[expect(
            clippy::panic,
            reason = "strict-invariants mode aborts on structural corruption by design"
        )]
        if let Err(e) = self.check_invariants() {
            panic!("vp-tree invariant violated after {site}: {e}");
        }
    }

    fn stats_rec(&self, node: u32, depth: usize, s: &mut VpTreeStats, fill: &mut usize) {
        match &self.nodes[node as usize] {
            Node::Leaf(leaf) => {
                s.leaves += 1;
                s.max_depth = s.max_depth.max(depth);
                s.min_depth = s.min_depth.min(depth);
                *fill += leaf.len();
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
    use mendel_seq::Hamming;

    type Tree = VpTree<Hamming>;

    fn random_points(n: usize, len: usize, alphabet: u8, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..len).map(|_| rng.random_range(0..alphabet)).collect())
            .collect()
    }

    fn build(points: Vec<Vec<u8>>, bucket: usize) -> Tree {
        VpTree::build(points, Hamming, bucket, 42)
    }

    #[test]
    fn empty_tree() {
        let t = build(vec![], 4);
        assert!(t.is_empty());
        assert!(t.knn(&[0u8; 4], 3).is_empty());
        assert!(t.range(&[0u8; 4], 10.0).is_empty());
        assert_eq!(t.stats().points, 0);
    }

    #[test]
    fn single_point() {
        let t = build(vec![vec![1, 2, 3]], 4);
        let nn = t.knn(&[1, 2, 4], 1);
        assert_eq!(nn.len(), 1);
        assert_eq!(nn[0].dist, 1.0);
    }

    /// The unbudgeted best-first search is exact: on both metrics it
    /// returns the brute-force oracle's neighbours — indices and distance
    /// bits — with ties at τ going to the lower index, as the heap's
    /// `(distance, index)` order dictates. The small DNA alphabet makes
    /// such ties common.
    #[test]
    fn knn_matches_brute_force_on_random_data() {
        use mendel_seq::{MatrixDistance, ScoringMatrix};
        fn check<M: Metric<[u8]> + Clone>(metric: M, alphabet: u8, what: &str) {
            let points = random_points(500, 12, alphabet, 7);
            for bucket in [1usize, 8, 32] {
                let t = VpTree::build(points.clone(), metric.clone(), bucket, 42);
                for q in &random_points(25, 12, alphabet, 8) {
                    for k in [1usize, 5, 16] {
                        let got = t.knn(q, k);
                        let want = brute_force_knn(&points, &metric, q, k);
                        assert_eq!(got.len(), want.len(), "{what} bucket {bucket} k {k}");
                        for (g, w) in got.iter().zip(&want) {
                            assert_eq!(g.index, w.index, "{what} bucket {bucket} k {k}");
                            assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "{what}");
                        }
                    }
                }
            }
        }
        let protein = MatrixDistance::mendel(&ScoringMatrix::blosum62());
        check(protein, 24, "protein");
        check(Hamming, 4, "dna");
    }

    #[test]
    fn budget_exhausted_counts_searches_that_ran_out() {
        let t = build(random_points(400, 8, 4, 5), 4);
        let q = vec![0u8; 8];
        for _ in 0..3 {
            t.knn_with_budget(&q, 4, 1);
        }
        assert_eq!(t.search_metrics().budget_exhausted.get(), 3);
        for _ in 0..3 {
            t.knn(&q, 4);
        }
        t.range(&q, 3.0);
        assert_eq!(t.search_metrics().budget_exhausted.get(), 3);
        // A budget that runs out on the very call the search would have
        // ended on anyway is not a search cut short.
        let before = t.search_metrics().dist_calls.get();
        t.knn(&q, 4);
        let exact = t.search_metrics().dist_calls.get() - before;
        assert!(exact < 400, "the τ bound ends this search early");
        t.knn_with_budget(&q, 4, exact as usize);
        assert_eq!(t.search_metrics().budget_exhausted.get(), 3);
        t.knn_with_budget(&q, 4, exact as usize - 1);
        assert_eq!(t.search_metrics().budget_exhausted.get(), 4);
    }

    #[test]
    fn knn_exact_match_is_found_first() {
        let points = random_points(300, 10, 4, 9);
        let needle = points[137].clone();
        let t = build(points, 16);
        let nn = t.knn(&needle, 1);
        assert_eq!(nn[0].dist, 0.0);
        let at = nn[0].index as usize * 10;
        assert_eq!(&t.windows()[at..at + 10], &needle[..]);
    }

    #[test]
    fn range_search_matches_filter() {
        let points = random_points(400, 8, 4, 10);
        let t = build(points.clone(), 8);
        let q = random_points(1, 8, 4, 11).pop().unwrap();
        for radius in [0.0, 1.0, 3.0, 8.0] {
            let got: Vec<u32> = t.range(&q, radius).iter().map(|n| n.index).collect();
            let mut want: Vec<u32> = points
                .iter()
                .enumerate()
                .filter(|(_, p)| Hamming.dist(&q[..], &p[..]) <= radius)
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
        let nn = t.knn(&[1u8, 1, 1], 3);
        assert!(
            nn.iter().all(|n| n.dist == 0.0),
            "duplicates are all at distance 0"
        );
    }

    #[test]
    fn knn_returns_fewer_when_tree_is_small() {
        let t = build(random_points(3, 6, 4, 13), 2);
        assert_eq!(t.knn(&[0u8; 6], 10).len(), 3);
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
        // 4096 points, budget 256: the best-first search must still land
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
        assert!(t.knn_with_budget(&[0u8; 8], 3, 0).is_empty());
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
            if let Node::Leaf(leaf) = node {
                if leaf.len() >= 2 {
                    // Lose one element without emptying the leaf.
                    let ids: Vec<u32> = leaf.ids().skip(1).collect();
                    let windows = leaf.windows(8).split_off(8);
                    *leaf = Leaf::new(ids.into_iter().zip(windows.chunks_exact(8)), 8);
                    break;
                }
            }
        }
        let err = t.check_invariants().unwrap_err();
        assert!(err.contains("not reachable"), "unexpected message: {err}");
    }

    #[test]
    fn leaf_windows_out_of_step_with_ids_are_detected() {
        let mut t = build(random_points(100, 8, 4, 45), 8);
        for node in &mut t.nodes {
            if let Node::Leaf(leaf) = node {
                // An id without its window.
                let short = leaf.bytes.len() - 8;
                leaf.bytes = leaf.bytes[..short].into();
                break;
            }
        }
        let err = t.check_invariants().unwrap_err();
        assert!(err.contains("bytes for"), "unexpected message: {err}");
    }

    #[test]
    fn vantage_window_of_the_wrong_length_is_detected() {
        let mut t = build(random_points(100, 8, 4, 46), 4);
        t.vantages.pop(); // the last node's window one byte short
        let err = t.check_invariants().unwrap_err();
        assert!(err.contains("vantage window"), "unexpected message: {err}");
    }

    #[test]
    fn windows_left_in_a_replaced_node_are_detected() {
        let mut t = build(random_points(100, 8, 4, 47), 4);
        t.push_node(
            Node::Leaf(Leaf::new([(0, &[0u8; 8][..])].into_iter(), 8)),
            None,
        );
        let err = t.check_invariants().unwrap_err();
        assert!(
            err.contains("no longer in the tree"),
            "unexpected message: {err}"
        );
    }

    #[test]
    #[should_panic(expected = "one length")]
    fn windows_of_mixed_lengths_are_rejected() {
        build(vec![vec![1u8, 2, 3], vec![1u8, 2]], 4);
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
    /// (early-abandoning per-pair kernel on vantage points, one lane-group
    /// kernel call per 16 leaf windows, SIMD lanes where they apply) must
    /// return the same neighbours — indices and distance bits — and the
    /// same four counters as an [`Unbounded`] twin, whose every distance
    /// is a full per-pair `dist` call. Covers both metrics, buckets
    /// smaller than, equal to and larger than a lane group and one leaf
    /// holding every point (the raw leaf scan), budgets that run out on a
    /// vantage point, inside the first, second and third lane group of a
    /// leaf (5, 17, 23, 33) and never, window lengths on and off the
    /// 16-residue tile (64: four full tiles, where the per-8-residue
    /// abandon skips the most work), range search, and trees bulk-built
    /// or grown by single inserts, whose appends re-lay a leaf's last
    /// lane group.
    #[test]
    fn whole_leaf_scan_equals_the_per_pair_search() {
        use mendel_seq::{MatrixDistance, ScoringMatrix, Unbounded};
        fn counters<M: Metric<[u8]>>(t: &VpTree<M>) -> [u64; 4] {
            let m = t.search_metrics();
            [
                m.dist_calls.get(),
                m.early_abandons.get(),
                m.nodes_visited.get(),
                m.leaf_scans.get(),
            ]
        }
        fn grow<M: Metric<[u8]>>(points: &[Vec<u8>], metric: M, bucket: usize) -> VpTree<M> {
            let mut tree = VpTree::new(metric, bucket, 99);
            for p in points {
                tree.insert(p);
            }
            tree
        }
        fn check<M: Metric<[u8]> + Clone>(metric: M, alphabet: u8, len: usize, what: &str) {
            let points = random_points(900, len, alphabet, 50 + len as u64);
            let queries = random_points(6, len, alphabet, 51 + len as u64);
            let shapes = [1usize, 7, 32, 40, points.len()].map(|b| (b, false));
            for (bucket, grown) in shapes.into_iter().chain([(7, true), (40, true)]) {
                let (fast, slow) = if grown {
                    (
                        grow(&points, metric.clone(), bucket),
                        grow(&points, Unbounded(metric.clone()), bucket),
                    )
                } else {
                    (
                        VpTree::build(points.clone(), metric.clone(), bucket, 99),
                        VpTree::build(points.clone(), Unbounded(metric.clone()), bucket, 99),
                    )
                };
                let what = &format!("{what}{}", if grown { " grown" } else { "" });
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
                    for budget in [1usize, 5, 17, 23, 33, 4096, usize::MAX] {
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
        for len in [12usize, 16, 20, 40, 64] {
            // All 24 codes: the ambiguity letters sit at the table maximum.
            check(protein.clone(), 24, len, "protein");
            check(Hamming, 4, len, "dna");
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

    /// The work profile of a fixed-seed search set, as integer literals.
    /// A kernel or scan change that alters the traversal — not just its
    /// speed — trips this test instead of a benchmark. Re-pinned when the
    /// depth-first descent gave way to the best-first frontier: the same
    /// budget is now spent on the subtrees with the smallest lower bound
    /// wherever they sit, which costs more vantages per leaf (nodes
    /// visited 2,190 → 2,766 on protein) and abandons fewer candidates
    /// because those leaves lie nearer the query. Every search still ends
    /// on its budget, as the fifth counter shows.
    #[test]
    fn fixed_seed_search_counters_are_pinned() {
        use mendel_seq::{MatrixDistance, ScoringMatrix};
        fn profile<M: Metric<[u8]>>(metric: M, alphabet: u8) -> [u64; 5] {
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
                m.budget_exhausted.get(),
            ]
        }
        let protein = MatrixDistance::mendel(&ScoringMatrix::blosum62());
        assert_eq!(profile(protein, 20), [24_576, 21_981, 2_766, 1_026, 24]);
        assert_eq!(profile(Hamming, 4), [24_576, 21_743, 2_729, 1_056, 24]);
    }

    /// The answers of `fixed_seed_search_counters_are_pinned`'s search
    /// set, as one FNV-1a literal per metric over every neighbour's id
    /// and distance bits, in rank order. The counters pin the work; this
    /// pins what it finds, so a layout or kernel change that keeps the
    /// work but moves a neighbour trips here.
    #[test]
    fn fixed_seed_search_answers_are_pinned() {
        use mendel_seq::{MatrixDistance, ScoringMatrix};
        fn digest<M: Metric<[u8]>>(metric: M, alphabet: u8) -> u64 {
            let tree = VpTree::build(random_points(6000, 16, alphabet, 0x23), metric, 32, 0x23);
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            for q in random_points(24, 16, alphabet, 0x24) {
                for n in tree.knn_with_budget(&q, 8, 1024) {
                    let bytes = n.index.to_le_bytes().into_iter();
                    for b in bytes.chain(n.dist.to_bits().to_le_bytes()) {
                        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
                    }
                }
            }
            h
        }
        let protein = MatrixDistance::mendel(&ScoringMatrix::blosum62());
        assert_eq!(digest(protein, 20), 0x4622_0103_F1EC_D4C2);
        assert_eq!(digest(Hamming, 4), 0xE88E_3711_F632_A6ED);
    }

    /// FNV-1a over a tree's whole layout: the root, then every node in
    /// index order — an internal vertex's vantage id and window, radius,
    /// children and both distance bands (as bits), a leaf's ids and
    /// windows. Node order breaks search ties, so it is hashed too.
    fn layout_digest<M: Metric<[u8]>>(t: &VpTree<M>) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
            }
        };
        eat(&t.root.to_le_bytes());
        for (i, node) in t.nodes.iter().enumerate() {
            match node {
                Node::Internal {
                    vantage,
                    radius,
                    left,
                    right,
                    left_bounds,
                    right_bounds,
                } => {
                    eat(&[0]);
                    eat(&vantage.to_le_bytes());
                    eat(t.vantage_window(i as u32));
                    for f in [
                        *radius,
                        left_bounds.0,
                        left_bounds.1,
                        right_bounds.0,
                        right_bounds.1,
                    ] {
                        eat(&f.to_bits().to_le_bytes());
                    }
                    eat(&left.to_le_bytes());
                    eat(&right.to_le_bytes());
                }
                Node::Leaf(leaf) => {
                    eat(&[1]);
                    for id in leaf.ids() {
                        eat(&id.to_le_bytes());
                    }
                    eat(&leaf.windows(t.window_len));
                }
            }
        }
        h
    }

    /// The layout a fixed-seed build produces, as literals — the points
    /// and seed of `fixed_seed_search_counters_are_pinned`. A change to
    /// how a build scores or splits its points must leave every node
    /// where it was.
    #[test]
    fn fixed_seed_build_layout_is_pinned() {
        use mendel_seq::{MatrixDistance, ScoringMatrix};
        fn digest<M: Metric<[u8]>>(metric: M, alphabet: u8) -> u64 {
            let points = random_points(6000, 16, alphabet, 0x23);
            layout_digest(&VpTree::build(points, metric, 32, 0x23))
        }
        let protein = MatrixDistance::mendel(&ScoringMatrix::blosum62());
        assert_eq!(digest(protein, 20), 0x9DAE_3048_89E8_3F40);
        assert_eq!(digest(Hamming, 4), 0x1077_EB92_932A_2AD9);
    }

    /// Windows of `len` cut from a few sequences at keys `(sequence,
    /// start)`, as a storage node holds them: the sequences, and the keys
    /// of about a third of the starts, in sequence order.
    fn keyed_corpus(alphabet: u8, len: usize) -> (Vec<Vec<u8>>, Vec<(usize, usize)>) {
        let seqs = random_points(30, 200, alphabet, 0x51);
        let mut rng = ChaCha8Rng::seed_from_u64(0x52);
        let starts = seqs
            .iter()
            .enumerate()
            .flat_map(|(s, seq)| (0..=seq.len() - len).map(move |at| (s, at)));
        let keys = starts.filter(|_| rng.random_range(0..3) == 0).collect();
        (seqs, keys)
    }

    /// A tree that reads each window through its key into its sequence —
    /// as a storage node's tree does — equals one built from a flat copy
    /// of the same windows, node for node and answer for answer: after a
    /// bulk build, a growth batch of over a quarter, single inserts, and,
    /// on a small tree at bucket 2, single inserts that rebuild the root.
    #[test]
    fn a_tree_read_through_keys_equals_one_built_from_copies() {
        use crate::dynamic::InsertOutcome;
        use mendel_seq::{MatrixDistance, ScoringMatrix};
        /// The root rebuilds the single inserts on the small tree made.
        fn check<M: Metric<[u8]> + Clone>(metric: M, alphabet: u8) -> usize {
            let len = 16;
            let (seqs, keys) = keyed_corpus(alphabet, len);
            let window = |id: u32| {
                let (s, at) = keys[id as usize];
                &seqs[s][at..at + len]
            };
            let copies: Vec<Vec<u8>> = (0..keys.len() as u32)
                .map(|id| window(id).to_vec())
                .collect();
            let queries = random_points(16, len, alphabet, 0x54);
            let same = |keyed: &VpTree<M>, copied: &VpTree<M>, what: &str| {
                assert_eq!(layout_digest(keyed), layout_digest(copied), "{what}");
                for q in &queries {
                    let (k, c) = (
                        keyed.knn_with_budget(q, 8, 512),
                        copied.knn_with_budget(q, 8, 512),
                    );
                    assert_eq!(k, c, "{what}");
                }
                keyed.check_invariants().unwrap();
            };
            let n = keys.len();
            let (bulk, grown) = (n * 6 / 10, n * 9 / 10);
            assert!(
                (grown - bulk) * 4 >= bulk,
                "the growth batch rebuilds the root"
            );
            let mut keyed = VpTree::new(metric.clone(), 32, 0x53);
            let mut copied = VpTree::new(metric.clone(), 32, 0x53);
            assert_eq!(keyed.insert_windows(bulk, window), 0..bulk as u32);
            copied.insert_batch(&copies[..bulk]);
            same(&keyed, &copied, "bulk build");
            keyed.insert_windows(grown - bulk, window);
            copied.insert_batch(&copies[bulk..grown]);
            same(&keyed, &copied, "growth batch");
            for copy in &copies[grown..] {
                keyed.insert_windows(1, window);
                copied.insert(copy);
            }
            same(&keyed, &copied, "single inserts");

            // Past 4 windows a single window is under a quarter of the
            // tree, so it is inserted by the §III-D cases.
            let mut keyed = VpTree::new(metric.clone(), 2, 0x55);
            let mut copied = VpTree::new(metric, 2, 0x55);
            keyed.insert_windows(8, window);
            copied.insert_batch(&copies[..8]);
            let mut roots = 0;
            for copy in &copies[8..600] {
                keyed.insert_windows(1, window);
                roots += usize::from(copied.insert(copy).1 == InsertOutcome::RebuiltRoot);
            }
            same(&keyed, &copied, "single inserts on a small tree");
            roots
        }
        let roots = check(MatrixDistance::mendel(&ScoringMatrix::blosum62()), 20);
        assert!(roots > 0, "no single insert rebuilt the root");
        check(Hamming, 4);
    }

    /// A BLOSUM62 window holding code 24, one past the table, panics the
    /// build wherever it sits: the build scores through the lane kernel,
    /// which checks the query and every live lane against the table.
    #[test]
    fn build_over_an_out_of_table_code_panics() {
        use mendel_seq::{MatrixDistance, ScoringMatrix};
        for bad_at in [0usize, 17, 99] {
            let mut points = random_points(100, 16, 20, 0x24);
            points[bad_at][15] = 24;
            let build = std::panic::catch_unwind(|| {
                let metric = MatrixDistance::mendel(&ScoringMatrix::blosum62());
                VpTree::build(points, metric, 8, 0x24)
            });
            assert!(build.is_err(), "code 24 in window {bad_at} accepted");
        }
    }

    #[test]
    fn bounded_knn_still_matches_brute_force() {
        let points = random_points(600, 12, 4, 60);
        let t = build(points.clone(), 8);
        for q in random_points(20, 12, 4, 61) {
            let got: Vec<f32> = t.knn(&q, 5).iter().map(|n| n.dist).collect();
            let want: Vec<f32> = brute_force_knn(&points, &Hamming, &q, 5)
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
