//! Exact Hamming search over DNA windows by the pigeonhole principle.
//!
//! A window of `L` bases is cut into `p = ⌈L/8⌉` parts of at most 8
//! bases. If it lies within Hamming distance `r` of a query window, one
//! of its parts `t` lies within `b_t` of the query's part at the same
//! place, for any radii with `Σ (b_t + 1) = r + 1`: parts that each
//! differ in more than their `b_t` bases differ in more than `r` in all.
//! So a table per part, keyed by the part's bases 2 bits each (4⁸ =
//! 65,536 keys), finds every window within `r` by looking up the keys
//! within `b_t` of each query part and checking what they hold. This is
//! the exact form of the k-mer LSH of Sunarso et al. (PAPERS.md). At
//! 16-base windows and `r` = 4 the even split, 2 and 2, looks up 277 keys
//! in each table; the split that looks up the fewest, 2 and 1, takes 277
//! and 25 (`PigeonholeIndex::plan`).
//!
//! The tables are one CSR array: the bucket of part `t` under key `k` is
//! bucket `k·p + t`, so the buckets one key names in every table are
//! adjacent, and a request whose subquery windows share an 8-base run
//! (at stride 8, one window's second half is the next one's first) probes
//! that run once for both. An entry of part `t`'s table is the window's
//! insertion id followed by its other parts, each packed 2 bits a base
//! into 16 bits: with the bucket's key, which is part `t`, they are the
//! whole window, so a candidate is checked with an XOR and a popcount a
//! part where the bucket already put it in cache. At 16-base windows an
//! entry is 6 bytes a table; at 8 bases or fewer it is just the id.
//!
//! Bytes outside `A`, `C`, `G`, `T` (codes 0–3; `N` is 4) match only
//! themselves, as `identity` counts them. A window holding one is
//! *wild*: it is packed with `A` in their place, which is never farther
//! from a query base than the true byte, so its parts are found wherever
//! the true window's would be; its entry names it in a side list that
//! keeps its bytes, and a candidate check reads them. A query byte
//! outside 0–3 is a mismatch against every packed base, so a probe takes
//! all four keys there at a cost of one; a query window holding one
//! checks the wild windows byte by byte instead of through the tables,
//! where an `N` against an `N` would count a mismatch it is not. Every
//! search is exact: its answer is brute-force k-NN cut to the radius.

use crate::knn::{KnnHeap, Neighbor};
use mendel_obs::{Counter, Registry};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Bases a part holds at most: a key is one part's bases, 2 bits each.
const PART: usize = 8;
/// Keys of one table: 4⁸.
const KEYS: usize = 1 << (2 * PART);
/// Set in an entry's id when the rest of it indexes the wild list, not
/// the id space.
const WILD: u32 = 1 << 31;
/// Adjacent keys the build moves entries into together: a group's
/// buckets, in every part, fit in cache.
const GROUP: usize = 256;
/// Windows the build packs and moves into the tables at a time: all the
/// scratch it takes besides the tables.
const CHUNK: usize = 1 << 12;
/// Keys a probe asks for its entries ahead of checking them (and twice
/// as far ahead, for their bounds).
const AHEAD: usize = 8;
/// What one bucket lookup costs, in candidate checks: the two loads of
/// its bounds and its first entry are misses a scan does not take.
const PROBE_COST: usize = 4;

/// Shared counters of the DNA node search (`mendel.dna_index.*`): one
/// bundle is cloned across a cluster's nodes, as the vp-tree's
/// [`crate::SearchMetrics`] are. Default handles are detached.
#[derive(Debug, Clone, Default)]
pub struct IndexMetrics {
    /// Buckets looked up.
    pub probes: Arc<Counter>,
    /// Windows checked against a query window: what the probed buckets
    /// held, the wild windows a wild query window reads, and every window
    /// of a scan.
    pub candidates: Arc<Counter>,
}

impl IndexMetrics {
    /// Counters registered under `mendel.dna_index.*` in `registry`.
    pub fn registered(registry: &Registry) -> Self {
        let scope = registry.scoped("mendel.dna_index");
        IndexMetrics {
            probes: scope.counter("probes"),
            candidates: scope.counter("candidates"),
        }
    }
}

/// Pigeonhole tables over fixed-length DNA windows (see the module
/// docs). Windows are named by insertion id, `i` for the `i`-th window
/// given; a batch rebuilds the tables over every window held, so a grown
/// index equals one built over the same windows at once.
#[derive(Debug, Default)]
pub struct PigeonholeIndex {
    /// Bases a window holds; 0 until the first window.
    width: usize,
    /// Windows held: their ids are `0..count`.
    count: usize,
    /// CSR bounds: bucket `k·parts + t` holds the entries
    /// `starts[b] .. starts[b + 1]`, those whose part `t` has key `k`, in
    /// id order.
    starts: Vec<u32>,
    /// Entries back to back, `1 + parts` halfwords each: the id (or
    /// [`WILD`] and a wild-list position), low half first, then every
    /// part of the window but the bucket's own, in order, each packed
    /// 2 bits a base, base `i` at bit `2i`.
    entries: Vec<u16>,
    /// Ids of the wild windows, ascending.
    wild_ids: Vec<u32>,
    /// Their bytes, back to back.
    wild: Vec<u8>,
    obs: IndexMetrics,
}

/// The content of the tables; the counters are not part of it.
impl Hash for PigeonholeIndex {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.width.hash(state);
        self.count.hash(state);
        self.starts.hash(state);
        self.entries.hash(state);
        self.wild_ids.hash(state);
        self.wild.hash(state);
    }
}

/// Every byte of a word whose code is outside 0–3 has a bit here.
const WILD_BITS: u64 = 0xFCFC_FCFC_FCFC_FCFC;

/// The 2-bit codes of 8 bytes, each 0–3, packed: byte `i` at bit `2i`.
#[inline]
fn pack8(x: u64) -> u16 {
    let x = (x | x >> 6) & 0x000F_000F_000F_000F;
    let x = (x | x >> 12) & 0x0000_00FF_0000_00FF;
    (x | x >> 24) as u16
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

/// Up to 8 bytes as one little-endian word.
#[inline]
fn word(bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(0, |x, &b| x << 8 | u64::from(b))
}

/// Pack `window` into `out`, part `t` into `out[t]`, `A` standing in for
/// a byte outside 0–3; returns whether there was one.
fn pack(window: &[u8], out: &mut [u16]) -> bool {
    let mut wild = false;
    for (half, part) in out.iter_mut().zip(window.chunks(PART)) {
        let mut x = word(part);
        if x & WILD_BITS != 0 {
            wild = true;
            let tame = part.iter().rev().map(|&c| if c > 3 { 0 } else { c });
            x = tame.fold(0, |x, c| x << 8 | u64::from(c));
        }
        *half = pack8(x);
    }
    wild
}

/// The id an entry's first two halfwords hold.
#[inline]
fn name(entry: &[u16]) -> u32 {
    u32::from(entry[0]) | u32::from(entry[1]) << 16
}

/// Positions where two windows differ: per 8 bytes, the high bit of
/// each nonzero byte of their XOR, counted.
fn mismatches(a: &[u8], b: &[u8]) -> u32 {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    let (mut ca, mut cb) = (a.chunks_exact(8), b.chunks_exact(8));
    let mut d = 0;
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        let diff = word(x) ^ word(y);
        d += ((((diff & LOW7) + LOW7) | diff) & !LOW7).count_ones();
    }
    let rest = ca.remainder().iter().zip(cb.remainder());
    d + rest.filter(|(x, y)| x != y).count() as u32
}

/// Keys within `b` of a run of `m` bases: `Σ_{i ≤ b} C(m, i)·3^i`, 0 for
/// no radius.
fn near_count(m: usize, b: Option<usize>) -> usize {
    let Some(b) = b else { return 0 };
    let mut keys = 0;
    let mut ways = 1; // C(m, i) · 3^i
    for i in 0..=b.min(m) {
        keys += ways;
        ways = ways * (m - i) / (i + 1) * 3;
    }
    keys
}

/// The keys within `b` of an all-`A` run of `m` bases: the XOR patterns
/// that take any run of that length without other bytes to its keys
/// within `b`. Made once per process and `(m, b)`, in ascending order: a
/// run's keys then come grouped by their high bases, so neighbouring
/// probes read neighbouring buckets (sorting each run's keys instead
/// cost more than it saved).
fn deltas(m: usize, b: usize) -> &'static [u32] {
    static DELTAS: [[OnceLock<Vec<u32>>; PART + 1]; PART + 1] =
        [const { [const { OnceLock::new() }; PART + 1] }; PART + 1];
    DELTAS[m][b.min(m)].get_or_init(|| {
        let mut d = Vec::new();
        near_keys(&[0; PART][..m], b, &mut d);
        d.sort_unstable();
        d
    })
}

/// Every key within `budget` of `mer` (at most [`PART`] bases, one code a
/// byte): a base from 0–3 keeps its value for free or takes another for
/// one; any other byte takes each of the four for one.
fn near_keys(mer: &[u8], budget: usize, out: &mut Vec<u32>) {
    fn walk(mer: &[u8], i: usize, key: u32, left: usize, out: &mut Vec<u32>) {
        let Some(&c) = mer.get(i) else {
            out.push(key);
            return;
        };
        let shift = 2 * i;
        if c < 4 {
            walk(mer, i + 1, key | u32::from(c) << shift, left, out);
        }
        if left > 0 {
            for v in (0..4u8).filter(|&v| v != c) {
                walk(mer, i + 1, key | u32::from(v) << shift, left - 1, out);
            }
        }
    }
    walk(mer, 0, 0, budget, out);
}

/// A part of a query window, packed as the tables pack one: its bases
/// 0–3 (`tame`), the low bit of each of them (`care`) and its count of
/// other bytes (`wild`).
#[derive(Debug, Clone, Copy, Default)]
struct Half {
    tame: u32,
    care: u32,
    wild: u32,
}

impl Half {
    fn of(part: &[u8]) -> Half {
        let mut half = Half::default();
        for (i, &c) in part.iter().enumerate() {
            if c < 4 {
                half.tame |= u32::from(c) << (2 * i);
                half.care |= 1 << (2 * i);
            } else {
                half.wild += 1;
            }
        }
        half
    }

    /// Hamming distance to the packed part `x`.
    #[inline]
    fn dist(self, x: u32) -> u32 {
        let diff = self.tame ^ x;
        ((diff | diff >> 1) & self.care).count_ones() + self.wild
    }
}

/// A request's query windows, packed once: per window its parts, and its
/// count of bytes outside 0–3.
struct Queries<'q> {
    windows: Vec<&'q [u8]>,
    parts: usize,
    halves: Vec<Half>,
    wild: Vec<u32>,
}

impl<'q> Queries<'q> {
    fn new(windows: Vec<&'q [u8]>, parts: usize) -> Self {
        let halves: Vec<Half> = windows
            .iter()
            .flat_map(|window| window.chunks(PART).map(Half::of))
            .collect();
        let wild = halves
            .chunks_exact(parts)
            .map(|row| row.iter().map(|h| h.wild).sum())
            .collect();
        Queries {
            windows,
            parts,
            halves,
            wild,
        }
    }

    /// Hamming distance from part `t` of window `w` to the packed part `x`.
    #[inline]
    fn part_dist(&self, w: usize, t: usize, x: u16) -> u32 {
        self.halves[w * self.parts + t].dist(u32::from(x))
    }

    /// Hamming distance from window `w`, over every part but `t`, to the
    /// packed parts `rest` (those of an entry of part `t`'s table).
    #[inline]
    fn rest_dist(&self, w: usize, t: usize, rest: &[u16]) -> u32 {
        let parts = rest.iter().enumerate();
        parts
            .map(|(i, &x)| self.part_dist(w, i + usize::from(i >= t), x))
            .sum()
    }
}

impl PigeonholeIndex {
    /// An empty index whose searches count into `obs`.
    pub fn new(obs: IndexMetrics) -> Self {
        PigeonholeIndex {
            obs,
            ..Self::default()
        }
    }

    /// Windows held.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no window is held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Bases a window holds (0 while empty).
    #[inline]
    pub fn window_len(&self) -> usize {
        self.width
    }

    /// Heap bytes the index holds, by capacity: its entries, bucket
    /// bounds and wild list.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.entries.capacity() * size_of::<u16>()
            + self.starts.capacity() * size_of::<u32>()
            + self.wild_ids.capacity() * size_of::<u32>()
            + self.wild.capacity()
    }

    /// Count into `obs` from now on.
    pub fn set_metrics(&mut self, obs: IndexMetrics) {
        self.obs = obs;
    }

    /// Forget every window; the counters stay.
    pub fn clear(&mut self) {
        *self = Self::new(self.obs.clone());
    }

    fn parts(&self) -> usize {
        self.width.div_ceil(PART)
    }

    /// Halfwords an entry takes: the id's two, and one per part but the
    /// bucket's.
    fn stride(&self) -> usize {
        1 + self.parts()
    }

    /// Bases of part `t`.
    fn part_len(&self, t: usize) -> usize {
        PART.min(self.width - PART * t)
    }

    /// Index `count` windows, those of the next insertion ids, returned.
    /// The tables are rebuilt over everything held, each window read
    /// from `window(id)`: the window of any id held once the batch is
    /// in — each of the batch's, and each held before it, as it was
    /// inserted — so no copy of the windows is made first.
    ///
    /// # Panics
    /// Panics when a window is empty, or differs in length from the
    /// batch's first or from the windows the index holds.
    pub fn insert_windows<'w>(
        &mut self,
        count: usize,
        window: impl Fn(u32) -> &'w [u8],
    ) -> Range<u32> {
        let start = self.count as u32;
        if count == 0 {
            return start..start;
        }
        let len = window(start).len();
        assert!(len > 0, "indexed windows must be non-empty");
        if self.count == 0 {
            self.width = len;
        }
        assert_eq!(len, self.width, "indexed windows must share one length");
        self.build(self.count + count, window);
        start..self.count as u32
    }

    /// Rebuild the tables over the `count` windows of ids `0..count`,
    /// each read from `window(id)` twice. The first pass packs each
    /// window to count the buckets and list the wild ones. The second
    /// packs [`CHUNK`] windows at a time and, per part, moves the chunk
    /// into groups of [`GROUP`] adjacent keys and each group into its
    /// buckets: every move writes near the one before it, where one
    /// scatter straight into 2·4⁸ buckets would miss the cache on nearly
    /// every entry. The chunk is all the scratch, whatever `count` is.
    fn build<'w>(&mut self, count: usize, window: impl Fn(u32) -> &'w [u8]) {
        let (len, parts, stride) = (self.width, self.parts(), self.stride());
        let mut starts = vec![0u32; KEYS * parts + 1];
        let mut wild_ids = Vec::new();
        let mut wild = Vec::new();
        let mut x = vec![0u16; parts];
        for id in 0..count as u32 {
            let window = window(id);
            assert_eq!(window.len(), len, "indexed windows must share one length");
            if pack(window, &mut x) {
                wild_ids.push(id);
                wild.extend_from_slice(window);
            }
            for (t, &key) in x.iter().enumerate() {
                starts[usize::from(key) * parts + t] += 1;
            }
        }
        // Every window is read and checked: the old tables go before the
        // new ones are laid out.
        self.starts = Vec::new();
        self.entries = Vec::new();
        self.count = count;
        // Exclusive prefix sums; each start then serves as its bucket's
        // fill cursor, and ends one bucket late.
        let mut sum = 0;
        for s in &mut starts {
            let n = *s;
            *s = sum;
            sum += n;
        }
        let mut entries = vec![0u16; count * parts * stride];
        // A chunk's windows, each as its id's two halfwords and then
        // every part: any part's entry is this less that part.
        let wide = stride + 1;
        let mut chunk = vec![0u16; CHUNK.min(count) * wide];
        let mut order = vec![0u32; CHUNK.min(count)];
        let mut wild_at = 0;
        for first in (0..count).step_by(CHUNK) {
            let n = CHUNK.min(count - first);
            let chunk = &mut chunk[..n * wide];
            for (id, slot) in (first as u32..).zip(chunk.chunks_exact_mut(wide)) {
                let mut name = id;
                if wild_ids.get(wild_at) == Some(&id) {
                    name = WILD | wild_at as u32;
                    wild_at += 1;
                }
                slot[0] = name as u16;
                slot[1] = (name >> 16) as u16;
                pack(window(id), &mut slot[2..]);
            }
            for t in 0..parts {
                let key = |slot: &[u16]| usize::from(slot[2 + t]);
                let mut at = [0u32; KEYS / GROUP + 1];
                for slot in chunk.chunks_exact(wide) {
                    at[key(slot) / GROUP + 1] += 1;
                }
                for g in 1..at.len() {
                    at[g] += at[g - 1];
                }
                for (i, slot) in chunk.chunks_exact(wide).enumerate() {
                    let cursor = &mut at[key(slot) / GROUP];
                    order[*cursor as usize] = i as u32;
                    *cursor += 1;
                }
                for &i in &order[..n] {
                    let slot = &chunk[i as usize * wide..][..wide];
                    let cursor = &mut starts[key(slot) * parts + t];
                    let to = *cursor as usize * stride;
                    *cursor += 1;
                    let entry = &mut entries[to..to + stride];
                    entry[..2 + t].copy_from_slice(&slot[..2 + t]);
                    entry[2 + t..].copy_from_slice(&slot[3 + t..]);
                }
            }
        }
        let last = starts.len() - 1;
        starts.copy_within(..last, 1);
        starts[0] = 0;
        self.starts = starts;
        self.entries = entries;
        self.wild_ids = wild_ids;
        self.wild = wild;
    }

    /// The entries of bucket `b`.
    #[inline]
    fn bucket(&self, b: usize) -> &[u16] {
        let stride = self.stride();
        &self.entries[self.starts[b] as usize * stride..self.starts[b + 1] as usize * stride]
    }

    /// The id an entry names, and the wild window's bytes if it is one.
    #[inline]
    fn named(&self, name: u32) -> (u32, Option<&[u8]>) {
        if name & WILD == 0 {
            return (name, None);
        }
        let at = (name & !WILD) as usize;
        (
            self.wild_ids[at],
            Some(&self.wild[at * self.width..][..self.width]),
        )
    }

    /// For each window `query[o .. o + len]` at an `offsets` entry, its
    /// `n` nearest held windows within Hamming distance `radius`, ordered
    /// by (distance, id): brute-force k-NN cut to the radius ball.
    ///
    /// # Panics
    /// Panics when `n` is 0 or a window runs past `query`.
    pub fn search(
        &self,
        query: &[u8],
        offsets: &[usize],
        n: usize,
        radius: usize,
    ) -> Vec<Vec<Neighbor>> {
        let plan = self.plan(radius);
        let scan = self.probe_cost(&plan) >= self.count;
        self.search_by(query, offsets, n, radius, &plan, scan)
    }

    /// The radius each part is probed at, `None` for a part not probed:
    /// any split with `Σ (b_t + 1) = radius + 1` finds every window within
    /// `radius`, since parts that each differ by more than their `b_t`
    /// differ by more than `radius` in all. The one probing the fewest
    /// keys takes each of the `radius + 1` units where it adds the fewest,
    /// the lower part on a tie: at 16-base windows and radius 4, the first
    /// half at 2 (277 keys) and the second at 1 (25).
    fn plan(&self, radius: usize) -> Vec<Option<usize>> {
        let mut plan: Vec<Option<usize>> = vec![None; self.parts()];
        for _ in 0..=radius {
            let more = |t: usize| {
                let m = self.part_len(t);
                let b = plan[t].map_or(0, |b| b + 1);
                (b <= m).then(|| near_count(m, Some(b)) - near_count(m, plan[t]))
            };
            let cheapest = (0..plan.len())
                .filter_map(|t| more(t).map(|c| (c, t)))
                .min();
            let Some((_, t)) = cheapest else { break };
            plan[t] = Some(plan[t].map_or(0, |b| b + 1));
        }
        plan
    }

    /// Candidate checks a probe of every part of one window costs under
    /// `plan`, counting a lookup as [`PROBE_COST`] checks.
    fn probe_cost(&self, plan: &[Option<usize>]) -> usize {
        plan.iter()
            .enumerate()
            .map(|(t, &b)| {
                let m = self.part_len(t);
                near_count(m, b) * (PROBE_COST + self.count / (1 << (2 * m)))
            })
            .sum()
    }

    /// [`Self::search`], probing the tables under `plan` or, on `scan`,
    /// checking every window.
    fn search_by(
        &self,
        query: &[u8],
        offsets: &[usize],
        n: usize,
        radius: usize,
        plan: &[Option<usize>],
        scan: bool,
    ) -> Vec<Vec<Neighbor>> {
        let mut heaps: Vec<KnnHeap> = offsets.iter().map(|_| KnnHeap::new(n)).collect();
        if self.count > 0 {
            let windows = offsets.iter().map(|&o| &query[o..o + self.width]).collect();
            let queries = Queries::new(windows, self.parts());
            let (probes, checked) = if scan {
                (0, self.scan(&queries, radius, &mut heaps))
            } else {
                self.probe(query, offsets, &queries, radius, plan, &mut heaps)
            };
            if probes > 0 {
                self.obs.probes.add(probes);
            }
            if checked > 0 {
                self.obs.candidates.add(checked);
            }
        }
        heaps.into_iter().map(KnnHeap::into_sorted).collect()
    }

    /// Check every window against every query window; returns the checks.
    fn scan(&self, queries: &Queries<'_>, radius: usize, heaps: &mut [KnnHeap]) -> u64 {
        let (parts, stride) = (self.parts(), self.stride());
        let mut checked = 0;
        for key in 0..1usize << (2 * self.part_len(0)) {
            for entry in self.bucket(key * parts).chunks_exact(stride) {
                let (id, wild) = self.named(name(entry));
                for (w, heap) in heaps.iter_mut().enumerate() {
                    let d = match wild {
                        Some(bytes) => mismatches(queries.windows[w], bytes),
                        None => {
                            queries.part_dist(w, 0, key as u16)
                                + queries.rest_dist(w, 0, &entry[2..])
                        }
                    };
                    if d as usize <= radius {
                        heap.offer(id, d as f32);
                    }
                }
                checked += heaps.len() as u64;
            }
        }
        checked
    }

    /// Probe every planned part of every query window at its radius, each
    /// distinct run of the query once for every window and part it starts
    /// (at the largest of their radii, each reading the keys within its
    /// own), then check the wild windows byte by byte against the wild
    /// query windows; returns the buckets looked up and the candidates
    /// checked.
    fn probe(
        &self,
        query: &[u8],
        offsets: &[usize],
        queries: &Queries<'_>,
        radius: usize,
        plan: &[Option<usize>],
        heaps: &mut [KnnHeap],
    ) -> (u64, u64) {
        let (parts, stride) = (self.parts(), self.stride());
        // (query position, part length, window, part, radius) of every
        // planned part.
        let mut runs: Vec<(usize, usize, usize, usize, usize)> = offsets
            .iter()
            .enumerate()
            .flat_map(|(w, &o)| {
                let planned = plan
                    .iter()
                    .enumerate()
                    .filter_map(|(t, b)| b.map(|b| (t, b)));
                planned.map(move |(t, b)| (o + PART * t, w, t, b))
            })
            .map(|(at, w, t, b)| (at, self.part_len(t), w, t, b))
            .collect();
        runs.sort_unstable();
        let mut keys = Vec::new();
        let (mut probes, mut checked) = (0u64, 0u64);
        for group in runs.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1)) {
            let (at, m) = (group[0].0, group[0].1);
            let b = group.iter().map(|r| r.4).max().unwrap_or(0);
            let run = &query[at..at + m];
            let half = Half::of(run);
            keys.clear();
            if half.wild == 0 {
                keys.extend(deltas(m, b).iter().map(|d| half.tame ^ d));
            } else {
                near_keys(run, b, &mut keys);
            }
            // Each key's bounds, then its entries, are asked for ahead of
            // their turn, so the misses of a few probes overlap.
            for (i, &key) in keys.iter().enumerate() {
                if let Some(&ahead) = keys.get(i + 2 * AHEAD) {
                    prefetch(self.starts.get(ahead as usize * parts + group[0].3));
                }
                if let Some(&ahead) = keys.get(i + AHEAD) {
                    let first = self.starts[ahead as usize * parts + group[0].3];
                    prefetch(self.entries.get(first as usize * stride));
                }
                // The run is part `t` of every window of the group, so
                // this is each one's distance over that part.
                let away = half.dist(key);
                for &(_, _, w, t, b) in group {
                    if away as usize > b {
                        continue;
                    }
                    let bucket = self.bucket(key as usize * parts + t);
                    probes += 1;
                    checked += (bucket.len() / stride) as u64;
                    for entry in bucket.chunks_exact(stride) {
                        let rest = &entry[2..];
                        let (id, wild) = self.named(name(entry));
                        let d = match wild {
                            None => away + queries.rest_dist(w, t, rest),
                            // A wild query window reads these below.
                            Some(_) if queries.wild[w] > 0 => continue,
                            Some(bytes) => mismatches(queries.windows[w], bytes),
                        };
                        // A window within an earlier part's radius was
                        // found in that part's table; `rest` holds the
                        // parts before `t` at their own places.
                        let earlier = || {
                            (0..t).any(|u| {
                                plan[u].is_some_and(|bu| {
                                    queries.part_dist(w, u, rest[u]) as usize <= bu
                                })
                            })
                        };
                        if d as usize <= radius && !earlier() {
                            heaps[w].offer(id, d as f32);
                        }
                    }
                }
            }
        }
        let len = self.width;
        for (w, window) in queries.windows.iter().enumerate() {
            if queries.wild[w] == 0 {
                continue;
            }
            for (&id, bytes) in self.wild_ids.iter().zip(self.wild.chunks_exact(len)) {
                let d = mismatches(window, bytes);
                if d as usize <= radius {
                    heaps[w].offer(id, d as f32);
                }
            }
            checked += self.wild_ids.len() as u64;
        }
        (probes, checked)
    }

    /// Check the tables against the windows they index: every bucket's
    /// entries are in ascending id order; every window sits once in each
    /// part's table, and its entries there, each with its bucket's key,
    /// make one packed window whose parts hold no base past their length;
    /// the wild list holds windows with a byte outside 0–3, ascending,
    /// each packed as its entries make it and named by them.
    pub fn check_invariants(&self) -> Result<(), String> {
        let (len, parts, stride) = (self.width, self.parts(), self.stride());
        if self.count == 0 {
            return Ok(());
        }
        if !self.wild_ids.windows(2).all(|p| p[0] < p[1]) {
            return Err("the wild list is out of id order".into());
        }
        if self.wild.len() != self.wild_ids.len() * len {
            return Err("the wild list's bytes and ids disagree".into());
        }
        let mut seen = vec![0usize; self.count];
        // Each window as its first entry found makes it.
        let mut windows = vec![0u16; self.count * parts];
        let mut x = vec![0u16; parts];
        let mut packed = vec![0u16; parts];
        for b in 0..KEYS * parts {
            let (key, t) = ((b / parts) as u16, b % parts);
            let mut last = None;
            for entry in self.bucket(b).chunks_exact(stride) {
                let name = name(entry);
                if name & WILD != 0 && (name & !WILD) as usize >= self.wild_ids.len() {
                    return Err(format!("bucket {b} names wild window {}", name & !WILD));
                }
                let (id, wild) = self.named(name);
                if last.is_some_and(|l| l >= id) {
                    return Err(format!("bucket {b} is out of id order at {id}"));
                }
                last = Some(id);
                let Some(n) = seen.get_mut(id as usize) else {
                    return Err(format!("id {id} past the {} held", self.count));
                };
                x[..t].copy_from_slice(&entry[2..2 + t]);
                x[t] = key;
                x[t + 1..].copy_from_slice(&entry[2 + t..]);
                let past = (0..parts).any(|u| u32::from(x[u]) >> (2 * self.part_len(u)) != 0);
                if past {
                    return Err(format!("window {id} has a base past its length"));
                }
                let first = &mut windows[id as usize * parts..][..parts];
                if *n == 0 {
                    first.copy_from_slice(&x);
                } else if *first != x[..] {
                    return Err(format!("window {id}'s tables disagree on it"));
                }
                *n += 1;
                match wild {
                    Some(bytes) if !pack(bytes, &mut packed) || packed != x => {
                        return Err(format!("wild window {id} is not packed as its bytes"));
                    }
                    None if self.wild_ids.binary_search(&id).is_ok() => {
                        return Err(format!("wild window {id} is named by its id"));
                    }
                    _ => {}
                }
            }
        }
        match seen.iter().position(|&n| n != parts) {
            Some(id) => Err(format!(
                "window {id} sits in {} tables of {parts}",
                seen[id]
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::brute_force_knn;
    use mendel_seq::Hamming;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// `count` windows of `len` bases from a few related families, with
    /// an `N` (code 4) in about one window of `wild_every`.
    fn windows(count: usize, len: usize, wild_every: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let roots: Vec<Vec<u8>> = (0..8)
            .map(|_| (0..len).map(|_| rng.random_range(0..4u8)).collect())
            .collect();
        (0..count)
            .map(|_| {
                let mut w = roots[rng.random_range(0..roots.len())].clone();
                for b in w.iter_mut() {
                    if rng.random_range(0..4) == 0 {
                        *b = rng.random_range(0..4u8);
                    }
                }
                if rng.random_range(0..wild_every) == 0 {
                    w[rng.random_range(0..len)] = 4;
                }
                w
            })
            .collect()
    }

    fn index(points: &[Vec<u8>]) -> PigeonholeIndex {
        let mut index = PigeonholeIndex::default();
        index.insert_windows(points.len(), |id| &points[id as usize]);
        index
    }

    /// Brute-force k-NN cut to the radius, as (id, distance bits).
    fn want(points: &[Vec<u8>], q: &[u8], n: usize, radius: usize) -> Vec<(u32, u32)> {
        brute_force_knn(points, &Hamming, q, n)
            .into_iter()
            .filter(|nb| nb.dist <= radius as f32)
            .map(|nb| (nb.index, nb.dist.to_bits()))
            .collect()
    }

    fn key(found: &[Neighbor]) -> Vec<(u32, u32)> {
        found
            .iter()
            .map(|nb| (nb.index, nb.dist.to_bits()))
            .collect()
    }

    #[test]
    fn probes_and_scans_equal_brute_force_cut_to_the_radius() {
        for (len, radius) in [
            (16, 4),
            (16, 2),
            (16, 0),
            (16, 8),
            (12, 3),
            (20, 5),
            (5, 1),
            (32, 8),
        ] {
            let points = windows(3000, len, 20, len as u64);
            let index = index(&points);
            index.check_invariants().unwrap();
            // Queries: corpus windows mutated, one in four with an `N`.
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let mut query = Vec::new();
            for _ in 0..30 {
                let mut w = points[rng.random_range(0..points.len())].clone();
                for b in w.iter_mut() {
                    if rng.random_range(0..6) == 0 {
                        *b = rng.random_range(0..5u8);
                    }
                }
                query.extend(w);
            }
            // Every window start, so runs are shared and overlap.
            let offsets: Vec<usize> = (0..=query.len() - len).step_by(3).collect();
            for n in [1, 8, 16] {
                for scan in [false, true] {
                    let plan = index.plan(radius);
                    let got = index.search_by(&query, &offsets, n, radius, &plan, scan);
                    for (&o, found) in offsets.iter().zip(&got) {
                        let q = &query[o..o + len];
                        assert_eq!(
                            key(found),
                            want(&points, q, n, radius),
                            "len {len} r {radius} n {n} scan {scan} at {o}"
                        );
                    }
                }
            }
        }
    }

    /// A digest of the tables' content.
    fn digest(index: &PigeonholeIndex) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        index.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_grown_index_equals_one_built_at_once() {
        let points = windows(2000, 16, 10, 3);
        let whole = index(&points);
        let mut grown = PigeonholeIndex::default();
        for chunk in points.chunks(300) {
            let at = grown.len() as u32;
            assert_eq!(
                grown.insert_windows(chunk.len(), |id| &points[id as usize]),
                at..at + chunk.len() as u32
            );
        }
        assert_eq!(digest(&grown), digest(&whole));
        assert_holds(&grown, &points);
        grown.clear();
        assert!(grown.is_empty());
    }

    /// Each of `points` finds, at radius 0, the windows equal to it that
    /// brute force finds: the index holds each window at its id.
    fn assert_holds(index: &PigeonholeIndex, points: &[Vec<u8>]) {
        let len = points[0].len();
        let query: Vec<u8> = points.iter().flatten().copied().collect();
        let offsets: Vec<usize> = (0..query.len()).step_by(len).collect();
        let found = index.search(&query, &offsets, 4, 0);
        for (&o, found) in offsets.iter().zip(&found) {
            assert_eq!(key(found), want(points, &query[o..o + len], 4, 0), "at {o}");
        }
    }

    /// Tables that read each window through its key into its sequence —
    /// as a storage node's do — equal tables built from a flat copy of
    /// the same windows, digest and answers, after a bulk build and after
    /// growth.
    #[test]
    fn tables_read_through_keys_equal_ones_built_from_copies() {
        let len = 16;
        let seqs = windows(30, 200, 3, 0x61);
        let mut rng = ChaCha8Rng::seed_from_u64(0x62);
        let starts = seqs
            .iter()
            .enumerate()
            .flat_map(|(s, seq)| (0..=seq.len() - len).map(move |at| (s, at)));
        let keys: Vec<(usize, usize)> = starts.filter(|_| rng.random_range(0..3) == 0).collect();
        let window = |id: u32| {
            let (s, at) = keys[id as usize];
            &seqs[s][at..at + len]
        };
        let copies: Vec<u8> = (0..keys.len() as u32).flat_map(window).copied().collect();
        let copy = |id: u32| &copies[id as usize * len..][..len];
        let query: Vec<u8> = seqs[7][..120].to_vec();
        let offsets: Vec<usize> = (0..=query.len() - len).step_by(8).collect();
        let (mut keyed, mut copied) = (PigeonholeIndex::default(), PigeonholeIndex::default());
        let bulk = keys.len() * 6 / 10;
        for (from, to) in [(0, bulk), (bulk, keys.len())] {
            assert_eq!(
                keyed.insert_windows(to - from, window),
                from as u32..to as u32
            );
            copied.insert_windows(to - from, copy);
            assert_eq!(digest(&keyed), digest(&copied), "{to} windows");
            for radius in [2, 4] {
                let found = keyed.search(&query, &offsets, 8, radius);
                assert_eq!(found, copied.search(&query, &offsets, 8, radius));
                assert!(
                    found.iter().any(|f| !f.is_empty()),
                    "the query finds nothing"
                );
            }
        }
        let points: Vec<Vec<u8>> = copies.chunks_exact(len).map(<[u8]>::to_vec).collect();
        assert_holds(&keyed, &points);
    }

    /// The build's chunks join seamlessly: with wild windows at the
    /// first and last id of every chunk, so the wild list's cursor
    /// carries from one chunk into the next with a wild window on each
    /// side of the edge, every probe and scan equals brute force, the
    /// invariants hold and the tables equal ones grown in two batches
    /// that split a chunk.
    #[test]
    fn the_builds_chunks_join_at_their_edges() {
        let (len, count) = (16, 2 * CHUNK + 7);
        let mut points = windows(count, len, 50, 0x63);
        let edges = [0, CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK, count - 1];
        for id in edges {
            points[id][id % len] = 4;
        }
        let index = index(&points);
        index.check_invariants().unwrap();
        // Queries: the edge windows and a neighbour of each, mutated, some
        // with an `N`.
        let mut rng = ChaCha8Rng::seed_from_u64(0x64);
        let mut query = Vec::new();
        for id in edges.into_iter().chain([1, CHUNK + 1, 2 * CHUNK + 1]) {
            let mut w = points[id].clone();
            for b in w.iter_mut() {
                if rng.random_range(0..8) == 0 {
                    *b = rng.random_range(0..5u8);
                }
            }
            query.extend(w);
        }
        let offsets: Vec<usize> = (0..=query.len() - len).step_by(4).collect();
        let brute: Vec<Vec<(u32, u32)>> = offsets
            .iter()
            .map(|&o| want(&points, &query[o..o + len], 8, 4))
            .collect();
        for radius in 0..=4 {
            for n in [1, 8] {
                for scan in [false, true] {
                    let plan = index.plan(radius);
                    let got = index.search_by(&query, &offsets, n, radius, &plan, scan);
                    for ((&o, found), brute) in offsets.iter().zip(&got).zip(&brute) {
                        let within = brute
                            .iter()
                            .filter(|&&(_, d)| f32::from_bits(d) <= radius as f32);
                        let want: Vec<(u32, u32)> = within.take(n).copied().collect();
                        assert_eq!(key(found), want, "r {radius} n {n} scan {scan} at {o}");
                    }
                }
            }
        }
        let split = CHUNK + CHUNK / 2 + 3;
        let mut grown = PigeonholeIndex::default();
        grown.insert_windows(split, |id| &points[id as usize]);
        grown.insert_windows(count - split, |id| &points[id as usize]);
        assert_eq!(digest(&grown), digest(&index));
    }

    #[test]
    fn plans_spend_the_radius_where_it_probes_least() {
        let sized = |width| PigeonholeIndex {
            width,
            ..PigeonholeIndex::default()
        };
        let halves = sized(16);
        assert_eq!(halves.plan(4), [Some(2), Some(1)]);
        assert_eq!(halves.plan(0), [Some(0), None]);
        assert_eq!(halves.plan(1), [Some(0), Some(0)]);
        assert_eq!(halves.plan(8), [Some(4), Some(3)]);
        // A short last part is cheap to widen.
        assert_eq!(sized(12).plan(3), [Some(1), Some(1)]);
        assert_eq!(sized(12).plan(2), [Some(0), Some(1)]);
        for len in [5, 12, 16, 20, 32] {
            let index = sized(len);
            for radius in 0..=len {
                let plan = index.plan(radius);
                let units: usize = plan.iter().map(|b| b.map_or(0, |b| b + 1)).sum();
                assert_eq!(units, radius + 1, "len {len} radius {radius}: {plan:?}");
            }
        }
    }

    #[test]
    fn near_keys_count_every_key_within_the_budget() {
        let mut keys = Vec::new();
        near_keys(&[0, 1, 2, 3, 0, 1, 2, 3], 2, &mut keys);
        assert_eq!(keys.len(), 277);
        assert_eq!(near_count(8, Some(2)), 277);
        keys.clear();
        // Two `N`s spend the budget: 4² keys, all other bases fixed.
        near_keys(&[4, 1, 2, 3, 0, 1, 2, 4], 2, &mut keys);
        assert_eq!(keys.len(), 16);
        keys.clear();
        near_keys(&[4, 4, 4, 1], 2, &mut keys);
        assert!(keys.is_empty());
    }

    #[test]
    fn loose_radii_scan_and_tight_ones_probe_at_served_size() {
        let mut index = PigeonholeIndex {
            width: 16,
            count: 186_295,
            ..PigeonholeIndex::default()
        };
        assert!(index.probe_cost(&index.plan(4)) < index.count);
        assert!(index.probe_cost(&index.plan(8)) < index.count);
        assert!(index.probe_cost(&index.plan(16)) >= index.count);
        index.count = 1000;
        assert!(
            index.probe_cost(&index.plan(4)) >= index.count,
            "a small node scans"
        );
    }

    #[test]
    fn counters_report_probes_and_candidates() {
        let points = windows(500, 16, 1_000_000, 5);
        let mut index = index(&points);
        let obs = IndexMetrics::default();
        index.set_metrics(obs.clone());
        let q = points[0].clone();
        let plan = index.plan(4);
        let found = index.search_by(&q, &[0], 1, 4, &plan, false);
        assert_eq!(key(&found[0]), vec![(0, 0f32.to_bits())]);
        assert_eq!(obs.probes.get(), 277 + 25);
        let probed = obs.candidates.get();
        assert!(probed > 0 && probed < 500);
        index.search_by(&q, &[0], 1, 4, &plan, true);
        assert_eq!(obs.probes.get(), 277 + 25, "a scan looks up no bucket");
        assert_eq!(
            obs.candidates.get(),
            probed + 500,
            "a scan checks every window"
        );
    }
}
