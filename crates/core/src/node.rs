//! The storage node: one local index over its blocks + node-local
//! query evaluation (§V-A3 and the first half of §V-B).
//!
//! "Once an inverted index block reaches its destination storage node
//! within its storage group, it will be indexed in a regular local
//! vp-tree ... implemented using dynamic update balancing. This
//! memory-resident NNS structure serves as a starting point for queries
//! to find high similarity segments."
//!
//! A protein node does exactly that. A DNA node indexes its windows in
//! pigeonhole tables instead ([`PigeonholeIndex`]): Hamming distance on
//! short windows takes so few values that a metric tree cannot prune to
//! the handful of windows the identity filter passes, and the tables find
//! all of them exactly (DESIGN.md §3).
//!
//! For anchor extension a node reads neighbouring sequence content
//! through a shared [`SeqStore`] handle. In a wire deployment those reads
//! are O(1) zero-hop block fetches (every block's location is computable
//! from its key); the shared handle models that path without shipping
//! bytes — see DESIGN.md §3.
//!
//! [`StorageNode`] is a node's RAM state. `NodeSlot` is the node as
//! the cluster holds it — RAM, durable store and lifecycle in one place
//! (DESIGN.md §14.4). A cluster keeps a slot for every node, but fills
//! the RAM of only the nodes it hosts: all of them in process, its own
//! in a `mendel serve` process (`MendelCluster::build_member`), where
//! the other slots stay empty trees — and, on the durable backend,
//! stores that still receive their node's blocks.
//!
//! A block is its key, `(seq, start)`: its window is the reference
//! store's residues there. Every batch a node indexes — an ingest's, a
//! rebalance's or repair's copies, a replay's — arrives as keys
//! ([`StorageNode::insert_keys`]), and every window a node indexes or
//! persists is read from the reference store, never back out of an
//! index (DESIGN.md §20.2).

use crate::block::BlockKey;
use crate::config::ClusterConfig;
use crate::error::MendelError;
use crate::metric::BlockMetric;
use crate::params::QueryParams;
use crate::query::{c_score, identity, identity_radius};
use mendel_align::{extend_ungapped, Hsp};
use mendel_dht::NodeId;
use mendel_seq::{Alphabet, ScoringMatrix, SeqId, SeqStore, WindowView};
use mendel_store::{DurableStore, ScannedBlock, StoreMetrics, StoreOptions, Vfs};
use mendel_vptree::{IndexMetrics, Neighbor, PigeonholeIndex, SearchMetrics, VpTree};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::sync::Arc;

/// Shared, swappable handle on the reference store: nodes read the
/// current snapshot; [`crate::MendelCluster::insert_sequences`] swaps in
/// an extended one.
pub type DbCell = Arc<RwLock<Arc<SeqStore>>>;

/// One storage node's state.
///
/// The local index owns the blocks' windows — a vp-tree packs them per
/// leaf, the DNA tables 2 bits a base — and `keys` holds each block's
/// compact `(seq, start)` at its insertion id (DESIGN.md §10).
pub struct StorageNode {
    /// Each held block's key, at its insertion id in `index`.
    keys: Vec<BlockKey>,
    index: LocalIndex,
    /// Read path to sequence content for anchor extension (models the
    /// zero-hop block-fetch path; see module docs).
    db: DbCell,
    alphabet: Alphabet,
}

/// A node's local index, chosen by its alphabet.
enum LocalIndex {
    /// Protein: the paper's vp-tree, searched on a distance-call budget.
    Tree(VpTree<BlockMetric>),
    /// DNA: pigeonhole tables, exact at the identity filter's radius.
    Dna(PigeonholeIndex),
}

/// `(subject, diagonal)` → query range already covered by an anchor.
type CoveredMap = std::collections::HashMap<(u32, i64), (usize, usize)>;

/// Borrowed per-request context shared by every subquery evaluation.
#[derive(Clone, Copy)]
struct SubqueryCtx<'a> {
    db: &'a SeqStore,
    query: &'a [u8],
    block_len: usize,
    params: &'a QueryParams,
    matrix: &'a ScoringMatrix,
    positive: Option<&'a ScoringMatrix>,
}

/// A block and its replicas (or overlapping k-NN results) can extend to
/// the same segment; dedupe exact duplicates so the group stage merges
/// real information.
fn finish_output(out: &mut LocalSearchOutput) {
    out.anchors.sort_unstable_by_key(|h| {
        (
            h.subject_id,
            h.diagonal(),
            h.query_start,
            h.query_end,
            h.score,
        )
    });
    out.anchors.dedup();
}

/// Result of evaluating one subquery against one node: surviving,
/// extended anchors plus the candidate count inspected.
#[derive(Debug, Clone, Default)]
pub struct LocalSearchOutput {
    /// Extended anchors (ungapped HSPs).
    pub anchors: Vec<Hsp>,
    /// k-NN candidates inspected before filtering.
    pub candidates: usize,
}

impl StorageNode {
    /// An empty node: a vp-tree under `metric` (leaf `bucket_capacity`,
    /// vantage `seed`) for protein, pigeonhole tables for DNA.
    pub fn new(
        metric: BlockMetric,
        bucket_capacity: usize,
        db: DbCell,
        alphabet: Alphabet,
        seed: u64,
    ) -> Self {
        let index = match alphabet {
            Alphabet::Protein => LocalIndex::Tree(VpTree::new(metric, bucket_capacity, seed)),
            Alphabet::Dna => LocalIndex::Dna(PigeonholeIndex::default()),
        };
        StorageNode {
            keys: Vec::new(),
            index,
            db,
            alphabet,
        }
    }

    /// Forget every block: the node is as [`Self::new`] made it, search
    /// counters still attached.
    pub fn clear(&mut self) {
        self.keys.clear();
        match &mut self.index {
            LocalIndex::Tree(tree) => tree.clear(),
            LocalIndex::Dna(index) => index.clear(),
        }
    }

    /// Windows the local index holds.
    fn indexed(&self) -> usize {
        match &self.index {
            LocalIndex::Tree(tree) => tree.len(),
            LocalIndex::Dna(index) => index.len(),
        }
    }

    /// Phase 3 of indexing: index the blocks of `keys` locally, under the
    /// next insertion ids, each window `len` residues of the reference
    /// store at its key. The index reads every window it builds over
    /// from the store there — those of the ids held before too, where a
    /// rebuild reaches them — so no copy of them is made first (the
    /// vp-tree's §III-D batch path, [`VpTree::insert_windows`], or one
    /// counting sort into the DNA tables,
    /// [`PigeonholeIndex::insert_windows`]).
    ///
    /// The one way into a node's index: an ingest, a rebalance, a
    /// repair and a replay from disk all index keys.
    ///
    /// # Panics
    /// Panics when a key's sequence is absent from the store or its
    /// window runs past the sequence's end: the ledger, which records
    /// every key before a node indexes it, refuses such a key.
    pub fn insert_keys(&mut self, keys: Vec<BlockKey>, len: usize) {
        let count = keys.len();
        if count == 0 {
            return;
        }
        if self.keys.is_empty() {
            self.keys = keys;
        } else {
            self.keys.extend(keys);
        }
        let db = self.db.read().clone();
        let seqs: Vec<&[u8]> = db.iter().map(|s| s.residues.as_slice()).collect();
        let all = &self.keys;
        let window = |id: u32| {
            let key = all[id as usize];
            &seqs[key.seq.index()][key.start as usize..][..len]
        };
        match &mut self.index {
            LocalIndex::Tree(tree) => {
                tree.insert_windows(count, window);
            }
            LocalIndex::Dna(index) => {
                index.insert_windows(count, window);
            }
        }
        debug_assert_eq!(self.keys.len(), self.indexed());
        #[cfg(feature = "strict-invariants")]
        {
            #[expect(
                clippy::panic,
                reason = "strict-invariants mode aborts on accounting corruption by design"
            )]
            if self.keys.len() != self.indexed() {
                panic!(
                    "storage-node ingest left {} keys for {} indexed windows",
                    self.keys.len(),
                    self.indexed()
                );
            }
            let checked = match &self.index {
                LocalIndex::Tree(tree) => tree.check_invariants(),
                LocalIndex::Dna(index) => index.check_invariants(),
            };
            #[expect(
                clippy::panic,
                reason = "strict-invariants mode aborts on structural corruption by design"
            )]
            if let Err(e) = checked {
                panic!("storage-node ingest violated its index's invariants: {e}");
            }
        }
    }

    /// Install shared search counters (e.g. one
    /// [`SearchMetrics::registered`] and one [`IndexMetrics::registered`]
    /// bundle cloned across all nodes, aggregating cluster-wide): a
    /// protein node counts into `tree`, a DNA node into `dna`. Survives
    /// rebuilds.
    pub fn set_search_metrics(&mut self, tree: SearchMetrics, dna: IndexMetrics) {
        match &mut self.index {
            LocalIndex::Tree(t) => t.set_metrics(tree),
            LocalIndex::Dna(index) => index.set_metrics(dna),
        }
    }

    /// Number of blocks held.
    pub fn block_count(&self) -> usize {
        self.keys.len()
    }

    /// Bytes held: each block's 8-byte `(seq, start)` key plus its
    /// window's bytes (DESIGN.md §10).
    pub fn stored_bytes(&self) -> u64 {
        (self.keys.len() * (std::mem::size_of::<BlockKey>() + self.window_len())) as u64
    }

    /// Heap bytes the local index holds: a tree's vertices, leaves and
    /// vantage arena, or the DNA tables' entries, bounds and wild list.
    pub fn index_bytes(&self) -> usize {
        match &self.index {
            LocalIndex::Tree(tree) => tree.heap_bytes(),
            LocalIndex::Dna(index) => index.heap_bytes(),
        }
    }

    /// Residues a held window has (0 while empty).
    fn window_len(&self) -> usize {
        match &self.index {
            LocalIndex::Tree(tree) => tree.window_len(),
            LocalIndex::Dna(index) => index.window_len(),
        }
    }

    /// Keys of all held blocks, without touching payloads (what the
    /// placement ledger is checked against).
    pub fn block_keys(&self) -> Vec<BlockKey> {
        self.keys.clone()
    }

    /// Evaluate one request's subquery windows against this node (§V-B):
    ///
    /// 1. the `n` nearest blocks per subquery: a protein node's vp-tree
    ///    k-NN on its distance-call budget; a DNA node's exact k-NN within
    ///    the identity filter's Hamming radius, which the identity filter
    ///    then passes whole,
    /// 2. percent-identity and c-score filtering,
    /// 3. ungapped anchor extension through neighbouring content, with
    ///    per-diagonal coverage tracking so consecutive subqueries that
    ///    land inside an already-extended anchor do not re-extend it
    ///    (the group stage merges overlapping anchors anyway; recomputing
    ///    them would only burn node time).
    ///
    /// `query` is the *full* query; each subquery window starts at an
    /// `offsets` entry and has the cluster's block length. This is the
    /// one node search: a node's request handler calls it once per search
    /// message, whether the message came over TCP or in process.
    pub fn local_search_many(
        &self,
        query: &[u8],
        offsets: &[usize],
        block_len: usize,
        params: &QueryParams,
        matrix: &ScoringMatrix,
    ) -> LocalSearchOutput {
        let db = self.db.read().clone();
        let cx = SubqueryCtx {
            db: &db,
            query,
            block_len,
            params,
            matrix,
            positive: (self.alphabet == Alphabet::Protein).then_some(matrix),
        };
        let mut out = LocalSearchOutput::default();
        // (subject, diagonal) → query range already covered by an anchor.
        let mut covered: CoveredMap = CoveredMap::new();
        match &self.index {
            LocalIndex::Tree(tree) => {
                for &offset in offsets {
                    let window = &query[offset..offset + block_len];
                    let neighbors = tree.knn_with_budget(window, params.n, params.search_budget);
                    self.eval_subquery(&cx, offset, neighbors, false, &mut covered, &mut out);
                }
            }
            LocalIndex::Dna(index) => {
                // No window passes when not even an equal one does.
                if let Some(radius) = identity_radius(block_len, params.i) {
                    let found = index.search(query, offsets, params.n, radius);
                    for (&offset, neighbors) in offsets.iter().zip(found) {
                        self.eval_subquery(&cx, offset, neighbors, true, &mut covered, &mut out);
                    }
                }
            }
        }
        finish_output(&mut out);
        out
    }

    /// Evaluate one subquery's k-NN candidates: §V-B filtering, coverage
    /// tracking, and ungapped anchor extension. `identical_enough` says
    /// the search already held every candidate to the identity filter's
    /// radius.
    fn eval_subquery(
        &self,
        cx: &SubqueryCtx<'_>,
        offset: usize,
        neighbors: Vec<Neighbor>,
        identical_enough: bool,
        covered: &mut CoveredMap,
        out: &mut LocalSearchOutput,
    ) {
        let SubqueryCtx {
            db,
            query,
            block_len,
            params,
            matrix,
            positive,
        } = *cx;
        let window = &query[offset..offset + block_len];
        out.candidates += neighbors.len();
        {
            for nb in neighbors {
                // Tree insertion ids index `keys` (fed in lockstep); a
                // desync would be a bug, but degrading to "skip candidate"
                // beats panicking in the middle of a distributed query.
                let Some(&entry) = self.keys.get(nb.index as usize) else {
                    continue;
                };
                // The candidate's window, read where anchor extension
                // reads its neighbours: the reference store. A block the
                // store cannot resolve (mid-swap, or a range past the
                // sequence) could not extend, so it yields no anchor.
                let Some(subject_seq) = db.get(entry.seq) else {
                    continue;
                };
                let subject = &subject_seq.residues;
                let start = entry.start as usize;
                let Some(cand) = subject.get(start..start + block_len) else {
                    continue;
                };
                // §V-B candidate measures.
                if !identical_enough && identity(window, cand) < params.i {
                    continue;
                }
                if c_score(window, cand, positive) < params.c {
                    continue;
                }
                let diag = entry.start as i64 - offset as i64;
                if let Some(&(cs, ce)) = covered.get(&(entry.seq.0, diag)) {
                    if offset >= cs && offset + block_len <= ce {
                        continue; // inside an anchor we already extended
                    }
                }
                // Anchor extension through neighbouring blocks' content.
                let ext = extend_ungapped(
                    query,
                    subject,
                    offset,
                    entry.start as usize,
                    block_len,
                    matrix,
                    params.x_drop_ungapped,
                );
                covered
                    .entry((entry.seq.0, diag))
                    .and_modify(|(cs, ce)| {
                        *cs = (*cs).min(ext.query_start);
                        *ce = (*ce).max(ext.query_end);
                    })
                    .or_insert((ext.query_start, ext.query_end));
                if ext.score < params.min_anchor_score {
                    continue; // a chance neighbour, not a seed (§V-B threshold)
                }
                out.anchors.push(Hsp {
                    subject_id: entry.seq.0,
                    query_start: ext.query_start,
                    query_end: ext.query_end,
                    subject_start: ext.subject_start,
                    score: ext.score,
                });
            }
        }
    }
}

/// What opening a node's durable store takes; one per durable cluster,
/// shared by its slots.
pub(crate) struct NodeStores {
    pub(crate) vfs: Arc<dyn Vfs>,
    pub(crate) opts: StoreOptions,
    pub(crate) metrics: StoreMetrics,
}

/// A slot's durable half: the store rooted at `root` on the shared VFS.
struct Disk {
    env: Arc<NodeStores>,
    root: String,
    /// `None` while the node's process is down: the handle died with
    /// it and only the bytes on disk remain.
    handle: Mutex<Option<DurableStore>>,
}

impl Disk {
    /// Open (or create) the store, running its recovery. The one
    /// `DurableStore::open` of the cluster.
    fn open_store(&self) -> Result<DurableStore, MendelError> {
        let (store, _report) = DurableStore::open(
            self.env.vfs.clone(),
            &self.root,
            self.env.opts,
            self.env.metrics.clone(),
        )?;
        Ok(store)
    }
}

/// One storage node as the cluster holds it: everything that is per
/// node, and the lifecycle verbs over it. The RAM lock and the disk
/// mutex are separate and never held together, so a persist (an fsync
/// per block) does not block the node's queries. The store only
/// appends: a re-placement forgets the RAM and keeps the disk, and a
/// restart keeps the records the ledger still names the node for.
pub(crate) struct NodeSlot {
    id: NodeId,
    ram: RwLock<StorageNode>,
    /// `None` on the memory backend.
    disk: Option<Disk>,
    /// Oracle state for `MendelCluster::check_ledger`: the keys this
    /// node held when it went dark ([`Self::kill`]), which the sweep
    /// cannot read back from anywhere else.
    #[cfg(any(test, feature = "strict-invariants"))]
    dark_keys: Mutex<Vec<BlockKey>>,
}

impl NodeSlot {
    /// An empty node, its store (if `stores` names a backend) not yet
    /// open — [`Self::open`] it before placing anything. The one place a
    /// cluster's [`StorageNode`]s are made.
    pub(crate) fn new(
        id: NodeId,
        config: &ClusterConfig,
        db: DbCell,
        counters: (SearchMetrics, IndexMetrics),
        stores: Option<Arc<NodeStores>>,
    ) -> Self {
        let mut ram = StorageNode::new(
            config.metric.instantiate(),
            config.bucket_capacity,
            db,
            config.alphabet,
            config.seed ^ (id.0 as u64 + 1),
        );
        ram.set_search_metrics(counters.0, counters.1);
        NodeSlot {
            id,
            ram: RwLock::new(ram),
            disk: stores.map(|env| Disk {
                env,
                root: format!("node-{}", id.0),
                handle: Mutex::new(None),
            }),
            #[cfg(any(test, feature = "strict-invariants"))]
            dark_keys: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn id(&self) -> NodeId {
        self.id
    }

    /// The node's RAM state, shared.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, StorageNode> {
        self.ram.read()
    }

    /// Start the node's store. A slot whose store does not open is down:
    /// the caller either gives up (construction) or fails the node
    /// (join). Nothing to do on the memory backend.
    pub(crate) fn open(&self) -> Result<(), MendelError> {
        if let Some(disk) = &self.disk {
            let store = disk.open_store()?;
            *disk.handle.lock() = Some(store);
        }
        Ok(())
    }

    /// Append `blocks` — each a key and its window, a view of the
    /// reference store's copy of its sequence — to the node's store; the store's fsync
    /// policy decides when the records become crash-proof. Nothing to do
    /// on the memory backend — but a durable node without an open store
    /// cannot acknowledge anything, so that is an error.
    pub(crate) fn persist(
        &self,
        blocks: impl IntoIterator<Item = (BlockKey, WindowView)>,
    ) -> Result<(), MendelError> {
        let Some(disk) = &self.disk else {
            return Ok(());
        };
        let mut handle = disk.handle.lock();
        let store = handle
            .as_mut()
            .ok_or_else(|| MendelError::Store(format!("node {} has no open store", self.id)))?;
        for (key, window) in blocks {
            store.put_block(
                &key.as_bytes(),
                window.backing(),
                window.offset() as u32,
                window.len() as u32,
            )?;
        }
        Ok(())
    }

    /// Index a batch in RAM ([`StorageNode::insert_keys`]). Callers
    /// persist first ([`Self::persist`]), or hold keys that came off
    /// this node's own disk ([`Self::replay`]).
    pub(crate) fn insert_keys(&self, keys: Vec<BlockKey>, len: usize) {
        self.ram.write().insert_keys(keys, len);
    }

    /// Forget the RAM ahead of a re-placement; the disk keeps every
    /// record, and a restart keeps those the ledger names the node for.
    pub(crate) fn forget(&self) {
        self.ram.write().clear();
    }

    /// The node's process dies: on the durable backend the store handle
    /// and the RAM go, the disk stays. The memory backend keeps its RAM
    /// (a failed node's in-process data never leaves). Killing a node
    /// that is already dark changes nothing.
    pub(crate) fn kill(&self) {
        let Some(disk) = &self.disk else { return };
        if disk.handle.lock().take().is_none() {
            return;
        }
        // The ledger oracle remembers what the RAM held.
        #[cfg(any(test, feature = "strict-invariants"))]
        {
            let held = self.ram.read().block_keys();
            *self.dark_keys.lock() = held;
        }
        self.forget();
    }

    /// The node's process restarts from disk: reopen the store
    /// (manifest + segment verification, WAL replay, torn-tail
    /// truncation) and read every block's key back. On `Ok` the store is
    /// open, the RAM empty, and the returned keys are exactly what the
    /// disk holds — the caller indexes those the ledger still names the
    /// node for, *without* persisting them again. A record that is no
    /// block of the reference — a key not in the 8-byte `seq‖start`
    /// form, or a window other than the `len` residues the reference
    /// store holds at its key — fails the replay as a corrupt disk does;
    /// so does `accept`'s refusal of the keys. On `Err` nothing changed. `None` on the memory backend, whose RAM
    /// never left.
    pub(crate) fn replay(
        &self,
        len: usize,
        accept: impl FnOnce(&[BlockKey]) -> Result<(), MendelError>,
    ) -> Result<Option<Vec<BlockKey>>, MendelError> {
        let Some(disk) = &self.disk else {
            return Ok(None);
        };
        let store = disk.open_store()?;
        let cell = self.ram.read().db.clone();
        let db = cell.read().clone();
        let block = |s: &ScannedBlock| {
            let key: [u8; 8] = s.key.as_slice().try_into().ok()?;
            let key = BlockKey {
                seq: SeqId(u32::from_le_bytes([key[0], key[1], key[2], key[3]])),
                start: u32::from_le_bytes([key[4], key[5], key[6], key[7]]),
            };
            let stored = s.backing.get(s.offset as usize..)?.get(..s.len as usize)?;
            let reference = db.get(key.seq)?.window(key.start as usize, len)?;
            (stored == reference).then_some(key)
        };
        let keys = store
            .scan()?
            .iter()
            .map(|s| {
                block(s).ok_or_else(|| {
                    MendelError::Store(format!(
                        "node {} replayed a record that is no block of the reference (key {:02x?})",
                        self.id, s.key
                    ))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        accept(&keys)?;
        *disk.handle.lock() = Some(store);
        self.forget();
        #[cfg(any(test, feature = "strict-invariants"))]
        self.dark_keys.lock().clear();
        Ok(Some(keys))
    }

    /// Fsync the node's WAL, if its store is open.
    pub(crate) fn sync(&self) -> Result<(), MendelError> {
        self.with_store(DurableStore::sync)
    }

    /// Flush the node's memtable into a segment, if its store is open.
    pub(crate) fn flush(&self) -> Result<(), MendelError> {
        self.with_store(DurableStore::flush)
    }

    fn with_store(
        &self,
        f: impl FnOnce(&mut DurableStore) -> Result<(), mendel_store::StoreError>,
    ) -> Result<(), MendelError> {
        let Some(disk) = &self.disk else {
            return Ok(());
        };
        match disk.handle.lock().as_mut() {
            Some(store) => Ok(f(store)?),
            None => Ok(()),
        }
    }

    /// The node's local index, counters left out: a protein node's
    /// vp-tree as `Debug` prints it, a DNA node's tables as a digest of
    /// their content. Two slots with equal layouts give equal strings.
    #[cfg(test)]
    pub(crate) fn index_layout(&self) -> String {
        use std::hash::{Hash, Hasher};
        let mut ram = self.ram.write();
        match &mut ram.index {
            LocalIndex::Tree(tree) => {
                let counters = tree.search_metrics().clone();
                tree.set_metrics(SearchMetrics::default());
                let layout = format!("{tree:?}");
                tree.set_metrics(counters);
                layout
            }
            LocalIndex::Dna(index) => {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                index.hash(&mut h);
                format!("{} windows, digest {:016x}", index.len(), h.finish())
            }
        }
    }

    /// Every key the ledger should record on this node: what its RAM
    /// holds, or what it held when it went dark.
    #[cfg(any(test, feature = "strict-invariants"))]
    pub(crate) fn oracle_keys(&self) -> Vec<BlockKey> {
        let mut keys = self.ram.read().block_keys();
        keys.extend(self.dark_keys.lock().iter().copied());
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{make_blocks, Block};
    use mendel_seq::gen::NrLikeSpec;
    use mendel_seq::SeqId;

    fn test_db() -> Arc<SeqStore> {
        Arc::new(
            NrLikeSpec {
                families: 6,
                members_per_family: 2,
                length_range: (100, 160),
                seed: 0x0DE,
                ..Default::default()
            }
            .generate()
            .unwrap(),
        )
    }

    fn loaded_node(db: &Arc<SeqStore>) -> StorageNode {
        let mut node = StorageNode::new(
            BlockMetric::mendel_blosum62(),
            16,
            Arc::new(RwLock::new(db.clone())),
            Alphabet::Protein,
            1,
        );
        for s in db.iter() {
            node.insert_keys(make_blocks(s, 16).iter().map(Block::key).collect(), 16);
        }
        node
    }

    #[test]
    fn insert_keeps_keys_and_tree_in_sync() {
        let db = test_db();
        let node = loaded_node(&db);
        assert!(node.block_count() > 0);
        assert!(node.stored_bytes() > 0);
    }

    #[test]
    fn stored_bytes_are_each_blocks_key_plus_its_window() {
        let db = test_db();
        let node = loaded_node(&db);
        let windows: usize = db.iter().map(|s| s.len() + 1 - 16).sum();
        assert_eq!(node.block_count(), windows);
        assert_eq!(node.stored_bytes(), windows as u64 * (8 + 16));
    }

    #[test]
    fn self_subquery_finds_its_own_block() {
        let db = test_db();
        let node = loaded_node(&db);
        let q = db.get(SeqId(2)).unwrap().residues.clone();
        let out = node.local_search_many(
            &q,
            &[0],
            16,
            &QueryParams::protein(),
            &ScoringMatrix::blosum62(),
        );
        assert!(out.candidates > 0);
        assert!(
            out.anchors.iter().any(|a| a.subject_id == 2),
            "exact block must anchor: {:?}",
            out.anchors
        );
        // The exact self-anchor should extend across the whole sequence.
        let best = out
            .anchors
            .iter()
            .filter(|a| a.subject_id == 2)
            .max_by_key(|a| a.score)
            .unwrap();
        assert_eq!(best.query_start, 0);
        assert_eq!(best.query_end, q.len());
    }

    #[test]
    fn strict_identity_threshold_filters_everything_foreign() {
        let db = test_db();
        let node = loaded_node(&db);
        let q = db.get(SeqId(0)).unwrap().residues.clone();
        let mut params = QueryParams::protein();
        params.i = 1.0; // only exact windows survive
        let out = node.local_search_many(&q, &[0], 16, &params, &ScoringMatrix::blosum62());
        for a in &out.anchors {
            assert_eq!(
                a.subject_id, 0,
                "only the source sequence has exact windows"
            );
        }
    }

    #[test]
    fn anchors_are_deduplicated() {
        let db = test_db();
        let node = loaded_node(&db);
        let q = db.get(SeqId(1)).unwrap().residues.clone();
        let out = node.local_search_many(
            &q,
            &[0],
            16,
            &QueryParams::protein(),
            &ScoringMatrix::blosum62(),
        );
        let mut seen = out.anchors.clone();
        seen.dedup();
        assert_eq!(seen.len(), out.anchors.len());
    }
}
