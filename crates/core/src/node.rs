//! The storage node: block store + local vp-tree + node-local query
//! evaluation (§V-A3 and the first half of §V-B).
//!
//! "Once an inverted index block reaches its destination storage node
//! within its storage group, it will be indexed in a regular local
//! vp-tree ... implemented using dynamic update balancing. This
//! memory-resident NNS structure serves as a starting point for queries
//! to find high similarity segments."
//!
//! For anchor extension a node reads neighbouring sequence content
//! through a shared [`SeqStore`] handle. In a wire deployment those reads
//! are O(1) zero-hop block fetches (every block's location is computable
//! from its key); the shared handle models that path without shipping
//! bytes — see DESIGN.md §3.
//!
//! [`StorageNode`] is a node's RAM state. [`NodeSlot`] is the node as
//! the cluster holds it — RAM, durable store and lifecycle in one place
//! (DESIGN.md §14.4).

use crate::block::{Block, BlockKey};
use crate::config::ClusterConfig;
use crate::error::MendelError;
use crate::metric::BlockMetric;
use crate::params::QueryParams;
use crate::query::{c_score, identity};
use mendel_align::{extend_ungapped, Hsp};
use mendel_dht::store::BlockStore;
use mendel_dht::NodeId;
use mendel_seq::{Alphabet, ScoringMatrix, SeqArena, SeqId, SeqStore, WindowView};
use mendel_store::{DurableStore, StoreMetrics, StoreOptions, Vfs};
use mendel_vptree::{DynamicVpTree, SearchMetrics};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::sync::Arc;

/// Shared, swappable handle on the reference store: nodes read the
/// current snapshot; [`crate::MendelCluster::insert_sequences`] swaps in
/// an extended one.
pub type DbCell = Arc<RwLock<Arc<SeqStore>>>;

/// One storage node's state.
///
/// Blocks are held arena-backed: the store keeps compact `(seq, start)`
/// entries, the vp-tree indexes [`WindowView`] points, and the window
/// bytes themselves live once per sequence in the node's [`SeqArena`] —
/// however many overlapping blocks of that sequence the node holds.
pub struct StorageNode {
    store: BlockStore<BlockKey>,
    arena: SeqArena,
    tree: DynamicVpTree<WindowView, BlockMetric>,
    /// Read path to sequence content for anchor extension (models the
    /// zero-hop block-fetch path; see module docs).
    db: DbCell,
    alphabet: Alphabet,
    /// What [`Self::clear`] rebuilds the empty vp-tree from.
    metric: BlockMetric,
    bucket_capacity: usize,
    seed: u64,
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
    /// An empty node.
    pub fn new(
        metric: BlockMetric,
        bucket_capacity: usize,
        db: DbCell,
        alphabet: Alphabet,
        seed: u64,
    ) -> Self {
        StorageNode {
            store: BlockStore::new(),
            arena: SeqArena::new(),
            tree: DynamicVpTree::new(metric.clone(), bucket_capacity, seed),
            db,
            alphabet,
            metric,
            bucket_capacity,
            seed,
        }
    }

    /// Forget every block: the node is as [`Self::new`] made it, search
    /// counters still attached.
    pub fn clear(&mut self) {
        let counters = self.tree.search_metrics().clone();
        self.store = BlockStore::new();
        self.arena = SeqArena::new();
        self.tree = DynamicVpTree::new(self.metric.clone(), self.bucket_capacity, self.seed);
        self.tree.set_metrics(counters);
    }

    /// Re-anchor one incoming block against the node's arena, interning
    /// its sequence on first contact. Preference order: an already-interned
    /// buffer, then the reference store's canonical residues (the zero-hop
    /// fetch path; one copy per sequence per node), then the block's own
    /// backing when it is anchored in sequence coordinates (the
    /// `make_blocks` case — no copy at all). A block anchored to none of
    /// these (a wire-decoded orphan whose sequence the node cannot see)
    /// keeps its standalone view.
    fn anchor(&mut self, db: &SeqStore, b: &Block) -> WindowView {
        let len = b.window.len();
        if let Some(v) = self.arena.view(b.seq, b.start, len) {
            return v;
        }
        if let Some(s) = db.get(b.seq) {
            if b.start as usize + len <= s.residues.len() {
                self.arena.intern(b.seq, &s.residues);
                if let Some(v) = self.arena.view(b.seq, b.start, len) {
                    return v;
                }
            }
        }
        if b.window.anchored_at(b.start) {
            self.arena.intern_arc(b.seq, b.window.backing().clone());
            if let Some(v) = self.arena.view(b.seq, b.start, len) {
                return v;
            }
        }
        b.window.clone()
    }

    /// Phase 3 of indexing: store a batch of blocks and index their
    /// windows in the local vp-tree. Tree point indices equal block-store
    /// refs (both are append-only and fed in lockstep). Window content is
    /// anchored into the per-node arena, so the store only keeps 8-byte
    /// `(seq, start)` entries and each sequence's bytes are charged once.
    pub fn insert_blocks(&mut self, blocks: Vec<Block>) {
        let db = self.db.read().clone();
        let views: Vec<WindowView> = blocks.iter().map(|b| self.anchor(&db, b)).collect();
        for b in &blocks {
            self.store.push(b.key());
        }
        self.tree.insert_batch(views);
        debug_assert_eq!(self.store.len(), self.tree.len());
        #[cfg(feature = "strict-invariants")]
        {
            if let Err(e) = self.store.check_invariants() {
                // audit:allow(panic): strict-invariants mode aborts on accounting corruption by design.
                panic!("storage-node ingest violated block-store invariants: {e}");
            }
            if let Err(e) = self.tree.check_invariants() {
                // audit:allow(panic): strict-invariants mode aborts on structural corruption by design.
                panic!("storage-node ingest violated vp-tree invariants: {e}");
            }
            if let Err(e) = self.arena.check_invariants() {
                // audit:allow(panic): strict-invariants mode aborts on accounting corruption by design.
                panic!("storage-node ingest violated arena invariants: {e}");
            }
        }
    }

    /// Install shared vp-tree search counters (e.g. one
    /// [`mendel_vptree::SearchMetrics::registered`] bundle cloned across
    /// all nodes, aggregating cluster-wide). Survives dynamic rebuilds.
    pub fn set_search_metrics(&mut self, metrics: mendel_vptree::SearchMetrics) {
        self.tree.set_metrics(metrics);
    }

    /// Number of blocks held.
    pub fn block_count(&self) -> usize {
        self.store.len()
    }

    /// Bytes held (the Fig. 5 load measurement): 8 bytes of provenance
    /// per block plus each interned sequence's bytes charged **once**,
    /// however many overlapping windows reference it. This replaces the
    /// materialized-era `blocks × (k + 8)` accounting — see DESIGN.md §10.
    pub fn stored_bytes(&self) -> u64 {
        self.store.bytes() + self.arena.bytes()
    }

    /// Bytes held in the sequence arena alone.
    pub fn arena_bytes(&self) -> u64 {
        self.arena.bytes()
    }

    /// All blocks (snapshot/rebalance path). Windows are the tree's
    /// arena-backed views — reconstructing a block clones an `Arc`, not
    /// window bytes.
    pub fn blocks(&self) -> Vec<Block> {
        self.store
            .iter()
            .map(|(r, k)| Block {
                seq: k.seq,
                start: k.start,
                window: self.tree.point(r.0).clone(),
            })
            .collect()
    }

    /// Keys of all held blocks, without touching payloads (what the
    /// placement ledger is checked against).
    pub fn block_keys(&self) -> Vec<BlockKey> {
        self.store.iter().map(|(_, k)| *k).collect()
    }

    /// Evaluate one request's subquery windows against this node (§V-B):
    ///
    /// 1. vp-tree k-NN for the `n` nearest blocks per subquery,
    /// 2. percent-identity and c-score filtering,
    /// 3. ungapped anchor extension through neighbouring content, with
    ///    per-diagonal coverage tracking so consecutive subqueries that
    ///    land inside an already-extended anchor do not re-extend it
    ///    (the group stage merges overlapping anchors anyway; recomputing
    ///    them would only burn node time).
    ///
    /// `query` is the *full* query; each subquery window starts at an
    /// `offsets` entry and has the cluster's block length. This is the
    /// one node search: the served path calls it per message, the
    /// in-process evaluator through [`Self::local_search_batch`].
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
        // One shared backing for every subquery view — the same zero-copy
        // representation the tree's own points use.
        let query_backing: Arc<[u8]> = Arc::from(query);
        for &offset in offsets {
            let qview = WindowView::new(query_backing.clone(), offset, block_len);
            let neighbors = self
                .tree
                .knn_with_budget(&qview, params.n, params.search_budget);
            self.eval_subquery(&cx, offset, neighbors, &mut covered, &mut out);
        }
        finish_output(&mut out);
        out
    }

    /// [`Self::local_search_many`] once per `(query, offsets)` request, in
    /// request order — what one scheduler job asks of a node on behalf of
    /// every query of an in-process call. A plain loop on purpose: sharing
    /// leaf scans across the requests measured slower (DESIGN.md §15.2).
    pub fn local_search_batch<Q: AsRef<[u8]>, O: AsRef<[usize]>>(
        &self,
        requests: &[(Q, O)],
        block_len: usize,
        params: &QueryParams,
        matrix: &ScoringMatrix,
    ) -> Vec<LocalSearchOutput> {
        requests
            .iter()
            .map(|(query, offsets)| {
                self.local_search_many(query.as_ref(), offsets.as_ref(), block_len, params, matrix)
            })
            .collect()
    }

    /// Evaluate one subquery's k-NN candidates: §V-B filtering, coverage
    /// tracking, and ungapped anchor extension.
    fn eval_subquery(
        &self,
        cx: &SubqueryCtx<'_>,
        offset: usize,
        neighbors: Vec<mendel_vptree::Neighbor>,
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
                // Tree point indices equal store refs (fed in lockstep); a
                // desync would be a bug, but degrading to "skip candidate"
                // beats panicking in the middle of a distributed query.
                let Some(&entry) = self.store.get(mendel_dht::BlockRef(nb.index)) else {
                    continue;
                };
                let cand = self.tree.point(nb.index).as_slice();
                // §V-B candidate measures.
                if identity(window, cand) < params.i {
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
                // Anchor extension through neighbouring blocks' content; a
                // block whose sequence the reference store cannot resolve
                // (mid-swap window) cannot extend, so it yields no anchor.
                let Some(subject_seq) = db.get(entry.seq) else {
                    continue;
                };
                let subject = &subject_seq.residues;
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

    /// Single-subquery convenience wrapper over [`Self::local_search_many`].
    pub fn local_search(
        &self,
        query: &[u8],
        offset: usize,
        block_len: usize,
        params: &QueryParams,
        matrix: &ScoringMatrix,
    ) -> LocalSearchOutput {
        self.local_search_many(query, &[offset], block_len, params, matrix)
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
/// per block) does not block the node's queries.
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
        counters: SearchMetrics,
        stores: Option<Arc<NodeStores>>,
    ) -> Self {
        let mut ram = StorageNode::new(
            config.metric.instantiate(),
            config.bucket_capacity,
            db,
            config.alphabet,
            config.seed ^ (id.0 as u64 + 1),
        );
        ram.set_search_metrics(counters);
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

    /// Append `blocks` to the node's store; the store's fsync policy
    /// decides when the records become crash-proof. Nothing to do on
    /// the memory backend — but a durable node without an open store
    /// cannot acknowledge anything, so that is an error.
    pub(crate) fn persist(&self, blocks: &[Block]) -> Result<(), MendelError> {
        let Some(disk) = &self.disk else {
            return Ok(());
        };
        let mut handle = disk.handle.lock();
        let store = handle
            .as_mut()
            .ok_or_else(|| MendelError::Store(format!("node {} has no open store", self.id)))?;
        for b in blocks {
            store.put_block(
                &b.key().as_bytes(),
                b.window.backing(),
                b.window.offset() as u32,
                b.window.len() as u32,
            )?;
        }
        Ok(())
    }

    /// Index `blocks` in RAM. Callers persist first ([`Self::persist`]),
    /// or hold blocks that came off this node's own disk.
    pub(crate) fn insert_blocks(&self, blocks: Vec<Block>) {
        self.ram.write().insert_blocks(blocks);
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
        self.go_dark();
    }

    /// Drop the RAM, remembering (for the ledger oracle) what it held.
    fn go_dark(&self) {
        #[cfg(any(test, feature = "strict-invariants"))]
        {
            let held = self.ram.read().block_keys();
            *self.dark_keys.lock() = held;
        }
        self.ram.write().clear();
    }

    /// The node's process restarts from disk: reopen the store
    /// (manifest + segment verification, WAL replay, torn-tail
    /// truncation) and read every block back. On `Ok` the store is open,
    /// the RAM empty, and the returned blocks are exactly what the disk
    /// holds — the caller indexes them *without* persisting them again.
    /// On `Err` nothing changed. `None` on the memory backend, whose RAM
    /// never left.
    pub(crate) fn replay(&self) -> Result<Option<Vec<Block>>, MendelError> {
        let Some(disk) = &self.disk else {
            return Ok(None);
        };
        let store = disk.open_store()?;
        let blocks = store
            .scan()?
            .into_iter()
            .filter_map(|s| {
                // Keys are the 8-byte BlockKey wire form; anything else
                // in the store did not come from `persist`.
                let key: [u8; 8] = s.key.as_slice().try_into().ok()?;
                let seq = u32::from_le_bytes([key[0], key[1], key[2], key[3]]);
                let start = u32::from_le_bytes([key[4], key[5], key[6], key[7]]);
                Some(Block {
                    seq: SeqId(seq),
                    start,
                    window: WindowView::new(s.backing, s.offset as usize, s.len as usize),
                })
            })
            .collect();
        *disk.handle.lock() = Some(store);
        self.ram.write().clear();
        #[cfg(any(test, feature = "strict-invariants"))]
        self.dark_keys.lock().clear();
        Ok(Some(blocks))
    }

    /// Forget everything, RAM and disk, ahead of a re-placement: the
    /// store is closed, its files deleted and a fresh one opened, so
    /// disk never resurrects the old placement. A node whose disk
    /// refuses goes dark instead ([`Self::kill`]) — still holding, as
    /// far as anyone can tell, what it held — and the caller must fail
    /// it.
    pub(crate) fn wipe(&self) -> Result<(), MendelError> {
        if let Some(disk) = &self.disk {
            let mut handle = disk.handle.lock();
            *handle = None;
            let reopened = DurableStore::wipe(disk.env.vfs.as_ref(), &disk.root)
                .map_err(MendelError::from)
                .and_then(|()| disk.open_store());
            match reopened {
                Ok(store) => *handle = Some(store),
                Err(e) => {
                    drop(handle);
                    self.go_dark();
                    return Err(e);
                }
            }
        }
        self.ram.write().clear();
        Ok(())
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
    use crate::block::make_blocks;
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
            node.insert_blocks(make_blocks(s, 16));
        }
        node
    }

    #[test]
    fn insert_keeps_store_and_tree_in_sync() {
        let db = test_db();
        let node = loaded_node(&db);
        assert!(node.block_count() > 0);
        assert!(node.stored_bytes() > 0);
    }

    #[test]
    fn stored_bytes_charge_each_sequence_once() {
        // The §10 accounting identity: 8 bytes of (seq, start) provenance
        // per block, plus each held sequence's residues exactly once —
        // not once per overlapping window as in the materialized era.
        let db = test_db();
        let node = loaded_node(&db);
        let seq_bytes: u64 = db.iter().map(|s| s.residues.len() as u64).sum();
        assert_eq!(node.arena_bytes(), seq_bytes);
        assert_eq!(
            node.stored_bytes(),
            node.block_count() as u64 * 8 + seq_bytes
        );
        // The materialized representation would have cost k bytes per
        // block; the arena form must come in far under it.
        let materialized = node.block_count() as u64 * (16 + 8);
        assert!(node.stored_bytes() < materialized / 2);
    }

    #[test]
    fn reinserting_same_sequence_blocks_does_not_recharge_arena() {
        let db = test_db();
        let mut node = loaded_node(&db);
        let before = node.arena_bytes();
        let s = db.get(SeqId(0)).unwrap();
        node.insert_blocks(make_blocks(s, 16));
        assert_eq!(node.arena_bytes(), before, "sequence already interned");
    }

    #[test]
    fn blocks_reconstruct_windows_from_arena_views() {
        let db = test_db();
        let node = loaded_node(&db);
        for b in node.blocks() {
            let s = db.get(b.seq).unwrap();
            let start = b.start as usize;
            assert_eq!(&b.window[..], &s.residues[start..start + 16]);
            assert!(b.window.anchored_at(b.start), "views stay arena-anchored");
        }
    }

    #[test]
    fn wire_decoded_blocks_reanchor_against_the_reference_store() {
        // A block that round-trips the wire arrives as a standalone view;
        // inserting it must re-anchor it against the node's arena (via the
        // reference store) rather than keeping a private copy per block.
        use mendel_net::{Decode, Encode};
        let db = test_db();
        let mut node = StorageNode::new(
            BlockMetric::mendel_blosum62(),
            16,
            Arc::new(RwLock::new(db.clone())),
            Alphabet::Protein,
            1,
        );
        let blocks = make_blocks(db.get(SeqId(3)).unwrap(), 16);
        let decoded = Vec::<Block>::from_bytes(&blocks.to_bytes()).unwrap();
        node.insert_blocks(decoded);
        let seq_len = db.get(SeqId(3)).unwrap().residues.len() as u64;
        assert_eq!(
            node.arena_bytes(),
            seq_len,
            "one backing, not one per block"
        );
        for b in node.blocks() {
            assert!(b.window.anchored_at(b.start));
        }
    }

    #[test]
    fn self_subquery_finds_its_own_block() {
        let db = test_db();
        let node = loaded_node(&db);
        let q = db.get(SeqId(2)).unwrap().residues.clone();
        let out = node.local_search(
            &q,
            0,
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
        let out = node.local_search(&q, 0, 16, &params, &ScoringMatrix::blosum62());
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
        let out = node.local_search(
            &q,
            0,
            16,
            &QueryParams::protein(),
            &ScoringMatrix::blosum62(),
        );
        let mut seen = out.anchors.clone();
        seen.dedup();
        assert_eq!(seen.len(), out.anchors.len());
    }
}
