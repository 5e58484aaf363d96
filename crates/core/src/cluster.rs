//! The Mendel cluster façade: two-tier indexing (§V-A), the distributed
//! query pipeline (§V-B) and the simulated cluster clock (DESIGN.md §3).
//!
//! The cluster is the control plane — topology, vp-prefix hash,
//! placement ledger, failed set — over a `Vec` of `NodeSlot`s, each of
//! which owns one node's RAM, disk and lifecycle ([`crate::node`]).
//! This module holds construction, routing, the query wrappers and
//! introspection; fault tolerance and elasticity (§VII-B) are in
//! `ops`.
//!
//! A cluster *hosts* a set of nodes: every node in process
//! ([`MendelCluster::build`]), one node in a `mendel serve` process
//! ([`MendelCluster::build_member`]). The control plane is whole either
//! way; only a hosted node's blocks are indexed in RAM (DESIGN.md §20).

mod ops;

pub use ops::RepairReport;

use crate::block::BlockKey;
use crate::config::{ClusterConfig, StorageBackend};
use crate::error::MendelError;
use crate::ledger::Ledger;
use crate::metric::BlockMetric;
use crate::node::{DbCell, LocalSearchOutput, NodeSlot, NodeStores};
use crate::params::QueryParams;
use crate::query::identity;
use crate::report::{MendelHit, QueryReport};
use mendel_align::hsp::bin_by_subject;
use mendel_align::karlin::solve_ungapped_background;
use mendel_align::{extend_gapped_banded, Hsp, KarlinParams};
use mendel_dht::sha1::KeyHasher;
use mendel_dht::{FlatPlacement, GroupId, LoadReport, NodeId, Topology};
use mendel_net::NodeSpeed;
use mendel_obs::{
    Clock, MetricsSnapshot, MonotonicClock, Registry, SlowLogConfig, SlowQueryLog, SpanRecord,
    TraceCollector, TraceId, TraceTree,
};
use mendel_seq::{Alphabet, ScoringMatrix, SeqStore, Sequence, WindowView};
use mendel_store::{MemVfs, StoreMetrics, Vfs};
use mendel_vptree::{GroupAssignment, IndexMetrics, SearchMetrics, VpPrefixTree};
use parking_lot::RwLock;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// At most this many anchors per subject enter the gapped stage (the
/// strongest first); bounds worst-case finalize cost on repetitive data.
const MAX_GAPPED_ANCHORS_PER_SUBJECT: usize = 16;

/// Where pass 2 sends each block ([`MendelCluster::dispatch`]), read
/// off the routes before any block is.
struct Dispatch {
    /// `replicas[p]`: the nodes a block whose ring starts at node `p`
    /// is copied to — the first `replication` live members of `p`'s
    /// group from `p` on, primary first; none for a group with no live
    /// member.
    replicas: Vec<Vec<NodeId>>,
    /// Copies per node, indexed by `NodeId`.
    copies: Vec<usize>,
    /// Groups a block routed to while none of their members was live.
    down: BTreeSet<GroupId>,
}

/// The blocks route-and-place places, one per route and in route order:
/// runs of consecutive keys over the reference store. An ingest gives
/// one run a sequence, a rebalance the ledger's keys, a repair a node's
/// copies. A block is its key; its window is read from the store.
struct KeyRuns {
    db: Arc<SeqStore>,
    block_len: usize,
    /// `(first, n)`: the `n` keys of `first`'s sequence from `first` on.
    runs: Vec<(BlockKey, usize)>,
    /// One shared copy of each sequence the runs touch, made when a
    /// store first needs a view of it, so every store dedupes the same
    /// backing.
    backings: std::cell::OnceCell<Vec<Arc<[u8]>>>,
}

impl KeyRuns {
    /// The blocks of `runs`, in order, a run that continues the one
    /// before it joined to it.
    fn new(
        db: Arc<SeqStore>,
        block_len: usize,
        runs: impl IntoIterator<Item = (BlockKey, usize)>,
    ) -> Self {
        let mut joined: Vec<(BlockKey, usize)> = Vec::new();
        for (first, n) in runs.into_iter().filter(|&(_, n)| n > 0) {
            match joined.last_mut() {
                Some((at, m)) if at.seq == first.seq && at.start + *m as u32 == first.start => {
                    *m += n;
                }
                _ => joined.push((first, n)),
            }
        }
        KeyRuns {
            db,
            block_len,
            runs: joined,
            backings: std::cell::OnceCell::new(),
        }
    }

    /// Every step-one window of each of `seqs`, which `db` holds: one
    /// run a sequence.
    fn of_sequences(db: Arc<SeqStore>, block_len: usize, seqs: &[&Sequence]) -> Self {
        let run = |s: &&Sequence| {
            let first = BlockKey {
                seq: s.id,
                start: 0,
            };
            (first, s.len().saturating_sub(block_len - 1))
        };
        Self::new(db, block_len, seqs.iter().map(run))
    }

    /// The blocks of `keys`, in order: what a rebalance or a repair
    /// places.
    fn of_keys(db: Arc<SeqStore>, block_len: usize, keys: &[BlockKey]) -> Self {
        Self::new(db, block_len, keys.iter().map(|&key| (key, 1)))
    }

    /// The blocks `keep` picks by position, each with its window as a
    /// view of its sequence: what a store persists. Every key's window
    /// is in the store: an ingest's sequences are stored before they are
    /// routed, and the ledger, which rebalance and repair take their keys
    /// from, refuses any other key.
    fn views<'a>(
        &'a self,
        keep: impl Fn(usize) -> bool + 'a,
    ) -> impl Iterator<Item = (BlockKey, WindowView)> + 'a {
        let k = self.block_len;
        let keys = self.runs.iter().enumerate().flat_map(|(r, &(first, n))| {
            (0..n as u32).map(move |j| {
                let start = first.start + j;
                (r, BlockKey { start, ..first })
            })
        });
        let kept = keys.enumerate().filter(move |(i, _)| keep(*i));
        kept.map(move |(_, (r, key))| {
            let backing = self.backings()[r].clone();
            (key, WindowView::new(backing, key.start as usize, k))
        })
    }

    /// Each run's sequence, shared with the run before when that is of
    /// the same sequence.
    fn backings(&self) -> &[Arc<[u8]>] {
        self.backings.get_or_init(|| {
            let mut backings: Vec<Arc<[u8]>> = Vec::with_capacity(self.runs.len());
            for (r, &(first, _)) in self.runs.iter().enumerate() {
                let backing = match backings.last() {
                    Some(b) if self.runs[r - 1].0.seq == first.seq => b.clone(),
                    _ => Arc::from(self.db.get(first.seq).map_or(&[][..], |s| &s.residues)),
                };
                backings.push(backing);
            }
            backings
        })
    }
}

/// One hosted node's tree input: the keys of its copies, in corpus
/// order, in a buffer sized once, one key past its copies. A write lands
/// at the end; `keep` says whether the end moves past it. The node's
/// index reads each key's window from the reference store
/// ([`crate::node::StorageNode::insert_keys`]), so no window is copied
/// here.
struct TreeInput {
    node: NodeId,
    keys: Vec<BlockKey>,
    len: usize,
}

impl TreeInput {
    /// Write a key at the end, and keep it there if `keep` is 1.
    fn write(&mut self, key: BlockKey, keep: usize) {
        self.keys[self.len] = key;
        self.len += keep;
    }
}

/// The hosted nodes' tree inputs, filled by pass 2's walk. Every block
/// makes the same `width` writes: one to each hosted node its ring start
/// copies to, padded with writes that keep nothing (into the room one
/// key past a node's copies). So the walk stores without a branch,
/// which a SHA-1-placed copy would mispredict about once in three on a
/// member build: on protein-long's 94 k hosted copies of 282 k blocks, a
/// pushing loop took about 5 ms where this takes under 1 ms. `width` is
/// the most hosted holders a start has, at most `replication`, so a
/// member build writes each block once and a full build as often as it
/// has copies.
struct Staging {
    inputs: Vec<TreeInput>,
    /// `width` offers per ring start: which input a block whose ring
    /// starts there is written to, and whether it is kept.
    offers: Vec<(usize, usize)>,
    width: usize,
}

impl Staging {
    /// Inputs for the `hosted` nodes, each with room for its `copies`
    /// keys, taken from the starts whose holder set in `sets` (indexed
    /// by ring start) names it.
    fn new(hosted: impl Iterator<Item = (NodeId, usize)>, sets: &[(GroupId, Vec<NodeId>)]) -> Self {
        let key = BlockKey {
            seq: mendel_seq::SeqId(0),
            start: 0,
        };
        let inputs: Vec<TreeInput> = hosted
            .map(|(node, copies)| TreeInput {
                node,
                keys: vec![key; copies + 1],
                len: 0,
            })
            .collect();
        let takers: Vec<Vec<usize>> = sets
            .iter()
            .map(|(_, set)| {
                let held = |i: &usize| set.contains(&inputs[*i].node);
                (0..inputs.len()).filter(held).collect()
            })
            .collect();
        let width = takers.iter().map(Vec::len).max().unwrap_or(0);
        let offers = takers
            .iter()
            .flat_map(|t| {
                let kept = t.iter().map(|&i| (i, 1));
                kept.chain(std::iter::repeat((0, 0))).take(width)
            })
            .collect();
        Staging {
            inputs,
            offers,
            width,
        }
    }

    /// The block of `key`, whose ring starts at `start`, kept by the
    /// hosted nodes it is copied to.
    fn offer(&mut self, start: NodeId, key: BlockKey) {
        let at = start.0 as usize * self.width;
        for &(i, keep) in &self.offers[at..at + self.width] {
            self.inputs[i].write(key, keep);
        }
    }

    /// Each hosted node and the keys it kept.
    fn finish(self) -> impl Iterator<Item = (NodeId, Vec<BlockKey>)> {
        self.inputs.into_iter().map(|mut input| {
            input.keys.truncate(input.len);
            (input.node, input.keys)
        })
    }
}

/// Fewest blocks a pass-1 thread routes: below this a thread costs
/// about as much to start as its share of the pass saves.
const MIN_BLOCKS_PER_THREAD: usize = 8192;

/// Where a build's indexing time went (DESIGN.md §11.1): `mendel serve`
/// reports it as `/ingest`'s and `/healthz?verbose=1`'s `ingest_ms`.
/// Read on the cluster's clock, so a non-advancing clock reads zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestProfile {
    /// Pass 1: every block's group and ring start.
    pub route: Duration,
    /// Pass 2: on the durable backend the disk, then the one walk that
    /// writes every node's ledger slots and the hosted nodes' tree
    /// input.
    pub place: Duration,
    /// The hosted nodes' index builds: vp-trees for protein, pigeonhole
    /// tables for DNA.
    pub tree: Duration,
    /// Threads pass 1 ran on.
    pub threads: usize,
}

/// Threads pass 1 runs on for `blocks` blocks: one a core, none with
/// fewer than [`MIN_BLOCKS_PER_THREAD`] blocks.
fn routing_threads(blocks: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(blocks.div_ceil(MIN_BLOCKS_PER_THREAD)).max(1)
}

/// A running Mendel cluster over an indexed reference database.
pub struct MendelCluster {
    config: ClusterConfig,
    topology: RwLock<Topology>,
    prefix: VpPrefixTree<BlockMetric>,
    assignment: GroupAssignment,
    /// Every node ever joined, indexed by `NodeId`.
    nodes: RwLock<Vec<Arc<NodeSlot>>>,
    /// The one node whose blocks this process indexes (§V-A: a node
    /// indexes what it receives); `None` hosts every node. The ledger
    /// records every node's keys regardless, so coverage is the same.
    member: Option<NodeId>,
    /// Who holds which block key (DESIGN.md §9): written by
    /// [`Self::route_and_place`], [`Self::admit`] and where a node's holdings are
    /// struck (replay, rebalance), read by coverage and repair. Taken
    /// last and held across no other acquisition.
    ledger: RwLock<Ledger>,
    /// Failed nodes, each with its group's rebalance epoch when it went
    /// down: a mismatch at recovery means placement moved while the node
    /// was dark, so its contents are stale and the group is re-placed.
    failed: RwLock<HashMap<NodeId, u64>>,
    /// Per-group rebalance counters backing stale-recovery detection.
    group_epochs: RwLock<Vec<u64>>,
    /// Block copies created by [`Self::repair`] since cluster start.
    repair_moves: AtomicU64,
    /// Cluster-wide metric registry (`mendel.vptree.*`,
    /// `mendel.query.*`, …); also the cluster's time source — all
    /// wall-clock measurement goes through its injectable clock
    /// (DESIGN.md §11).
    obs: Registry,
    /// When set, every sampled query records its span tree — the one
    /// `mendel serve` records — into the registry's per-node flight
    /// recorders (DESIGN.md §12). Off by default: tracing costs a few
    /// span records per query.
    tracing: AtomicBool,
    /// Deterministic 1-in-N trace sampling (DESIGN.md §17): with tracing
    /// on, every `trace_sample`-th query is sampled. 1 = every query.
    trace_sample: AtomicU64,
    /// Query counter driving the sampling modulus.
    trace_seq: AtomicU64,
    /// Structured slow-query log (DESIGN.md §17); served at
    /// `/debug/slowlog` by `mendel serve`.
    slowlog: SlowQueryLog,
    db: DbCell,
    karlin: KarlinParams,
    index_elapsed: Duration,
    /// The construction build's [`IngestProfile`].
    ingest: IngestProfile,
    /// What opening a node's durable store takes; `None` in memory mode.
    storage: Option<Arc<NodeStores>>,
}

impl MendelCluster {
    /// Build a cluster: construct the vp-prefix hash from a deterministic
    /// sample of the data (§III-F), then run the three-phase indexing
    /// pipeline (§V-A) over every sequence in `db`.
    pub fn build(config: ClusterConfig, db: Arc<SeqStore>) -> Result<Self, MendelError> {
        Self::build_with_clock(config, db, Arc::new(MonotonicClock::new()))
    }

    /// [`Self::build`] on an explicit clock. With a non-advancing
    /// `VirtualClock` every real-compute term reads as zero, the
    /// simulated latency terms are pure functions of the byte counts,
    /// and — with tracing on — the same seed yields byte-identical
    /// trace exports.
    pub fn build_with_clock(
        config: ClusterConfig,
        db: Arc<SeqStore>,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, MendelError> {
        Self::build_with_storage(config, db, clock, None)
    }

    /// [`Self::build_with_clock`] with an injectable [`Vfs`] for the
    /// durable backend. `None` defaults to an in-memory VFS without
    /// injected faults ([`MemVfs::plain`]); tests inject a faulty or
    /// crashing VFS here, deployments a [`mendel_store::RealVfs`]. The
    /// VFS is ignored in memory mode.
    pub fn build_with_storage(
        config: ClusterConfig,
        db: Arc<SeqStore>,
        clock: Arc<dyn Clock>,
        vfs: Option<Arc<dyn Vfs>>,
    ) -> Result<Self, MendelError> {
        Self::build_hosting(config, db, clock, vfs, None)
    }

    /// One process's cluster of a multi-process deployment (`mendel
    /// serve`): the whole control plane — routing tables, topology and a
    /// ledger of every node's keys — but only `member`'s blocks indexed,
    /// the share its node serves. Every other node's blocks reach the
    /// ledger as keys alone (and, on the durable backend, that node's
    /// store under `vfs`). Such a cluster answers over the wire only:
    /// [`Self::query`] refuses it, and the §VII-B operations, which
    /// re-place blocks from their holders' RAM, are not for it. A
    /// `member` outside the topology is a config error.
    pub fn build_member(
        config: ClusterConfig,
        db: Arc<SeqStore>,
        member: NodeId,
        vfs: Option<Arc<dyn Vfs>>,
    ) -> Result<Self, MendelError> {
        if usize::from(member.0) >= config.nodes {
            return Err(MendelError::Config(format!(
                "node {} is outside a {}-node cluster",
                member.0, config.nodes
            )));
        }
        let clock = Arc::new(MonotonicClock::new());
        Self::build_hosting(config, db, clock, vfs, Some(member))
    }

    fn build_hosting(
        config: ClusterConfig,
        db: Arc<SeqStore>,
        clock: Arc<dyn Clock>,
        vfs: Option<Arc<dyn Vfs>>,
        member: Option<NodeId>,
    ) -> Result<Self, MendelError> {
        let started = clock.now();
        let corpus = db.clone();
        let mut cluster = Self::skeleton(config, db, clock.clone(), vfs)?;
        cluster.member = member;
        cluster.ingest = cluster.index_sequences(corpus.iter())?;
        cluster.index_elapsed = clock.now().saturating_sub(started);
        Ok(cluster)
    }

    /// The one constructor: vp-prefix hash, topology, and one empty,
    /// opened [`NodeSlot`] per configured node. Everything a cluster
    /// derives from its config is derived here or read from
    /// [`Self::config`] later — nothing is stored twice.
    fn skeleton(
        config: ClusterConfig,
        db: Arc<SeqStore>,
        clock: Arc<dyn Clock>,
        vfs: Option<Arc<dyn Vfs>>,
    ) -> Result<Self, MendelError> {
        config.validate()?;
        let obs = Registry::with_clock(clock);

        // Prefix-tree sample: an even stride over all windows.
        let sample = Self::sample_windows(&db, config.block_len, config.prefix_sample);
        if sample.is_empty() {
            return Err(MendelError::Config(format!(
                "no sequence in the database is >= the block length {}",
                config.block_len
            )));
        }
        let prefix = VpPrefixTree::build(
            sample,
            config.metric.instantiate(),
            config.prefix_depth,
            config.seed,
        );
        let assignment = GroupAssignment::new(prefix.num_buckets(), config.groups);
        let topology = Topology::new(config.nodes, config.groups);

        let storage = match config.storage {
            StorageBackend::Memory => None,
            StorageBackend::Durable(opts) => Some(Arc::new(NodeStores {
                vfs: vfs.unwrap_or_else(|| Arc::new(MemVfs::plain(config.seed))),
                opts,
                metrics: StoreMetrics::registered(&obs, "mendel.store"),
            })),
        };
        // One ledger slot per block key of the store, all `NONE`.
        let ledger = Ledger::new(&db, config.block_len);
        let db: DbCell = Arc::new(RwLock::new(db));
        let nodes = (0..config.nodes)
            .map(|i| {
                let slot = Self::new_slot(&config, &db, &obs, &storage, i);
                slot.open().map(|()| slot)
            })
            .collect::<Result<Vec<_>, _>>()?;

        Ok(MendelCluster {
            topology: RwLock::new(topology),
            prefix,
            assignment,
            nodes: RwLock::new(nodes),
            member: None,
            ledger: RwLock::new(ledger),
            failed: RwLock::new(HashMap::new()),
            group_epochs: RwLock::new(vec![0; config.groups]),
            repair_moves: AtomicU64::new(0),
            tracing: AtomicBool::new(false),
            trace_sample: AtomicU64::new(1),
            trace_seq: AtomicU64::new(0),
            slowlog: SlowQueryLog::default(),
            db,
            karlin: Self::default_karlin(config.alphabet),
            index_elapsed: Duration::ZERO,
            ingest: IngestProfile::default(),
            storage,
            obs,
            config,
        })
    }

    /// The one place a node slot is made (construction and
    /// [`Self::add_node`]): empty, wired to the cluster's shared
    /// `mendel.vptree.*` and `mendel.dna_index.*` counters, its store not
    /// yet open.
    fn new_slot(
        config: &ClusterConfig,
        db: &DbCell,
        obs: &Registry,
        storage: &Option<Arc<NodeStores>>,
        idx: usize,
    ) -> Arc<NodeSlot> {
        Arc::new(NodeSlot::new(
            NodeId(idx as u16),
            config,
            db.clone(),
            (
                SearchMetrics::registered(obs),
                IndexMetrics::registered(obs),
            ),
            storage.clone(),
        ))
    }

    #[expect(
        clippy::expect_used,
        reason = "+2/-3 has negative drift and positive max score, so the Karlin solver always converges"
    )]
    fn default_karlin(alphabet: Alphabet) -> KarlinParams {
        match alphabet {
            Alphabet::Protein => KarlinParams::BLOSUM62_GAPPED_11_1,
            Alphabet::Dna => solve_ungapped_background(&ScoringMatrix::dna(2, -3))
                .expect("+2/-3 is a valid scoring system"),
        }
    }

    /// Deterministic even-stride sample of block windows across the
    /// whole database.
    fn sample_windows(db: &SeqStore, block_len: usize, want: usize) -> Vec<Vec<u8>> {
        let total: usize = db
            .iter()
            .map(|s| s.len().saturating_sub(block_len - 1))
            .sum();
        if total == 0 {
            return Vec::new();
        }
        let stride = (total / want.max(1)).max(1);
        let mut out = Vec::with_capacity(want + 1);
        let mut counter = 0usize;
        for s in db.iter() {
            if s.len() < block_len {
                continue;
            }
            for start in 0..=s.len() - block_len {
                if counter.is_multiple_of(stride) {
                    out.push(s.residues[start..start + block_len].to_vec());
                }
                counter += 1;
            }
        }
        out
    }

    /// Phases 1–3 of indexing (§V-A) for `seqs`, which the reference
    /// store already holds: vp-prefix dispersion to groups and SHA-1
    /// placement within groups ([`Self::route`], on every core), then
    /// one walk that records every copy in the ledger and lists the
    /// hosted nodes' keys, whose windows their indexes read from the
    /// store ([`Self::route_and_place`]). Reports the first
    /// refusal: a routed group with no live member, or a node whose disk
    /// refused its batch.
    fn index_sequences<'a>(
        &self,
        seqs: impl Iterator<Item = &'a Sequence>,
    ) -> Result<IngestProfile, MendelError> {
        let seqs: Vec<&Sequence> = seqs.collect();
        let k = self.config.block_len;
        let clock = self.obs.clock();
        let topo = self.topology.read();
        let started = clock.now();
        let blocks = seqs.iter().map(|s| s.len().saturating_sub(k - 1)).sum();
        let (routes, threads) = self.route(&topo, &seqs, routing_threads(blocks));
        let routed = clock.now();
        let blocks = KeyRuns::of_sequences(self.db(), k, &seqs);
        let (refused, tree) = self.route_and_place(&topo, &routes, &blocks);
        let placed = clock.now();
        drop(topo);
        self.assert_ledger("index_sequences");
        match refused.into_iter().next() {
            Some((_, e)) => Err(e),
            None => Ok(IngestProfile {
                route: routed.saturating_sub(started),
                place: placed.saturating_sub(routed).saturating_sub(tree),
                tree,
                threads,
            }),
        }
    }

    /// Pass 1 of route-and-place over the blocks of `seqs`: each block's
    /// route, in corpus order, into one array sized up front. A route is
    /// the first member of the block's placement ring — its window's
    /// group, and in it the member SHA-1 of its key picks — so it names
    /// the group and where the ring starts in two bytes. The corpus is
    /// cut into at most `chunks` runs of contiguous sequences, each
    /// routed on its own scoped thread (the last on the caller's) into
    /// its own slice of the array. A route is a function of its block
    /// alone, so the array is the same for every `chunks`. Returns it
    /// and the number of runs.
    fn route(&self, topo: &Topology, seqs: &[&Sequence], chunks: usize) -> (Vec<NodeId>, usize) {
        let k = self.config.block_len;
        let blocks = |run: &[&Sequence]| -> usize {
            run.iter().map(|s| s.len().saturating_sub(k - 1)).sum()
        };
        let runs: Vec<&[&Sequence]> = seqs
            .chunks(seqs.len().div_ceil(chunks.max(1)).max(1))
            .collect();
        // A topology's groups are never empty, so every ring has a start.
        let rings: Vec<&[NodeId]> = topo.group_ids().map(|g| topo.group_members(g)).collect();
        let hasher = KeyHasher::dispatched();
        let route_run = |run: &[&Sequence], out: &mut [NodeId]| {
            let mut out = out.iter_mut();
            for s in run {
                for (start, window) in s.residues.windows(k).enumerate() {
                    let ring = rings[self.group_of_window(window).0 as usize];
                    let key = BlockKey {
                        seq: s.id,
                        start: start as u32,
                    };
                    let at = FlatPlacement::ring_start(hasher, ring.len(), &key.as_bytes());
                    if let Some(route) = out.next() {
                        *route = ring[at];
                    }
                }
            }
        };
        let mut routes = vec![NodeId::default(); blocks(seqs)];
        std::thread::scope(|scope| {
            let mut rest = routes.as_mut_slice();
            for (i, &run) in runs.iter().enumerate() {
                let (mine, after) = std::mem::take(&mut rest).split_at_mut(blocks(run));
                rest = after;
                if i + 1 < runs.len() {
                    scope.spawn(move || route_run(run, mine));
                } else {
                    route_run(run, mine);
                }
            }
        });
        (routes, runs.len())
    }

    /// The one route-and-place: pass 2 over the blocks routed by pass 1,
    /// whose keys and windows `blocks` holds in route order. Where each
    /// block's copies go is read off the routes first
    /// ([`Self::dispatch`]). Then, in order:
    /// - **persist**: on the durable backend, every node with copies
    ///   writes them to its store, in node order, reading the routes; a
    ///   node whose disk refuses takes none;
    /// - **ledger**: one walk over the routes in corpus order writes each
    ///   block's slot — the holder set of its ring start, the replicas
    ///   that took their copy, in place of whoever held it before; a
    ///   block none of whose replicas took it keeps its holders — and
    ///   each hosted copy's key into its node's staging, sized once from
    ///   the copy counts;
    /// - **RAM**: each hosted node indexes its keys, in node order, its
    ///   index reading every window from the reference store at its key.
    ///
    /// The durable backend acknowledges a block only once its WAL record
    /// is on disk, so a copy that never became durable is never claimed
    /// by coverage or served from RAM. A node whose disk or ledger
    /// refuses its copies takes none of them, and the rest are placed
    /// without it: the ledger checks the whole walk before it writes a
    /// slot, so a refused key's holders leave the holder sets and the
    /// walk starts again. Returns the refusals — a group with no live
    /// member (no node), then every node refused, in node order; what
    /// the caller does about them is its policy — and the time the
    /// hosted nodes' trees took.
    fn route_and_place(
        &self,
        topo: &Topology,
        routes: &[NodeId],
        blocks: &KeyRuns,
    ) -> (Vec<(Option<NodeId>, MendelError)>, Duration) {
        let Dispatch {
            replicas,
            copies,
            down,
        } = self.dispatch(topo, routes);
        let nodes = self.nodes.read();
        let mut refused: Vec<_> = down
            .into_iter()
            .map(|g| (None, MendelError::GroupDown(g)))
            .collect();
        // Nodes that took their copies: all of them, but for refusals.
        let mut took: Vec<bool> = copies.iter().map(|&n| n > 0).collect();
        if self.storage.is_some() {
            for (slot, took) in nodes.iter().zip(&mut took).filter(|(_, took)| **took) {
                let node = slot.id();
                let to: Vec<bool> = replicas.iter().map(|r| r.contains(&node)).collect();
                if let Err(e) = slot.persist(blocks.views(|i| to[routes[i].0 as usize])) {
                    *took = false;
                    refused.push((Some(node), e));
                }
            }
        }
        let runs = blocks.runs.iter().copied();
        let mut ledger = self.ledger.write();
        let staging = loop {
            let sets: Vec<(GroupId, Vec<NodeId>)> = replicas
                .iter()
                .enumerate()
                .map(|(p, r)| {
                    let g = topo.node_group(NodeId(p as u16)).unwrap_or_default();
                    (
                        g,
                        r.iter().copied().filter(|n| took[n.0 as usize]).collect(),
                    )
                })
                .collect();
            let hosted = (0..copies.len()).filter(|&i| took[i] && self.hosts(NodeId(i as u16)));
            let hosted = hosted.map(|i| (NodeId(i as u16), copies[i]));
            let mut staging = Staging::new(hosted, &sets);
            let placed = ledger.place_walk(
                &sets,
                |i| routes[i],
                runs.clone(),
                true,
                |first, j, p| {
                    let key = BlockKey {
                        start: first.start + j as u32,
                        ..first
                    };
                    staging.offer(p, key);
                },
            );
            let Err((p, e)) = placed else {
                break staging;
            };
            // The walk wrote nothing. Every holder of the key it refused
            // is refused, as its own placement of its keys would have
            // been, and the others walk again without them.
            for &n in &sets[p.0 as usize].1 {
                took[n.0 as usize] = false;
                refused.push((Some(n), e.clone()));
            }
        };
        drop(ledger);
        refused.sort_by_key(|&(n, _)| n);
        let clock = self.obs.clock();
        let mut tree = Duration::ZERO;
        for (node, keys) in staging.finish() {
            let started = clock.now();
            nodes[node.0 as usize].insert_keys(keys, self.config.block_len);
            tree += clock.now().saturating_sub(started);
        }
        (refused, tree)
    }

    /// Where pass 2 sends each block: to its replicas, the first
    /// `replication` live members of its group's ring, primary first.
    /// With every node up that is [`FlatPlacement::replicas`] (both walk
    /// [`FlatPlacement::ring_from`]); a copy whose node is down goes to
    /// the next live member instead — a down node cannot accept writes —
    /// and a group with no live member places nothing. A ring is walked
    /// once per node it can start at, not once per block, and each
    /// node's copies are counted off the routes.
    fn dispatch(&self, topo: &Topology, routes: &[NodeId]) -> Dispatch {
        let slots = self.nodes.read().len();
        let mut dead = vec![false; slots];
        for n in self.failed.read().keys() {
            dead[n.0 as usize] = true;
        }
        let replicas: Vec<Vec<NodeId>> = (0..slots)
            .map(|p| {
                let p = NodeId(p as u16);
                let Some(g) = topo.node_group(p) else {
                    return Vec::new();
                };
                let at = topo.group_members(g).iter().position(|&m| m == p);
                FlatPlacement::ring_from(topo, g, at.unwrap_or(0))
                    .filter(|n| !dead[n.0 as usize])
                    .take(self.config.replication)
                    .collect()
            })
            .collect();
        let mut starts = vec![0usize; slots];
        for p in routes {
            starts[p.0 as usize] += 1;
        }
        let mut copies = vec![0usize; slots];
        let mut down = BTreeSet::new();
        for (p, &n) in starts.iter().enumerate().filter(|(_, &n)| n > 0) {
            if replicas[p].is_empty() {
                down.extend(topo.node_group(NodeId(p as u16)));
            }
            for r in &replicas[p] {
                copies[r.0 as usize] += n;
            }
        }
        Dispatch {
            replicas,
            copies,
            down,
        }
    }

    /// Repair's write path for block copies: give `node` the blocks of
    /// `keys`, their windows read from the reference store. Persist, then
    /// ledger, then RAM, as [`Self::route_and_place`] does. Returns what
    /// indexing them in RAM took.
    fn place(
        &self,
        topo: &Topology,
        nodes: &[Arc<NodeSlot>],
        node: NodeId,
        keys: Vec<BlockKey>,
    ) -> Result<Duration, MendelError> {
        let g = topo.node_group(node).ok_or(MendelError::NoSuchNode(node))?;
        let slot = &nodes[node.0 as usize];
        let blocks = KeyRuns::of_keys(self.db(), self.config.block_len, &keys);
        slot.persist(blocks.views(|_| true))?;
        self.admit(g, slot, keys)
    }

    /// [`Self::place`] without the persist: ledger, then RAM if this
    /// cluster hosts the node. Asked for by name where the blocks are
    /// already on the node's disk (replay after a restart). Keys the
    /// ledger refuses reach neither. Returns what indexing them in RAM
    /// took.
    fn admit(
        &self,
        g: GroupId,
        slot: &NodeSlot,
        keys: Vec<BlockKey>,
    ) -> Result<Duration, MendelError> {
        self.ledger
            .write()
            .place(g, slot.id(), keys.iter().copied())?;
        if !self.hosts(slot.id()) {
            return Ok(Duration::ZERO);
        }
        let clock = self.obs.clock();
        let started = clock.now();
        slot.insert_keys(keys, self.config.block_len);
        Ok(clock.now().saturating_sub(started))
    }

    /// Whether this cluster indexes `node`'s blocks ([`Self::build_member`]).
    pub(crate) fn hosts(&self, node: NodeId) -> bool {
        self.member.is_none_or(|m| m == node)
    }

    /// Refuse `what` unless this cluster hosts every node: an in-process
    /// evaluation on a member cluster would read the other nodes' empty
    /// slots and come back silently short.
    pub(crate) fn require_every_node(&self, what: &str) -> Result<(), MendelError> {
        match self.member {
            Some(m) if !self.hosts_every_node() => Err(MendelError::Config(format!(
                "{what} needs every node's blocks, and this cluster hosts only node {}",
                m.0
            ))),
            _ => Ok(()),
        }
    }

    /// Whether every node of the topology is hosted here.
    pub(crate) fn hosts_every_node(&self) -> bool {
        self.topology.read().nodes().all(|n| self.hosts(n))
    }

    /// First-tier hash: window → vp-prefix bucket → group, the descent
    /// stopping once the group is decided (no distance at all with one
    /// group).
    fn group_of_window(&self, window: &[u8]) -> GroupId {
        GroupId(self.prefix.group_of(window, &self.assignment) as u16)
    }

    /// All groups a subquery window routes to under tolerance τ (§V-B:
    /// "multiple groups can be selected ... if the path branches"),
    /// sorted; each branch stops once its group is decided.
    pub(crate) fn groups_of_window(&self, window: &[u8], tolerance: f32) -> Vec<GroupId> {
        self.prefix
            .groups_with_tolerance(window, tolerance, &self.assignment)
            .into_iter()
            .map(|g| GroupId(g as u16))
            .collect()
    }

    /// Resolve the Table I `M` parameter to a scoring matrix, checking it
    /// fits the cluster's alphabet.
    pub(crate) fn resolve_matrix(&self, name: &str) -> Result<ScoringMatrix, MendelError> {
        let matrix = if name.eq_ignore_ascii_case("BLOSUM62") {
            ScoringMatrix::blosum62()
        } else if let Some(spec) = name.strip_prefix("DNA(") {
            let spec = spec
                .strip_suffix(')')
                .ok_or_else(|| MendelError::Params(format!("malformed matrix name {name:?}")))?;
            let (m, mm) = spec
                .split_once('/')
                .ok_or_else(|| MendelError::Params(format!("malformed DNA matrix {name:?}")))?;
            let parse = |s: &str| {
                s.trim()
                    .parse::<i32>()
                    .map_err(|_| MendelError::Params(format!("bad score in {name:?}")))
            };
            let (m, mm) = (parse(m)?, parse(mm)?);
            // The name can come off the wire; `ScoringMatrix::dna` asserts.
            if m <= 0 || mm >= 0 {
                return Err(MendelError::Params(format!(
                    "DNA matrix {name:?} needs a positive match and a negative mismatch score"
                )));
            }
            ScoringMatrix::dna(m, mm)
        } else {
            return Err(MendelError::Params(format!(
                "unknown scoring matrix {name:?}"
            )));
        };
        if matrix.alphabet != self.config.alphabet {
            return Err(MendelError::Params(format!(
                "matrix {name:?} is for {:?}, cluster indexes {:?}",
                matrix.alphabet, self.config.alphabet
            )));
        }
        Ok(matrix)
    }

    /// Whether the control plane has `node` in its failed set.
    pub(crate) fn is_failed(&self, node: NodeId) -> bool {
        self.failed.read().contains_key(&node)
    }

    /// Live (non-failed) members of a group.
    pub(crate) fn live_members(&self, topo: &Topology, g: GroupId) -> Vec<NodeId> {
        let failed = self.failed.read();
        topo.group_members(g)
            .iter()
            .copied()
            .filter(|n| !failed.contains_key(n))
            .collect()
    }

    pub(crate) fn speed_of(&self, topo: &Topology, node: NodeId) -> NodeSpeed {
        topo.node_speed(node).unwrap_or(NodeSpeed::HP_DL160)
    }

    /// The entry node a query runs from: `entry` when it names a live
    /// member of `topo`, the first live node when unspecified.
    pub(crate) fn resolve_entry(
        &self,
        topo: &Topology,
        entry: Option<NodeId>,
    ) -> Result<NodeId, MendelError> {
        let failed = self.failed.read();
        match entry {
            Some(n) if topo.node_group(n).is_none() || failed.contains_key(&n) => {
                Err(MendelError::NoSuchNode(n))
            }
            Some(n) => Ok(n),
            None => topo
                .nodes()
                .find(|n| !failed.contains_key(n))
                .ok_or_else(|| MendelError::Config("cluster has no live nodes".into())),
        }
    }

    /// Evaluate `query` from the default entry point, the first live
    /// node (DESIGN.md §18): the served pipeline, its messages delivered
    /// in process on the caller's thread, timed on the §3 cluster clock.
    pub fn query(&self, query: &[u8], params: &QueryParams) -> Result<QueryReport, MendelError> {
        crate::pipeline::report(self, None, query, params)
    }

    /// Evaluate `query` entering the system at `entry` (§V-B: "any node
    /// in the cluster can perform as a query's entry point and generates
    /// identical results"). A failed or unknown `entry` is
    /// [`MendelError::NoSuchNode`].
    pub fn query_from(
        &self,
        entry: NodeId,
        query: &[u8],
        params: &QueryParams,
    ) -> Result<QueryReport, MendelError> {
        crate::pipeline::report(self, Some(entry), query, params)
    }

    /// The cluster's metric registry: counters, histograms, and the
    /// injectable clock every subsystem draws time from.
    pub fn metrics_registry(&self) -> &Registry {
        &self.obs
    }

    /// A point-in-time snapshot of every cluster metric. The
    /// `mendel.coverage.*` gauges are brought up to date here, the one
    /// place they are written, so an exposition shows a degraded cluster
    /// even when nobody is querying it.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let coverage = self.coverage();
        let gauge = |name: &str, v: usize| self.obs.gauge(name).set(v as i64);
        gauge("mendel.hosted_blocks", self.total_blocks());
        gauge("mendel.ledger.bytes", self.ledger_bytes());
        gauge("mendel.index.bytes", self.index_bytes());
        gauge("mendel.coverage.blocks_expected", coverage.blocks_expected);
        gauge(
            "mendel.coverage.blocks_reachable",
            coverage.blocks_reachable,
        );
        gauge("mendel.coverage.degraded", coverage.degraded as usize);
        self.obs.snapshot()
    }

    /// Enable or disable per-query causal tracing (DESIGN.md §12). Off
    /// by default; when on, each sampled query records its span tree into
    /// the registry's per-node flight recorders.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed); // audit:ordering(Relaxed): advisory flag store; publishes no data, readers tolerate either value
    }

    /// Set the deterministic 1-in-N trace sampling rate (DESIGN.md §17):
    /// with tracing on, every `every`-th query gets a sampled trace.
    /// Clamped to ≥ 1 (1 = trace every query, the default).
    pub fn set_trace_sampling(&self, every: u64) {
        // audit:ordering(Relaxed): advisory sampling knob; readers tolerate either the old or new rate
        self.trace_sample.store(every.max(1), Ordering::Relaxed);
    }

    /// Draw one sampling decision: true when tracing is on *and* this
    /// query's sequence number falls on the 1-in-N grid. Consumes one
    /// tick of the sampling counter, so call exactly once per query.
    pub fn trace_query_sampled(&self) -> bool {
        // audit:ordering(Relaxed): advisory tracing flag; a racing toggle only decides whether this query carries a trace, no shared data hangs off the value
        if !self.tracing.load(Ordering::Relaxed) {
            return false;
        }
        // audit:ordering(Relaxed): advisory sampling knob read; any recent value is acceptable
        let every = self.trace_sample.load(Ordering::Relaxed).max(1);
        // audit:ordering(Relaxed): deterministic per-cluster sequence; fetch_add atomicity alone yields distinct, gapless ticks
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        seq.is_multiple_of(every)
    }

    /// The structured slow-query log (DESIGN.md §17). Every query feeds
    /// it, in process or served; `mendel serve` dumps it at
    /// `/debug/slowlog`.
    pub fn slowlog(&self) -> &SlowQueryLog {
        &self.slowlog
    }

    /// Replace the slow-query log's admission policy.
    pub fn set_slowlog_config(&self, cfg: SlowLogConfig) {
        self.slowlog.set_config(cfg);
    }

    /// Every span currently held in the per-node flight recorders,
    /// merged across nodes (node order, unsorted within a node), each
    /// `(node, span)` once. In process every node shares this registry,
    /// so a span that rode home in reply tails was recorded again by
    /// each hop it crossed; the first copy — its own node's — wins.
    pub fn trace_records(&self) -> Vec<SpanRecord> {
        let mut seen = HashSet::new();
        let mut records = self.obs.trace_records();
        records.retain(|r| seen.insert((r.node, r.span)));
        records
    }

    /// Reassemble one trace's tree from the flight recorders.
    pub fn trace_tree(&self, trace: TraceId) -> Option<TraceTree> {
        let mut c = TraceCollector::new();
        c.ingest(self.trace_records());
        c.tree(trace)
    }

    /// Chrome trace-event JSON (Perfetto-loadable) covering every span
    /// still in the flight recorders. Byte-deterministic for a fixed
    /// seed under a `VirtualClock`.
    pub fn chrome_trace(&self) -> String {
        mendel_obs::chrome_trace_json(&self.trace_records())
    }

    /// A plain-text post-mortem of the flight recorders: per-node
    /// occupancy, then every reassembled trace tree. Chaos suites print
    /// this on failure so a lost run still leaves a causal artifact.
    pub fn flight_recorder_dump(&self) -> String {
        let mut out = String::from("=== flight recorder ===\n");
        for (node, rec) in self.obs.flight_recorders() {
            let _ = writeln!(
                out,
                "node {node}: {} spans held, {} evicted",
                rec.len(),
                rec.dropped()
            );
        }
        let mut c = TraceCollector::new();
        c.ingest(self.trace_records());
        for id in c.trace_ids() {
            if let Some(tree) = c.tree(id) {
                out.push_str(&tree.render());
            }
        }
        out
    }

    /// §V-B final stage: bin anchors by subject, run banded gapped
    /// extensions for anchors whose normalized score clears `S`, score,
    /// filter by `E`, rank. The extensions run and the DP cells they
    /// evaluate are added to `mendel.query.gapped_{extensions, cells}`.
    pub(crate) fn finalize(
        &self,
        query: &[u8],
        anchors: Vec<Hsp>,
        params: &QueryParams,
        matrix: &ScoringMatrix,
    ) -> Vec<MendelHit> {
        let db = self.db.read().clone();
        let db_residues = db.total_residues();
        let mut hits: Vec<MendelHit> = Vec::new();
        let (mut extensions, mut cells) = (0u64, 0u64);
        for (subject_id, mut bin) in bin_by_subject(anchors) {
            let subject = match db.get(mendel_seq::SeqId(subject_id)) {
                Some(s) => &s.residues,
                None => continue,
            };
            // Canonical anchors: a merged union's extent and `max` score
            // depend on which seeds the budgeted searches reached; its
            // best stretch depends on the residues alone.
            for a in &mut bin {
                *a = a.rescored(query, subject, matrix);
            }
            bin.sort_unstable_by_key(|a| (std::cmp::Reverse(a.score), a.query_start, a.diagonal()));
            let mut best: Option<MendelHit> = None;
            for a in bin.iter().take(MAX_GAPPED_ANCHORS_PER_SUBJECT) {
                let anchor_identity = identity(
                    &query[a.query_start..a.query_end],
                    &subject[a.subject_start..a.subject_start + a.len()],
                );
                let (score, qr, sr) = if self.karlin.bit_score(a.score) >= params.s {
                    let q_mid = (a.query_start + a.query_end) / 2;
                    let s_mid = a.subject_start + (q_mid - a.query_start);
                    let g = extend_gapped_banded(
                        query,
                        subject,
                        q_mid,
                        s_mid,
                        matrix,
                        params.gaps,
                        params.l,
                        params.x_drop_gapped,
                    );
                    extensions += 1;
                    cells += g.cells;
                    (
                        g.score.max(a.score),
                        (g.query_start, g.query_end),
                        (g.subject_start, g.subject_end),
                    )
                } else {
                    (
                        a.score,
                        (a.query_start, a.query_end),
                        (a.subject_start, a.subject_end()),
                    )
                };
                let evalue = self.karlin.evalue(score, query.len(), db_residues);
                let hit = MendelHit {
                    subject: mendel_seq::SeqId(subject_id),
                    score,
                    bits: self.karlin.bit_score(score),
                    evalue,
                    query_start: qr.0,
                    query_end: qr.1,
                    subject_start: sr.0,
                    subject_end: sr.1,
                    identity: anchor_identity,
                };
                if best.as_ref().is_none_or(|b| hit.score > b.score) {
                    best = Some(hit);
                }
            }
            if let Some(h) = best {
                if h.evalue <= params.e {
                    hits.push(h);
                }
            }
        }
        let obs = self.metrics_registry();
        obs.counter("mendel.query.gapped_extensions")
            .add(extensions);
        obs.counter("mendel.query.gapped_cells").add(cells);
        hits.sort_by(|a, b| {
            a.evalue
                .total_cmp(&b.evalue)
                .then(b.score.cmp(&a.score))
                .then(a.subject.cmp(&b.subject))
        });
        hits
    }

    // ---- Introspection --------------------------------------------------

    /// Per-node stored bytes (the Fig. 5 measurement), plus repair
    /// accounting.
    pub fn load_report(&self) -> LoadReport {
        let topo = self.topology.read();
        let nodes = self.nodes.read();
        LoadReport::new(
            topo.nodes()
                .map(|n| (n, nodes[n.0 as usize].read().stored_bytes()))
                .collect(),
        )
        .with_blocks_moved(self.repair_moves.load(Ordering::Relaxed)) // audit:ordering(Relaxed): statistics read for a report snapshot
    }

    /// Total blocks held in this process's RAM (replicas counted):
    /// cluster-wide in process, the hosted node's share on a
    /// [`Self::build_member`] cluster.
    pub fn total_blocks(&self) -> usize {
        let topo = self.topology.read();
        let nodes = self.nodes.read();
        topo.nodes()
            .map(|n| nodes[n.0 as usize].read().block_count())
            .sum()
    }

    /// Heap bytes the local indexes in this process's RAM hold: every
    /// node's in process, the hosted node's on a [`Self::build_member`]
    /// cluster.
    pub fn index_bytes(&self) -> usize {
        let topo = self.topology.read();
        let nodes = self.nodes.read();
        topo.nodes()
            .map(|n| nodes[n.0 as usize].read().index_bytes())
            .sum()
    }

    /// Block copies placed cluster-wide (replicas counted), read from the
    /// placement ledger: what every process of one deployment agrees on,
    /// whichever node it hosts. Equals [`Self::total_blocks`] in process
    /// until a failure strikes a node's RAM or disk.
    pub fn placed_copies(&self) -> usize {
        self.ledger.read().copies()
    }

    /// Bytes the placement ledger holds: 4 per block key of the
    /// reference store, 8 per sequence and its holder-set table — the
    /// control plane's share of a process, whatever node it hosts.
    pub fn ledger_bytes(&self) -> usize {
        self.ledger.read().bytes()
    }

    /// Wall-clock spent building + indexing.
    pub fn index_elapsed(&self) -> Duration {
        self.index_elapsed
    }

    /// Where the construction build's indexing time went.
    pub fn ingest_profile(&self) -> IngestProfile {
        self.ingest
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// A snapshot of the current topology.
    pub fn topology(&self) -> Topology {
        self.topology.read().clone()
    }

    /// The current reference database snapshot (append-only; grows via
    /// [`Self::insert_sequences`]).
    pub fn db(&self) -> Arc<SeqStore> {
        self.db.read().clone()
    }

    /// Incremental ingest (research challenge #1: "the collection of
    /// reference sequences ... continues to grow rapidly"): append
    /// sequences to the reference store and run the three-phase §V-A
    /// indexing pipeline for just their blocks. Protein nodes' vp-trees
    /// take the batched §III-D insertion path; DNA nodes rebuild their
    /// pigeonhole tables over all they hold. The vp-prefix hash function is
    /// *not* rebuilt — it was fixed at cluster construction, exactly so
    /// that placement stays stable under growth.
    // audit:allow(unreached): tests/end_to_end.rs, tests/chaos.rs and tests/durability.rs ingest through it; its product caller is ROADMAP item 7
    pub fn insert_sequences(
        &self,
        seqs: Vec<Sequence>,
    ) -> Result<Vec<mendel_seq::SeqId>, MendelError> {
        if seqs.is_empty() {
            return Ok(Vec::new());
        }
        for s in &seqs {
            if s.alphabet != self.config.alphabet {
                return Err(MendelError::Config(format!(
                    "sequence {} is {:?}, cluster indexes {:?}",
                    s.name, s.alphabet, self.config.alphabet
                )));
            }
        }
        // Append under the write lock (clone-on-write keeps readers
        // lock-free on their own snapshots).
        #[expect(
            clippy::unwrap_used,
            reason = "insert_batch just added these ids to the arc being read"
        )]
        let (ids, new_seqs) = {
            let mut guard = self.db.write();
            let mut extended = (**guard).clone();
            let ids = extended.insert_batch(seqs);
            // The new keys get their ledger slots before any is routed.
            self.ledger.write().extend_to(&extended);
            let arc = Arc::new(extended);
            *guard = arc.clone();
            (
                ids.clone(),
                ids.into_iter()
                    .map(|id| arc.get(id).unwrap().clone())
                    .collect::<Vec<_>>(),
            )
        };
        self.index_sequences(new_seqs.iter())?;
        Ok(ids)
    }

    /// blastx-style translated query: translate an encoded DNA query in
    /// all six reading frames and evaluate each against this protein
    /// cluster (research challenge #3: "support both DNA and protein
    /// sequence data"). Returns `(frame, hit)` pairs ranked by ascending
    /// E-value; frames 0–2 are forward, 3–5 the reverse complement.
    pub fn query_translated(
        &self,
        dna_query: &[u8],
        params: &QueryParams,
    ) -> Result<Vec<(usize, MendelHit)>, MendelError> {
        if self.config.alphabet != Alphabet::Protein {
            return Err(MendelError::Query(
                "translated queries need a protein cluster".into(),
            ));
        }
        let frames = mendel_seq::six_frames(dna_query);
        let mut out: Vec<(usize, MendelHit)> = Vec::new();
        for (f, q) in frames.iter().enumerate() {
            if q.len() < self.config.block_len {
                continue; // frame too short to decompose
            }
            let report = self.query(q, params)?;
            out.extend(report.hits.into_iter().map(|h| (f, h)));
        }
        out.sort_by(|a, b| {
            a.1.evalue
                .total_cmp(&b.1.evalue)
                .then(b.1.score.cmp(&a.1.score))
                .then(a.1.subject.cmp(&b.1.subject))
                .then(a.0.cmp(&b.0))
        });
        Ok(out)
    }

    /// Run a node-local search against one node's state (the data plane
    /// of [`crate::wire`]'s node side).
    pub(crate) fn node_local_search(
        &self,
        node: NodeId,
        query: &[u8],
        offsets: &[usize],
        params: &QueryParams,
        matrix: &ScoringMatrix,
    ) -> LocalSearchOutput {
        let nodes = self.nodes.read();
        match nodes.get(node.0 as usize) {
            Some(n) => {
                n.read()
                    .local_search_many(query, offsets, self.config.block_len, params, matrix)
            }
            None => LocalSearchOutput::default(),
        }
    }

    /// Shared handles on every node, indexed by `NodeId`.
    pub(crate) fn node_handles(&self) -> Vec<Arc<NodeSlot>> {
        self.nodes.read().clone()
    }

    /// The slot of a node the topology knows.
    fn slot(&self, node: NodeId) -> Arc<NodeSlot> {
        self.nodes.read()[node.0 as usize].clone()
    }

    // ---- Durable storage (ROADMAP item 2) -----------------------------

    /// The injectable VFS the durable stores run on; `None` in memory
    /// mode. Tests use this to crash the disk under a running cluster.
    // audit:allow(unreached): the crash-point sweep in this file's tests crashes the disk through it; tests/durability.rs checks memory mode has none
    pub fn storage_vfs(&self) -> Option<Arc<dyn Vfs>> {
        self.storage.as_ref().map(|s| s.vfs.clone())
    }

    /// Fsync every live node's WAL. After this returns `Ok`, every block
    /// ingested so far survives any crash regardless of the configured
    /// fsync policy. No-op in memory mode.
    // audit:allow(unreached): the sync barrier tests/durability.rs's machine_crash_after_sync_barrier_loses_nothing crashes after
    pub fn sync_storage(&self) -> Result<(), MendelError> {
        self.node_handles().iter().try_for_each(|n| n.sync())
    }

    /// Flush every live node's memtable into an immutable sorted
    /// segment (WAL is truncated once the segment and manifest are
    /// durable). No-op in memory mode.
    // audit:allow(unreached): tests/properties.rs flushes memtables into segments mid-run through it
    pub fn flush_storage(&self) -> Result<(), MendelError> {
        self.node_handles().iter().try_for_each(|n| n.flush())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mendel_seq::gen::{NrLikeSpec, QuerySetSpec};
    use mendel_seq::SeqId;

    fn small_db() -> Arc<SeqStore> {
        Arc::new(
            NrLikeSpec {
                families: 12,
                members_per_family: 2,
                length_range: (120, 240),
                seed: 0xC1,
                ..Default::default()
            }
            .generate()
            .unwrap(),
        )
    }

    fn small_cluster(db: &Arc<SeqStore>) -> MendelCluster {
        MendelCluster::build(ClusterConfig::small_protein(), db.clone()).unwrap()
    }

    /// Per-pair distances `f` computes on this thread.
    fn distances(f: impl FnOnce()) -> u64 {
        use crate::metric::tests::DIST_CALLS;
        let before = DIST_CALLS.with(|n| n.get());
        f();
        DIST_CALLS.with(|n| n.get()) - before
    }

    /// Route every block window, at ingest (`group_of_window`) and as a
    /// subquery under tolerance (`groups_of_window`), and plan a query.
    fn route_everything(c: &MendelCluster, db: &SeqStore) {
        let len = c.config().block_len;
        for s in db.iter() {
            for w in s.residues.windows(len) {
                let g = c.group_of_window(w);
                for tau in [0.0, 1.5, f32::INFINITY] {
                    assert!(c.groups_of_window(w, tau).contains(&g));
                }
            }
        }
        let q = db.get(SeqId(4)).unwrap().residues.clone();
        crate::pipeline::plan(c, &q, &QueryParams::protein()).unwrap();
    }

    /// With one group the first tier's root is decided: ingest routing,
    /// tolerance routing and the query plan compute no prefix distance.
    /// Two groups over the same data pay for theirs.
    #[test]
    fn one_group_routing_computes_no_prefix_distance() {
        let db = small_db();
        let one = ClusterConfig {
            nodes: 3,
            groups: 1,
            ..ClusterConfig::small_protein()
        };
        let c = MendelCluster::build(one, db.clone()).unwrap();
        assert_eq!(distances(|| route_everything(&c, &db)), 0);
        let two = small_cluster(&db);
        assert!(distances(|| route_everything(&two, &db)) > 0);
    }

    #[test]
    fn build_indexes_every_block() {
        let db = small_db();
        let c = small_cluster(&db);
        let expect: usize = db.iter().map(|s| s.len() - c.config().block_len + 1).sum();
        assert_eq!(c.total_blocks(), expect);
    }

    #[test]
    fn self_query_ranks_source_first() {
        let db = small_db();
        let c = small_cluster(&db);
        let q = db.get(SeqId(5)).unwrap().residues.clone();
        let r = c.query(&q, &QueryParams::protein()).unwrap();
        assert_eq!(r.best().unwrap().subject, SeqId(5));
        assert!(r.best().unwrap().evalue < 1e-20);
        assert!(r.best().unwrap().identity > 0.99);
    }

    #[test]
    fn mutated_query_finds_source() {
        let db = small_db();
        let c = small_cluster(&db);
        let qs = QuerySetSpec {
            count: 5,
            length: 100,
            identity: 0.8,
            seed: 2,
        }
        .generate(&db)
        .unwrap();
        for q in &qs {
            let r = c.query(&q.query.residues, &QueryParams::protein()).unwrap();
            assert!(
                r.hits.iter().any(|h| h.subject == q.source),
                "80%-identity query must find its source"
            );
        }
    }

    #[test]
    fn entry_point_symmetry() {
        // §V-B: "any node in the cluster can perform as a query's entry
        // point and generates identical results."
        let db = small_db();
        let c = small_cluster(&db);
        let q = db.get(SeqId(3)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let baseline = c.query_from(NodeId(0), &q, &params).unwrap();
        for n in 1..c.config().nodes as u16 {
            let r = c.query_from(NodeId(n), &q, &params).unwrap();
            assert_eq!(r.hits, baseline.hits, "entry {n}");
        }
    }

    #[test]
    fn timings_are_positive_and_stats_populated() {
        let db = small_db();
        let c = small_cluster(&db);
        let q = db.get(SeqId(0)).unwrap().residues.clone();
        let r = c.query(&q, &QueryParams::protein()).unwrap();
        assert!(r.turnaround() > Duration::ZERO);
        assert!(r.stats.subqueries > 0);
        assert!(r.stats.groups_contacted >= 1);
        assert!(r.stats.nodes_contacted >= 1);
        assert!(r.stats.messages > 0);
        assert!(r.stats.bytes > 0);
    }

    #[test]
    fn too_short_query_is_rejected() {
        let db = small_db();
        let c = small_cluster(&db);
        let err = c.query(&[0u8; 4], &QueryParams::protein()).unwrap_err();
        assert!(matches!(err, MendelError::Query(_)));
    }

    #[test]
    fn wrong_matrix_is_rejected() {
        let db = small_db();
        let c = small_cluster(&db);
        let q = db.get(SeqId(0)).unwrap().residues.clone();
        let mut params = QueryParams::protein();
        params.m = "DNA(+2/-3)".into();
        assert!(matches!(
            c.query(&q, &params).unwrap_err(),
            MendelError::Params(_)
        ));
        params.m = "NOSUCH".into();
        assert!(c.query(&q, &params).is_err());
    }

    #[test]
    fn unknown_entry_node_is_rejected() {
        let db = small_db();
        let c = small_cluster(&db);
        let q = db.get(SeqId(0)).unwrap().residues.clone();
        assert!(matches!(
            c.query_from(NodeId(99), &q, &QueryParams::protein())
                .unwrap_err(),
            MendelError::NoSuchNode(_)
        ));
    }

    #[test]
    fn load_is_roughly_balanced() {
        let db = small_db();
        let c = small_cluster(&db);
        let report = c.load_report();
        // A block costs its 8-byte key plus its window (DESIGN.md §10).
        assert_eq!(
            report.total() as usize,
            c.total_blocks() * (8 + c.config().block_len)
        );
        // 6 nodes → ideal share 16.7%; two-tier hashing should stay sane.
        assert!(report.spread_pct() < 25.0, "spread {}", report.spread_pct());
    }

    #[test]
    fn failover_with_replication_preserves_results() {
        let db = small_db();
        let mut cfg = ClusterConfig::small_protein();
        cfg.replication = 2;
        let c = MendelCluster::build(cfg, db.clone()).unwrap();
        let q = db.get(SeqId(7)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let before = c.query(&q, &params).unwrap();
        // Fail one node in each group.
        c.fail_node(NodeId(0)).unwrap();
        c.fail_node(NodeId(3)).unwrap();
        // The default entry point is the first *live* node, so a dead
        // node 0 does not take `query()` down with it.
        let after = c.query(&q, &params).unwrap();
        assert_eq!(
            after.best().unwrap().subject,
            before.best().unwrap().subject,
            "replication must mask the failures"
        );
        assert!(!after.coverage.degraded, "every block is still reachable");
        assert!(matches!(
            c.query_from(NodeId(0), &q, &params),
            Err(MendelError::NoSuchNode(NodeId(0)))
        ));
        c.recover_node(NodeId(0)).unwrap();
        assert_eq!(c.failed_nodes(), vec![NodeId(3)]);
    }

    #[test]
    fn failed_entry_node_is_rejected() {
        let db = small_db();
        let c = small_cluster(&db);
        c.fail_node(NodeId(2)).unwrap();
        let q = db.get(SeqId(0)).unwrap().residues.clone();
        assert!(c
            .query_from(NodeId(2), &q, &QueryParams::protein())
            .is_err());
    }

    #[test]
    fn scale_out_preserves_block_population_and_results() {
        let db = small_db();
        let c = small_cluster(&db);
        let blocks_before = c.total_blocks();
        let q = db.get(SeqId(4)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let before = c.query(&q, &params).unwrap();
        let new = c.add_node();
        assert_eq!(c.topology().num_nodes(), 7);
        assert_eq!(
            c.total_blocks(),
            blocks_before,
            "rebalance must not lose blocks"
        );
        // The new node actually received data.
        let report = c.load_report();
        let new_share = report
            .per_node
            .iter()
            .find(|(n, _)| *n == new)
            .map(|(_, b)| *b)
            .unwrap();
        assert!(new_share > 0, "new node must take over some blocks");
        let after = c.query(&q, &params).unwrap();
        assert_eq!(
            after.hits, before.hits,
            "rebalancing must not change results"
        );
    }

    fn dna_db() -> Arc<SeqStore> {
        let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(9);
        let mut st = SeqStore::new();
        for i in 0..8 {
            let codes = mendel_seq::gen::random_sequence(Alphabet::Dna, 400, &mut rng);
            st.insert(mendel_seq::Sequence::from_codes(
                format!("d{i}"),
                Alphabet::Dna,
                codes,
            ));
        }
        Arc::new(st)
    }

    #[test]
    fn dna_cluster_end_to_end() {
        let db = dna_db();
        let c = MendelCluster::build(ClusterConfig::small_dna(), db.clone()).unwrap();
        let q = db.get(SeqId(3)).unwrap().residues[50..250].to_vec();
        let r = c.query(&q, &QueryParams::dna()).unwrap();
        assert_eq!(r.best().unwrap().subject, SeqId(3));
    }

    /// At 16 bases a DNA node's tables hold 12 bytes a window — in each
    /// of its two tables, the id and the half that is not the bucket's
    /// key — beside 4 bytes of bounds a bucket, and
    /// `mendel.index.bytes` reports the sum over the nodes.
    #[test]
    fn dna_index_bytes_are_entries_and_bounds() {
        let c = MendelCluster::build(ClusterConfig::small_dna(), dna_db()).unwrap();
        assert_eq!(c.config().block_len, 16);
        let holding = {
            let topo = c.topology.read();
            let nodes = c.nodes.read();
            topo.nodes()
                .filter(|n| nodes[n.0 as usize].read().block_count() > 0)
                .count()
        };
        assert!(holding > 1);
        let bounds = 4 * (2 * 4usize.pow(8) + 1);
        let want = 12 * c.total_blocks() + holding * bounds;
        assert_eq!(c.index_bytes(), want);
        let snapshot = c.metrics_snapshot();
        assert_eq!(snapshot.gauge("mendel.index.bytes"), want as i64);
    }

    #[test]
    fn insert_sequences_makes_new_data_searchable() {
        let db = small_db();
        let c = small_cluster(&db);
        let blocks_before = c.total_blocks();
        // A brand-new family, absent from the original database.
        let extra = NrLikeSpec {
            families: 2,
            members_per_family: 2,
            length_range: (150, 200),
            seed: 0xFEED,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let new_seqs: Vec<_> = extra.iter().cloned().collect();
        let ids = c.insert_sequences(new_seqs.clone()).unwrap();
        assert_eq!(ids.len(), 4);
        assert_eq!(
            ids[0],
            SeqId(db.len() as u32),
            "ids continue after the base store"
        );
        assert!(c.total_blocks() > blocks_before);
        // The new sequences are now findable.
        let q = new_seqs[1].residues.clone();
        let r = c.query(&q, &QueryParams::protein()).unwrap();
        assert_eq!(r.best().unwrap().subject, ids[1]);
        // ...and old data still is.
        let old = db.get(SeqId(2)).unwrap().residues.clone();
        let r = c.query(&old, &QueryParams::protein()).unwrap();
        assert_eq!(r.best().unwrap().subject, SeqId(2));
    }

    #[test]
    fn insert_sequences_rejects_wrong_alphabet() {
        let db = small_db();
        let c = small_cluster(&db);
        let dna = mendel_seq::Sequence::from_ascii("d", Alphabet::Dna, b"ACGTACGT").unwrap();
        assert!(matches!(
            c.insert_sequences(vec![dna]),
            Err(MendelError::Config(_))
        ));
        assert!(c.insert_sequences(vec![]).unwrap().is_empty());
    }

    #[test]
    fn translated_query_finds_the_coding_protein() {
        use mendel_seq::translate::translate_codon;
        let db = small_db();
        let c = small_cluster(&db);
        let target = db.get(SeqId(4)).unwrap();
        let mut dna: Vec<u8> = Vec::new();
        'aa: for &aa in target.residues.iter().take(100) {
            for code in 0..64u8 {
                let (c0, c1, c2) = (code / 16, (code / 4) % 4, code % 4);
                if translate_codon(c0, c1, c2) == aa {
                    dna.extend_from_slice(&[c0, c1, c2]);
                    continue 'aa;
                }
            }
            unreachable!();
        }
        let hits = c.query_translated(&dna, &QueryParams::protein()).unwrap();
        assert_eq!(hits[0].1.subject, SeqId(4));
        assert_eq!(hits[0].0, 0);
        // DNA clusters refuse translated queries.
        let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(1);
        let mut st = SeqStore::new();
        st.insert(mendel_seq::Sequence::from_codes(
            "g",
            Alphabet::Dna,
            mendel_seq::gen::random_sequence(Alphabet::Dna, 200, &mut rng),
        ));
        let dna_cluster = MendelCluster::build(ClusterConfig::small_dna(), Arc::new(st)).unwrap();
        assert!(dna_cluster
            .query_translated(&dna, &QueryParams::protein())
            .is_err());
    }

    #[test]
    fn query_report_carries_metric_deltas() {
        let db = small_db();
        let c = small_cluster(&db);
        let q = db.get(SeqId(0)).unwrap().residues.clone();
        let r = c.query(&q, &QueryParams::protein()).unwrap();
        assert!(r.metrics.counter("mendel.vptree.dist_calls") > 0);
        assert!(r.metrics.counter("mendel.vptree.leaf_scans") > 0);
        assert_eq!(r.metrics.counter("mendel.query.count"), 1);
        assert_eq!(
            r.metrics.counter("mendel.query.fanout_groups") as usize,
            r.stats.groups_contacted
        );
        let h = r
            .metrics
            .histogram("mendel.query.turnaround.seconds")
            .expect("turnaround histogram recorded");
        assert_eq!(h.count(), 1);
        // The cumulative registry keeps growing query over query while
        // each report's delta stays per-query.
        let r2 = c.query(&q, &QueryParams::protein()).unwrap();
        assert_eq!(r2.metrics.counter("mendel.query.count"), 1);
        assert_eq!(c.metrics_snapshot().counter("mendel.query.count"), 2);
    }

    /// A traced query records the served span tree once: `query` →
    /// `decompose`, one `group_rpc/<g>` per contacted group → its entry
    /// point's `group/<g>` → one `node/<n>` per member and a `merge`;
    /// `finalize`.
    #[test]
    fn tracing_assembles_query_tree_with_consistent_critical_path() {
        let db = small_db();
        let clock = Arc::new(mendel_obs::VirtualClock::new());
        let c = MendelCluster::build_with_clock(ClusterConfig::small_protein(), db.clone(), clock)
            .unwrap();
        let q = db.get(SeqId(2)).unwrap().residues.clone();

        // Off by default: no trace, no flight-recorder activity.
        let r = c.query(&q, &QueryParams::protein()).unwrap();
        assert!(r.trace.is_none());
        assert!(r.critical_path.is_empty());
        assert!(c.trace_records().is_empty());

        c.set_tracing(true);
        let r = c.query(&q, &QueryParams::protein()).unwrap();
        let trace = r.trace.expect("traced query reports its trace id");
        let tree = c
            .trace_tree(trace)
            .expect("tree reassembles from recorders");
        assert_eq!(tree.root.record.name, "query");
        let names = |n: &mendel_obs::TraceNode| -> Vec<String> {
            n.children.iter().map(|c| c.record.name.clone()).collect()
        };
        let stages = names(&tree.root);
        assert_eq!(stages.first().map(String::as_str), Some("decompose"));
        assert_eq!(stages.last().map(String::as_str), Some("finalize"));
        let rpcs: Vec<_> = tree
            .root
            .children
            .iter()
            .filter(|n| n.record.name.starts_with("group_rpc/"))
            .collect();
        let groups = rpcs.len();
        assert_eq!(groups, r.stats.groups_contacted);
        assert_eq!(stages.len(), groups + 2);
        let mut nodes = 0;
        for rpc in rpcs {
            let g = &rpc.record.name["group_rpc/".len()..];
            assert_eq!(names(rpc), [format!("group/{g}")]);
            let group = &rpc.children[0];
            let members = names(group);
            assert_eq!(members.last().map(String::as_str), Some("merge"));
            assert!(members[..members.len() - 1]
                .iter()
                .all(|m| m.starts_with("node/")));
            nodes += members.len() - 1;
        }
        assert_eq!(nodes, r.stats.nodes_contacted);
        // Each span once (`group/<g>` and `merge` per group), though
        // every hop home recorded it again.
        assert_eq!(
            c.trace_records().len(),
            1 + stages.len() + 2 * groups + nodes
        );

        // The critical path starts at the root and never gains time as
        // it descends.
        assert_eq!(r.critical_path, tree.critical_path());
        assert_eq!(r.critical_path[0].name, "query");
        assert_eq!(r.critical_path[0].duration, tree.root.record.duration());
        for pair in r.critical_path.windows(2) {
            assert!(pair[1].duration <= pair[0].duration);
        }

        // The chrome export covers the trace and the dump renders it.
        let json = c.chrome_trace();
        assert!(json.contains("\"name\":\"query\""));
        assert!(c.flight_recorder_dump().contains("query"));
    }

    #[test]
    fn group_tolerance_expands_fanout() {
        let db = small_db();
        let c = small_cluster(&db);
        let q = db.get(SeqId(6)).unwrap().residues.clone();
        let mut tight = QueryParams::protein();
        tight.group_tolerance = 0.0;
        let mut wide = QueryParams::protein();
        wide.group_tolerance = 1e6;
        let rt = c.query(&q, &tight).unwrap();
        let rw = c.query(&q, &wide).unwrap();
        assert!(rw.stats.groups_contacted >= rt.stats.groups_contacted);
        assert_eq!(rw.stats.groups_contacted, c.config().groups);
    }

    // ---- Member clusters: one hosted node -------------------------------

    #[test]
    fn member_build_equals_the_full_builds_slot() {
        let shapes = [(3, 1, 1), (3, 3, 1), (6, 2, 2), (7, 2, 3)];
        let alphabets = [
            (ClusterConfig::small_protein(), small_db()),
            (ClusterConfig::small_dna(), dna_db()),
        ];
        for (base, db) in alphabets {
            for (nodes, groups, replication) in shapes {
                let config = ClusterConfig {
                    nodes,
                    groups,
                    replication,
                    ..base.clone()
                };
                let shape = format!("{:?} {nodes}/{groups}/{replication}", config.alphabet);
                let full = MendelCluster::build(config.clone(), db.clone()).unwrap();
                let topo = full.topology();
                let downs: Vec<Vec<NodeId>> = std::iter::once(Vec::new())
                    .chain(topo.nodes().map(|n| vec![n]))
                    .collect();
                let full_slots = full.node_handles();
                for n in topo.nodes() {
                    let member =
                        MendelCluster::build_member(config.clone(), db.clone(), n, None).unwrap();
                    for (i, slot) in member.node_handles().iter().enumerate() {
                        if i != n.0 as usize {
                            assert_eq!(slot.read().block_count(), 0, "{shape}: slot {i} of {n}");
                            continue;
                        }
                        let want = &full_slots[i];
                        assert!(slot.read().block_count() > 0, "{shape}: {n}");
                        assert_eq!(slot.read().block_keys(), want.read().block_keys());
                        assert_eq!(slot.index_layout(), want.index_layout(), "{shape}: {n}");
                    }
                    for down in &downs {
                        assert_eq!(
                            member.coverage_with_down(down),
                            full.coverage_with_down(down),
                            "{shape}: member {n}, {down:?} down"
                        );
                    }
                    assert_eq!(member.placed_copies(), full.total_blocks(), "{shape}");
                    assert_eq!(member.placed_copies(), full.placed_copies(), "{shape}");
                    assert_eq!(
                        member.total_blocks(),
                        full_slots[n.0 as usize].read().block_count()
                    );
                    member.check_ledger().unwrap();
                }
            }
        }
    }

    /// Pass 2's walk builds each hosted node as the block path did:
    /// `make_blocks` over the corpus, the keys kept where the ledger
    /// names the node, then `StorageNode::insert_keys` into a fresh slot. Keys,
    /// index layout (a protein node's tree, a digest of a DNA node's
    /// tables) and a fixed query's node-search answers are equal on
    /// both alphabets at `member_build_equals_the_full_builds_slot`'s
    /// shapes, for full and member builds.
    #[test]
    fn the_walk_builds_the_node_the_block_path_built() {
        let shapes = [(3, 1, 1), (3, 3, 1), (6, 2, 2), (7, 2, 3)];
        let alphabets = [
            (
                ClusterConfig::small_protein(),
                small_db(),
                QueryParams::protein(),
            ),
            (ClusterConfig::small_dna(), dna_db(), QueryParams::dna()),
        ];
        for (base, db, params) in alphabets {
            let k = base.block_len;
            let blocks: Vec<BlockKey> = db
                .iter()
                .flat_map(|s| crate::block::make_blocks(s, k))
                .map(|b| b.key())
                .collect();
            let query = db.get(SeqId(3)).unwrap().residues.clone();
            let offsets: Vec<usize> = (0..=query.len() - k).step_by(3).collect();
            let mut anchors = 0;
            for (nodes, groups, replication) in shapes {
                let config = ClusterConfig {
                    nodes,
                    groups,
                    replication,
                    ..base.clone()
                };
                let shape = format!("{:?} {nodes}/{groups}/{replication}", config.alphabet);
                let ids = || (0..nodes as u16).map(NodeId);
                let full = MendelCluster::build(config.clone(), db.clone()).unwrap();
                let mut builds = vec![(full, ids().collect::<Vec<_>>())];
                for n in ids() {
                    let member = MendelCluster::build_member(config.clone(), db.clone(), n, None);
                    builds.push((member.unwrap(), vec![n]));
                }
                for (c, hosted) in &builds {
                    let matrix = c.resolve_matrix(&params.m).unwrap();
                    let search = |slot: &NodeSlot| {
                        let out = slot
                            .read()
                            .local_search_many(&query, &offsets, k, &params, &matrix);
                        (out.anchors, out.candidates)
                    };
                    for &n in hosted {
                        let g = c.topology().node_group(n).unwrap();
                        let held: HashSet<BlockKey> = c
                            .ledger
                            .read()
                            .keys_held_by(g, |h| h == n)
                            .into_iter()
                            .collect();
                        let kept = blocks.iter().filter(|key| held.contains(key));
                        let reference =
                            MendelCluster::new_slot(&config, &c.db, &c.obs, &None, n.0 as usize);
                        reference.insert_keys(kept.copied().collect(), k);
                        let got = c.slot(n);
                        assert!(got.read().block_count() > 0, "{shape}: {n}");
                        assert_eq!(got.read().block_keys(), reference.read().block_keys());
                        assert_eq!(got.index_layout(), reference.index_layout(), "{shape}: {n}");
                        let answer = search(&got);
                        assert_eq!(answer, search(&reference), "{shape}: {n}");
                        anchors += answer.0.len();
                    }
                }
            }
            assert!(
                anchors > 0,
                "{:?}: the query anchored nowhere",
                base.alphabet
            );
        }
    }

    /// A node grown after its build — by `insert_sequences`, by the
    /// `rebalance_group` a scale-out runs, by the copies a `repair` at
    /// replication 2 places while a member is down, and by replay from
    /// its durable store after a kill — holds the keys a fresh node fed
    /// them in one `insert_keys` holds, and answers a query's exact node
    /// search as that node does, on both alphabets. A DNA node's tables,
    /// rebuilt on every batch, are the same tables too.
    #[test]
    fn a_grown_node_answers_like_one_built_at_once() {
        let alphabets = [
            (
                ClusterConfig::small_protein(),
                small_db(),
                QueryParams::protein(),
            ),
            (ClusterConfig::small_dna(), dna_db(), QueryParams::dna()),
        ];
        for (base, db, params) in alphabets {
            let mut first = SeqStore::new();
            for s in db.iter().take(4) {
                first.insert(s.clone());
            }
            let config = ClusterConfig {
                storage: StorageBackend::durable(),
                replication: 2,
                ..base
            };
            let alphabet = config.alphabet;
            let c = MendelCluster::build(config, Arc::new(first)).unwrap();
            let params = QueryParams {
                search_budget: usize::MAX,
                ..params
            };
            let matrix = c.resolve_matrix(&params.m).unwrap();
            let k = c.config.block_len;
            let same_as_built_at_once = |when: &str| {
                let residues = &db.get(SeqId(6)).unwrap().residues;
                let query = residues[40..residues.len().min(340)].to_vec();
                let offsets = crate::query::subquery_offsets(query.len(), k, params.k);
                let failed = c.failed_nodes();
                let mut anchors = 0;
                for (i, slot) in c.node_handles().iter().enumerate() {
                    if failed.contains(&slot.id()) {
                        continue;
                    }
                    let when = format!("{alphabet:?} {when}: node {i}");
                    let reference = MendelCluster::new_slot(&c.config, &c.db, &c.obs, &None, i);
                    reference.insert_keys(slot.read().block_keys(), k);
                    assert!(slot.read().block_count() > 0, "{when}");
                    assert_eq!(slot.read().block_keys(), reference.read().block_keys());
                    if alphabet == Alphabet::Dna {
                        assert_eq!(slot.index_layout(), reference.index_layout(), "{when}");
                    }
                    let search = |s: &NodeSlot| {
                        let out = s
                            .read()
                            .local_search_many(&query, &offsets, k, &params, &matrix);
                        (out.anchors, out.candidates)
                    };
                    let answer = search(slot);
                    assert_eq!(answer, search(&reference), "{when}");
                    anchors += answer.0.len();
                }
                anchors
            };
            let inserted: Vec<Sequence> = db.iter().skip(4).cloned().collect();
            c.insert_sequences(inserted).unwrap();
            assert!(same_as_built_at_once("inserted") > 0, "the query anchors");
            c.add_node();
            same_as_built_at_once("rebalanced");
            c.fail_node(NodeId(1)).unwrap();
            assert!(c.repair().copies_added > 0, "{alphabet:?}");
            same_as_built_at_once("repaired");
            c.recover_node(NodeId(1)).unwrap();
            assert!(c.failed_nodes().is_empty());
            same_as_built_at_once("replayed");
            c.check_ledger().unwrap();
        }
    }

    /// Pass 1 over k chunks, then pass 2's walk, gives every node the
    /// same keys, fills the hosted node's RAM with its share and refuses
    /// the same groups, as one chunk does: on both alphabets, at
    /// replication 1–3, hosting node 0, with node 1 failed and group 2
    /// (nodes 5 and 6) left with no live member.
    #[test]
    fn routing_in_chunks_changes_no_share() {
        let alphabets = [
            (ClusterConfig::small_protein(), small_db()),
            (ClusterConfig::small_dna(), dna_db()),
        ];
        for (base, db) in alphabets {
            let seqs: Vec<&Sequence> = db.iter().collect();
            for replication in 1..=3 {
                let config = ClusterConfig {
                    nodes: 7,
                    groups: 3,
                    replication,
                    ..base.clone()
                };
                let run = |chunks| {
                    let clock = Arc::new(MonotonicClock::new());
                    let mut c =
                        MendelCluster::skeleton(config.clone(), db.clone(), clock, None).unwrap();
                    c.member = Some(NodeId(0));
                    for n in [1, 5, 6] {
                        c.failed.write().insert(NodeId(n), 0);
                    }
                    let topo = c.topology();
                    let (routes, runs) = c.route(&topo, &seqs, chunks);
                    assert!(runs <= chunks && runs <= seqs.len());
                    let corpus = KeyRuns::of_sequences(c.db(), base.block_len, &seqs);
                    let (refused, _) = c.route_and_place(&topo, &routes, &corpus);
                    let shares: Vec<(NodeId, Vec<BlockKey>)> = topo
                        .nodes()
                        .map(|n| {
                            let g = topo.node_group(n).unwrap();
                            (n, c.ledger.read().keys_held_by(g, |h| h == n))
                        })
                        .filter(|(_, keys)| !keys.is_empty())
                        .collect();
                    for (n, keys) in &shares {
                        let ram = c.slot(*n).read().block_keys();
                        assert_eq!(ram, if n.0 == 0 { keys.clone() } else { Vec::new() });
                    }
                    c.check_ledger().unwrap();
                    (shares, refused)
                };
                let (shares, refused) = run(1);
                let shape = format!("{:?} replication {replication}", base.alphabet);
                assert_eq!(
                    refused,
                    [(None, MendelError::GroupDown(GroupId(2)))],
                    "{shape}"
                );
                let nodes: Vec<u16> = shares.iter().map(|(n, _)| n.0).collect();
                assert_eq!(nodes, [0, 2, 3, 4], "{shape}");
                for chunks in [2, 3, 7, seqs.len() + 5] {
                    assert!(
                        run(chunks) == (shares.clone(), refused.clone()),
                        "{shape}: {chunks}"
                    );
                }
            }
        }
    }

    /// A key the ledger refuses refuses its holders alone: the replicas
    /// of its ring start take none of their copies, in the ledger or in
    /// RAM, and every other node is placed as it is when nothing is
    /// refused.
    #[test]
    fn a_refused_key_refuses_its_holders_alone() {
        let config = ClusterConfig {
            nodes: 7,
            groups: 3,
            replication: 2,
            ..ClusterConfig::small_protein()
        };
        let db = small_db();
        let seqs: Vec<&Sequence> = db.iter().collect();
        let run = |foreign: bool| {
            let clock = Arc::new(MonotonicClock::new());
            let c = MendelCluster::skeleton(config.clone(), db.clone(), clock, None).unwrap();
            let topo = c.topology();
            let (routes, _) = c.route(&topo, &seqs, 1);
            let corpus = KeyRuns::of_sequences(c.db(), config.block_len, &seqs);
            // The corpus's first key, already placed in another group.
            let first = corpus.runs[0].0;
            let g = topo.node_group(routes[0]).unwrap();
            let other = topo.nodes().find(|&n| topo.node_group(n) != Some(g));
            let other = other.unwrap();
            if foreign {
                let h = topo.node_group(other).unwrap();
                c.ledger
                    .write()
                    .place(h, other, [first].into_iter())
                    .unwrap();
            }
            let (refused, _) = c.route_and_place(&topo, &routes, &corpus);
            let held: Vec<Vec<BlockKey>> = topo
                .nodes()
                .map(|n| {
                    let g = topo.node_group(n).unwrap();
                    let mut keys = c.ledger.read().keys_held_by(g, |h| h == n);
                    keys.retain(|&k| n != other || k != first);
                    assert_eq!(c.slot(n).read().block_keys(), keys, "{n}");
                    keys
                })
                .collect();
            let mut holders = c.dispatch(&topo, &routes).replicas[routes[0].0 as usize].clone();
            holders.sort_unstable();
            (refused, held, holders)
        };
        let (clean, all, holders) = run(false);
        assert!(clean.is_empty(), "{clean:?}");
        assert_eq!(holders.len(), 2);
        let (refused, held, _) = run(true);
        let named: Vec<Option<NodeId>> = refused.iter().map(|(n, _)| *n).collect();
        assert_eq!(named, holders.iter().copied().map(Some).collect::<Vec<_>>());
        for (_, e) in &refused {
            let placed_elsewhere =
                matches!(e, MendelError::Store(m) if m.contains("placed in group"));
            assert!(placed_elsewhere, "{e:?}");
        }
        for (n, keys) in held.iter().enumerate() {
            if holders.contains(&NodeId(n as u16)) {
                assert!(keys.is_empty(), "{n}");
            } else {
                assert_eq!(keys, &all[n], "{n}");
            }
        }
    }

    #[test]
    fn member_cluster_refuses_in_process_queries() {
        let db = small_db();
        let config = ClusterConfig::small_protein();
        let member = MendelCluster::build_member(config, db.clone(), NodeId(1), None).unwrap();
        let q = db.get(SeqId(5)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let refused = |r: Result<Vec<MendelHit>, MendelError>| match r {
            Err(MendelError::Config(msg)) => assert!(msg.contains("only node 1"), "{msg}"),
            other => panic!("a member cluster answered in process: {other:?}"),
        };
        refused(member.query(&q, &params).map(|r| r.hits));
        refused(member.query_from(NodeId(1), &q, &params).map(|r| r.hits));
        refused(crate::wire::WireCluster::serve(Arc::new(member)).query(&q, &params));
    }

    #[test]
    fn member_outside_the_topology_is_a_config_error() {
        let config = ClusterConfig::small_protein();
        let nodes = config.nodes as u16;
        let err = MendelCluster::build_member(config, small_db(), NodeId(nodes), None).err();
        assert!(matches!(err, Some(MendelError::Config(_))), "{err:?}");
    }

    #[test]
    fn one_node_member_hosts_the_whole_cluster() {
        let db = small_db();
        let config = ClusterConfig {
            nodes: 1,
            groups: 1,
            ..ClusterConfig::small_protein()
        };
        let member = MendelCluster::build_member(config.clone(), db.clone(), NodeId(0), None);
        let full = MendelCluster::build(config, db.clone()).unwrap();
        let q = db.get(SeqId(5)).unwrap().residues.clone();
        let params = QueryParams::protein();
        assert_eq!(
            member.unwrap().query(&q, &params).unwrap().hits,
            full.query(&q, &params).unwrap().hits
        );
    }

    #[test]
    fn durable_member_persists_every_nodes_share() {
        // The on-disk layout is the full cluster's: every node's store
        // under the one VFS, though only the member's blocks are in RAM.
        let db = small_db();
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::plain(7));
        let member =
            MendelCluster::build_member(durable_config(), db.clone(), NodeId(2), Some(vfs.clone()))
                .unwrap();
        let full = MendelCluster::build(durable_config(), db).unwrap();
        for (n, slot) in full.node_handles().iter().enumerate() {
            let (store, _) = mendel_store::DurableStore::open(
                vfs.clone(),
                &format!("node-{n}"),
                mendel_store::StoreOptions::default(),
                StoreMetrics::detached(),
            )
            .unwrap();
            assert_eq!(
                store.scan().unwrap().len(),
                slot.read().block_count(),
                "node {n}"
            );
        }
        assert_eq!(member.placed_copies(), full.total_blocks());
        assert_eq!(
            member.total_blocks(),
            full.node_handles()[2].read().block_count()
        );
    }

    #[test]
    fn forged_replayed_key_keeps_the_node_failed_and_coverage_unchanged() {
        let db = small_db();
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::plain(7));
        let c = MendelCluster::build_with_storage(
            durable_config(),
            db.clone(),
            Arc::new(MonotonicClock::new()),
            Some(vfs.clone()),
        )
        .unwrap();
        c.fail_node(NodeId(1)).unwrap();
        let before = c.coverage();
        // A block of a sequence the reference store lacks, written
        // into the dark node's store as `persist` would.
        let (mut store, _) = mendel_store::DurableStore::open(
            vfs.clone(),
            "node-1",
            mendel_store::StoreOptions::default(),
            StoreMetrics::detached(),
        )
        .unwrap();
        let forged = BlockKey {
            seq: SeqId(db.len() as u32 + 5),
            start: 0,
        };
        let backing: Arc<[u8]> = Arc::from(vec![0u8; 16]);
        store
            .put_block(&forged.as_bytes(), &backing, 0, 16)
            .unwrap();
        store.sync().unwrap();
        drop(store);
        assert!(c.recover_node(NodeId(1)).is_err());
        assert_eq!(c.failed_nodes(), vec![NodeId(1)]);
        assert_eq!(c.coverage(), before);
        c.check_ledger().unwrap();
    }

    /// A replayed record that is no block of the reference — a key not
    /// in the 8-byte `seq‖start` form, or a held key whose stored window
    /// differs from the reference's — fails the replay: the node stays
    /// failed and its holdings stay expected.
    #[test]
    fn replayed_record_that_is_no_block_keeps_the_node_failed() {
        let db = small_db();
        let k = durable_config().block_len;
        for forge in ["short key", "wrong window"] {
            let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::plain(7));
            let c = MendelCluster::build_with_storage(
                durable_config(),
                db.clone(),
                Arc::new(MonotonicClock::new()),
                Some(vfs.clone()),
            )
            .unwrap();
            let g = c.topology().node_group(NodeId(1)).unwrap();
            let held = c.ledger.read().keys_held_by(g, |h| h == NodeId(1))[0];
            c.fail_node(NodeId(1)).unwrap();
            let before = c.coverage();
            let (mut store, _) = mendel_store::DurableStore::open(
                vfs.clone(),
                "node-1",
                mendel_store::StoreOptions::default(),
                StoreMetrics::detached(),
            )
            .unwrap();
            let seq = &db.get(held.seq).unwrap().residues;
            let mut window = seq[held.start as usize..][..k].to_vec();
            let key = match forge {
                "short key" => held.as_bytes()[..7].to_vec(),
                _ => {
                    window[0] = (window[0] + 1) % 20;
                    held.as_bytes().to_vec()
                }
            };
            let backing: Arc<[u8]> = Arc::from(window);
            store.put_block(&key, &backing, 0, k as u32).unwrap();
            store.sync().unwrap();
            drop(store);
            assert!(c.recover_node(NodeId(1)).is_err(), "{forge}");
            assert_eq!(c.failed_nodes(), vec![NodeId(1)], "{forge}");
            assert_eq!(c.coverage(), before, "{forge}");
            c.check_ledger().unwrap();
        }
    }

    #[test]
    fn inserted_sequences_get_ledger_slots_and_count_in_coverage() {
        let db = small_db();
        let c = small_cluster(&db);
        let (expected, bytes) = (c.coverage().blocks_expected, c.ledger_bytes());
        let extra = NrLikeSpec {
            families: 2,
            members_per_family: 2,
            length_range: (150, 200),
            seed: 0xFEED,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let len = c.config().block_len;
        let windows: usize = extra.iter().map(|s| s.len() + 1 - len).sum();
        c.insert_sequences(extra.iter().cloned().collect()).unwrap();
        assert_eq!(c.coverage().blocks_expected, expected + windows);
        assert!(c.ledger_bytes() >= bytes + 4 * windows);
        assert_eq!(c.placed_copies(), c.total_blocks());
        c.check_ledger().unwrap();
    }

    // ---- Durable backend ----------------------------------------------

    fn durable_config() -> ClusterConfig {
        ClusterConfig {
            storage: crate::config::StorageBackend::durable(),
            ..ClusterConfig::small_protein()
        }
    }

    #[test]
    fn durable_cluster_answers_like_memory_cluster() {
        let db = small_db();
        let mem = small_cluster(&db);
        let dur = MendelCluster::build(durable_config(), db.clone()).unwrap();
        assert_eq!(dur.total_blocks(), mem.total_blocks());
        let q = db.get(SeqId(3)).unwrap().residues.clone();
        let params = QueryParams::protein();
        assert_eq!(
            dur.query(&q, &params).unwrap().hits,
            mem.query(&q, &params).unwrap().hits,
        );
    }

    #[test]
    fn durable_fail_kills_ram_and_recover_replays_disk() {
        let db = small_db();
        let c = MendelCluster::build(durable_config(), db.clone()).unwrap();
        let q = db.get(SeqId(7)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let baseline = c.query(&q, &params).unwrap().hits;
        let total = c.total_blocks();

        // A durable fail is a process kill: the node's RAM really
        // empties (memory mode would keep it).
        let victim = NodeId(1);
        c.fail_node(victim).unwrap();
        assert!(c.slot(victim).read().block_count() == 0);
        assert!(c.total_blocks() < total);

        // Recovery replays the WAL from disk; nothing acknowledged is
        // lost and query answers are bit-identical to the uncrashed run.
        c.recover_node(victim).unwrap();
        assert_eq!(c.total_blocks(), total);
        assert_eq!(c.query(&q, &params).unwrap().hits, baseline);

        let snap = c.metrics_snapshot();
        assert!(snap.counter("mendel.store.wal_appends") > 0);
        assert!(snap.counter("mendel.store.replayed_records") > 0);
        assert_eq!(snap.counter("mendel.store.recoveries"), 1);
    }

    #[test]
    fn durable_incremental_ingest_survives_kill_and_recover() {
        let db = small_db();
        let c = MendelCluster::build(durable_config(), db.clone()).unwrap();
        let extra = NrLikeSpec {
            families: 2,
            members_per_family: 1,
            length_range: (90, 140),
            seed: 0xFEED,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let seqs: Vec<_> = extra.iter().cloned().collect();
        let ids = c.insert_sequences(seqs).unwrap();
        let q = c.db().get(ids[0]).unwrap().residues.clone();
        let params = QueryParams::protein();
        let baseline = c.query(&q, &params).unwrap().hits;
        assert!(baseline.iter().any(|h| h.subject == ids[0]));

        for n in 0..c.config().nodes {
            c.fail_node(NodeId(n as u16)).unwrap();
        }
        for n in 0..c.config().nodes {
            c.recover_node(NodeId(n as u16)).unwrap();
        }
        assert_eq!(c.query(&q, &params).unwrap().hits, baseline);
    }

    #[test]
    fn durable_flush_moves_wal_into_segments_and_still_recovers() {
        let db = small_db();
        let c = MendelCluster::build(durable_config(), db.clone()).unwrap();
        let q = db.get(SeqId(0)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let baseline = c.query(&q, &params).unwrap().hits;
        c.flush_storage().unwrap();
        c.sync_storage().unwrap();
        let total = c.total_blocks();
        c.fail_node(NodeId(2)).unwrap();
        c.recover_node(NodeId(2)).unwrap();
        assert_eq!(c.total_blocks(), total);
        assert_eq!(c.query(&q, &params).unwrap().hits, baseline);
    }

    #[test]
    fn memory_mode_has_no_vfs_and_keeps_ram_on_failure() {
        let db = small_db();
        let c = small_cluster(&db);
        assert!(c.storage_vfs().is_none());
        c.sync_storage().unwrap();
        c.flush_storage().unwrap();
        let total = c.total_blocks();
        c.fail_node(NodeId(1)).unwrap();
        // Memory mode: the failed node's in-process data never leaves.
        assert_eq!(c.total_blocks(), total);
        c.recover_node(NodeId(1)).unwrap();
        assert_eq!(c.total_blocks(), total);
    }

    #[test]
    fn joiner_whose_store_cannot_open_is_down_not_silently_ram_only() {
        let db = small_db();
        let twin = MendelCluster::build(durable_config(), db.clone()).unwrap();
        let twin_joiner = twin.add_node();
        // `k` VFS operations into add_node the disk dies: inside the
        // joiner's open at first, then under the re-placement's
        // persists. No crash point loses a block: every one stays
        // expected, and is reachable again once every node is back.
        let mut failed_to_open = 0;
        for k in (0..12).chain((12..4000).step_by(397)) {
            let vfs = MemVfs::plain(7);
            let c = MendelCluster::build_with_storage(
                durable_config(),
                db.clone(),
                Arc::new(MonotonicClock::new()),
                Some(Arc::new(vfs.clone())),
            )
            .unwrap();
            let blocks = c.coverage().blocks_expected;
            assert_eq!(blocks, 3825);
            vfs.set_crash_after(vfs.ops() + k);
            let id = c.add_node();
            assert_eq!(id, twin_joiner);
            if !vfs.is_crashed() {
                break; // `k` is past the end of add_node
            }
            assert_eq!(c.coverage().blocks_expected, blocks, "k = {k}");
            vfs.recover();
            c.check_ledger().unwrap();
            let failed = c.failed_nodes();
            // The disk died inside the joiner's open when the joiner is
            // down and nothing else moved.
            let before_rebalance = failed == vec![id] && c.coverage().blocks_reachable == blocks;
            assert!(!before_rebalance || c.coverage().blocks_expected == blocks);

            // A joiner that stayed live acknowledged only what is on
            // its disk: a restart brings all of it back.
            let held = c.slot(id).read().block_count();
            c.fail_node(id).unwrap();
            c.recover_node(id).unwrap();
            assert!(failed.contains(&id) || c.slot(id).read().block_count() == held);
            c.check_ledger().unwrap();

            // Nobody else was touched then, and bringing the joiner up
            // finishes the join.
            if before_rebalance {
                failed_to_open += 1;
                assert!(c.failed_nodes().is_empty(), "k = {k}");
                assert_eq!(c.coverage(), twin.coverage(), "k = {k}");
                assert_eq!(c.total_blocks(), twin.total_blocks(), "k = {k}");
                assert_eq!(
                    c.slot(id).read().block_count(),
                    twin.slot(id).read().block_count(),
                    "k = {k}"
                );
            }
            for n in c.failed_nodes() {
                c.recover_node(n).unwrap();
            }
            let back = c.coverage();
            assert_eq!(back.blocks_expected, blocks, "k = {k}");
            assert_eq!(back.blocks_reachable, blocks, "k = {k}");
            c.check_ledger().unwrap();
        }
        assert!(failed_to_open > 0, "no crash point hit the joiner's open");
    }

    #[test]
    fn durable_add_node_rebalances_onto_its_own_store() {
        let db = small_db();
        let c = MendelCluster::build(durable_config(), db.clone()).unwrap();
        let q = db.get(SeqId(4)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let baseline = c.query(&q, &params).unwrap().hits;
        let id = c.add_node();
        assert_eq!(c.query(&q, &params).unwrap().hits, baseline);
        // The joiner's blocks are durable: kill + recover round-trips.
        let total = c.total_blocks();
        c.fail_node(id).unwrap();
        c.recover_node(id).unwrap();
        assert_eq!(c.total_blocks(), total);
        assert_eq!(c.query(&q, &params).unwrap().hits, baseline);
    }

    /// A restart after a re-placement keeps what the ledger names: each
    /// earlier member of the re-placed group still has the records of
    /// its old share on disk, skips those the joiner took over, and comes
    /// back as the member of a twin that was never killed.
    #[test]
    fn durable_restart_after_a_rebalance_keeps_only_what_the_ledger_names() {
        let db = small_db();
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::plain(7));
        let c = MendelCluster::build_with_storage(
            durable_config(),
            db.clone(),
            Arc::new(MonotonicClock::new()),
            Some(vfs.clone()),
        )
        .unwrap();
        let twin = MendelCluster::build(durable_config(), db.clone()).unwrap();
        let joiner = c.add_node();
        assert_eq!(twin.add_node(), joiner);
        let topo = c.topology();
        let g = topo.node_group(joiner).unwrap();
        for &m in topo.group_members(g).iter().filter(|&&m| m != joiner) {
            c.fail_node(m).unwrap();
            let (store, _) = mendel_store::DurableStore::open(
                vfs.clone(),
                &format!("node-{}", m.0),
                mendel_store::StoreOptions::default(),
                StoreMetrics::detached(),
            )
            .unwrap();
            let records = store.scan().unwrap().len();
            drop(store);
            c.recover_node(m).unwrap();
            let held = c.slot(m).read().block_count();
            assert!(records > held, "node {m}: {records} records, {held} held");
            assert_eq!(held, twin.slot(m).read().block_count(), "node {m}");
        }
        assert!(c.failed_nodes().is_empty());
        assert_eq!(c.total_blocks(), twin.total_blocks());
        assert_eq!(c.coverage(), twin.coverage());
        let params = QueryParams::protein();
        for s in [0, 4, 7] {
            let q = db.get(SeqId(s)).unwrap().residues.clone();
            assert_eq!(
                c.query(&q, &params).unwrap().hits,
                twin.query(&q, &params).unwrap().hits,
                "query {s}"
            );
        }
        c.check_ledger().unwrap();
    }
}
