//! The Mendel cluster façade: two-tier indexing (§V-A), the distributed
//! query pipeline (§V-B) and the simulated cluster clock (DESIGN.md §3).
//!
//! The cluster is the control plane — topology, vp-prefix hash,
//! placement ledger, failed set — over a `Vec` of [`NodeSlot`]s, each of
//! which owns one node's RAM, disk and lifecycle ([`crate::node`]).
//! This module holds construction, routing, the query wrappers and
//! introspection; fault tolerance and elasticity (§VII-B) are in
//! [`ops`].

mod ops;

pub use ops::{FailoverDelta, RepairReport};

use crate::block::{make_blocks, Block};
use crate::config::{ClusterConfig, StorageBackend};
use crate::error::MendelError;
use crate::ledger::Ledger;
use crate::metric::BlockMetric;
use crate::node::{DbCell, NodeSlot, NodeStores};
use crate::params::QueryParams;
use crate::query::identity;
use crate::report::{MendelHit, QueryReport};
use mendel_align::hsp::bin_by_subject;
use mendel_align::karlin::solve_ungapped_background;
use mendel_align::{extend_gapped_banded, Hsp, KarlinParams};
use mendel_dht::{FlatPlacement, GroupId, LoadReport, NodeId, Topology};
use mendel_net::NodeSpeed;
use mendel_obs::{
    Clock, MetricsSnapshot, MonotonicClock, Registry, SlowLogConfig, SlowQueryLog, SpanRecord,
    TraceCollector, TraceId, TraceTree,
};
use mendel_sched::{SchedConfig, Scheduler};
use mendel_seq::{Alphabet, ScoringMatrix, SeqStore, Sequence};
use mendel_store::{MemVfs, StoreMetrics, Vfs};
use mendel_vptree::{GroupAssignment, SearchMetrics, VpPrefixTree};
use ops::FailureRecord;
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// At most this many anchors per subject enter the gapped stage (the
/// strongest first); bounds worst-case finalize cost on repetitive data.
const MAX_GAPPED_ANCHORS_PER_SUBJECT: usize = 16;

/// A running Mendel cluster over an indexed reference database.
pub struct MendelCluster {
    config: ClusterConfig,
    topology: RwLock<Topology>,
    prefix: VpPrefixTree<Vec<u8>, BlockMetric>,
    assignment: GroupAssignment,
    /// Every node ever joined, indexed by `NodeId`.
    nodes: RwLock<Vec<Arc<NodeSlot>>>,
    /// Who holds which block key (DESIGN.md §9): written by
    /// [`Self::admit`] and where a node's holdings are struck
    /// (replay, rebalance), read by coverage and repair. Taken last and
    /// held across no other acquisition.
    ledger: RwLock<Ledger>,
    failed: RwLock<HashMap<NodeId, FailureRecord>>,
    /// Per-group rebalance counters backing stale-recovery detection.
    group_epochs: RwLock<Vec<u64>>,
    /// Block copies created by [`Self::repair`] since cluster start.
    repair_moves: AtomicU64,
    /// Cluster-wide metric registry (`mendel.vptree.*`,
    /// `mendel.query.*`, …); also the cluster's time source — all
    /// wall-clock measurement goes through its injectable clock
    /// (DESIGN.md §11).
    obs: Registry,
    /// When set, every query assembles a causal trace of its simulated
    /// timeline into the registry's per-node flight recorders
    /// (DESIGN.md §12). Off by default: tracing costs a few span
    /// records per query.
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
    /// What opening a node's durable store takes; `None` in memory mode.
    storage: Option<Arc<NodeStores>>,
    /// Work-stealing query scheduler (DESIGN.md §15): admission control
    /// plus the worker pool every in-process query fans its node-local
    /// searches out on. Its `mendel.sched.*` counters live in [`Self::obs`].
    sched: Arc<Scheduler>,
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
        let started = clock.now();
        let corpus = db.clone();
        let mut cluster = Self::skeleton(config, db, clock.clone(), vfs)?;
        cluster.index_sequences(corpus.iter())?;
        cluster.index_elapsed = clock.now().saturating_sub(started);
        Ok(cluster)
    }

    /// Restore-path constructor ([`crate::snapshot`]): the skeleton
    /// alone, no data routed.
    pub(crate) fn build_empty(
        config: ClusterConfig,
        db: Arc<SeqStore>,
    ) -> Result<Self, MendelError> {
        Self::skeleton(config, db, Arc::new(MonotonicClock::new()), None)
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
            ledger: RwLock::new(Ledger::new(config.groups)),
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
            storage,
            sched: Arc::new(Scheduler::new(SchedConfig::default(), &obs)),
            obs,
            config,
        })
    }

    /// The one place a node slot is made (construction and
    /// [`Self::add_node`]): empty, wired to the cluster's shared
    /// `mendel.vptree.*` counters, its store not yet open.
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
            SearchMetrics::registered(obs),
            storage.clone(),
        ))
    }

    fn default_karlin(alphabet: Alphabet) -> KarlinParams {
        match alphabet {
            Alphabet::Protein => KarlinParams::BLOSUM62_GAPPED_11_1,
            Alphabet::Dna => solve_ungapped_background(&ScoringMatrix::dna(2, -3))
                .expect("+2/-3 is a valid scoring system"), // audit:allow(expect): +2/-3 has negative drift and positive max score, so the Karlin solver always converges
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
                if counter % stride == 0 {
                    out.push(s.residues[start..start + block_len].to_vec());
                }
                counter += 1;
            }
        }
        out
    }

    /// Phases 1–3 of indexing (§V-A) for `seqs`, which the reference
    /// store already holds: block creation, vp-prefix dispersion to
    /// groups, SHA-1 placement within groups, node-local vp-tree
    /// insertion. Reports the first node whose disk refused its batch.
    fn index_sequences<'a>(
        &self,
        seqs: impl Iterator<Item = &'a Sequence>,
    ) -> Result<(), MendelError> {
        let topo = self.topology.read();
        let blocks = seqs
            .flat_map(|s| make_blocks(s, self.config.block_len))
            .map(|b| (self.group_of_window(&b.window), b));
        let refused = self.route_and_place(&topo, blocks);
        drop(topo);
        self.assert_ledger("index_sequences");
        match refused.into_iter().next() {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// The one route-and-place: send each block to its replicas in its
    /// group under `topo` and hand every node its batch ([`Self::place`]),
    /// in node order. Replicas that land on failed nodes are skipped — a
    /// down node cannot accept writes — leaving those blocks
    /// under-replicated until [`Self::repair`] or the node's own
    /// stale-recovery rebalance. Returns the nodes whose disk refused
    /// their batch; what the caller does about them is its policy.
    fn route_and_place(
        &self,
        topo: &Topology,
        blocks: impl Iterator<Item = (GroupId, Block)>,
    ) -> Vec<(NodeId, MendelError)> {
        // Derived here from the one place the replication factor is kept.
        let placement = FlatPlacement::with_replication(self.config.replication);
        let mut batches: BTreeMap<NodeId, Vec<Block>> = BTreeMap::new();
        {
            let failed = self.failed.read();
            for (g, b) in blocks {
                for node in placement.replicas(topo, g, &b.key().as_bytes()) {
                    if !failed.contains_key(&node) {
                        batches.entry(node).or_default().push(b.clone());
                    }
                }
            }
        }
        let nodes = self.nodes.read();
        batches
            .into_iter()
            .filter_map(|(node, batch)| Some((node, self.place(topo, &nodes, node, batch).err()?)))
            .collect()
    }

    /// The one write path for block copies: give `node` a batch of
    /// blocks. Persist, then ledger, then RAM — the durable backend
    /// acknowledges a block only once its WAL record is on disk, so a
    /// copy that never became durable is never claimed by coverage or
    /// served from RAM.
    fn place(
        &self,
        topo: &Topology,
        nodes: &[Arc<NodeSlot>],
        node: NodeId,
        blocks: Vec<Block>,
    ) -> Result<(), MendelError> {
        let g = topo.node_group(node).ok_or(MendelError::NoSuchNode(node))?;
        let slot = &nodes[node.0 as usize];
        slot.persist(&blocks)?;
        self.admit(g, slot, blocks);
        Ok(())
    }

    /// [`Self::place`] without the persist: ledger, then RAM. Asked for
    /// by name where the blocks are already on the node's disk (replay
    /// after a restart); every other caller goes through `place`.
    fn admit(&self, g: GroupId, slot: &NodeSlot, blocks: Vec<Block>) {
        self.ledger
            .write()
            .place(g, slot.id(), blocks.iter().map(Block::key));
        slot.insert_blocks(blocks);
    }

    /// First-tier hash: window → vp-prefix bucket → group.
    fn group_of_window(&self, window: &[u8]) -> GroupId {
        let prefix = self.prefix.hash(&window.to_vec());
        GroupId(
            self.assignment
                .group_of_bucket(self.prefix.bucket_index(prefix)) as u16,
        )
    }

    /// All groups a subquery window routes to under tolerance τ (§V-B:
    /// "multiple groups can be selected ... if the path branches").
    pub(crate) fn groups_of_window(&self, window: &[u8], tolerance: f32) -> Vec<GroupId> {
        let mut groups: Vec<GroupId> = self
            .prefix
            .hash_with_tolerance(&window.to_vec(), tolerance)
            .into_iter()
            .map(|p| GroupId(self.assignment.group_of_bucket(self.prefix.bucket_index(p)) as u16))
            .collect();
        groups.sort_unstable();
        groups.dedup();
        groups
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
    /// node. A single query is a batch of one (DESIGN.md "The query
    /// pipeline"): it passes admission control and is shed with
    /// [`MendelError::Shed`] past the scheduler's `max_in_flight` bound.
    pub fn query(&self, query: &[u8], params: &QueryParams) -> Result<QueryReport, MendelError> {
        self.query_entry(None, query, params)
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
        self.query_entry(Some(entry), query, params)
    }

    fn query_entry(
        &self,
        entry: Option<NodeId>,
        query: &[u8],
        params: &QueryParams,
    ) -> Result<QueryReport, MendelError> {
        crate::pipeline::evaluate(self, entry, &[query], params)
            .pop()
            .expect("one report per query") // audit:allow(expect): evaluate returns exactly one result per input query
    }

    /// Evaluate many queries as ONE batch: each storage node scans its
    /// vp-tree once for every query routed to it, and per-query `hits`
    /// are bit-identical to [`Self::query`]. Admission control applies
    /// per query — a shed query errors, the rest of the batch proceeds.
    /// Each report's `metrics` delta, node scan times and coverage
    /// report cover the whole call.
    pub fn query_batch(
        &self,
        queries: &[Vec<u8>],
        params: &QueryParams,
    ) -> Vec<Result<QueryReport, MendelError>> {
        crate::pipeline::evaluate(self, None, queries, params)
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
        gauge("mendel.coverage.blocks_expected", coverage.blocks_expected);
        gauge(
            "mendel.coverage.blocks_reachable",
            coverage.blocks_reachable,
        );
        gauge("mendel.coverage.degraded", coverage.degraded as usize);
        self.obs.snapshot()
    }

    /// Enable or disable per-query causal tracing (DESIGN.md §12). Off
    /// by default; when on, each query assembles its simulated timeline
    /// into the registry's per-node flight recorders.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed); // audit:ordering(Relaxed): advisory flag store; publishes no data, readers tolerate either value
    }

    /// Whether queries currently record causal traces.
    pub fn tracing_enabled(&self) -> bool {
        self.tracing.load(Ordering::Relaxed) // audit:ordering(Relaxed): advisory flag read for introspection
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
        seq % every == 0
    }

    /// The structured slow-query log (DESIGN.md §17). Both query paths
    /// (simulated and wire) feed it; `mendel serve` dumps it at
    /// `/debug/slowlog`.
    pub fn slowlog(&self) -> &SlowQueryLog {
        &self.slowlog
    }

    /// Replace the slow-query log's admission policy.
    pub fn set_slowlog_config(&self, cfg: SlowLogConfig) {
        self.slowlog.set_config(cfg);
    }

    /// Every span currently held in the per-node flight recorders,
    /// merged across nodes (node order, unsorted within a node).
    pub fn trace_records(&self) -> Vec<SpanRecord> {
        self.obs.trace_records()
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
    /// filter by `E`, rank.
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
        for (subject_id, mut bin) in bin_by_subject(anchors) {
            let subject = match db.get(mendel_seq::SeqId(subject_id)) {
                Some(s) => &s.residues,
                None => continue,
            };
            bin.sort_unstable_by_key(|a| std::cmp::Reverse(a.score));
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
                if best.as_ref().map_or(true, |b| hit.score > b.score) {
                    best = Some(hit);
                }
            }
            if let Some(h) = best {
                if h.evalue <= params.e {
                    hits.push(h);
                }
            }
        }
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

    /// Total blocks stored cluster-wide (replicas counted).
    pub fn total_blocks(&self) -> usize {
        let topo = self.topology.read();
        let nodes = self.nodes.read();
        topo.nodes()
            .map(|n| nodes[n.0 as usize].read().block_count())
            .sum()
    }

    /// Wall-clock spent building + indexing.
    pub fn index_elapsed(&self) -> Duration {
        self.index_elapsed
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
    /// indexing pipeline for just their blocks. Node-local vp-trees take
    /// the batched §III-D insertion path. The vp-prefix hash function is
    /// *not* rebuilt — it was fixed at cluster construction, exactly so
    /// that placement stays stable under growth.
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
        let (ids, new_seqs) = {
            let mut guard = self.db.write();
            let mut extended = (**guard).clone();
            let ids = extended.insert_batch(seqs);
            let arc = Arc::new(extended);
            *guard = arc.clone();
            (
                ids.clone(),
                ids.into_iter()
                    .map(|id| arc.get(id).unwrap().clone()) // audit:allow(unwrap): insert_batch just added these ids to the arc being read
                    .collect::<Vec<_>>(),
            )
        };
        self.index_sequences(new_seqs.iter())?;
        Ok(ids)
    }

    /// Materialize the full alignment behind a reported hit: run
    /// Smith–Waterman with traceback over the hit's ranges (padded by
    /// the band width) and return the operations, ready for
    /// [`mendel_align::Alignment::pretty`]. Hits carry only endpoints and
    /// scores (that is all the wire ships); this reconstructs the rest
    /// on demand.
    pub fn align_hit(
        &self,
        query: &[u8],
        hit: &MendelHit,
        params: &QueryParams,
    ) -> Result<mendel_align::Alignment, MendelError> {
        let matrix = self.resolve_matrix(&params.m)?;
        let db = self.db.read().clone();
        let subject = &db
            .get(hit.subject)
            .ok_or(MendelError::Query(format!(
                "unknown subject {}",
                hit.subject
            )))?
            .residues;
        let pad = params.l;
        let qs = hit.query_start.saturating_sub(pad);
        let qe = (hit.query_end + pad).min(query.len());
        let ss = hit.subject_start.saturating_sub(pad);
        let se = (hit.subject_end + pad).min(subject.len());
        let mut aln =
            mendel_align::smith_waterman(&query[qs..qe], &subject[ss..se], &matrix, params.gaps)
                .ok_or(MendelError::Query("hit region does not align".into()))?;
        // Re-anchor the local coordinates to the full sequences.
        aln.query_start += qs;
        aln.query_end += qs;
        aln.subject_start += ss;
        aln.subject_end += ss;
        Ok(aln)
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

    /// The cluster's work-stealing query scheduler (admission bound,
    /// queue-depth/steal/shed counters).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// Replace the query scheduler (worker count, admission bound). The
    /// old pool drains and joins; counters keep accumulating in the
    /// cluster registry.
    pub fn with_scheduler(mut self, config: SchedConfig) -> Self {
        self.sched = Arc::new(Scheduler::new(config, &self.obs));
        self
    }

    /// The cluster's Karlin–Altschul statistics.
    pub fn karlin(&self) -> KarlinParams {
        self.karlin
    }

    /// Run a node-local search directly against one node's state (the
    /// wire-mode data plane; see [`crate::wire`]).
    pub(crate) fn node_local_search(
        &self,
        node: NodeId,
        query: &[u8],
        offsets: &[usize],
        params: &QueryParams,
        matrix: &ScoringMatrix,
    ) -> Vec<Hsp> {
        let nodes = self.nodes.read();
        match nodes.get(node.0 as usize) {
            Some(n) => {
                n.read()
                    .local_search_many(query, offsets, self.config.block_len, params, matrix)
                    .anchors
            }
            None => Vec::new(),
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

    /// All blocks currently held by `node` (snapshot path).
    pub(crate) fn node_blocks(&self, node: NodeId) -> Vec<Block> {
        self.slot(node).read().blocks()
    }

    /// Restore-path helper: bulk-load pre-routed blocks directly onto a
    /// node, bypassing the hash pipeline (see [`crate::snapshot`]).
    pub(crate) fn load_node_blocks(
        &self,
        node: NodeId,
        blocks: Vec<Block>,
    ) -> Result<(), MendelError> {
        let topo = self.topology.read();
        self.place(&topo, &self.nodes.read(), node, blocks)?;
        drop(topo);
        self.assert_ledger("load_node_blocks");
        Ok(())
    }

    // ---- Durable storage (ROADMAP item 2) -----------------------------

    /// The injectable VFS the durable stores run on; `None` in memory
    /// mode. Tests use this to crash the disk under a running cluster.
    pub fn storage_vfs(&self) -> Option<Arc<dyn Vfs>> {
        self.storage.as_ref().map(|s| s.vfs.clone())
    }

    /// Fsync every live node's WAL. After this returns `Ok`, every block
    /// ingested so far survives any crash regardless of the configured
    /// fsync policy. No-op in memory mode.
    pub fn sync_storage(&self) -> Result<(), MendelError> {
        self.node_handles().iter().try_for_each(|n| n.sync())
    }

    /// Flush every live node's memtable into an immutable sorted
    /// segment (WAL is truncated once the segment and manifest are
    /// durable). No-op in memory mode.
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
    fn query_batch_matches_the_per_window_wire_search() {
        let db = small_db();
        let c = Arc::new(small_cluster(&db));
        // The other evaluator: the same node search, reached over encoded
        // messages instead of one scheduler job per node.
        let wire = crate::wire::WireCluster::serve(c.clone());
        let params = QueryParams::protein();
        let queries: Vec<Vec<u8>> = (0..6)
            .map(|i| db.get(SeqId(i * 3)).unwrap().residues.clone())
            .collect();
        let batch = c.query_batch(&queries, &params);
        assert_eq!(batch.len(), queries.len());
        for (q, r) in queries.iter().zip(&batch) {
            let r = r.as_ref().unwrap();
            assert_eq!(r.hits, wire.query(q, &params).unwrap(), "batched vs wire");
            // Batch mates leak nothing into each other's accounting.
            let alone = c.query(q, &params).unwrap();
            assert_eq!(r.stats.subqueries, alone.stats.subqueries);
            assert_eq!(r.stats.groups_contacted, alone.stats.groups_contacted);
            assert_eq!(r.stats.candidates, alone.stats.candidates);
            assert_eq!(r.stats.anchors, alone.stats.anchors);
        }
    }

    #[test]
    fn query_batch_sheds_past_admission_bound() {
        let db = small_db();
        let c = small_cluster(&db).with_scheduler(mendel_sched::SchedConfig {
            workers: 2,
            max_in_flight: 2,
        });
        let q = db.get(SeqId(1)).unwrap().residues.clone();
        let queries = vec![q.clone(), q.clone(), q.clone(), q];
        let results = c.query_batch(&queries, &QueryParams::protein());
        assert!(results[0].is_ok() && results[1].is_ok());
        for r in &results[2..] {
            assert!(
                matches!(r, Err(MendelError::Shed { limit: 2, .. })),
                "past the bound queries shed, got {r:?}"
            );
        }
        let snap = c.metrics_snapshot();
        assert_eq!(snap.counter("mendel.sched.shed"), 2);
        // Permits released: a follow-up batch is admitted again.
        let again = c.query_batch(&queries[..1], &QueryParams::protein());
        assert!(again[0].is_ok());
    }

    #[test]
    fn query_batch_rejects_short_query_but_serves_rest() {
        let db = small_db();
        let c = small_cluster(&db);
        let good = db.get(SeqId(2)).unwrap().residues.clone();
        let results = c.query_batch(&[vec![0u8; 4], good.clone()], &QueryParams::protein());
        assert!(matches!(&results[0], Err(MendelError::Query(_))));
        assert_eq!(
            results[1].as_ref().unwrap().hits,
            c.query(&good, &QueryParams::protein()).unwrap().hits
        );
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
        // Arena accounting: 8 bytes of provenance per block plus each
        // sequence's residues charged once per holding node — strictly
        // below the materialized-era blocks × (k + 8).
        let total = report.total() as usize;
        assert!(
            total > c.total_blocks() * 8,
            "total {total} must include arena bytes"
        );
        assert!(
            total < c.total_blocks() * (16 + 8),
            "total {total} must undercut materialized windows"
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
        // node 0 does not take `query()` and `query_batch()` down with it.
        let after = c.query(&q, &params).unwrap();
        assert_eq!(
            after.best().unwrap().subject,
            before.best().unwrap().subject,
            "replication must mask the failures"
        );
        assert!(!after.coverage.degraded, "every block is still reachable");
        let batch = c.query_batch(std::slice::from_ref(&q), &params);
        assert_eq!(batch[0].as_ref().unwrap().hits, after.hits);
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

    #[test]
    fn dna_cluster_end_to_end() {
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
        let db = Arc::new(st);
        let c = MendelCluster::build(ClusterConfig::small_dna(), db.clone()).unwrap();
        let q = db.get(SeqId(3)).unwrap().residues[50..250].to_vec();
        let r = c.query(&q, &QueryParams::dna()).unwrap();
        assert_eq!(r.best().unwrap().subject, SeqId(3));
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
    fn align_hit_reconstructs_a_consistent_alignment() {
        let db = small_db();
        let c = small_cluster(&db);
        let params = QueryParams::protein();
        let qs = QuerySetSpec {
            count: 3,
            length: 120,
            identity: 0.85,
            seed: 8,
        }
        .generate(&db)
        .unwrap();
        for q in &qs {
            let report = c.query(&q.query.residues, &params).unwrap();
            let hit = report.best().expect("85% query hits");
            let aln = c.align_hit(&q.query.residues, hit, &params).unwrap();
            assert!(aln.is_consistent());
            assert!(
                aln.score >= hit.score,
                "traceback SW can only refine upward"
            );
            let subject = &db.get(hit.subject).unwrap().residues;
            let id = aln.identity(&q.query.residues, subject);
            assert!(id > 0.7, "identity {id} too low for an 85% query");
            // The rendered view is well-formed (three equal-length lines).
            let pretty = aln.pretty(Alphabet::Protein, &q.query.residues, subject);
            let lines: Vec<&str> = pretty.lines().collect();
            assert_eq!(lines.len(), 3);
            assert_eq!(lines[0].len(), lines[2].len());
        }
        // Unknown subject errors.
        let bogus = MendelHit {
            subject: SeqId(9999),
            ..report_hit(&c, &db)
        };
        assert!(c.align_hit(&qs[0].query.residues, &bogus, &params).is_err());
    }

    fn report_hit(c: &MendelCluster, db: &Arc<SeqStore>) -> MendelHit {
        let q = db.get(SeqId(0)).unwrap().residues.clone();
        c.query(&q, &QueryParams::protein()).unwrap().hits[0].clone()
    }

    #[test]
    fn explain_mentions_every_stage() {
        let db = small_db();
        let c = small_cluster(&db);
        let q = db.get(SeqId(1)).unwrap().residues.clone();
        let r = c.query(&q, &QueryParams::protein()).unwrap();
        let text = r.explain();
        for needle in [
            "decompose",
            "scatter",
            "group phase",
            "gather",
            "finalize",
            "messages",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
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
        assert!(c.tracing_enabled());
        let r = c.query(&q, &QueryParams::protein()).unwrap();
        let trace = r.trace.expect("traced query reports its trace id");
        let tree = c
            .trace_tree(trace)
            .expect("tree reassembles from recorders");

        // Root spans the whole simulated turnaround and carries the
        // pipeline stages plus one span per contacted group.
        assert_eq!(tree.root.record.name, "query");
        assert_eq!(tree.root.record.duration(), r.timings.total());
        let child_names: Vec<&str> = tree
            .root
            .children
            .iter()
            .map(|n| n.record.name.as_str())
            .collect();
        for stage in ["decompose", "scatter", "gather", "finalize"] {
            assert!(child_names.contains(&stage), "missing stage {stage}");
        }
        let groups = child_names
            .iter()
            .filter(|n| n.starts_with("group/"))
            .count();
        assert_eq!(groups, r.stats.groups_contacted);

        // The critical path starts at the root and never gains time as
        // it descends.
        assert_eq!(r.critical_path, tree.critical_path());
        assert_eq!(r.critical_path[0].name, "query");
        assert_eq!(r.critical_path[0].duration, r.timings.total());
        for pair in r.critical_path.windows(2) {
            assert!(pair[1].duration <= pair[0].duration);
        }
        assert!(r.explain().contains("critical path: query"));

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
        assert!(c.node_blocks(victim).is_empty());
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
        // joiner's open at first, then inside the members'
        // wipe-and-reopen, then under the re-placement's persists.
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
            vfs.set_crash_after(vfs.ops() + k);
            let id = c.add_node();
            assert_eq!(id, twin_joiner);
            if !vfs.is_crashed() {
                break; // `k` is past the end of add_node
            }
            vfs.recover();
            c.check_ledger().unwrap();
            let failed = c.failed_nodes();
            // The disk died inside the joiner's open when the joiner is
            // down and nothing else moved.
            let before_rebalance = failed == vec![id] && c.coverage().blocks_reachable == blocks;
            assert!(!before_rebalance || c.coverage().blocks_expected == blocks);

            // A joiner that stayed live acknowledged only what is on
            // its disk: a restart brings all of it back.
            let held = c.node_blocks(id).len();
            c.fail_node(id).unwrap();
            c.recover_node(id).unwrap();
            assert!(failed.contains(&id) || c.node_blocks(id).len() == held);
            c.check_ledger().unwrap();

            // Nobody else was touched then, and bringing the joiner up
            // finishes the join.
            if before_rebalance {
                failed_to_open += 1;
                assert!(c.failed_nodes().is_empty(), "k = {k}");
                assert_eq!(c.coverage(), twin.coverage(), "k = {k}");
                assert_eq!(c.total_blocks(), twin.total_blocks(), "k = {k}");
                assert_eq!(
                    c.node_blocks(id).len(),
                    twin.node_blocks(id).len(),
                    "k = {k}"
                );
            }
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
}
