//! The one query pipeline (§V-B; DESIGN.md §18): [`plan`] →
//! `wire::query_via` → [`Epilogue::finish`].
//!
//! `plan` owns validation, decomposition and vp-prefix routing; `finish`
//! owns the system-level merge, gapped extension, coverage, the per-query
//! counters and the slow-query log. Between them `query_via` scatters
//! the plan as messages and gathers each group's anchors with its
//! members' receipts, over inline delivery in process ([`report`], behind
//! `MendelCluster::{query, query_from}`) or over TCP (`mendel serve`).
//! [`report`] also charges the §3 LAN cost model from those receipts.

use crate::cluster::MendelCluster;
use crate::error::MendelError;
use crate::inline::InlineNet;
use crate::params::QueryParams;
use crate::query::subquery_offsets;
use crate::report::{CoverageReport, MendelHit, QueryReport, QueryStats, StageTimings};
use crate::serve::FRONT_END_ADDR_BASE;
use crate::wire::{query_via, Deadlines, Evaluated, WireTimeouts, HSP_WIRE_BYTES};
use mendel_align::hsp::merge_overlapping;
use mendel_align::Hsp;
use mendel_dht::{GroupId, NodeId, Topology};
use mendel_net::envelope::NodeAddr;
use mendel_net::latency::parallel_max;
use mendel_obs::{QueryObservation, TraceId};
use mendel_seq::{ScoringMatrix, SeqId, SeqStore};
use std::collections::BTreeMap;
use std::time::Duration;

/// Fixed per-message header overhead charged by the cost model.
const MSG_OVERHEAD_BYTES: usize = 64;

/// A validated, decomposed and routed query.
pub(crate) struct QueryPlan {
    /// The resolved Table I `M` parameter.
    pub(crate) matrix: ScoringMatrix,
    /// Subqueries produced by the sliding window.
    pub(crate) subqueries: usize,
    /// Subquery offsets per routed group, in group order.
    pub(crate) groups: BTreeMap<GroupId, Vec<usize>>,
}

/// The first residue code of `query` that is not a letter of the
/// cluster's alphabet. The distance kernels index tables by code and
/// panic on one with no row, so both trust boundaries — [`plan`] and the
/// serving node's request check — turn an unencoded or corrupt query away
/// with this.
pub(crate) fn foreign_code(cluster: &MendelCluster, query: &[u8]) -> Option<u8> {
    let letters = cluster.config().alphabet.size();
    query
        .iter()
        .copied()
        .find(|&code| usize::from(code) >= letters)
}

/// Stage 1 at the system entry point: validate (parameters, length,
/// residue codes), decompose into subqueries, and route every window
/// through the vp-prefix hash. Fails before any traffic or search work is
/// spent on a bad request.
pub(crate) fn plan(
    cluster: &MendelCluster,
    query: &[u8],
    params: &QueryParams,
) -> Result<QueryPlan, MendelError> {
    params.validate()?;
    let block_len = cluster.config().block_len;
    if query.len() < block_len {
        return Err(MendelError::Query(format!(
            "query ({} residues) is shorter than the block length ({block_len})",
            query.len()
        )));
    }
    if let Some(code) = foreign_code(cluster, query) {
        return Err(MendelError::Query(format!(
            "residue code {code} is outside the cluster's alphabet"
        )));
    }
    let matrix = cluster.resolve_matrix(&params.m)?;
    let offsets = subquery_offsets(query.len(), block_len, params.k);
    let mut groups: BTreeMap<GroupId, Vec<usize>> = BTreeMap::new();
    for &off in &offsets {
        for g in cluster.groups_of_window(&query[off..off + block_len], params.group_tolerance) {
            groups.entry(g).or_default().push(off);
        }
    }
    cluster
        .metrics_registry()
        .counter("mendel.query.fanout_groups")
        .add(groups.len() as u64);
    Ok(QueryPlan {
        matrix,
        subqueries: offsets.len(),
        groups,
    })
}

/// What [`Epilogue::finish`] hands back to `query_via`.
pub(crate) struct Finished {
    /// Ranked alignments.
    pub(crate) hits: Vec<MendelHit>,
    /// Anchors surviving the system-level merge.
    pub(crate) anchors: usize,
    /// Real compute time of the merge + gapped extension + ranking.
    pub(crate) finalize: Duration,
}

/// Stage 5 and everything after it.
pub(crate) struct Epilogue<'a> {
    cluster: &'a MendelCluster,
    params: &'a QueryParams,
    /// Block availability behind every answer finished through this.
    pub(crate) coverage: CoverageReport,
}

impl<'a> Epilogue<'a> {
    /// Reads coverage from the placement ledger — O(groups), see
    /// [`MendelCluster::coverage_with_down`] — with `down` (plus the
    /// control plane's failed set) unreachable.
    pub(crate) fn new(
        cluster: &'a MendelCluster,
        params: &'a QueryParams,
        down: &[NodeId],
    ) -> Self {
        Epilogue {
            cluster,
            params,
            coverage: cluster.coverage_with_down(down),
        }
    }

    /// System-level merge of the groups' anchors, gapped extension and
    /// ranking, then the per-query bookkeeping every entry point owes:
    /// `mendel.query.{count, degraded, finalize_nanos}`, the turnaround
    /// histogram and the slow-query log, both on the registry clock
    /// since `started`.
    ///
    /// Anchors come off the wire, so any whose range is empty or
    /// inverted, runs past the query, names no stored subject or runs
    /// past its subject is dropped first, into
    /// `mendel.wire.rejected_anchors`: no node sends one, and `finalize`
    /// would index out of bounds on it.
    pub(crate) fn finish(
        &self,
        query: &[u8],
        plan: &QueryPlan,
        mut anchors: Vec<Hsp>,
        trace: Option<TraceId>,
        started: Duration,
    ) -> Finished {
        let obs = self.cluster.metrics_registry();
        let clock = obs.clock();
        let t = clock.now();
        let db = self.cluster.db();
        let received = anchors.len();
        anchors.retain(|a| in_bounds(a, query, &db));
        obs.counter("mendel.wire.rejected_anchors")
            .add((received - anchors.len()) as u64);
        let merged = merge_overlapping(anchors);
        let anchors = merged.len();
        let hits = self
            .cluster
            .finalize(query, merged, self.params, &plan.matrix);
        let finalize = clock.now().saturating_sub(t);
        obs.counter("mendel.query.finalize_nanos")
            .add(finalize.as_nanos() as u64);

        let duration = clock.now().saturating_sub(started);
        obs.counter("mendel.query.count").inc();
        obs.histogram("mendel.query.turnaround.seconds")
            .record(duration.as_secs_f64());
        if self.coverage.degraded {
            // `mendel top` surfaces degraded-coverage queries from the
            // federated exposition; the slowlog keeps the details.
            obs.counter("mendel.query.degraded").inc();
        }
        self.cluster.slowlog().observe(QueryObservation {
            at: clock.now(),
            duration,
            trace,
            query_len: query.len(),
            hits: hits.len(),
            groups: plan.groups.len(),
            degraded: self.coverage.degraded,
        });
        Finished {
            hits,
            anchors,
            finalize,
        }
    }
}

/// Whether `a` is a non-empty stretch of `query` and of a subject
/// `db` stores — as every anchor a node sends is.
fn in_bounds(a: &Hsp, query: &[u8], db: &SeqStore) -> bool {
    let subject_len = db.get(SeqId(a.subject_id)).map_or(0, |s| s.len());
    let fits = |end: usize| end <= subject_len;
    a.query_start < a.query_end
        && a.query_end <= query.len()
        && a.subject_start.checked_add(a.len()).is_some_and(fits)
}

/// `MendelCluster::{query, query_from}`: resolve the entry node, run
/// `query_via` from its front-end over inline delivery, and report.
/// Inline delivery searches every node's slot here, so a cluster that
/// hosts one node is refused.
pub(crate) fn report(
    cluster: &MendelCluster,
    entry: Option<NodeId>,
    query: &[u8],
    params: &QueryParams,
) -> Result<QueryReport, MendelError> {
    cluster.require_every_node("an in-process query")?;
    let topo = cluster.topology();
    let entry = cluster.resolve_entry(&topo, entry)?;
    let obs = cluster.metrics_registry();
    let before = obs.snapshot();
    // The entry node's front-end, at the address `mendel serve` gives it.
    let front = NodeAddr(FRONT_END_ADDR_BASE.saturating_add(entry.0));
    // Nothing here misses a deadline, so nothing is ever suspected.
    let deadlines = Deadlines::new(cluster, WireTimeouts::default());
    let net = InlineNet::new(cluster, front, None, &deadlines);
    let evaluated = query_via(cluster, &net.port(front), query, params, &deadlines)?;
    let (timings, stats) = charge(cluster, &topo, entry, query.len(), &evaluated);
    record_stage_timings(cluster, &timings);
    let outcome = evaluated.outcome;
    Ok(QueryReport {
        hits: outcome.hits,
        timings,
        stats,
        coverage: outcome.coverage,
        metrics: obs.snapshot().since(&before),
        trace: outcome.trace,
        critical_path: outcome.critical_path,
    })
}

/// The §3 LAN cost model, charged once per query from what its messages
/// reported: the entry node's plan and finalize times, and per answering
/// group its members' receipts and its entry point's merge. Measured
/// times scale by the node's speed; each message costs 64 B of header
/// plus its payload (the query, or [`HSP_WIRE_BYTES`] per anchor); the
/// groups run in parallel, and within a group the entry point replicates
/// the query to its peers, waits for the slowest member, gathers their
/// anchor sets on its downlink, merges and ships the result up.
fn charge(
    cluster: &MendelCluster,
    topo: &Topology,
    entry: NodeId,
    query_len: usize,
    evaluated: &Evaluated,
) -> (StageTimings, QueryStats) {
    let latency = cluster.config().latency;
    let speed = |node| cluster.speed_of(topo, node);
    let msg_bytes = query_len + MSG_OVERHEAD_BYTES;
    let fanout = evaluated.fanout;
    let mut stats = QueryStats {
        subqueries: evaluated.subqueries,
        groups_contacted: fanout,
        anchors: evaluated.anchors,
        messages: fanout,
        bytes: msg_bytes * fanout,
        ..QueryStats::default()
    };
    let up_bytes = MSG_OVERHEAD_BYTES * fanout + evaluated.gathered * HSP_WIRE_BYTES;
    let mut lanes = Vec::with_capacity(evaluated.groups.len());
    for (entry, receipts, merge) in &evaluated.groups {
        let Some(peers) = receipts.len().checked_sub(1) else {
            continue;
        };
        let node_phase = parallel_max(receipts.iter().map(|r| speed(r.node).scale(r.compute)));
        let anchors: usize = receipts.iter().map(|r| r.anchors as usize).sum();
        stats.candidates += receipts.iter().map(|r| r.candidates).sum::<usize>();
        let anchor_bytes = anchors * HSP_WIRE_BYTES + MSG_OVERHEAD_BYTES * peers;
        stats.nodes_contacted += peers + 1;
        stats.messages += peers * 2;
        stats.bytes += msg_bytes * peers + anchor_bytes;
        lanes.push(
            latency.fanout(msg_bytes, peers)
                + node_phase
                + latency.transfer(anchor_bytes)
                + speed(*entry).scale(*merge),
        );
    }
    stats.messages += fanout;
    stats.bytes += up_bytes;
    let entry = speed(entry);
    let timings = StageTimings {
        decompose: entry.scale(evaluated.decompose),
        scatter: latency.fanout(msg_bytes, fanout),
        group_phase: parallel_max(lanes),
        gather: latency.transfer(up_bytes),
        finalize: entry.scale(evaluated.finalize),
    };
    (timings, stats)
}

/// Record one query's simulated stage durations into the
/// `mendel.query.stage.*.seconds` histograms, so Fig. 5-style numbers
/// can be re-derived from a metrics snapshot instead of ad-hoc prints.
fn record_stage_timings(cluster: &MendelCluster, t: &StageTimings) {
    let scope = cluster.metrics_registry().scoped("mendel.query.stage");
    for (name, d) in [
        ("decompose", t.decompose),
        ("scatter", t.scatter),
        ("group_phase", t.group_phase),
        ("gather", t.gather),
        ("finalize", t.finalize),
    ] {
        scope
            .histogram(&format!("{name}.seconds"))
            .record(d.as_secs_f64());
    }
}
