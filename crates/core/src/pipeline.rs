//! The one query pipeline (§V-B; DESIGN.md "The query pipeline"):
//! [`plan`] → an evaluator → [`Epilogue::finish`].
//!
//! `plan` owns validation, decomposition and vp-prefix routing; `finish`
//! owns the system-level merge, gapped extension, coverage, the per-query
//! counters and the slow-query log. Between them sits [`evaluate`]
//! (in-process, simulated LAN clock — behind `MendelCluster::{query,
//! query_from, query_batch}`) or [`crate::wire::query_via`] (real
//! messages over any `Transport`), so a query reports the same fan-out,
//! errors and observations whichever entry point answered it.

use crate::cluster::MendelCluster;
use crate::error::MendelError;
use crate::node::LocalSearchOutput;
use crate::params::QueryParams;
use crate::query::subquery_offsets;
use crate::report::{CoverageReport, MendelHit, QueryReport, QueryStats, StageTimings};
use mendel_align::hsp::merge_overlapping;
use mendel_align::Hsp;
use mendel_dht::{GroupId, NodeId};
use mendel_net::latency::parallel_max;
use mendel_obs::{CriticalHop, QueryObservation, SpanId, SpanRecord, TraceCollector, TraceId};
use mendel_seq::ScoringMatrix;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Estimated wire size of one anchor (subject id, two ranges, score).
const HSP_WIRE_BYTES: usize = 28;
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

/// What [`Epilogue::finish`] hands back to its evaluator.
pub(crate) struct Finished {
    /// Ranked alignments.
    pub(crate) hits: Vec<MendelHit>,
    /// Anchors surviving the system-level merge.
    pub(crate) anchors: usize,
    /// Real compute time of the merge + gapped extension + ranking.
    pub(crate) finalize: Duration,
}

/// Stage 5 and everything after it, shared by both evaluators.
pub(crate) struct Epilogue<'a> {
    cluster: &'a MendelCluster,
    params: &'a QueryParams,
    /// Block availability behind every answer finished through this.
    pub(crate) coverage: CoverageReport,
}

impl<'a> Epilogue<'a> {
    /// Reads coverage from the placement ledger once — O(groups), see
    /// [`MendelCluster::coverage_with_down`] — with `down` (plus the
    /// control plane's failed set) unreachable, for every query finished
    /// through this value: no query mutates placement, so within one
    /// evaluator call it is the report each would have seen.
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
    /// histogram and the slow-query log. `turnaround` maps the measured
    /// finalize time to the query's duration on the evaluator's clock
    /// (simulated stages so far + scaled finalize, or real elapsed).
    pub(crate) fn finish(
        &self,
        query: &[u8],
        plan: &QueryPlan,
        anchors: Vec<Hsp>,
        trace: Option<TraceId>,
        turnaround: impl FnOnce(Duration) -> Duration,
    ) -> Finished {
        let obs = self.cluster.metrics_registry();
        let clock = obs.clock();
        let t = clock.now();
        let merged = merge_overlapping(anchors);
        let anchors = merged.len();
        let hits = self
            .cluster
            .finalize(query, merged, self.params, &plan.matrix);
        let finalize = clock.now().saturating_sub(t);
        obs.counter("mendel.query.finalize_nanos")
            .add(finalize.as_nanos() as u64);

        let duration = turnaround(finalize);
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

/// One admitted query between stage 1 and its report.
struct Admitted {
    /// Held for the whole evaluation; dropping it releases the query's
    /// in-flight slot.
    _permit: mendel_sched::AdmissionPermit,
    plan: QueryPlan,
    /// One lane per planned group, in plan order.
    lanes: Vec<GroupLane>,
    decompose: Duration,
    trace: Option<TraceId>,
}

/// One group's share of a query's simulated timeline; the durations
/// stay zero for a group with no live member.
#[derive(Default)]
struct GroupLane {
    group: GroupId,
    /// Live members; the first is the group entry point.
    members: Vec<NodeId>,
    member_times: Vec<Duration>,
    replicate: Duration,
    merge: Duration,
    total: Duration,
}

/// Everything one storage node is asked in one call: `(query, offsets)`
/// requests and, aligned with them, the index of the query each serves.
type NodeRequests = (Vec<(Arc<[u8]>, Vec<usize>)>, Vec<usize>);

/// The in-process evaluator: every query of the call is admitted and
/// planned at `entry` (default: the first live node), each storage node
/// answers all of them as ONE scheduler job (`local_search_batch`: the
/// served path's `local_search_many`, once per query), and each query is
/// merged, finished
/// and timed on the simulated LAN clock (DESIGN.md §3). Per call, not
/// per query: each report's `metrics` delta, a node's scan time, and the
/// coverage report.
pub(crate) fn evaluate<Q: AsRef<[u8]>>(
    cluster: &MendelCluster,
    entry: Option<NodeId>,
    queries: &[Q],
    params: &QueryParams,
) -> Vec<Result<QueryReport, MendelError>> {
    let topo = cluster.topology();
    let entry = match cluster.resolve_entry(&topo, entry) {
        Ok(entry) => entry,
        Err(e) => return queries.iter().map(|_| Err(e.clone())).collect(),
    };
    let entry_speed = cluster.speed_of(&topo, entry);
    let latency = cluster.config().latency;
    let block_len = cluster.config().block_len;
    let obs = cluster.metrics_registry();
    let clock = obs.clock();
    let tracer = obs.tracer(entry.0 as u32);
    let before = obs.snapshot();

    // ---- Stage 1 per query, serially in query order: admission,
    // decomposition + routing at the entry node, the sampling decision.
    let mut admitted: Vec<Result<Admitted, MendelError>> = queries
        .iter()
        .map(|q| {
            let permit = cluster.scheduler().admit()?;
            let t = clock.now();
            let plan = plan(cluster, q.as_ref(), params)?;
            let decompose = entry_speed.scale(clock.now().saturating_sub(t));
            // Only a request that planned draws a sampling tick.
            let sampled = cluster.trace_query_sampled();
            let lane = |&group| GroupLane {
                group,
                members: cluster.live_members(&topo, group),
                ..GroupLane::default()
            };
            Ok(Admitted {
                _permit: permit,
                lanes: plan.groups.keys().map(lane).collect(),
                plan,
                decompose,
                trace: sampled.then(|| TraceId(tracer.next_id())),
            })
        })
        .collect();

    // ---- Stages 2–3: scatter. ONE scheduler job per storage node,
    // carrying every admitted query routed to it.
    let mut node_reqs: BTreeMap<NodeId, NodeRequests> = BTreeMap::new();
    for (qi, a) in admitted.iter().enumerate() {
        let Ok(a) = a else { continue };
        let query: Arc<[u8]> = Arc::from(queries[qi].as_ref());
        for (offs, lane) in a.plan.groups.values().zip(&a.lanes) {
            for &m in &lane.members {
                let (reqs, served) = node_reqs.entry(m).or_default();
                reqs.push((query.clone(), offs.clone()));
                served.push(qi);
            }
        }
    }
    // Params are per call, so every plan resolved the same matrix.
    let matrix = admitted.iter().flatten().map(|a| &a.plan.matrix).next();
    let nodes = cluster.node_handles();
    let mut handles = Vec::new();
    for (node, (reqs, served)) in node_reqs {
        let Some(matrix) = matrix.cloned() else { break };
        let node_arc = nodes[node.0 as usize].clone();
        let speed = cluster.speed_of(&topo, node);
        let (params, clock, obs) = (params.clone(), clock.clone(), obs.clone());
        let handle = cluster.scheduler().run(move || {
            let guard = node_arc.read();
            let t = clock.now();
            let outs = guard.local_search_batch(&reqs, block_len, &params, &matrix);
            let raw = clock.now().saturating_sub(t);
            obs.counter("mendel.query.local_search_nanos")
                .add(raw.as_nanos() as u64);
            (outs, speed.scale(raw))
        });
        handles.push((node, served, handle));
    }
    // A node belongs to one group and a query routes to a group at most
    // once, so (query, node) names one output.
    let mut member_out: HashMap<(usize, NodeId), (LocalSearchOutput, Duration)> = HashMap::new();
    for (node, served, handle) in handles {
        match handle.wait() {
            Some((outs, elapsed)) => {
                let outs = outs.into_iter().map(|o| (o, elapsed));
                member_out.extend(served.into_iter().map(|qi| (qi, node)).zip(outs));
            }
            // The job panicked; its queries cannot be answered
            // faithfully, so they error rather than silently drop this
            // node's anchors.
            None => served.into_iter().for_each(|qi| {
                admitted[qi] = Err(MendelError::Query("node search job panicked".into()));
            }),
        }
    }

    // ---- Stages 3–5 per query: group merge, gather, finish.
    let epilogue = Epilogue::new(cluster, params, &[]);
    let assemble = |(qi, a): (usize, Result<Admitted, MendelError>)| {
        let mut a = a?;
        let query = queries[qi].as_ref();
        let msg_bytes = query.len() + MSG_OVERHEAD_BYTES;
        let fanout = a.plan.groups.len();
        let mut stats = QueryStats {
            subqueries: a.plan.subqueries,
            groups_contacted: fanout,
            messages: fanout,
            bytes: msg_bytes * fanout,
            ..QueryStats::default()
        };
        let scatter = latency.fanout(msg_bytes, fanout);

        // Each group entry point replicates the query to its peers,
        // gathers their anchor sets (serialized on its downlink), merges,
        // and ships the result up.
        let mut anchors: Vec<Hsp> = Vec::new();
        let mut up_bytes = MSG_OVERHEAD_BYTES * fanout;
        for lane in &mut a.lanes {
            let Some(&gep) = lane.members.first() else {
                continue;
            };
            let peers = lane.members.len() - 1;
            lane.replicate = latency.fanout(msg_bytes, peers);
            let mut all: Vec<Hsp> = Vec::new();
            for &m in &lane.members {
                let (out, elapsed) = member_out.remove(&(qi, m)).unwrap_or_default();
                stats.candidates += out.candidates;
                all.extend(out.anchors);
                lane.member_times.push(elapsed);
            }
            let node_phase = parallel_max(lane.member_times.iter().copied());
            let anchor_bytes = all.len() * HSP_WIRE_BYTES + MSG_OVERHEAD_BYTES * peers;
            let gather_in = latency.transfer(anchor_bytes);
            stats.nodes_contacted += peers + 1;
            stats.messages += peers * 2;
            stats.bytes += msg_bytes * peers + anchor_bytes;
            let t = clock.now();
            let merged = merge_overlapping(all);
            let merge_raw = clock.now().saturating_sub(t);
            lane.merge = cluster.speed_of(&topo, gep).scale(merge_raw);
            lane.total = lane.replicate + node_phase + gather_in + lane.merge;
            up_bytes += merged.len() * HSP_WIRE_BYTES;
            anchors.extend(merged);
        }
        let group_phase = parallel_max(a.lanes.iter().map(|l| l.total));
        let gather = latency.transfer(up_bytes);
        stats.messages += fanout;
        stats.bytes += up_bytes;

        let so_far = a.decompose + scatter + group_phase + gather;
        let done = epilogue.finish(query, &a.plan, anchors, a.trace, |raw| {
            so_far + entry_speed.scale(raw)
        });
        stats.anchors = done.anchors;
        let timings = StageTimings {
            decompose: a.decompose,
            scatter,
            group_phase,
            gather,
            finalize: entry_speed.scale(done.finalize),
        };
        record_stage_timings(cluster, &timings);
        let mut report = QueryReport {
            hits: done.hits,
            timings,
            stats,
            coverage: epilogue.coverage.clone(),
            metrics: obs.snapshot().since(&before),
            trace: a.trace,
            critical_path: Vec::new(),
        };
        if let Some(trace) = a.trace {
            report.critical_path = assemble_trace(cluster, entry, trace, &report, &a.lanes);
        }
        Ok(report)
    };
    admitted.into_iter().enumerate().map(assemble).collect()
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

/// Assemble one sampled query's causal trace into the per-node flight
/// recorders and return its critical path. The spans sit on the query's
/// simulated timeline (base instant 0) and are minted serially after the
/// fan-out, so span ids — and hence the chrome export — are
/// deterministic for a fixed seed (DESIGN.md §12).
fn assemble_trace(
    cluster: &MendelCluster,
    entry: NodeId,
    trace: TraceId,
    report: &QueryReport,
    lanes: &[GroupLane],
) -> Vec<CriticalHop> {
    let (timings, stats) = (&report.timings, &report.stats);
    let obs = cluster.metrics_registry();
    let entry = entry.0 as u32;
    let tracer = obs.tracer(entry);
    let mut records: Vec<SpanRecord> = Vec::new();
    let mut span = |name: &str, parent, node, start, end, tags: &[(&str, String)]| {
        let span = SpanId(tracer.next_id());
        let tags = tags.iter().map(|(k, v)| (k.to_string(), v.clone()));
        records.push(SpanRecord {
            trace,
            span,
            parent,
            node,
            name: name.to_string(),
            start,
            end,
            tags: tags.collect(),
        });
        Some(span)
    };
    let scatter_at = timings.decompose;
    let groups_at = scatter_at + timings.scatter;
    let gather_at = groups_at + timings.group_phase;
    let finalize_at = gather_at + timings.gather;
    let total = timings.total();
    let tags = [
        ("groups", stats.groups_contacted.to_string()),
        ("subqueries", stats.subqueries.to_string()),
        ("hits", report.hits.len().to_string()),
    ];
    let root = span("query", None, entry, Duration::ZERO, total, &tags);
    span("decompose", root, entry, Duration::ZERO, scatter_at, &[]);
    span("scatter", root, entry, scatter_at, groups_at, &[]);
    for lane in lanes {
        let group_end = groups_at + lane.total;
        let name = format!("group/{}", lane.group.0);
        let Some(gep) = lane.members.first().map(|n| n.0 as u32) else {
            let dead = [("degraded", "no live members".to_string())];
            span(&name, root, entry, groups_at, group_end, &dead);
            continue;
        };
        let group = span(&name, root, gep, groups_at, group_end, &[]);
        let nodes_at = groups_at + lane.replicate;
        for (m, mt) in lane.members.iter().zip(&lane.member_times) {
            let name = format!("node/{}", m.0);
            span(&name, group, m.0 as u32, nodes_at, nodes_at + *mt, &[]);
        }
        span("merge", group, gep, group_end - lane.merge, group_end, &[]);
    }
    span("gather", root, entry, gather_at, finalize_at, &[]);
    span("finalize", root, entry, finalize_at, total, &[]);
    for r in &records {
        obs.tracer(r.node).record(r.clone());
    }
    critical_path(records, trace)
}

/// The critical path of `trace` through `records` (duplicates of a span,
/// as when node threads share the client's recorder, count once).
pub(crate) fn critical_path(
    records: impl IntoIterator<Item = SpanRecord>,
    trace: TraceId,
) -> Vec<CriticalHop> {
    let mut collector = TraceCollector::new();
    collector.ingest(records);
    collector.dedup();
    collector
        .tree(trace)
        .map(|t| t.critical_path())
        .unwrap_or_default()
}
