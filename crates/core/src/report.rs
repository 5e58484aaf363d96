//! Query results and the simulated-clock report.

use mendel_dht::GroupId;
use mendel_obs::{CriticalHop, MetricsSnapshot, TraceId};
use mendel_seq::SeqId;
use std::time::Duration;

/// One reported alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct MendelHit {
    /// Subject (reference) sequence.
    pub subject: SeqId,
    /// Final raw score (gapped where a gapped extension was attempted).
    pub score: i32,
    /// Bit score under the cluster's Karlin–Altschul parameters.
    pub bits: f64,
    /// Expectation value against the indexed database.
    pub evalue: f64,
    /// Query range of the reported alignment.
    pub query_start: usize,
    /// Exclusive query end.
    pub query_end: usize,
    /// Subject range of the reported alignment.
    pub subject_start: usize,
    /// Exclusive subject end.
    pub subject_end: usize,
    /// Percent identity over the seeding anchor.
    pub identity: f32,
}

/// Simulated wall-clock of each pipeline stage (§V-B's stages, timed
/// under the DESIGN.md cluster-clock model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimings {
    /// Query decomposition + vp-prefix hashing at the system entry point.
    pub decompose: Duration,
    /// Entry point → group entry points (network).
    pub scatter: Duration,
    /// Slowest group: replication to members, node-local NNS with
    /// filtering and anchor extension, gather to the group entry point,
    /// group-level merge.
    pub group_phase: Duration,
    /// Group entry points → system entry point (network).
    pub gather: Duration,
    /// System-level merge, gapped extension, scoring, ranking.
    pub finalize: Duration,
}

impl StageTimings {
    /// End-to-end simulated turnaround.
    pub fn total(&self) -> Duration {
        self.decompose + self.scatter + self.group_phase + self.gather + self.finalize
    }
}

/// Work counters for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Subqueries produced by the sliding window.
    pub subqueries: usize,
    /// Groups the query fanned out to.
    pub groups_contacted: usize,
    /// Storage nodes that evaluated at least one subquery.
    pub nodes_contacted: usize,
    /// k-NN candidates inspected before filtering.
    pub candidates: usize,
    /// Anchors surviving identity/c-score filtering and extension.
    pub anchors: usize,
    /// Simulated network messages.
    pub messages: usize,
    /// Simulated network payload bytes.
    pub bytes: usize,
}

/// Availability of one group's placed blocks at query time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupCoverage {
    /// The group.
    pub group: GroupId,
    /// Distinct block keys placed in the group (live or not).
    pub expected: usize,
    /// Distinct block keys reachable on at least one live member.
    pub reachable: usize,
    /// Members currently serving queries.
    pub live_members: usize,
}

/// How much of the placed data a query could actually see. With enough
/// replication a failed node leaves coverage at 100%; when every replica
/// of some block is down, `degraded` flags that hits may be incomplete.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoverageReport {
    /// Distinct block keys placed cluster-wide.
    pub blocks_expected: usize,
    /// Distinct block keys reachable on live nodes.
    pub blocks_reachable: usize,
    /// Per-group availability, in group order.
    pub per_group: Vec<GroupCoverage>,
    /// True when any placed block has no live replica — results are
    /// best-effort, not complete.
    pub degraded: bool,
}

impl CoverageReport {
    /// The cluster-wide report over per-group availability.
    pub(crate) fn of(per_group: Vec<GroupCoverage>) -> Self {
        let blocks_expected = per_group.iter().map(|g| g.expected).sum();
        let blocks_reachable = per_group.iter().map(|g| g.reachable).sum();
        CoverageReport {
            blocks_expected,
            blocks_reachable,
            per_group,
            degraded: blocks_reachable < blocks_expected,
        }
    }
}

/// Everything a query returns: ranked hits, the simulated turnaround,
/// work counters, and the data coverage behind the answer.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// Ranked alignments (ascending E-value).
    pub hits: Vec<MendelHit>,
    /// Per-stage simulated timings.
    pub timings: StageTimings,
    /// Work counters.
    pub stats: QueryStats,
    /// Block availability at evaluation time; check
    /// `coverage.degraded` to distinguish a complete answer from a
    /// best-effort one.
    pub coverage: CoverageReport,
    /// Delta of the cluster's metric registry across this query:
    /// distance calls, early abandons, fan-out, per-stage timing
    /// histograms (DESIGN.md §11). Under concurrent queries the delta
    /// attributes *all* cluster activity in the interval, so per-query
    /// exactness holds only for serial evaluation.
    pub metrics: MetricsSnapshot,
    /// The causal trace this query recorded, when tracing was enabled
    /// (`MendelCluster::set_tracing`); look it up via
    /// `MendelCluster::trace_tree` / `chrome_trace`.
    pub trace: Option<TraceId>,
    /// The trace's critical path — the chain of spans that bounded the
    /// turnaround, root first (DESIGN.md §12). Empty when tracing was
    /// off.
    pub critical_path: Vec<CriticalHop>,
}

impl QueryReport {
    /// End-to-end simulated turnaround.
    pub fn turnaround(&self) -> Duration {
        self.timings.total()
    }

    /// The best hit, if any.
    pub fn best(&self) -> Option<&MendelHit> {
        self.hits.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_total_sums_components() {
        let t = StageTimings {
            decompose: Duration::from_millis(1),
            scatter: Duration::from_millis(2),
            group_phase: Duration::from_millis(3),
            gather: Duration::from_millis(4),
            finalize: Duration::from_millis(5),
        };
        assert_eq!(t.total(), Duration::from_millis(15));
    }

    #[test]
    fn report_accessors() {
        let hit = MendelHit {
            subject: SeqId(1),
            score: 10,
            bits: 5.0,
            evalue: 0.1,
            query_start: 0,
            query_end: 4,
            subject_start: 0,
            subject_end: 4,
            identity: 1.0,
        };
        let r = QueryReport {
            hits: vec![hit.clone()],
            timings: StageTimings::default(),
            stats: QueryStats::default(),
            coverage: CoverageReport::default(),
            metrics: MetricsSnapshot::default(),
            trace: None,
            critical_path: Vec::new(),
        };
        assert_eq!(r.best(), Some(&hit));
        assert_eq!(r.turnaround(), Duration::ZERO);
    }
}
