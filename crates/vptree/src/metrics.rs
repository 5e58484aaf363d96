//! Search instrumentation for the vp-tree (`mendel.vptree.*`).
//!
//! Counting happens in two stages so the hot path stays cheap: the
//! traversal accumulates into a plain-integer `SearchTally` on the
//! stack, and each public search entry point flushes the tally into the
//! shared [`SearchMetrics`] atomics once — a handful of relaxed
//! `fetch_add`s per *query*, not per *distance call*. The overhead
//! budget (≤ 5% on a 50 k-point kNN workload) was measured in PR 4
//! (DESIGN.md §11.3).

use mendel_obs::{Counter, Registry};
use std::sync::Arc;

/// Shared counters for one tree (or one family of trees — handles may
/// be cloned across trees to aggregate, e.g. all trees on one storage
/// node). Default handles are *detached*: fully functional atomics that
/// simply belong to no registry.
#[derive(Debug, Clone, Default)]
pub struct SearchMetrics {
    /// Distance-kernel invocations (`dist` or `dist_bounded`), the
    /// paper's primary cost unit for similarity search.
    pub dist_calls: Arc<Counter>,
    /// `dist_bounded` early-abandons (`None` returns): calls whose
    /// running sum crossed the bound before finishing the window.
    pub early_abandons: Arc<Counter>,
    /// Tree vertices visited (internal + leaf).
    pub nodes_visited: Arc<Counter>,
    /// Leaf buckets scanned.
    pub leaf_scans: Arc<Counter>,
    /// k-NN searches that ended on their budget, not on the τ bound: a
    /// subtree within τ was still pending, or a leaf was cut short.
    pub budget_exhausted: Arc<Counter>,
}

impl SearchMetrics {
    /// Counters registered under `mendel.vptree.*` in `registry`.
    pub fn registered(registry: &Registry) -> Self {
        let scope = registry.scoped("mendel.vptree");
        SearchMetrics {
            dist_calls: scope.counter("dist_calls"),
            early_abandons: scope.counter("early_abandons"),
            nodes_visited: scope.counter("nodes_visited"),
            leaf_scans: scope.counter("leaf_scans"),
            budget_exhausted: scope.counter("budget_exhausted"),
        }
    }
}

/// Per-traversal accumulator: plain integers on the stack, flushed to
/// the shared atomics once per search.
#[derive(Debug, Default)]
pub(crate) struct SearchTally {
    pub dist_calls: u64,
    pub early_abandons: u64,
    pub nodes_visited: u64,
    pub leaf_scans: u64,
    pub budget_exhausted: u64,
}

impl SearchTally {
    #[inline]
    pub fn flush(&self, metrics: &SearchMetrics) {
        if self.dist_calls > 0 {
            metrics.dist_calls.add(self.dist_calls);
        }
        if self.early_abandons > 0 {
            metrics.early_abandons.add(self.early_abandons);
        }
        if self.nodes_visited > 0 {
            metrics.nodes_visited.add(self.nodes_visited);
        }
        if self.leaf_scans > 0 {
            metrics.leaf_scans.add(self.leaf_scans);
        }
        if self.budget_exhausted > 0 {
            metrics.budget_exhausted.add(self.budget_exhausted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_metrics_count_but_register_nothing() {
        let m = SearchMetrics::default();
        m.dist_calls.add(3);
        assert_eq!(m.dist_calls.get(), 3);
    }

    #[test]
    fn registered_metrics_appear_in_snapshots() {
        let r = Registry::new();
        let m = SearchMetrics::registered(&r);
        m.early_abandons.inc();
        assert_eq!(r.snapshot().counter("mendel.vptree.early_abandons"), 1);
    }

    #[test]
    fn tally_flush_accumulates() {
        let m = SearchMetrics::default();
        let tally = SearchTally {
            dist_calls: 10,
            early_abandons: 4,
            nodes_visited: 3,
            leaf_scans: 2,
            budget_exhausted: 1,
        };
        tally.flush(&m);
        tally.flush(&m);
        assert_eq!(m.dist_calls.get(), 20);
        assert_eq!(m.early_abandons.get(), 8);
        assert_eq!(m.nodes_visited.get(), 6);
        assert_eq!(m.leaf_scans.get(), 4);
        assert_eq!(m.budget_exhausted.get(), 2);
    }
}
