//! The metric registry: namespaced get-or-create handles and snapshots.
//!
//! A [`Registry`] is cheap to clone (an `Arc` around the table) and
//! hands out `Arc` handles, so instrumented structures hold their
//! counters directly and never touch the table on the hot path; the
//! lock guards only registration and snapshotting.

use crate::clock::{Clock, MonotonicClock};
use crate::histogram::Histogram;
use crate::metric::{Counter, Gauge};
use crate::recorder::FlightRecorder;
use crate::snapshot::MetricsSnapshot;
use crate::trace::{SpanRecord, Tracer};
use parking_lot::RwLock;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Default per-node flight-recorder capacity (spans retained).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

#[derive(Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Inner {
    metrics: RwLock<BTreeMap<String, Metric>>,
    clock: Arc<dyn Clock>,
    /// Shared trace/span id sequence: ids are unique across the whole
    /// registry and deterministic for a fixed call order (starts at 1 so
    /// 0 can mean "unset" on the wire).
    trace_ids: Arc<AtomicU64>,
    /// Per-node flight recorders, created on first `tracer()` call.
    recorders: RwLock<BTreeMap<u32, Arc<FlightRecorder>>>,
}

/// A shared, namespaced metric table with an injectable clock.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// A registry on the production monotonic clock.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A registry on an explicit clock (virtual in tests).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Registry {
            inner: Arc::new(Inner {
                metrics: RwLock::new(BTreeMap::new()),
                clock,
                trace_ids: Arc::new(AtomicU64::new(1)),
                recorders: RwLock::new(BTreeMap::new()),
            }),
        }
    }

    /// The registry's time source. Instrumented code takes "now" from
    /// here instead of `Instant::now()` (the injectable-clock rule).
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.inner.clock.clone()
    }

    /// Rebase the shared trace/span id counter to `max(current, base)`.
    ///
    /// In-process, one registry mints all ids and uniqueness is free.
    /// Across *processes* each registry counts independently, so two
    /// nodes would mint colliding span ids for the same trace; a
    /// `mendel serve` process therefore salts its id space with
    /// `(node + 1) << 48` before serving (DESIGN.md §17). Monotone
    /// (never lowers the counter), so late or repeated calls cannot
    /// reissue ids.
    pub fn seed_trace_ids(&self, base: u64) {
        let ids = &self.inner.trace_ids;
        // audit:ordering(Relaxed): fetch_max atomicity alone guarantees the counter never goes backwards; no other data is published
        ids.fetch_max(base, std::sync::atomic::Ordering::Relaxed);
    }

    /// Get or create the counter `name`. If the name is already taken
    /// by a different metric kind, a detached counter is returned (it
    /// works, but never appears in snapshots) — name kinds are stable
    /// by convention, see DESIGN.md §11.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.inner.metrics.write();
        match map.entry(name.to_string()) {
            Entry::Occupied(e) => match e.get() {
                Metric::Counter(c) => c.clone(),
                _ => Arc::new(Counter::new()),
            },
            Entry::Vacant(v) => {
                let c = Arc::new(Counter::new());
                v.insert(Metric::Counter(c.clone()));
                c
            }
        }
    }

    /// Get or create the gauge `name` (kind-mismatch behaves as for
    /// [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.inner.metrics.write();
        match map.entry(name.to_string()) {
            Entry::Occupied(e) => match e.get() {
                Metric::Gauge(g) => g.clone(),
                _ => Arc::new(Gauge::new()),
            },
            Entry::Vacant(v) => {
                let g = Arc::new(Gauge::new());
                v.insert(Metric::Gauge(g.clone()));
                g
            }
        }
    }

    /// Get or create the histogram `name` with the given constructor
    /// for first registration; an existing histogram keeps its original
    /// boundaries (names imply boundaries, by convention).
    pub fn histogram_with(&self, name: &str, make: impl FnOnce() -> Histogram) -> Arc<Histogram> {
        let mut map = self.inner.metrics.write();
        match map.entry(name.to_string()) {
            Entry::Occupied(e) => match e.get() {
                Metric::Histogram(h) => h.clone(),
                _ => Arc::new(make()),
            },
            Entry::Vacant(v) => {
                let h = Arc::new(make());
                v.insert(Metric::Histogram(h.clone()));
                h
            }
        }
    }

    /// Get or create the histogram `name` with the default span
    /// boundaries (1µs–100s, log-spaced).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, Histogram::span_seconds)
    }

    /// A tracer for `node`, minting ids from the registry-wide
    /// deterministic counter and recording into that node's flight
    /// recorder (created on first use, capacity
    /// [`DEFAULT_FLIGHT_CAPACITY`]). Tracers for the same node share a
    /// recorder.
    pub fn tracer(&self, node: u32) -> Tracer {
        let recorder = {
            let mut map = self.inner.recorders.write();
            map.entry(node)
                .or_insert_with(|| Arc::new(FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)))
                .clone()
        };
        Tracer::new(
            self.inner.clock.clone(),
            self.inner.trace_ids.clone(),
            recorder,
            node,
        )
    }

    /// Every node's flight recorder, by node id (ascending).
    pub fn flight_recorders(&self) -> Vec<(u32, Arc<FlightRecorder>)> {
        self.inner
            .recorders
            .read()
            .iter()
            .map(|(&node, r)| (node, r.clone()))
            .collect()
    }

    /// All retained span records across every node's flight recorder,
    /// in node order (each recorder oldest-first). Feed this to a
    /// [`crate::TraceCollector`].
    pub fn trace_records(&self) -> Vec<SpanRecord> {
        self.flight_recorders()
            .into_iter()
            .flat_map(|(_, r)| r.records())
            .collect()
    }

    /// A handle factory that prefixes every metric name with
    /// `<prefix>.`.
    pub fn scoped(&self, prefix: &str) -> ScopedRegistry {
        ScopedRegistry {
            registry: self.clone(),
            prefix: prefix.to_string(),
        }
    }

    /// A point-in-time view of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.inner.metrics.read();
        let mut out = MetricsSnapshot::default();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    out.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    out.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    out.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        out
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// A [`Registry`] view under a fixed namespace prefix.
#[derive(Debug, Clone)]
pub struct ScopedRegistry {
    registry: Registry,
    prefix: String,
}

impl ScopedRegistry {
    fn name(&self, name: &str) -> String {
        format!("{}.{name}", self.prefix)
    }

    /// Get or create `<prefix>.<name>` as a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(&self.name(name))
    }

    /// Get or create `<prefix>.<name>` as a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(&self.name(name))
    }

    /// Get or create `<prefix>.<name>` as a histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.histogram(&self.name(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use std::time::Duration;

    #[test]
    fn handles_are_shared_by_name() {
        let r = Registry::new();
        let a = r.counter("mendel.test.hits");
        let b = r.counter("mendel.test.hits");
        a.inc();
        b.add(2);
        assert_eq!(r.snapshot().counter("mendel.test.hits"), 3);
    }

    #[test]
    fn kind_mismatch_yields_detached_handle() {
        let r = Registry::new();
        r.counter("mendel.test.x").inc();
        let g = r.gauge("mendel.test.x");
        g.set(99);
        // The registered counter is untouched and the gauge is invisible.
        let snap = r.snapshot();
        assert_eq!(snap.counter("mendel.test.x"), 1);
        assert_eq!(snap.gauge("mendel.test.x"), 0);
    }

    #[test]
    fn scoped_registry_prefixes_names() {
        let r = Registry::new();
        let vptree = r.scoped("mendel.vptree");
        vptree.counter("dist_calls").add(7);
        assert_eq!(r.snapshot().counter("mendel.vptree.dist_calls"), 7);
    }

    #[test]
    fn tracers_share_ids_and_per_node_recorders() {
        let clock = Arc::new(VirtualClock::new());
        let r = Registry::with_clock(clock.clone());
        let t0 = r.tracer(0);
        let t3 = r.tracer(3);
        let root = t0.start_trace("query"); // ids 1 (trace), 2 (span)
        clock.advance(Duration::from_micros(10));
        let child = t3.child("group", root.context()); // id 3
        child.finish();
        root.finish();
        assert_eq!(t0.next_id(), 4, "counter is registry-wide");
        let recorders = r.flight_recorders();
        assert_eq!(
            recorders.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            vec![0, 3]
        );
        let records = r.trace_records();
        assert_eq!(records.len(), 2);
        // Same node → same recorder instance.
        assert_eq!(r.tracer(0).recorder().len(), 1);
    }

    #[test]
    fn seed_trace_ids_is_monotone() {
        let r = Registry::new();
        let t = r.tracer(0);
        assert_eq!(t.next_id(), 1);
        r.seed_trace_ids((3u64 << 48) | 1);
        assert_eq!(t.next_id(), (3u64 << 48) | 1, "counter jumped to the base");
        r.seed_trace_ids(5);
        assert_eq!(
            t.next_id(),
            (3u64 << 48) | 2,
            "a lower base never rewinds the counter"
        );
    }

    #[test]
    fn hostile_metric_names_render_as_valid_prometheus() {
        let r = Registry::new();
        r.counter("0day{evil=\"1\"}\ninjected 9").inc();
        r.gauge("héllo wörld").set(2);
        r.histogram("9.stage time").record(0.5);
        let text = r.snapshot().to_prometheus();
        for line in text.lines() {
            assert!(!line.is_empty());
            let name = if let Some(rest) = line.strip_prefix("# TYPE ") {
                rest.split_whitespace().next().expect("type line has name")
            } else {
                line.split(['{', ' ']).next().expect("sample line has name")
            };
            let mut chars = name.chars();
            let first = chars.next().expect("non-empty metric name");
            assert!(
                first.is_ascii_alphabetic() || first == '_' || first == ':',
                "bad leading char in {name:?}"
            );
            assert!(
                chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad char in {name:?}"
            );
        }
        assert!(text.contains("_0day_evil__1___injected_9 1"));
    }

    #[test]
    fn snapshot_since_isolates_one_interval() {
        let r = Registry::new();
        let c = r.counter("mendel.test.events");
        c.add(5);
        let before = r.snapshot();
        c.add(37);
        let delta = r.snapshot().since(&before);
        assert_eq!(delta.counter("mendel.test.events"), 37);
    }
}
