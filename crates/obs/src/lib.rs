//! # mendel-obs — from-scratch metrics and tracing
//!
//! Mendel's evaluation (§VI of the paper) is entirely about *measured*
//! behavior: throughput against BLAST, per-group load balance (Fig. 5),
//! fan-out counts when a query ball straddles a vp-prefix partition.
//! This crate is the observability substrate those measurements run on —
//! built from scratch on `std` atomics, with no external metrics
//! dependency.
//!
//! The pieces:
//!
//! - [`Counter`] / [`Gauge`]: lock-free `AtomicU64`/`AtomicI64` cells
//!   (`Ordering::Relaxed`, the workspace's established idiom for hot
//!   counters).
//! - [`Histogram`]: fixed-boundary with log-spaced buckets and lock-free
//!   `AtomicU64` cells.
//! - [`Registry`]: namespaced get-or-create handles (`mendel.vptree.*`,
//!   `mendel.net.*`, …) plus point-in-time [`MetricsSnapshot`]s with
//!   Prometheus-text and JSON exposition and counter-delta arithmetic.
//! - [`Clock`]: the injectable time source stage timings and trace
//!   spans read — [`MonotonicClock`] in production, [`VirtualClock`] in
//!   tests so chaos/latency tests stay deterministic. Instrumented crates must
//!   not call `Instant::now()` directly (enforced by clippy's
//!   `disallowed_methods` in their `clippy.toml`); they take time from
//!   the registry's clock.
//!
//! See `DESIGN.md` §11 for the metric namespace and the
//! injectable-clock rule.

pub mod clock;
pub mod histogram;
pub mod metric;
pub mod recorder;
pub mod registry;
pub mod slowlog;
pub mod snapshot;
pub mod trace;

pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use histogram::{Histogram, HistogramError};
pub use metric::{Counter, Gauge};
pub use recorder::FlightRecorder;
pub use registry::{Registry, ScopedRegistry};
pub use slowlog::{QueryObservation, SlowLogConfig, SlowLogEntry, SlowLogReason, SlowQueryLog};
pub use snapshot::{escape_json, HistogramSnapshot, MetricsSnapshot};
pub use trace::{
    chrome_trace_json, parse_records_text, render_records_text, ActiveSpan, CriticalHop, SpanId,
    SpanRecord, TraceCollector, TraceContext, TraceId, TraceNode, TraceTree, Tracer,
};
