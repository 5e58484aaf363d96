//! The flight recorder: a bounded per-node ring of finished spans.
//!
//! Each node keeps the last `capacity` [`SpanRecord`]s it produced, so
//! when a chaos assertion fires the recent causal history is still on
//! hand (and dumpable) without unbounded memory growth. Overwritten
//! records are counted, never silently lost.

use crate::trace::SpanRecord;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// A bounded ring buffer of span records. Push is O(1); when full, the
/// oldest record is evicted and the `dropped` counter bumped.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<VecDeque<SpanRecord>>,
    dropped: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            inner: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append a record, evicting the oldest when full.
    pub fn push(&self, record: SpanRecord) {
        let mut ring = self.inner.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed); // audit:ordering(Relaxed): incremented under the ring mutex, which orders it with evictions; the racy read side needs only atomicity
        }
        ring.push_back(record);
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.inner.lock().iter().cloned().collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Records evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed) // audit:ordering(Relaxed): statistics read; may trail a concurrent eviction by design
    }

    /// Discard all retained records (eviction count is kept).
    pub fn clear(&self) {
        self.inner.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanId, TraceId};
    use std::time::Duration;

    fn record(n: u64) -> SpanRecord {
        SpanRecord {
            trace: TraceId(1),
            span: SpanId(n),
            parent: None,
            node: 0,
            name: format!("s{n}"),
            start: Duration::from_micros(n),
            end: Duration::from_micros(n + 1),
            tags: Vec::new(),
        }
    }

    #[test]
    fn retains_in_fifo_order() {
        let r = FlightRecorder::new(8);
        assert!(r.is_empty());
        for n in 0..3 {
            r.push(record(n));
        }
        let names: Vec<String> = r.records().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["s0", "s1", "s2"]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn evicts_oldest_when_full_and_counts_drops() {
        let r = FlightRecorder::new(4);
        for n in 0..10 {
            r.push(record(n));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let spans: Vec<u64> = r.records().into_iter().map(|s| s.span.0).collect();
        assert_eq!(spans, vec![6, 7, 8, 9]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let r = FlightRecorder::new(0);
        r.push(record(1));
        r.push(record(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.records()[0].span, SpanId(2));
    }

    #[test]
    fn clear_keeps_drop_count() {
        let r = FlightRecorder::new(2);
        for n in 0..5 {
            r.push(record(n));
        }
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 3);
    }
}
