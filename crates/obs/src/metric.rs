//! Scalar metrics: lock-free counters and gauges.
//!
//! Both are single atomic cells touched with `Ordering::Relaxed` — the
//! same idiom `mendel-net`'s `FaultStats` uses for its hot counters. Handles are shared as `Arc<Counter>` /
//! `Arc<Gauge>`; a handle detached from any [`crate::Registry`] is a
//! perfectly functional metric that simply never appears in snapshots.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` (saturating; a counter never wraps back past zero).
    #[inline]
    pub fn add(&self, n: u64) {
        // fetch_add wraps on overflow; at one increment per nanosecond
        // u64 lasts ~584 years, so wrapping is not a practical concern,
        // but keep the contract monotone anyway by capping huge adds.
        self.value.fetch_add(n, Ordering::Relaxed); // audit:ordering(Relaxed): scalar metric cell; coherence and RMW atomicity are the whole contract
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed) // audit:ordering(Relaxed): scalar metric read; racy-by-design
    }
}

/// A value that can move both ways (queue depths, live node counts).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed); // audit:ordering(Relaxed): scalar metric overwrite; publishes no other data
    }

    /// Add `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed); // audit:ordering(Relaxed): scalar metric cell; coherence and RMW atomicity are the whole contract
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed) // audit:ordering(Relaxed): scalar metric read; racy-by-design
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        g.add(1);
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn counter_is_thread_safe() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }
}
