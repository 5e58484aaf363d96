//! Fixed-boundary histograms with lock-free cells.
//!
//! Boundaries are chosen once at construction (typically log-spaced —
//! latency and distance-count distributions are heavy-tailed) and never
//! change, so recording is a binary search plus one relaxed atomic
//! increment: safe to leave in hot paths. Readers take a
//! [`HistogramSnapshot`] of the cells.

use crate::snapshot::HistogramSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram construction failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistogramError {
    /// Boundaries must be finite and strictly increasing, with at least
    /// one entry.
    BadBounds(String),
}

impl std::fmt::Display for HistogramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistogramError::BadBounds(why) => write!(f, "bad histogram bounds: {why}"),
        }
    }
}

impl std::error::Error for HistogramError {}

/// A fixed-boundary histogram. Bucket `i` counts samples `v` with
/// `bounds[i-1] < v <= bounds[i]`; one extra overflow bucket counts
/// everything above the last boundary. NaN samples are ignored.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` cells; the last is the overflow bucket.
    cells: Vec<AtomicU64>,
    /// Running sum of recorded samples, stored as f64 bits.
    sum_bits: AtomicU64,
}

impl Histogram {
    /// A histogram over explicit boundaries (finite, strictly
    /// increasing, non-empty).
    pub fn with_bounds(bounds: Vec<f64>) -> Result<Self, HistogramError> {
        if bounds.is_empty() {
            return Err(HistogramError::BadBounds("no boundaries".into()));
        }
        for w in bounds.windows(2) {
            if w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Less) {
                return Err(HistogramError::BadBounds(format!(
                    "not strictly increasing at {} -> {}",
                    w[0], w[1]
                )));
            }
        }
        if bounds.iter().any(|b| !b.is_finite()) {
            return Err(HistogramError::BadBounds("non-finite boundary".into()));
        }
        let cells = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Ok(Histogram {
            bounds,
            cells,
            sum_bits: AtomicU64::new(0f64.to_bits()),
        })
    }

    /// `buckets` log-spaced boundaries from `min` to `max` inclusive
    /// (`min > 0`, `max > min`, `buckets >= 2`): boundary `i` is
    /// `min · (max/min)^(i/(buckets−1))`.
    pub fn log_spaced(min: f64, max: f64, buckets: usize) -> Result<Self, HistogramError> {
        if !(min > 0.0 && min.is_finite() && max > min && max.is_finite()) {
            return Err(HistogramError::BadBounds(format!(
                "log spacing needs 0 < min < max, got {min}..{max}"
            )));
        }
        if buckets < 2 {
            return Err(HistogramError::BadBounds(
                "log spacing needs at least 2 buckets".into(),
            ));
        }
        let ratio = max / min;
        let mut bounds: Vec<f64> = (0..buckets)
            .map(|i| min * ratio.powf(i as f64 / (buckets - 1) as f64))
            .collect();
        // powf rounding can land the last boundary a hair under max;
        // pin the endpoints exactly.
        bounds[0] = min;
        bounds[buckets - 1] = max;
        Self::with_bounds(bounds)
    }

    /// The default span histogram: 1µs to 100s in seconds, 36 log-spaced
    /// boundaries (~4.4 per decade).
    #[expect(clippy::expect_used, reason = "constant arguments proven valid above")]
    pub fn span_seconds() -> Self {
        Self::log_spaced(1e-6, 100.0, 36).expect("constant bounds are valid")
    }

    /// Record one sample. NaN is ignored.
    pub fn record(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        self.cells[idx].fetch_add(1, Ordering::Relaxed); // audit:ordering(Relaxed): per-bucket event counter; RMW atomicity suffices, snapshots are racy by design
        let mut cur = self.sum_bits.load(Ordering::Relaxed); // audit:ordering(Relaxed): CAS loop seed read; any stale value is corrected by the retry
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .sum_bits
                .compare_exchange(cur, next, Ordering::Relaxed, Ordering::Relaxed) // audit:ordering(Relaxed): f64-bits accumulator CAS; only RMW atomicity of this cell is required, no other data is published under it
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The boundary vector.
    // audit:allow(unreached): this file's log-spacing test reads the boundaries with it
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.cells.iter().map(|c| c.load(Ordering::Relaxed)).sum() // audit:ordering(Relaxed): count snapshot read; racy-by-design statistics
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed)) // audit:ordering(Relaxed): sum snapshot read; racy-by-design statistics
    }

    /// A point-in-time copy of the cells.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .cells
                .iter()
                .map(|c| c.load(Ordering::Relaxed)) // audit:ordering(Relaxed): snapshot read; racy-by-design statistics
                .collect(),
            sum: self.sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bad_bounds_rejected() {
        assert!(Histogram::with_bounds(vec![]).is_err());
        assert!(Histogram::with_bounds(vec![1.0, 1.0]).is_err());
        assert!(Histogram::with_bounds(vec![2.0, 1.0]).is_err());
        assert!(Histogram::with_bounds(vec![1.0, f64::INFINITY]).is_err());
        assert!(Histogram::log_spaced(0.0, 1.0, 4).is_err());
        assert!(Histogram::log_spaced(1.0, 1.0, 4).is_err());
        assert!(Histogram::log_spaced(1.0, 10.0, 1).is_err());
    }

    #[test]
    fn log_spacing_pins_endpoints_and_is_geometric() {
        let h = Histogram::log_spaced(1e-3, 1e3, 7).unwrap();
        let b = h.bounds();
        assert_eq!(b.len(), 7);
        assert_eq!(b[0], 1e-3);
        assert_eq!(b[6], 1e3);
        for w in b.windows(2) {
            assert!((w[1] / w[0] - 10.0).abs() < 1e-9, "{:?}", b);
        }
    }

    #[test]
    fn bucketing_is_upper_inclusive() {
        let h = Histogram::with_bounds(vec![1.0, 10.0]).unwrap();
        h.record(1.0); // first bucket (v <= 1.0)
        h.record(1.5); // second bucket
        h.record(10.0); // second bucket (v <= 10.0)
        h.record(11.0); // overflow
        let s = h.snapshot();
        assert_eq!(s.counts, vec![1, 2, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 23.5).abs() < 1e-12);
    }

    #[test]
    fn nan_is_ignored() {
        let h = Histogram::with_bounds(vec![1.0]).unwrap();
        h.record(f64::NAN);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn nan_record_leaves_cells_and_sum_untouched() {
        let h = Histogram::with_bounds(vec![1.0, 10.0]).unwrap();
        h.record(2.0);
        let before = h.snapshot();
        h.record(f64::NAN);
        let after = h.snapshot();
        assert_eq!(before, after, "NaN must not perturb any cell or the sum");
        assert_eq!(h.count(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Satellite property: bucket counts always sum to n.
        #[test]
        fn counts_sum_to_n(samples in proptest::collection::vec(-1e6f64..1e6, 0..300)) {
            let h = Histogram::log_spaced(1e-3, 1e4, 24).unwrap();
            for &s in &samples {
                h.record(s);
            }
            prop_assert_eq!(h.count(), samples.len() as u64);
            let snap = h.snapshot();
            prop_assert_eq!(snap.counts.iter().sum::<u64>(), samples.len() as u64);
            prop_assert_eq!(snap.counts.len(), snap.bounds.len() + 1);
        }
    }
}
