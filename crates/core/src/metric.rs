//! Runtime-selected block metrics (§III-B).
//!
//! The cluster picks one metric for all of its vp-trees: Hamming distance
//! for DNA blocks, or a Mendel matrix distance (BLOSUM62-derived, with or
//! without triangle-inequality repair) for proteins. A small enum avoids
//! making every tree generic at the cluster API surface. Each variant
//! forwards to its metric's per-pair kernels and its one lane kernel
//! ([`Metric::scan_lanes`]), which scores a vp-tree's leaves and its
//! build scans alike.

use mendel_seq::lanes::LaneGroup;
use mendel_seq::{Hamming, MatrixDistance, Metric, ScoringMatrix};
use std::sync::Arc;

/// The per-block distance function used by every vp-tree in a cluster.
#[derive(Debug, Clone)]
pub enum BlockMetric {
    /// Positional mismatch count — the paper's DNA metric.
    Hamming,
    /// A per-residue distance table composed with an L1 window sum — the
    /// paper's protein metric (and any user-supplied table).
    Matrix(Arc<MatrixDistance>),
}

impl BlockMetric {
    /// The paper's protein metric: BLOSUM62 under the §III-B transform.
    pub fn mendel_blosum62() -> Self {
        BlockMetric::Matrix(Arc::new(MatrixDistance::mendel(&ScoringMatrix::blosum62())))
    }

    /// The §III-B transform followed by shortest-path metric repair
    /// (exact vp-tree pruning; see DESIGN.md's deviation note).
    pub fn mendel_blosum62_repaired() -> Self {
        BlockMetric::Matrix(Arc::new(
            MatrixDistance::mendel(&ScoringMatrix::blosum62()).repair_metric(),
        ))
    }
}

/// One blanket impl covers every byte-window type the trees use — the
/// `[u8]` windows of a vp-tree and the owned `Vec<u8>` samples of the
/// vp-prefix tree — so the kernels behind the inner metrics plug in at
/// exactly one seam: a lane group reaches them as borrowed bytes, with
/// nothing collected on the way.
impl<T: AsRef<[u8]> + ?Sized> Metric<T> for BlockMetric {
    #[inline]
    fn dist(&self, a: &T, b: &T) -> f32 {
        note_distance();
        match self {
            BlockMetric::Hamming => Hamming.dist(a.as_ref(), b.as_ref()),
            BlockMetric::Matrix(m) => m.dist(a.as_ref(), b.as_ref()),
        }
    }

    #[inline]
    fn dist_bounded(&self, a: &T, b: &T, bound: f32) -> Option<f32> {
        match self {
            BlockMetric::Hamming => Hamming.dist_bounded(a.as_ref(), b.as_ref(), bound),
            BlockMetric::Matrix(m) => m.dist_bounded(a.as_ref(), b.as_ref(), bound),
        }
    }

    fn scan_lanes(&self, a: &[u8], group: LaneGroup<'_>, bound: f32, out: &mut Vec<(u32, f32)>)
    where
        [u8]: AsRef<T>,
    {
        match self {
            BlockMetric::Hamming => Hamming.scan_lanes(a, group, bound, out),
            BlockMetric::Matrix(m) => m.scan_lanes(a, group, bound, out),
        }
    }
}

/// Counts a per-pair distance where tests read the count
/// (`tests::DIST_CALLS`); nothing in any other build.
#[cfg(not(test))]
#[inline(always)]
fn note_distance() {}

#[cfg(test)]
use tests::note_distance;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mendel_seq::Alphabet;

    thread_local! {
        /// Per-pair distances this thread has computed through a
        /// `BlockMetric`: the call count routing tests assert on.
        pub(crate) static DIST_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    pub(super) fn note_distance() {
        DIST_CALLS.with(|n| n.set(n.get() + 1));
    }

    #[test]
    fn hamming_variant_counts_mismatches() {
        let m = BlockMetric::Hamming;
        assert_eq!(Metric::<[u8]>::dist(&m, b"\x00\x01", b"\x00\x02"), 1.0);
    }

    #[test]
    fn matrix_variant_orders_substitutions() {
        let m = BlockMetric::mendel_blosum62();
        let e = |c| Alphabet::Protein.encode(c).unwrap();
        let cons = Metric::<[u8]>::dist(&m, &[e(b'L')], &[e(b'I')]);
        let harsh = Metric::<[u8]>::dist(&m, &[e(b'L')], &[e(b'D')]);
        assert!(cons < harsh);
    }

    #[test]
    fn vec_impl_matches_slice_impl() {
        let m = BlockMetric::mendel_blosum62();
        let a = vec![0u8, 5, 9];
        let b = vec![1u8, 5, 9];
        assert_eq!(
            Metric::<Vec<u8>>::dist(&m, &a, &b),
            Metric::<[u8]>::dist(&m, &a, &b)
        );
    }

    #[test]
    fn repaired_variant_is_a_true_metric() {
        match BlockMetric::mendel_blosum62_repaired() {
            BlockMetric::Matrix(t) => assert_eq!(t.metric_violation(), None),
            _ => unreachable!(),
        }
    }
}
