//! Runtime-selected block metrics (§III-B).
//!
//! The cluster picks one metric for all of its vp-trees: Hamming distance
//! for DNA blocks, or a Mendel matrix distance (BLOSUM62-derived, with or
//! without triangle-inequality repair) for proteins. A small enum avoids
//! making every tree generic at the cluster API surface.

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

    /// Largest possible per-position distance (used to scale tolerances).
    pub fn max_residue_dist(&self) -> f32 {
        match self {
            BlockMetric::Hamming => 1.0,
            BlockMetric::Matrix(m) => m.max_residue_dist(),
        }
    }
}

/// One blanket impl covers every byte-window point type the trees use —
/// `[u8]` slices, owned `Vec<u8>` blocks, and arena-backed
/// [`mendel_seq::WindowView`]s — so the kernels behind the inner metrics
/// plug in at exactly one seam, and a leaf's candidates reach them as
/// borrowed slices with nothing collected on the way.
impl<T: AsRef<[u8]> + ?Sized> Metric<T> for BlockMetric {
    #[inline]
    fn dist(&self, a: &T, b: &T) -> f32 {
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

    fn scan_bounded<'a, I>(&self, a: &T, cands: I, bound: f32, out: &mut Vec<(u32, f32)>)
    where
        I: Iterator<Item = &'a T>,
        T: 'a,
    {
        let cands = cands.map(AsRef::as_ref);
        match self {
            BlockMetric::Hamming => Hamming.scan_bounded(a.as_ref(), cands, bound, out),
            BlockMetric::Matrix(m) => m.scan_bounded(a.as_ref(), cands, bound, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mendel_seq::Alphabet;

    #[test]
    fn hamming_variant_counts_mismatches() {
        let m = BlockMetric::Hamming;
        assert_eq!(Metric::<[u8]>::dist(&m, b"\x00\x01", b"\x00\x02"), 1.0);
        assert_eq!(m.max_residue_dist(), 1.0);
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
            BlockMetric::Matrix(t) => assert!(t.is_metric()),
            _ => unreachable!(),
        }
    }
}
