//! Metric-space distance functions over sequence windows (§III-B of the
//! paper).
//!
//! The vp-tree needs a *metric*: non-negative, zero-iff-equal, symmetric,
//! triangle inequality. For DNA, Hamming distance qualifies directly. For
//! proteins, the paper derives a per-residue distance matrix from BLOSUM62:
//!
//! ```text
//! M[i][j] = B[i][j] - B[i][i]      (taken as an absolute value)
//! ```
//!
//! which zeroes the diagonal and preserves the relative penalty gradient of
//! mismatches. As published, this transform is neither symmetric nor
//! guaranteed to satisfy the triangle inequality, so this module provides:
//!
//! * [`MatrixDistance::mendel`] — the paper's transform, symmetrised by
//!   taking the mean of the two one-sided values (the minimal change that
//!   restores symmetry without altering the diagonal);
//! * [`MatrixDistance::repair_metric`] — an all-pairs shortest-path closure
//!   that additionally enforces the triangle inequality (see DESIGN.md;
//!   quantified by the `ablation_metric` bench).
//!
//! Window distances compose per-residue distances with an L1 sum, which
//! preserves all metric axioms.
//!
//! Both metrics are **integers in disguise**: a Hamming distance is a
//! count, and every `MatrixDistance` entry is `½(|a| + |b|)` for integer
//! scores `a`, `b` — a whole number of *half-units*. The table is stored
//! in half-units, a window distance is the integer sum of its entries, and
//! the `f32` handed to callers is that sum × 0.5. Integer addition is
//! associative, so `dist`, `dist_bounded` and the whole-leaf
//! [`Metric::scan_bounded`] agree bit for bit whatever order, chunking or
//! lane layout a kernel uses (DESIGN.md §10, §15.1; kernels in
//! [`crate::simd`]).

use crate::alphabet::Alphabet;
use crate::error::SeqError;
use crate::matrix::ScoringMatrix;
use serde::{Deserialize, Serialize};

/// A distance function over values of type `T`.
///
/// Implementations used with the vp-tree should satisfy the metric axioms;
/// see [`MatrixDistance::is_metric`] for a checker.
pub trait Metric<T: ?Sized>: Send + Sync {
    /// Distance between `a` and `b`. Must be non-negative and symmetric.
    fn dist(&self, a: &T, b: &T) -> f32;

    /// Bounded distance: `Some(d)` iff `d = dist(a, b) ≤ bound`, `None`
    /// otherwise. The contract callers rely on (see DESIGN.md §10):
    ///
    /// * when `Some(d)` is returned, `d` is **bit-identical** to what
    ///   [`Self::dist`] would compute (automatic for the integer metrics
    ///   of this module; a floating-point metric must accumulate in the
    ///   same order);
    /// * `None` may only be returned when the true distance strictly
    ///   exceeds `bound`.
    ///
    /// The default computes the full distance and compares — correct for
    /// every metric. Implementations whose distance is a monotone running
    /// sum (L1 window composition, Hamming counts) override this with an
    /// early-abandoning kernel that bails out as soon as the partial sum
    /// exceeds `bound`.
    #[inline]
    fn dist_bounded(&self, a: &T, b: &T, bound: f32) -> Option<f32> {
        let d = self.dist(a, b);
        (d <= bound).then_some(d)
    }

    /// Survivors-only scan of one query against many candidates under one
    /// bound: append `(j, d)` to `out` for every candidate `j` (its
    /// position in `cands`) with `d = dist(a, cands[j]) ≤ bound`, in
    /// candidate order, each `d` bit-identical to [`Self::dist`].
    ///
    /// This is the vp-tree's leaf scan (DESIGN.md §15.1): a leaf bucket
    /// is scored in one call, so an implementation can put one candidate
    /// in each SIMD lane, and candidates arrive as an iterator of
    /// borrowed points, so nothing is collected or allocated per call.
    /// The default loops [`Self::dist_bounded`], which keeps wrappers
    /// like [`Unbounded`] exact by construction and is the per-pair path
    /// the vector kernels are tested against.
    fn scan_bounded<'a, I>(&self, a: &T, cands: I, bound: f32, out: &mut Vec<(u32, f32)>)
    where
        I: Iterator<Item = &'a T>,
        T: 'a,
        Self: Sized,
    {
        for (j, b) in cands.enumerate() {
            if let Some(d) = self.dist_bounded(a, b, bound) {
                out.push((j as u32, d));
            }
        }
    }
}

/// Hamming distance over equal-length encoded windows — the paper's DNA
/// metric. Counts positions whose residue codes differ.
///
/// # Panics
/// Panics if the windows have different lengths; Mendel only ever compares
/// same-length inverted-index blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hamming;

impl Hamming {
    /// Hamming distance as an integer count. Dispatches to the SIMD
    /// byte-compare kernel when available ([`crate::simd`]); the count
    /// is an integer so every dispatch is exact.
    #[inline]
    pub fn count(a: &[u8], b: &[u8]) -> usize {
        crate::simd::hamming_count(a, b)
    }
}

impl Metric<[u8]> for Hamming {
    #[inline]
    fn dist(&self, a: &[u8], b: &[u8]) -> f32 {
        Hamming::count(a, b) as f32
    }

    fn dist_bounded(&self, a: &[u8], b: &[u8], bound: f32) -> Option<f32> {
        assert_eq!(a.len(), b.len(), "Hamming distance requires equal lengths");
        if crate::simd::simd_enabled() {
            // One cmpeq+movemask per 16/32 bytes beats abandoning early
            // at block-window lengths, and the integer count is exact
            // under any chunking.
            let d = crate::simd::hamming_count(a, b) as f32;
            return (d <= bound).then_some(d);
        }
        const LANE: usize = 16;
        let n = a.len();
        let mut count = 0usize;
        let mut i = 0;
        while i + LANE <= n {
            for j in i..i + LANE {
                count += usize::from(a[j] != b[j]);
            }
            if count as f32 > bound {
                return None;
            }
            i += LANE;
        }
        while i < n {
            count += usize::from(a[i] != b[i]);
            i += 1;
        }
        let d = count as f32;
        (d <= bound).then_some(d)
    }

    /// One `cmpeq` + `movemask` + popcount per candidate, with the kernel
    /// chosen once per call ([`crate::simd`]).
    fn scan_bounded<'a, I>(&self, a: &[u8], cands: I, bound: f32, out: &mut Vec<(u32, f32)>)
    where
        I: Iterator<Item = &'a [u8]>,
    {
        crate::simd::hamming_scan(a, cands, bound, out);
    }
}

/// A per-residue distance table derived from a scoring matrix, composed
/// over windows with an L1 sum.
///
/// Entries are whole numbers of **half-units** (see the module docs):
/// `residue_dist` and every window distance are an integer × 0.5, exact in
/// `f32` below 2²⁴ half-units.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixDistance {
    /// Name recording provenance, e.g. `"mendel(BLOSUM62)"`.
    pub name: String,
    /// Alphabet whose codes index the table.
    pub alphabet: Alphabet,
    n: usize,
    /// Row-major `n × n` table in half-units.
    half: Vec<u32>,
    /// The same table as zero-padded `u8` rows of
    /// [`crate::simd::ROW_BYTES`] for the sixteen-lane kernel; empty when
    /// it does not fit (an entry over 255 half-units, or `n > 32`).
    rows: Vec<u8>,
}

impl MatrixDistance {
    /// The paper's transform (§III-B): `M[i][j] = |B[i][j] − B[j][j]|`
    /// applied to the lower triangle and mirrored, so the matrix is
    /// symmetric with a zero diagonal.
    ///
    /// Ambiguity codes (`B`, `Z`, `X`, `*`) are given the distance of the
    /// worst canonical pair so unknown residues never look artificially
    /// close to anything.
    pub fn mendel(b: &ScoringMatrix) -> Self {
        let k = b.alphabet.canonical_size();
        let n = b.alphabet.size();
        let mut half = vec![0u32; n * n];
        let mut worst = 0u32;
        for i in 0..k {
            for j in 0..k {
                if i == j {
                    continue;
                }
                // One-sided transforms relative to each diagonal; their
                // mean symmetrises (B is symmetric, so the two sides differ
                // only through the diagonals B[i][i] vs B[j][j]). In
                // half-units the mean is just the sum.
                let via_j = b
                    .score(i as u8, j as u8)
                    .abs_diff(b.score(j as u8, j as u8));
                let via_i = b
                    .score(i as u8, j as u8)
                    .abs_diff(b.score(i as u8, i as u8));
                let v = via_i.saturating_add(via_j);
                half[i * n + j] = v;
                worst = worst.max(v);
            }
        }
        // Ambiguity codes: maximally distant from everything, including
        // themselves distance 0 only when identical codes compare.
        for i in 0..n {
            for j in 0..n {
                if (i >= k || j >= k) && i != j {
                    half[i * n + j] = worst;
                }
            }
        }
        Self::from_half_units(format!("mendel({})", b.name), b.alphabet, n, half)
    }

    /// Unit distance table: 0 on the diagonal, 1 elsewhere (Hamming as a
    /// `MatrixDistance`, useful for tests and DNA).
    pub fn unit(alphabet: Alphabet) -> Self {
        let n = alphabet.size();
        let mut half = vec![2u32; n * n];
        for i in 0..n {
            half[i * n + i] = 0;
        }
        Self::from_half_units("unit".into(), alphabet, n, half)
    }

    /// Assemble a table from its half-unit entries, deriving the `u8` rows
    /// the vector kernel reads when the table fits them.
    fn from_half_units(name: String, alphabet: Alphabet, n: usize, half: Vec<u32>) -> Self {
        use crate::simd::ROW_BYTES;
        debug_assert_eq!(half.len(), n * n);
        let mut rows = Vec::new();
        if n <= ROW_BYTES && half.iter().all(|&h| h <= 255) {
            rows = vec![0u8; n * ROW_BYTES];
            for (row, entries) in rows.chunks_exact_mut(ROW_BYTES).zip(half.chunks_exact(n)) {
                for (slot, &h) in row.iter_mut().zip(entries) {
                    *slot = h as u8;
                }
            }
        }
        MatrixDistance {
            name,
            alphabet,
            n,
            half,
            rows,
        }
    }

    /// Per-residue distance between codes `a` and `b`.
    #[inline]
    pub fn residue_dist(&self, a: u8, b: u8) -> f32 {
        debug_assert!((a as usize) < self.n && (b as usize) < self.n);
        self.half[a as usize * self.n + b as usize] as f32 * 0.5
    }

    /// Enforce the triangle inequality by closing the table under
    /// shortest paths (Floyd–Warshall over residues). Returns a new table;
    /// distances can only shrink, and the diagonal stays zero.
    pub fn repair_metric(&self) -> Self {
        let n = self.n;
        let mut d = self.half.clone();
        for mid in 0..n {
            for i in 0..n {
                let dim = d[i * n + mid];
                for j in 0..n {
                    let via = dim.saturating_add(d[mid * n + j]);
                    if via < d[i * n + j] {
                        d[i * n + j] = via;
                    }
                }
            }
        }
        Self::from_half_units(format!("repaired({})", self.name), self.alphabet, n, d)
    }

    /// Check all four metric axioms over the residue table. Returns the
    /// first violation found, or `None` if the table is a true metric.
    pub fn metric_violation(&self) -> Option<MetricViolation> {
        let n = self.n as u8;
        for i in 0..n {
            if self.residue_dist(i, i) != 0.0 {
                return Some(MetricViolation::NonZeroDiagonal(i));
            }
            for j in 0..n {
                let dij = self.residue_dist(i, j);
                if dij < 0.0 {
                    return Some(MetricViolation::Negative(i, j));
                }
                if dij != self.residue_dist(j, i) {
                    return Some(MetricViolation::Asymmetric(i, j));
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                for via in 0..n {
                    let direct = self.residue_dist(i, j);
                    let detour = self.residue_dist(i, via) + self.residue_dist(via, j);
                    if direct > detour + 1e-6 {
                        return Some(MetricViolation::Triangle(i, via, j));
                    }
                }
            }
        }
        None
    }

    /// True when the residue table satisfies every metric axiom.
    pub fn is_metric(&self) -> bool {
        self.metric_violation().is_none()
    }

    /// Largest per-residue distance in the table.
    pub fn max_residue_dist(&self) -> f32 {
        self.half.iter().copied().max().unwrap_or(0) as f32 * 0.5
    }
}

/// A concrete metric-axiom violation, reported by
/// [`MatrixDistance::metric_violation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricViolation {
    /// `d(i,i) != 0`.
    NonZeroDiagonal(u8),
    /// `d(i,j) < 0`.
    Negative(u8, u8),
    /// `d(i,j) != d(j,i)`.
    Asymmetric(u8, u8),
    /// `d(i,k) > d(i,j) + d(j,k)` for the recorded `(i, j, k)`.
    Triangle(u8, u8, u8),
}

impl Metric<[u8]> for MatrixDistance {
    /// L1 composition over a window: the integer sum of the half-unit
    /// entries, × 0.5.
    ///
    /// # Panics
    /// Panics if the windows have different lengths, or if either holds a
    /// residue code outside the table.
    #[inline]
    fn dist(&self, a: &[u8], b: &[u8]) -> f32 {
        assert_eq!(a.len(), b.len(), "window distance requires equal lengths");
        crate::simd::assert_pair_in_table(a, b, self.n);
        let sum: u64 = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| u64::from(self.half[usize::from(x) * self.n + usize::from(y)]))
            .sum();
        sum as f32 * 0.5
    }

    /// Early-abandoning L1 kernel over 8-residue spans of the window: the
    /// same integer sum as [`Metric::dist`], so a `Some` is bit-identical
    /// to it; the bound is checked once per span, which keeps the
    /// bail-out off the adds' dependency chain and — measured — beats the
    /// check-free sum by 12 % end to end.
    ///
    /// # Panics
    /// As [`Metric::dist`]; the checks run before any arithmetic, so an
    /// out-of-table code panics wherever an early abandon would have
    /// stopped.
    fn dist_bounded(&self, a: &[u8], b: &[u8], bound: f32) -> Option<f32> {
        crate::simd::matrix_dist_bounded(&self.half, self.n, a, b, bound)
    }

    /// Sixteen candidates per kernel call, one per byte lane
    /// ([`crate::simd::matrix_scan`]); per pair when the bound is too
    /// loose for `u8` lanes, the table does not fit them, or SIMD is off.
    ///
    /// # Panics
    /// As [`Metric::dist`], for the query and every candidate, on every
    /// path.
    fn scan_bounded<'a, I>(&self, a: &[u8], cands: I, bound: f32, out: &mut Vec<(u32, f32)>)
    where
        I: Iterator<Item = &'a [u8]>,
    {
        crate::simd::matrix_scan(&self.half, &self.rows, self.n, a, cands, bound, out);
    }
}

/// Distance over *owned* windows (`Vec<u8>` points in a vp-tree), delegating
/// to an inner `[u8]` metric. Blanket-bridges the slice metrics above to the
/// owned block type the DHT stores.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockDistance<M> {
    /// The underlying per-window metric.
    pub inner: M,
}

impl<M: Metric<[u8]>> BlockDistance<M> {
    /// Wrap a slice metric for use over owned blocks.
    pub fn new(inner: M) -> Self {
        BlockDistance { inner }
    }
}

impl<M: Metric<[u8]>> Metric<Vec<u8>> for BlockDistance<M> {
    #[inline]
    fn dist(&self, a: &Vec<u8>, b: &Vec<u8>) -> f32 {
        self.inner.dist(a, b)
    }

    #[inline]
    fn dist_bounded(&self, a: &Vec<u8>, b: &Vec<u8>, bound: f32) -> Option<f32> {
        self.inner.dist_bounded(a, b, bound)
    }

    fn scan_bounded<'a, I>(&self, a: &Vec<u8>, cands: I, bound: f32, out: &mut Vec<(u32, f32)>)
    where
        I: Iterator<Item = &'a Vec<u8>>,
    {
        self.inner
            .scan_bounded(a, cands.map(Vec::as_slice), bound, out);
    }
}

/// Reference wrapper that disables early abandoning: `dist_bounded` always
/// computes the full distance via the trait default. Searches through an
/// `Unbounded<M>` tree take the exact same code path as through `M` — only
/// the kernel differs — which is what the `kernel_bench` harness and the
/// bit-identity property tests compare against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Unbounded<M>(pub M);

impl<T: ?Sized, M: Metric<T>> Metric<T> for Unbounded<M> {
    #[inline]
    fn dist(&self, a: &T, b: &T) -> f32 {
        self.0.dist(a, b)
    }
    // `dist_bounded` and `scan_bounded` deliberately left at the trait
    // defaults: full distance, then compare against the bound, one pair
    // at a time.
}

/// Percent identity between two equal-length windows: the fraction of
/// positions with identical residue codes (§V-B's first candidate measure).
pub fn percent_identity(a: &[u8], b: &[u8]) -> Result<f32, SeqError> {
    if a.len() != b.len() {
        return Err(SeqError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.is_empty() {
        return Err(SeqError::EmptySequence);
    }
    let matches = a.iter().zip(b).filter(|(x, y)| x == y).count();
    Ok(matches as f32 / a.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(s: &[u8]) -> Vec<u8> {
        Alphabet::Protein.encode_seq(s).unwrap()
    }

    #[test]
    fn hamming_counts_mismatches() {
        assert_eq!(Hamming::count(b"\x00\x01\x02", b"\x00\x02\x02"), 1);
        assert_eq!(
            Hamming.dist(b"\x00\x01".as_slice(), b"\x02\x03".as_slice()),
            2.0
        );
        assert_eq!(Hamming.dist(b"".as_slice(), b"".as_slice()), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn hamming_panics_on_length_mismatch() {
        Hamming::count(b"AA", b"A");
    }

    #[test]
    fn mendel_matrix_zero_diagonal_and_symmetry() {
        let m = MatrixDistance::mendel(&ScoringMatrix::blosum62());
        for i in 0..24u8 {
            assert_eq!(m.residue_dist(i, i), 0.0, "diagonal {i}");
            for j in 0..24u8 {
                assert_eq!(m.residue_dist(i, j), m.residue_dist(j, i));
                assert!(m.residue_dist(i, j) >= 0.0);
            }
        }
    }

    #[test]
    fn mendel_matrix_preserves_penalty_gradient() {
        // L→I is a conservative substitution (BLOSUM62 +2); L→D is harsh
        // (−4). The distance must order them the same way.
        let m = MatrixDistance::mendel(&ScoringMatrix::blosum62());
        let e = |c| Alphabet::Protein.encode(c).unwrap();
        assert!(
            m.residue_dist(e(b'L'), e(b'I')) < m.residue_dist(e(b'L'), e(b'D')),
            "conservative substitutions must be closer"
        );
    }

    #[test]
    fn mendel_matrix_wildcards_are_far() {
        let m = MatrixDistance::mendel(&ScoringMatrix::blosum62());
        let x = Alphabet::Protein.encode(b'X').unwrap();
        let a = Alphabet::Protein.encode(b'A').unwrap();
        assert_eq!(m.residue_dist(x, a), m.max_residue_dist());
    }

    #[test]
    fn paper_matrix_violates_triangle_but_repair_fixes_it() {
        // This is the documented deviation: the published transform is not
        // quite a metric; the shortest-path closure is.
        let m = MatrixDistance::mendel(&ScoringMatrix::blosum62());
        let r = m.repair_metric();
        assert!(r.is_metric(), "repaired table must satisfy all axioms");
        // Repair can only shrink distances.
        for i in 0..24u8 {
            for j in 0..24u8 {
                assert!(r.residue_dist(i, j) <= m.residue_dist(i, j) + 1e-6);
            }
        }
    }

    #[test]
    fn unit_distance_matches_hamming() {
        let u = MatrixDistance::unit(Alphabet::Dna);
        assert!(u.is_metric());
        let a = Alphabet::Dna.encode_seq(b"ACGT").unwrap();
        let b = Alphabet::Dna.encode_seq(b"AGGT").unwrap();
        assert_eq!(u.dist(&a[..], &b[..]), Hamming.dist(&a[..], &b[..]));
    }

    #[test]
    fn window_distance_is_l1_sum() {
        let m = MatrixDistance::mendel(&ScoringMatrix::blosum62());
        let a = enc(b"LW");
        let b = enc(b"IV");
        let expect = m.residue_dist(a[0], b[0]) + m.residue_dist(a[1], b[1]);
        assert_eq!(m.dist(&a[..], &b[..]), expect);
    }

    #[test]
    fn block_distance_bridges_vec_points() {
        let bd = BlockDistance::new(Hamming);
        assert_eq!(bd.dist(&vec![0u8, 1], &vec![1u8, 1]), 1.0);
    }

    #[test]
    fn percent_identity_basics() {
        assert_eq!(percent_identity(b"\x00\x01", b"\x00\x01").unwrap(), 1.0);
        assert_eq!(percent_identity(b"\x00\x01", b"\x00\x02").unwrap(), 0.5);
        assert!(percent_identity(b"", b"").is_err());
        assert!(percent_identity(b"\x00", b"\x00\x01").is_err());
    }

    #[test]
    fn bounded_kernel_agrees_with_full_kernel() {
        // Deterministic pseudo-random windows across the lengths that
        // exercise the unrolled span, the remainder loop, and both.
        let m = MatrixDistance::mendel(&ScoringMatrix::blosum62());
        let mut state = 0x9E37u32;
        let mut next = move || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 16) as u8 % 20
        };
        for len in [0usize, 1, 7, 8, 9, 16, 17, 64] {
            let a: Vec<u8> = (0..len).map(|_| next()).collect();
            let b: Vec<u8> = (0..len).map(|_| next()).collect();
            let full = m.dist(&a[..], &b[..]);
            for bound in [0.0, full * 0.5, full, full + 0.1, f32::INFINITY] {
                match m.dist_bounded(&a[..], &b[..], bound) {
                    Some(d) => {
                        assert_eq!(d.to_bits(), full.to_bits(), "len {len} bound {bound}");
                        assert!(d <= bound);
                    }
                    None => assert!(full > bound, "len {len} bound {bound}"),
                }
            }
            let hfull = Hamming.dist(&a[..], &b[..]);
            for bound in [0.0, hfull - 1.0, hfull, f32::INFINITY] {
                match Hamming.dist_bounded(&a[..], &b[..], bound) {
                    Some(d) => assert_eq!(d.to_bits(), hfull.to_bits()),
                    None => assert!(hfull > bound),
                }
            }
        }
    }

    #[test]
    fn bounded_kernel_abandons_over_bound() {
        let m = MatrixDistance::unit(Alphabet::Dna);
        let a = vec![0u8; 32];
        let b = vec![1u8; 32]; // distance 32
        assert_eq!(m.dist_bounded(&a[..], &b[..], 31.0), None);
        assert_eq!(m.dist_bounded(&a[..], &b[..], 32.0), Some(32.0));
        assert_eq!(Hamming.dist_bounded(&a[..], &b[..], 10.0), None);
    }

    #[test]
    fn unbounded_wrapper_never_abandons_early_but_respects_bound() {
        let m = Unbounded(MatrixDistance::unit(Alphabet::Dna));
        let a = vec![0u8; 16];
        let b = vec![1u8; 16];
        assert_eq!(m.dist(&a[..], &b[..]), 16.0);
        assert_eq!(m.dist_bounded(&a[..], &b[..], 15.9), None);
        assert_eq!(m.dist_bounded(&a[..], &b[..], 16.0), Some(16.0));
    }

    #[test]
    fn block_distance_delegates_bounded_kernel() {
        let bd = BlockDistance::new(Hamming);
        assert_eq!(bd.dist_bounded(&vec![0u8, 1], &vec![1u8, 1], 0.5), None);
        assert_eq!(
            bd.dist_bounded(&vec![0u8, 1], &vec![1u8, 1], 1.0),
            Some(1.0)
        );
    }

    /// An arbitrary half-unit table over `n` letters (the alphabet field is
    /// a label only; `n` is what the kernels index by).
    fn table(n: usize, half: Vec<u32>) -> MatrixDistance {
        MatrixDistance::from_half_units("test".into(), Alphabet::Protein, n, half)
    }

    /// The definition every kernel must reproduce: residue distances as
    /// `f32`, summed left to right, kept when `≤ bound`.
    fn reference_scan(
        m: &MatrixDistance,
        q: &[u8],
        cands: &[Vec<u8>],
        bound: f32,
    ) -> Vec<(u32, u32)> {
        (0u32..)
            .zip(cands)
            .map(|(j, c)| {
                let d = q
                    .iter()
                    .zip(c)
                    .fold(0.0f32, |s, (&x, &y)| s + m.residue_dist(x, y));
                (j, d)
            })
            .filter(|&(_, d)| d <= bound)
            .map(|(j, d)| (j, d.to_bits()))
            .collect()
    }

    /// Survivors through the production dispatch (vector lanes when the
    /// table, bound and CPU allow) and through the per-pair integer path
    /// `set_simd_enabled(false)` selects — here forced by withholding the
    /// `u8` rows, so no test flips the process-wide switch.
    fn both_scans(
        m: &MatrixDistance,
        q: &[u8],
        cands: &[Vec<u8>],
        bound: f32,
    ) -> [Vec<(u32, u32)>; 2] {
        let bits = |v: Vec<(u32, f32)>| v.into_iter().map(|(j, d)| (j, d.to_bits())).collect();
        let mut dispatched = Vec::new();
        m.scan_bounded(q, cands.iter().map(Vec::as_slice), bound, &mut dispatched);
        let mut per_pair = Vec::new();
        let slices = cands.iter().map(Vec::as_slice);
        crate::simd::matrix_scan(&m.half, &[], m.n, q, slices, bound, &mut per_pair);
        [bits(dispatched), bits(per_pair)]
    }

    #[test]
    fn saturation_boundary_is_exact() {
        // 254 half-units is the last sum a u8 lane can hold unsaturated and
        // 127.0 the loosest bound the vector path takes; 255 must be
        // rejected there and accepted one half-unit of bound later (which
        // the per-pair path serves).
        let m = table(3, vec![0, 127, 128, 127, 0, 1, 128, 1, 0]);
        assert!(!m.rows.is_empty(), "fits u8 rows");
        let q = vec![0u8, 0];
        let mut cands = vec![vec![1u8, 1], vec![1, 2], vec![2, 2], vec![0, 0]];
        cands.resize(16, vec![1, 2]);
        for (bound, survivors) in [(126.5, 1), (127.0, 2), (127.5, 15), (128.0, 16)] {
            let want = reference_scan(&m, &q, &cands, bound);
            assert_eq!(want.len(), survivors, "bound {bound}");
            for got in both_scans(&m, &q, &cands, bound) {
                assert_eq!(got, want, "bound {bound}");
            }
        }
    }

    #[test]
    fn out_of_table_codes_panic_from_every_kernel_and_either_operand() {
        // One outcome, whichever kernel runs and whichever operand is bad:
        // a panic. Code 30 is past the 24-letter table but inside the
        // 32-byte padded rows (it used to read a neighbouring row); the
        // bad residue sits last, behind 16 maximally distant ones, where
        // an early abandon under a tight bound stops reading first.
        let m = MatrixDistance::mendel(&ScoringMatrix::blosum62());
        fn panics<R>(f: impl FnOnce() -> R) -> bool {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
        }
        for code in [24u8, 30, 200] {
            let clean = vec![0u8; 17];
            let far = {
                let mut w = vec![23u8; 17];
                w[16] = 0;
                w
            };
            let mut bad = far.clone();
            bad[16] = code;
            for bound in [1.0f32, 100.0, f32::INFINITY] {
                let what = format!("code {code} bound {bound}");
                assert!(panics(|| m.dist(&clean[..], &bad[..])), "{what}");
                assert!(panics(|| m.dist(&bad[..], &clean[..])), "{what}");
                assert!(
                    panics(|| m.dist_bounded(&clean[..], &bad[..], bound)),
                    "{what}"
                );
                assert!(
                    panics(|| m.dist_bounded(&bad[..], &clean[..], bound)),
                    "{what}"
                );
                // Candidate lists long enough for the vector path, the bad
                // window in a full group and in the tail; `both_scans`
                // stops at the dispatched scan, so the per-pair path gets
                // its own call. Then a bad *query* against clean windows.
                for bad_at in [5usize, 17] {
                    let mut cands = vec![far.clone(); 19];
                    cands[bad_at] = bad.clone();
                    let per_pair = |q: &[u8], cands: &[Vec<u8>]| {
                        let slices = cands.iter().map(Vec::as_slice);
                        let mut out = Vec::new();
                        crate::simd::matrix_scan(&m.half, &[], m.n, q, slices, bound, &mut out);
                    };
                    assert!(panics(|| both_scans(&m, &clean, &cands, bound)), "{what}");
                    assert!(panics(|| per_pair(&clean, &cands)), "{what}");
                    cands[bad_at] = far.clone();
                    assert!(panics(|| both_scans(&m, &bad, &cands, bound)), "{what}");
                    assert!(panics(|| per_pair(&bad, &cands)), "{what}");
                }
            }
        }
        // Hamming has no table: any byte is a residue.
        assert_eq!(Hamming.dist(&[200u8, 1][..], &[200u8, 2][..]), 1.0);
    }

    mod scan_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            /// Exactness of the whole-leaf scan: for random half-integer
            /// tables (with and without `u8` rows), window lengths on and
            /// off the 16-position tile, candidate counts across every
            /// group/tail shape and bounds on both sides of the vector
            /// path's range, the survivors of the dispatched scan and of
            /// the per-pair integer path are exactly — index for index,
            /// bit for bit — the candidates whose left-to-right `f32` sum
            /// of residue distances is within the bound.
            #[test]
            fn scan_survivors_are_the_f32_definition(
                n in 2usize..=32,
                len in 1usize..=48,
                count in 0usize..=70,
                ceiling in 0usize..4,
                seed in any::<u64>(),
            ) {
                // 255 half-units = 127.5: lanes saturate from two residues
                // on; 2000 does not fit a u8 row at all.
                let ceiling = [3u64, 26, 255, 2000][ceiling];
                let mut state = seed | 1;
                let mut below = move |bound: u64| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (state >> 33) % bound
                };
                let half: Vec<u32> = (0..n * n)
                    .map(|i| if i / n == i % n { 0 } else { below(ceiling + 1) as u32 })
                    .collect();
                let m = table(n, half);
                prop_assert_eq!(m.rows.is_empty(), ceiling > 255 && m.half.iter().any(|&h| h > 255));
                let mut window = |_| (0..len).map(|_| below(n as u64) as u8).collect::<Vec<u8>>();
                let q = window(0);
                // Near-copies of the query keep some sums under tight
                // bounds; the rest are unrelated windows.
                let cands: Vec<Vec<u8>> = (0..count)
                    .map(|j| {
                        let mut c = window(j);
                        if j % 3 == 0 {
                            c.copy_from_slice(&q);
                            c[j % len] = (j % n) as u8;
                        }
                        c
                    })
                    .collect();
                let some_distance = cands.get(count / 2).map_or(1.0, |c| m.dist(&q[..], &c[..]));
                for bound in [
                    0.0,
                    some_distance,
                    some_distance - 0.5,
                    127.0,
                    127.5,
                    1e6,
                    f32::INFINITY,
                    -1.0,
                ] {
                    let want = reference_scan(&m, &q, &cands, bound);
                    let [dispatched, per_pair] = both_scans(&m, &q, &cands, bound);
                    prop_assert_eq!(&dispatched, &want, "dispatched, bound {}", bound);
                    prop_assert_eq!(&per_pair, &want, "per pair, bound {}", bound);
                }
                // The per-pair entry points agree with the same definition.
                for (j, c) in cands.iter().enumerate().take(8) {
                    let d = m.dist(&q[..], &c[..]);
                    let want = reference_scan(&m, &q, &cands[j..=j], f32::INFINITY)[0].1;
                    prop_assert_eq!(d.to_bits(), want);
                    prop_assert_eq!(m.dist_bounded(&q[..], &c[..], d), Some(d));
                    prop_assert_eq!(m.dist_bounded(&q[..], &c[..], d - 0.5), None);
                }
            }
        }
    }

    #[test]
    fn metric_violation_reports_diagonal() {
        let mut u = MatrixDistance::unit(Alphabet::Dna);
        u.half[0] = 1;
        assert_eq!(
            u.metric_violation(),
            Some(MetricViolation::NonZeroDiagonal(0))
        );
    }
}
