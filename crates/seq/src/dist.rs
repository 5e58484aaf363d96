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
//! associative, so `dist`, `dist_bounded` and the lane-group
//! [`Metric::scan_lanes`] agree bit for bit whatever order, chunking or
//! lane layout a kernel uses (DESIGN.md §10, §15.1; kernels in
//! [`crate::simd`]).

use crate::alphabet::Alphabet;
use crate::error::SeqError;
use crate::lanes::LaneGroup;
use crate::matrix::ScoringMatrix;

/// A distance function over values of type `T`.
///
/// Implementations used with the vp-tree should satisfy the metric axioms;
/// see [`MatrixDistance::metric_violation`] for a checker.
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
    /// every metric, and what Hamming runs. An implementation whose
    /// distance is a costly monotone running sum (the L1 window
    /// composition of [`MatrixDistance`]) overrides this with an
    /// early-abandoning kernel that bails out as soon as the partial sum
    /// exceeds `bound`.
    #[inline]
    fn dist_bounded(&self, a: &T, b: &T, bound: f32) -> Option<f32> {
        let d = self.dist(a, b);
        (d <= bound).then_some(d)
    }

    /// The one method that scores many candidates per call: a
    /// survivors-only scan of one query against one lane-major group of
    /// windows ([`crate::lanes`]) under one bound. Append `(j, d)` for each
    /// of the group's first `live` windows `j` with `d = dist(a, window j)
    /// ≤ bound`, in lane order, each `d` bit-identical to [`Self::dist`].
    /// The windows have `a`'s length.
    ///
    /// A vp-tree's leaf scans call it on the groups its leaves store, and
    /// its build scans on groups packed into scratch by
    /// [`crate::lanes::write_lanes`] (DESIGN.md §15.1), so each metric has
    /// one vector kernel behind it. The default copies each window out and
    /// calls [`Self::dist_bounded`] — the per-pair path, which keeps
    /// wrappers like [`Unbounded`] exact and is what the vector kernels
    /// are tested against; the integer metrics score a whole group per
    /// kernel call.
    ///
    /// # Panics
    /// Panics if the group is malformed: a width outside 1 to 16, more
    /// live windows than that, or too few bytes.
    fn scan_lanes(&self, a: &[u8], group: LaneGroup<'_>, bound: f32, out: &mut Vec<(u32, f32)>)
    where
        [u8]: AsRef<T>,
        Self: Sized,
    {
        crate::lanes::scan_per_pair(a, group, bound, out, |a, c, bound| {
            self.dist_bounded(a.as_ref(), c.as_ref(), bound)
        });
    }
}

/// Hamming distance over equal-length encoded windows — the paper's DNA
/// metric. Counts positions whose residue codes differ.
///
/// # Panics
/// Panics if the windows have different lengths; Mendel only ever compares
/// same-length inverted-index blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// `dist_bounded` is the trait default: [`Hamming::count`], then a
/// compare — one `cmpeq` + `movemask` per 16 bytes beats abandoning early
/// at block-window lengths.
impl Metric<[u8]> for Hamming {
    #[inline]
    fn dist(&self, a: &[u8], b: &[u8]) -> f32 {
        Hamming::count(a, b) as f32
    }

    /// One `cmpeq` per position scores all of the group's lanes
    /// ([`crate::simd`]).
    fn scan_lanes(&self, a: &[u8], group: LaneGroup<'_>, bound: f32, out: &mut Vec<(u32, f32)>) {
        crate::simd::hamming_scan_lanes(a, group, bound, out);
    }
}

/// A per-residue distance table derived from a scoring matrix, composed
/// over windows with an L1 sum.
///
/// Entries are whole numbers of **half-units** (see the module docs):
/// `residue_dist` and every window distance are an integer × 0.5, exact in
/// `f32` below 2²⁴ half-units.
#[derive(Debug, Clone, PartialEq)]
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
    // audit:allow(unreached): tests/properties.rs and this file's tests use it as a table-driven Hamming metric
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
    // audit:allow(unreached): the oracle this module's tests and `mendel`'s metric tests hold `repair_metric` to
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

    /// Sixteen windows per kernel call, one per byte lane, one column load
    /// per position (`simd::matrix_scan_lanes`); per pair when the table
    /// does not fit `u8` rows or SIMD is off.
    ///
    /// # Panics
    /// As [`Metric::dist`], for the query and every live window, on every
    /// path.
    fn scan_lanes(&self, a: &[u8], group: LaneGroup<'_>, bound: f32, out: &mut Vec<(u32, f32)>) {
        crate::simd::matrix_scan_lanes(&self.half, &self.rows, self.n, a, group, bound, out);
    }
}

/// Reference wrapper that disables early abandoning: `dist_bounded` always
/// computes the full distance via the trait default. Searches through an
/// `Unbounded<M>` tree take the exact same code path as through `M` — only
/// the kernel differs — which is what the bit-identity tests compare
/// against.
// audit:allow(unreached): the reference kernel of the bit-identity tests in tests/properties.rs, tests/observability.rs and mendel-vptree's tree tests
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Unbounded<M>(pub M);

impl<T: ?Sized, M: Metric<T>> Metric<T> for Unbounded<M> {
    #[inline]
    fn dist(&self, a: &T, b: &T) -> f32 {
        self.0.dist(a, b)
    }
    // `dist_bounded` and `scan_lanes` deliberately left at the trait
    // defaults: full distance, then compare against the bound, one pair
    // at a time — a lane group's windows copied out one by one.
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
    use crate::lanes::tests::scan_packed;

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
        assert_eq!(
            m.residue_dist(x, a),
            *m.half.iter().max().unwrap() as f32 * 0.5
        );
    }

    #[test]
    fn paper_matrix_violates_triangle_but_repair_fixes_it() {
        // This is the documented deviation: the published transform is not
        // quite a metric; the shortest-path closure is.
        let m = MatrixDistance::mendel(&ScoringMatrix::blosum62());
        let r = m.repair_metric();
        assert_eq!(
            r.metric_violation(),
            None,
            "repaired table must satisfy all axioms"
        );
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
        assert_eq!(u.metric_violation(), None);
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
        let a = [0u8; 32];
        let b = [1u8; 32]; // distance 32
        assert_eq!(m.dist_bounded(&a[..], &b[..], 31.0), None);
        assert_eq!(m.dist_bounded(&a[..], &b[..], 32.0), Some(32.0));
        assert_eq!(Hamming.dist_bounded(&a[..], &b[..], 10.0), None);
    }

    #[test]
    fn unbounded_wrapper_never_abandons_early_but_respects_bound() {
        let m = Unbounded(MatrixDistance::unit(Alphabet::Dna));
        let a = [0u8; 16];
        let b = [1u8; 16];
        assert_eq!(m.dist(&a[..], &b[..]), 16.0);
        assert_eq!(m.dist_bounded(&a[..], &b[..], 15.9), None);
        assert_eq!(m.dist_bounded(&a[..], &b[..], 16.0), Some(16.0));
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

    /// Survivors of `cands`, packed lane-major by `write_lanes`, through
    /// `scan_lanes`' production dispatch (vector lanes when the table,
    /// bound and CPU allow) and through the lane kernel with the `u8` rows
    /// withheld — the per-pair integer path `set_simd_enabled(false)`
    /// selects, forced here so no test flips the process-wide switch.
    fn both_scans(
        m: &MatrixDistance,
        q: &[u8],
        cands: &[Vec<u8>],
        bound: f32,
    ) -> [Vec<(u32, u32)>; 2] {
        let bits = |v: Vec<(u32, f32)>| v.into_iter().map(|(j, d)| (j, d.to_bits())).collect();
        let dispatched = scan_packed(q, cands, |group, out| m.scan_lanes(q, group, bound, out));
        let per_pair = scan_packed(q, cands, |group, out| {
            crate::simd::matrix_scan_lanes(&m.half, &[], m.n, q, group, bound, out)
        });
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

    /// The wide (`u16`) lanes every bound from 127.5 up takes, `∞`
    /// included: BLOSUM62's 24-letter table (codes 16–23 read the upper
    /// `pshufb` half), 16-residue windows (one full tile) and 20-residue
    /// ones (a short second tile), through the dispatched scan and the
    /// per-pair path — each survivor's distance bit-identical to `dist`.
    /// A candidate code outside the table still panics on this path.
    #[test]
    fn wide_lanes_equal_the_per_pair_distance() {
        let m = MatrixDistance::mendel(&ScoringMatrix::blosum62());
        let mut state = 0x5EED_u64;
        let mut code = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 24) as u8
        };
        for len in [16usize, 20] {
            let q: Vec<u8> = (0..len).map(|_| code()).collect();
            let cands: Vec<Vec<u8>> = (0..37)
                .map(|_| (0..len).map(|_| code()).collect())
                .collect();
            assert!(cands.iter().flatten().any(|&c| c >= 16));
            for bound in [127.5f32, 128.0, 1e6, f32::INFINITY] {
                let want: Vec<(u32, u32)> = (0u32..)
                    .zip(&cands)
                    .map(|(j, c)| (j, m.dist(&q[..], &c[..])))
                    .filter(|&(_, d)| d <= bound)
                    .map(|(j, d)| (j, d.to_bits()))
                    .collect();
                if bound > 1e5 {
                    assert_eq!(want.len(), cands.len());
                }
                for got in both_scans(&m, &q, &cands, bound) {
                    assert_eq!(got, want, "len {len} bound {bound}");
                }
                // The dispatched scan alone: the per-pair path panics
                // whatever the vector path does.
                let mut bad = cands.clone();
                bad[20][len - 1] = 24;
                let scan = std::panic::catch_unwind(|| {
                    scan_packed(&q, &bad, |group, out| m.scan_lanes(&q, group, bound, out))
                });
                assert!(scan.is_err(), "len {len} bound {bound}: code 24 accepted");
            }
        }
    }

    #[test]
    fn wide_lane_saturation_is_exact() {
        // 255-half-unit mismatches over 300 residues: sums from 0 to
        // 76,500, across the 65,535 at which a `u16` lane saturates. A
        // saturated lane is rejected under a limit below 65,535 and scored
        // per pair above it; 65,535 itself is a true sum here.
        let m = table(2, vec![0, 255, 255, 0]);
        assert!(!m.rows.is_empty(), "fits u8 rows");
        let q = vec![0u8; 300];
        let cands: Vec<Vec<u8>> = [0usize, 1, 256, 257, 258, 300]
            .iter()
            .map(|&ones| (0..300).map(|i| u8::from(i < ones)).collect())
            .collect();
        for (bound, survivors) in [
            (32_639.5, 2),
            (32_640.0, 3),
            (32_767.0, 3),
            (32_767.5, 4),
            (40_000.0, 6),
            (f32::INFINITY, 6),
        ] {
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
                // window in a full lane group and in the tail group;
                // `both_scans` stops at the dispatched scan, so the
                // rows-withheld path gets its own call. Then a bad *query*
                // against clean windows.
                for bad_at in [5usize, 17] {
                    let mut cands = vec![far.clone(); 19];
                    cands[bad_at] = bad.clone();
                    let per_pair = |q: &[u8], cands: &[Vec<u8>]| {
                        scan_packed(q, cands, |group, out| {
                            crate::simd::matrix_scan_lanes(&m.half, &[], m.n, q, group, bound, out)
                        })
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

    /// The lane kernels against per-pair `dist`: one generated leaf per
    /// seed, every lane group of it scored under bounds on both sides of
    /// the `u8` / `u16` lane split, through every path a group can take.
    mod lane_properties {
        use super::*;
        use crate::lanes::{groups, lane_bytes, scan_per_pair, write_lanes, LaneGroup};
        use proptest::prelude::*;

        struct Case {
            /// `None` for Hamming.
            table: Option<MatrixDistance>,
            /// Codes drawn below this.
            letters: usize,
            len: usize,
            q: Vec<u8>,
            windows: Vec<Vec<u8>>,
            /// Live windows per group, drawn up to each group's width.
            live: Vec<usize>,
        }

        fn case(seed: u64) -> Case {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut below = move |bound: usize| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % bound as u64) as usize
            };
            let len = 1 + below(64);
            let count = 1 + below(40);
            let (table, letters) = if below(4) == 0 {
                (None, 4)
            } else if below(2) == 0 {
                (Some(MatrixDistance::mendel(&ScoringMatrix::blosum62())), 24)
            } else {
                // 255 half-units = 127.5: u8 lanes saturate from two
                // residues on; 2000 does not fit a u8 row at all.
                let n = 2 + below(31);
                let ceiling = [3, 26, 255, 2000][below(4)];
                let half: Vec<u32> = (0..n * n)
                    .map(|i| {
                        if i / n == i % n {
                            0
                        } else {
                            below(ceiling + 1) as u32
                        }
                    })
                    .collect();
                (Some(table(n, half)), n)
            };
            let q: Vec<u8> = (0..len).map(|_| below(letters) as u8).collect();
            // Near-copies of the query keep some sums under tight bounds.
            let windows = (0..count)
                .map(|j| {
                    let mut w: Vec<u8> = (0..len).map(|_| below(letters) as u8).collect();
                    if j % 3 == 0 {
                        w.copy_from_slice(&q);
                        w[j % len] = (j % letters) as u8;
                    }
                    w
                })
                .collect();
            let live = (0..count.div_ceil(16))
                .map(|g| {
                    let width = (count - 16 * g).min(16);
                    if below(3) == 0 {
                        below(width + 1)
                    } else {
                        width
                    }
                })
                .collect();
            Case {
                table,
                letters,
                len,
                q,
                windows,
                live,
            }
        }

        type Survivors = Vec<(u32, u32)>;

        /// Run `scan` on `group` and return its survivors as bits.
        fn run(scan: impl FnOnce(&mut Vec<(u32, f32)>)) -> Survivors {
            let mut out = Vec::new();
            scan(&mut out);
            out.into_iter().map(|(j, d)| (j, d.to_bits())).collect()
        }

        /// The paths a lane group can take: the dispatched kernel (vector
        /// lanes where the table, bound and CPU allow), the matrix kernel
        /// with its `u8` rows withheld, and the per-pair path the SIMD kill
        /// switch selects.
        const PATHS: [&str; 3] = ["dispatched", "rows withheld", "simd off"];

        /// The survivors of `path`, or `None` where a metric has no such
        /// path (Hamming has no rows).
        fn scan(c: &Case, path: &str, group: LaneGroup<'_>, bound: f32) -> Option<Survivors> {
            let q = &c.q[..];
            let survivors = match (&c.table, path) {
                (Some(m), "dispatched") => run(|out| m.scan_lanes(q, group, bound, out)),
                (Some(m), "rows withheld") => run(|out| {
                    crate::simd::matrix_scan_lanes(&m.half, &[], m.n, q, group, bound, out)
                }),
                (Some(m), _) => run(|out| {
                    scan_per_pair(q, group, bound, out, |a, b, bound| {
                        crate::simd::matrix_dist_bounded(&m.half, m.n, a, b, bound)
                    })
                }),
                (None, "dispatched") => run(|out| Hamming.scan_lanes(q, group, bound, out)),
                (None, "rows withheld") => return None,
                (None, _) => run(|out| {
                    scan_per_pair(q, group, bound, out, |a, b, bound| {
                        let d = crate::simd::hamming_scalar(a, b) as f32;
                        (d <= bound).then_some(d)
                    })
                }),
            };
            Some(survivors)
        }

        fn dist(c: &Case, a: &[u8], b: &[u8]) -> f32 {
            match &c.table {
                Some(m) => m.dist(a, b),
                None => Hamming.dist(a, b),
            }
        }

        fn lanes_agree(seed: u64) -> Result<(), TestCaseError> {
            let c = case(seed);
            let mut lanes = vec![0u8; lane_bytes(c.windows.len(), c.len)];
            write_lanes(c.windows.iter().map(Vec::as_slice), c.len, &mut lanes);
            let some = dist(&c, &c.q, &c.windows[c.windows.len() / 2]);
            for (g, (first, group)) in groups(&lanes, c.windows.len(), c.len).enumerate() {
                let live = c.live[g];
                // With the leaf's tail slack and cut to the group's own
                // bytes, where the last columns are copied, not loaded.
                let exact = &group.bytes[..group.width * c.len];
                for bytes in [group.bytes, exact] {
                    let group = LaneGroup {
                        bytes,
                        live,
                        ..group
                    };
                    for bound in [
                        0.0,
                        some,
                        some - 0.5,
                        127.0,
                        127.5,
                        32_767.5,
                        f32::INFINITY,
                        -1.0,
                    ] {
                        let want: Survivors = (0u32..)
                            .zip(&c.windows[first..first + live])
                            .map(|(j, w)| (j, dist(&c, &c.q, w)))
                            .filter(|&(_, d)| d <= bound)
                            .map(|(j, d)| (j, d.to_bits()))
                            .collect();
                        for path in PATHS {
                            if let Some(got) = scan(&c, path, group, bound) {
                                prop_assert_eq!(
                                    &got,
                                    &want,
                                    "seed {} group {} {} bound {}",
                                    seed,
                                    g,
                                    path,
                                    bound
                                );
                            }
                        }
                    }
                }
            }
            // A code outside the table panics from a live lane on every
            // path, and is never read from a dead one.
            if c.table.is_some() {
                let count = c.windows.len();
                let (first, group) = groups(&lanes, count, c.len).last().expect("a group");
                let j = group.width - 1;
                let mut bad = lanes.clone();
                bad[first * c.len + (c.len - 1) * group.width + j] = c.letters as u8;
                let clean = LaneGroup { live: j, ..group };
                let dead = LaneGroup {
                    bytes: &bad[first * c.len..],
                    live: j,
                    ..group
                };
                let live = LaneGroup {
                    live: j + 1,
                    ..dead
                };
                for bound in [1.0, f32::INFINITY] {
                    for path in PATHS {
                        prop_assert_eq!(scan(&c, path, dead, bound), scan(&c, path, clean, bound));
                        let scored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            scan(&c, path, live, bound)
                        }));
                        prop_assert!(
                            scored.is_err(),
                            "seed {} {} bound {}: code accepted",
                            seed,
                            path,
                            bound
                        );
                    }
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2_000))]

            /// Every lane path returns per-pair `dist`'s survivors, index
            /// for index and bit for bit.
            #[test]
            fn lane_kernels_equal_the_per_pair_distance(seed in any::<u64>()) {
                lanes_agree(seed)?;
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(40_000))]

            /// The same at 20× the cases, in release only (`ci.sh`).
            #[test]
            #[cfg_attr(debug_assertions, ignore)]
            fn lane_kernels_equal_the_per_pair_distance_release_sweep(seed in any::<u64>()) {
                lanes_agree(seed)?;
            }
        }

        /// The first 2,000 draws reach every corner the sweep claims.
        #[test]
        fn lane_cases_reach_every_corner() {
            let cases: Vec<Case> = (0..2_000).map(case).collect();
            let any = |p: &dyn Fn(&Case) -> bool| cases.iter().any(p);
            for width in 1..=16 {
                assert!(
                    any(&|c| c.windows.len() % 16 == width % 16),
                    "width {width}"
                );
            }
            for len in 1..=64 {
                assert!(any(&|c| c.len == len), "length {len}");
            }
            assert!(any(&|c| c.table.is_none()));
            assert!(any(&|c| c
                .table
                .as_ref()
                .is_some_and(|m| m.rows.is_empty())));
            assert!(any(&|c| c.table.as_ref().is_some_and(|m| m.n == 24)));
            assert!(any(&|c| c
                .live
                .iter()
                .zip(0..)
                .any(|(&l, g)| l < (c.windows.len() - 16 * g).min(16))));
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
