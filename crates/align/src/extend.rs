//! Seed extensions: ungapped X-drop and banded gapped X-drop.
//!
//! Both Mendel (§V-B: anchors are "incrementally extended until the
//! extension deteriorates the score") and BLAST grow short seed matches
//! into longer high-scoring pairs. The ungapped extension walks the
//! diagonal in both directions, keeping the best prefix/suffix and
//! stopping once the running score drops more than `x_drop` below the
//! best seen. The gapped extension runs an affine-gap DP restricted to a
//! band of `band` diagonals either side of the anchor diagonal — the
//! paper's `l` query parameter ("gapped alignment band width").
//!
//! # The banded kernel
//!
//! Each half of [`extend_gapped_banded`] is Gotoh's affine-gap recurrence
//! (as in Gapped BLAST), anchored at (0, 0) and kept to the cells with
//! |i − j| ≤ `band`, where `open1 = open + extend` is the cost of a
//! one-residue gap:
//!
//! ```text
//! F[i][j] = max(F[i−1][j] − extend, H[i−1][j] − open1)     gap in a
//! E[i][j] = max(E[i][j−1] − extend, H[i][j−1] − open1)     gap in b
//! H[i][j] = max(H[i−1][j−1] + s(a_i, b_j), E[i][j], F[i][j])
//! ```
//!
//! with `H[0][j] = −cost(j)` and `H[i][0] = −cost(i)` inside the band.
//! Written that way, every cell waits on its left neighbour's H, which
//! waits on its E: a serial chain of several operations per cell. The
//! kernel splits H instead. `T[j] = max(H[i−1][j−1] + s, F[j])` reads
//! only the previous row, and
//!
//! ```text
//! E[j] = max(E[j−1] − extend, T[j−1] − open1),   H[j] = max(T[j], E[j])
//! ```
//!
//! leaves E's subtract-and-max as the only chain carried along the row.
//! E may follow T instead of H because `H[j−1] = max(T[j−1], E[j−1])` and
//! `E[j−1] − open1 ≤ E[j−1] − extend` whenever `open ≥ 0`, so the term
//! dropped never wins. At the band's first column the left neighbour is
//! the boundary H itself. One sweep per row computes F, T, E, H and the
//! row maximum over three buffers allocated once per half (two H rows,
//! swapped, and F by column), with no branch per cell.
//!
//! Cells outside the band read as `NEG = i32::MIN / 4`, and the adds are
//! plain. Every cell inside the band has a path from (0, 0) inside the
//! band, so it holds a real score, at least
//! `−(|a| + |b|)·max(open1, −min s)`. Only F in the row its column enters
//! the band and E at the band's first column can be built from outside
//! cells alone; they, and the one subtraction each takes before a real
//! score replaces them, stay above `NEG − 2·open1`. So nothing
//! overflows, and no such value beats a real score while real scores stay
//! above NEG, i.e. while `(|a| + |b|)·max(open1, −min s) < 2^29`.
//!
//! # The lane kernel
//!
//! On x86_64 with SSSE3 and SSE4.1, a half whose scores fit `i16` runs
//! the same recurrence eight cells per instruction (`extend/sse41.rs`):
//! each row held in band coordinates, E carried along the row as a prefix
//! max, scores looked up from [`ScoringMatrix::i8_rows`]. Its outputs are
//! the scalar kernel's on every field. A half outside the `i16` domain,
//! a matrix without `i8` rows and every half while
//! [`mendel_seq::simd::set_simd_enabled`]`(false)` holds run the scalar
//! kernel above, which stays the fallback and the oracle (DESIGN §19).

use crate::alignment::GapPenalties;
use mendel_seq::ScoringMatrix;

#[cfg(target_arch = "x86_64")]
mod sse41;

/// The DP's stand-in for −∞ (see the module doc for its margin).
const NEG: i32 = i32::MIN / 4;

/// Result of an ungapped diagonal extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UngappedExtension {
    /// Query range `[query_start, query_end)` of the extended segment.
    pub query_start: usize,
    /// Exclusive end in the query.
    pub query_end: usize,
    /// Subject range start (the diagonal offset is constant).
    pub subject_start: usize,
    /// Exclusive end in the subject.
    pub subject_end: usize,
    /// Ungapped segment score.
    pub score: i32,
}

impl UngappedExtension {
    /// The diagonal (subject_start − query_start) this segment lies on.
    #[inline]
    pub fn diagonal(&self) -> i64 {
        self.subject_start as i64 - self.query_start as i64
    }

    /// Segment length in residues.
    #[inline]
    pub fn len(&self) -> usize {
        self.query_end - self.query_start
    }

    /// True when the extension is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Extend an exact or inexact seed `query[q..q+len)` / `subject[s..s+len)`
/// in both directions along the diagonal with X-drop termination.
///
/// # Panics
/// Panics if the seed ranges fall outside the sequences.
pub fn extend_ungapped(
    query: &[u8],
    subject: &[u8],
    q_start: usize,
    s_start: usize,
    seed_len: usize,
    matrix: &ScoringMatrix,
    x_drop: i32,
) -> UngappedExtension {
    assert!(q_start + seed_len <= query.len(), "seed exceeds query");
    assert!(s_start + seed_len <= subject.len(), "seed exceeds subject");
    assert!(seed_len > 0, "seed must be non-empty");
    assert!(x_drop >= 0, "x_drop must be non-negative");

    let seed_score: i32 = (0..seed_len)
        .map(|k| matrix.score(query[q_start + k], subject[s_start + k]))
        .sum();

    // Right extension.
    let mut best_right = 0i32;
    let mut right = 0usize; // residues beyond the seed
    let mut run = 0i32;
    let mut k = 0usize;
    while q_start + seed_len + k < query.len() && s_start + seed_len + k < subject.len() {
        run += matrix.score(
            query[q_start + seed_len + k],
            subject[s_start + seed_len + k],
        );
        k += 1;
        if run > best_right {
            best_right = run;
            right = k;
        } else if best_right - run > x_drop {
            break;
        }
    }

    // Left extension.
    let mut best_left = 0i32;
    let mut left = 0usize;
    run = 0;
    k = 0;
    while q_start > k && s_start > k {
        run += matrix.score(query[q_start - 1 - k], subject[s_start - 1 - k]);
        k += 1;
        if run > best_left {
            best_left = run;
            left = k;
        } else if best_left - run > x_drop {
            break;
        }
    }

    UngappedExtension {
        query_start: q_start - left,
        query_end: q_start + seed_len + right,
        subject_start: s_start - left,
        subject_end: s_start + seed_len + right,
        score: seed_score + best_left + best_right,
    }
}

/// Result of a banded gapped extension: endpoints and score only, no
/// traceback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GappedExtension {
    /// Query range of the gapped alignment.
    pub query_start: usize,
    /// Exclusive query end.
    pub query_end: usize,
    /// Subject range of the gapped alignment.
    pub subject_start: usize,
    /// Exclusive subject end.
    pub subject_end: usize,
    /// Gapped alignment score.
    pub score: i32,
    /// DP cells evaluated over both halves: the work the extension cost.
    pub cells: u64,
}

/// Gapped extension from an anchor midpoint `(q_mid, s_mid)` in both
/// directions, restricted to `band` diagonals either side of the anchor
/// diagonal (the paper's `l`). Uses affine gaps and X-drop termination
/// per DP row (see the module doc for the kernel). `gaps.open` must not be
/// negative.
#[allow(
    clippy::too_many_arguments,
    reason = "the anchor and the DP's scoring, band and X-drop are the call; `benchmark/`'s layer probe calls this signature positionally"
)]
pub fn extend_gapped_banded(
    query: &[u8],
    subject: &[u8],
    q_mid: usize,
    s_mid: usize,
    matrix: &ScoringMatrix,
    gaps: GapPenalties,
    band: usize,
    x_drop: i32,
) -> GappedExtension {
    let ends = (query, subject, q_mid, s_mid);
    extend_with(ends, matrix, gaps, band, x_drop, banded_half)
}

/// The signature of one half's kernel: [`banded_half`] or [`scalar_half`].
type HalfKernel = fn(&[u8], &[u8], &ScoringMatrix, GapPenalties, usize, i32) -> Half;

/// [`extend_gapped_banded`] with each half run by `half`.
fn extend_with(
    (query, subject, q_mid, s_mid): (&[u8], &[u8], usize, usize),
    matrix: &ScoringMatrix,
    gaps: GapPenalties,
    band: usize,
    x_drop: i32,
    half: HalfKernel,
) -> GappedExtension {
    assert!(
        q_mid <= query.len() && s_mid <= subject.len(),
        "anchor outside sequences"
    );
    // A half's cells all lie within |a| + |b| of its diagonal, so no wider
    // band adds one; clamping keeps `i + band` and the lane buffers'
    // sizes in range whatever band the caller passed.
    let band = band.min(query.len() + subject.len());
    // Forward half: align query[q_mid..] vs subject[s_mid..] anchored at
    // (0,0). Backward half: the same on reversed prefixes. The two copies
    // are a few hundred bytes against a DP of tens of thousands of cells.
    let fw = half(
        &query[q_mid..],
        &subject[s_mid..],
        matrix,
        gaps,
        band,
        x_drop,
    );
    let rq: Vec<u8> = query[..q_mid].iter().rev().copied().collect();
    let rs: Vec<u8> = subject[..s_mid].iter().rev().copied().collect();
    let bw = half(&rq, &rs, matrix, gaps, band, x_drop);
    GappedExtension {
        query_start: q_mid - bw.a_len,
        query_end: q_mid + fw.a_len,
        subject_start: s_mid - bw.b_len,
        subject_end: s_mid + fw.b_len,
        score: fw.score + bw.score,
        cells: fw.cells + bw.cells,
    }
}

/// What one direction of the banded extension found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Half {
    /// Best score (0 when nothing beats the empty extension).
    score: i32,
    /// Residues of `a` the best alignment covers.
    a_len: usize,
    /// Residues of `b` the best alignment covers.
    b_len: usize,
    /// DP cells evaluated.
    cells: u64,
}

#[cfg(test)]
thread_local! {
    /// Halves the lane kernel ran on this thread (the test hook behind
    /// `benchmark_shaped_halves_run_in_lanes`).
    static LANE_HALVES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One direction of the banded extension: the lane kernel when the half
/// fits it ([`lanes_fit`]), the scalar kernel otherwise. `band` is at most
/// the whole pair's |q| + |s| ([`extend_with`] clamps it), so no sum with
/// it wraps.
fn banded_half(
    a: &[u8],
    b: &[u8],
    matrix: &ScoringMatrix,
    gaps: GapPenalties,
    band: usize,
    x_drop: i32,
) -> Half {
    #[cfg(target_arch = "x86_64")]
    if let Some(rows) = lanes_fit(a, b, matrix, gaps, band) {
        #[cfg(test)]
        LANE_HALVES.with(|c| c.set(c.get() + 1));
        // SAFETY: `lanes_fit` verified SSSE3 and SSE4.1, a row of `rows`
        // for every code the half reads, and scores that fit `i16`.
        return unsafe { sse41::banded_half(a, b, rows, gaps, band, x_drop) };
    }
    scalar_half(a, b, matrix, gaps, band, x_drop)
}

/// The `i16` domain guard, with the scalar kernel's sizes: the matrix's
/// `i8` rows when the lane kernel can run this half exactly — SIMD on, a
/// CPU with SSSE3 and SSE4.1, both sides non-empty, non-negative gap
/// costs, every code of `a` and of the `n = min(|b|, |a| + band)` columns
/// a row can reach inside the table, and
///
/// ```text
/// (|a| + n + 2) · max(open1, −min s, max s) ≤ 2^14
/// ```
///
/// so that every real score and each one step from it fits `i16` with
/// room to spare (DESIGN §19 argues the bound).
#[cfg(target_arch = "x86_64")]
fn lanes_fit<'m>(
    a: &[u8],
    b: &[u8],
    matrix: &'m ScoringMatrix,
    gaps: GapPenalties,
    band: usize,
) -> Option<&'m [[i8; mendel_seq::matrix::I8_ROW]]> {
    if a.is_empty() || b.is_empty() || gaps.open < 0 || gaps.extend < 0 {
        return None;
    }
    let n = b.len().min(a.len() + band);
    if !fits_i16(a.len(), n, matrix, gaps) {
        return None;
    }
    let rows = matrix.i8_rows()?;
    let top = a.iter().max().max(b[..n].iter().max());
    let inside = top.is_some_and(|&t| usize::from(t) < rows.len());
    let cpu = std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1");
    (inside && cpu && mendel_seq::simd::simd_enabled()).then_some(rows)
}

/// The `i16` bound of [`lanes_fit`] for a half of `a_len` rows and `n`
/// columns: `(|a| + n + 2) · max(open1, −min s, max s) ≤ 2^14`.
fn fits_i16(a_len: usize, n: usize, matrix: &ScoringMatrix, gaps: GapPenalties) -> bool {
    let (min_s, max_s) = matrix.extremes();
    let c = (i64::from(gaps.open) + i64::from(gaps.extend))
        .max(-i64::from(min_s))
        .max(i64::from(max_s));
    (a_len + n + 2) as i64 * c <= 1 << 14
}

/// One direction of the banded extension, scalar: the module doc's DP
/// from (0,0) over `a` × `b`, keeping cells within `band` of the main
/// diagonal and X-dropping rows. The best cell is the first maximum in
/// row-major order.
fn scalar_half(
    a: &[u8],
    b: &[u8],
    matrix: &ScoringMatrix,
    gaps: GapPenalties,
    band: usize,
    x_drop: i32,
) -> Half {
    debug_assert!(gaps.open >= 0, "E may follow T only when open >= 0");
    if a.is_empty() || b.is_empty() {
        return Half::default();
    }
    // No row reaches past column |a| + band.
    let n = b.len().min(a.len() + band);
    let (extend, open1) = (gaps.extend, gaps.cost(1));
    // Two H rows, swapped after each DP row, and F by column. A column
    // enters the band once, from the right, where both buffers still hold
    // their initial NEG, and is never read after it leaves; so the only
    // cell of a reused row read before this row writes it is the one left
    // of the band, set per row below.
    let mut h_prev = vec![NEG; n + 1];
    let mut h_row = vec![NEG; n + 1];
    let mut f = vec![NEG; n + 1];
    h_prev[0] = 0;
    // Row 0: leading gap in `a` (delete run) within the band.
    for (j, h) in h_prev.iter_mut().enumerate().take(band + 1).skip(1) {
        *h = -gaps.cost(j);
    }
    let (mut best, mut best_at, mut cells) = (0i32, (0usize, 0usize), 0u64);

    for (i, &code) in (1usize..).zip(a) {
        let lo = i.saturating_sub(band).max(1);
        let hi = (i + band).min(n);
        if lo > hi {
            break;
        }
        // Column 0 is inside the band while i <= band: a leading gap in
        // `b` (insert run).
        h_row[lo - 1] = if lo == 1 && i <= band {
            -gaps.cost(i)
        } else {
            NEG
        };
        let score = matrix.row(code);
        // E's chain is the only one carried from cell to cell; `left` is T
        // one column back (the boundary H at the band's first column).
        let (mut e, mut left, mut row_best) = (NEG, h_row[lo - 1], NEG);
        for (((h, fj), up), &bj) in h_row[lo..=hi]
            .iter_mut()
            .zip(&mut f[lo..=hi])
            .zip(h_prev[lo - 1..=hi].windows(2))
            .zip(&b[lo - 1..hi])
        {
            *fj = (*fj - extend).max(up[1] - open1);
            let t = (up[0] + score[usize::from(bj)]).max(*fj);
            e = (e - extend).max(left - open1);
            left = t;
            *h = t.max(e);
            row_best = row_best.max(*h);
        }
        // The row's first maximum is where a row-major scan with a strict
        // `>` would have left `best_at`.
        if row_best > best {
            let first = h_row[lo..=hi].iter().position(|&v| v == row_best);
            best = row_best;
            best_at = (i, lo + first.unwrap_or(0));
        }
        cells += (hi - lo + 1) as u64;
        if best - row_best > x_drop {
            break;
        }
        std::mem::swap(&mut h_prev, &mut h_row);
    }
    Half {
        score: best,
        a_len: best_at.0,
        b_len: best_at.1,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mendel_seq::Alphabet;

    fn dna(s: &[u8]) -> Vec<u8> {
        Alphabet::Dna.encode_seq(s).unwrap()
    }

    fn m() -> ScoringMatrix {
        ScoringMatrix::dna(2, -3)
    }

    const GAPS: GapPenalties = GapPenalties { open: 5, extend: 2 };

    #[test]
    fn ungapped_extends_both_directions() {
        let q = dna(b"AAAACGTACGTAAAA");
        let s = dna(b"AAAACGTACGTAAAA");
        // Seed at the middle 3 bases.
        let ext = extend_ungapped(&q, &s, 6, 6, 3, &m(), 10);
        assert_eq!(ext.query_start, 0);
        assert_eq!(ext.query_end, 15);
        assert_eq!(ext.score, 30);
        assert_eq!(ext.diagonal(), 0);
    }

    #[test]
    fn ungapped_stops_at_mismatch_wall() {
        // Identical core flanked by garbage on the subject side.
        let q = dna(b"CCCCCACGTACGTCCCCC");
        let s = dna(b"GGGGGACGTACGTGGGGG");
        let ext = extend_ungapped(&q, &s, 5, 5, 8, &m(), 4);
        assert_eq!(ext.query_start, 5, "left wall");
        assert_eq!(ext.query_end, 13, "right wall");
        assert_eq!(ext.score, 16);
    }

    #[test]
    fn ungapped_climbs_through_small_dips() {
        // One mismatch inside a long identical run: x_drop=10 bridges it.
        let q = dna(b"ACGTACGTACGTACGT");
        let mut s = q.clone();
        s[12] = (s[12] + 1) % 4;
        let ext = extend_ungapped(&q, &s, 0, 0, 4, &m(), 10);
        assert_eq!(ext.query_end, 16, "should extend past the dip");
        assert_eq!(ext.score, 15 * 2 - 3);
    }

    #[test]
    fn ungapped_respects_offsets() {
        let q = dna(b"ACGTACGT");
        let s = dna(b"TTACGTACGTTT");
        let ext = extend_ungapped(&q, &s, 0, 2, 4, &m(), 5);
        assert_eq!(ext.diagonal(), 2);
        assert_eq!(ext.query_end - ext.query_start, 8);
        assert_eq!(ext.score, 16);
    }

    #[test]
    #[should_panic(expected = "seed exceeds query")]
    fn ungapped_panics_on_bad_seed() {
        let q = dna(b"ACG");
        extend_ungapped(&q, &q, 2, 0, 5, &m(), 5);
    }

    #[test]
    fn gapped_bridges_an_indel() {
        // Subject = query with 2 bases missing in the middle; the ungapped
        // extension cannot cross, the banded gapped one can.
        let q = dna(b"ACGTACGTAAGGCCTTACGT");
        let s = dna(b"ACGTACGTGGCCTTACGT"); // "AA" removed at 8
        let anchored = extend_gapped_banded(&q, &s, 4, 4, &m(), GAPS, 4, 20);
        assert_eq!(anchored.query_start, 0);
        assert_eq!(anchored.query_end, 20);
        assert_eq!(anchored.subject_end, 18);
        // 18 matched columns * 2 - gap cost (5 + 2*2)
        assert_eq!(anchored.score, 36 - 9);
    }

    #[test]
    fn gapped_score_matches_smith_waterman_when_band_is_wide() {
        use crate::local::smith_waterman_score;
        let q = dna(b"ACGTAACCGGTTACGTACGT");
        let s = dna(b"ACGTACCGGTTTACGTAGT");
        let sw = smith_waterman_score(&q, &s, &m(), GAPS);
        // Anchor on the exact common prefix; a huge band makes the banded
        // extension equivalent to unrestricted gapped extension from (0,0).
        let ge = extend_gapped_banded(&q, &s, 0, 0, &m(), GAPS, 64, 1000);
        assert!(ge.score <= sw, "anchored extension cannot beat free SW");
        assert!(
            ge.score >= sw - 4,
            "wide band should be near SW ({} vs {sw})",
            ge.score
        );
    }

    #[test]
    fn gapped_empty_sides_are_safe() {
        let q = dna(b"ACGT");
        let ge = extend_gapped_banded(&q, &q, 0, 0, &m(), GAPS, 4, 10);
        assert_eq!(ge.query_start, 0);
        assert_eq!(ge.query_end, 4);
        assert_eq!(ge.score, 8);
        let ge_end = extend_gapped_banded(&q, &q, 4, 4, &m(), GAPS, 4, 10);
        assert_eq!(ge_end.score, 8, "backward half must cover the prefix");
        assert_eq!(ge_end.query_start, 0);
    }

    #[test]
    fn narrow_band_blocks_large_indels() {
        // 4-base indel: bridging costs 5+2·4=13 and buys 10 matches (+20),
        // so a band ≥ 4 takes the gap while a band of 2 cannot reach it.
        let q = dna(b"ACGTACGTAAAAGGCCTTACGT");
        let s = dna(b"ACGTACGTGGCCTTACGT"); // "AAAA" removed after position 8
        let narrow = extend_gapped_banded(&q, &s, 4, 4, &m(), GAPS, 2, 30);
        let wide = extend_gapped_banded(&q, &s, 4, 4, &m(), GAPS, 16, 30);
        assert_eq!(narrow.score, 16, "narrow band sees only the exact prefix");
        assert_eq!(
            wide.score,
            18 * 2 - GAPS.cost(4),
            "wide band bridges the indel"
        );
    }
}

/// The banded kernel as it stood before the E-from-T rewrite, kept
/// verbatim apart from a cell count: the oracle the scalar kernel and the
/// lane kernel must match on every field, for every input.
#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "the SIMD switch lock is a const-built std Mutex; this crate does not depend on parking_lot"
)]
mod reference {
    use super::*;
    use mendel_seq::gen::{random_sequence, MutationModel};
    use mendel_seq::simd::{active_kernel, set_simd_enabled};
    use mendel_seq::Alphabet;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::sync::{Mutex, MutexGuard};

    /// Held by every test here that flips the process-wide SIMD switch or
    /// needs it on: the dispatched path must not quietly run scalar.
    fn switch() -> MutexGuard<'static, ()> {
        static SWITCH: Mutex<()> = Mutex::new(());
        SWITCH.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "the oracle keeps the kernel's signature, argument for argument"
    )]
    fn reference_extend(
        query: &[u8],
        subject: &[u8],
        q_mid: usize,
        s_mid: usize,
        matrix: &ScoringMatrix,
        gaps: GapPenalties,
        band: usize,
        x_drop: i32,
    ) -> GappedExtension {
        let (fw_score, fw_q, fw_s, fw_cells) = reference_half(
            &query[q_mid..],
            &subject[s_mid..],
            matrix,
            gaps,
            band,
            x_drop,
        );
        let rq: Vec<u8> = query[..q_mid].iter().rev().copied().collect();
        let rs: Vec<u8> = subject[..s_mid].iter().rev().copied().collect();
        let (bw_score, bw_q, bw_s, bw_cells) = reference_half(&rq, &rs, matrix, gaps, band, x_drop);
        GappedExtension {
            query_start: q_mid - bw_q,
            query_end: q_mid + fw_q,
            subject_start: s_mid - bw_s,
            subject_end: s_mid + fw_s,
            score: fw_score + bw_score,
            cells: fw_cells + bw_cells,
        }
    }

    fn reference_half(
        a: &[u8],
        b: &[u8],
        matrix: &ScoringMatrix,
        gaps: GapPenalties,
        band: usize,
        x_drop: i32,
    ) -> (i32, usize, usize, u64) {
        const NEG: i32 = i32::MIN / 4;
        let n = b.len();
        if a.is_empty() || n == 0 {
            return (0, 0, 0, 0);
        }
        // Row-major DP with columns clamped to [i-band, i+band].
        let mut h_prev: Vec<i32> = vec![NEG; n + 1];
        let mut f: Vec<i32> = vec![NEG; n + 1];
        h_prev[0] = 0;
        // Row 0: leading gap in `a` (delete run) within the band.
        for (j, h) in h_prev.iter_mut().enumerate().take(n.min(band) + 1).skip(1) {
            *h = -gaps.cost(j);
        }
        let mut best = 0i32;
        let mut best_at = (0usize, 0usize);
        let mut cells = 0u64;

        for i in 1..=a.len() {
            let lo = i.saturating_sub(band).max(1);
            let hi = (i + band).min(n);
            if lo > hi {
                break;
            }
            let mut h_row: Vec<i32> = vec![NEG; n + 1];
            if lo == 1 {
                // Column 0 inside band: leading gap in `b` (insert run).
                h_row[0] = if i <= band { -gaps.cost(i) } else { NEG };
            }
            let mut e = NEG;
            let mut row_best = NEG;
            for j in lo..=hi {
                cells += 1;
                let open_from = if j >= 1 { h_row[j - 1] } else { NEG };
                e = (e - gaps.extend).max(saturating(open_from, -gaps.cost(1)));
                f[j] = (f[j] - gaps.extend).max(saturating(h_prev[j], -gaps.cost(1)));
                let diag = saturating(h_prev[j - 1], matrix.score(a[i - 1], b[j - 1]));
                let v = diag.max(e).max(f[j]);
                h_row[j] = v;
                row_best = row_best.max(v);
                if v > best {
                    best = v;
                    best_at = (i, j);
                }
            }
            if best - row_best > x_drop {
                break;
            }
            h_prev = h_row;
        }
        (
            best.max(0),
            if best > 0 { best_at.0 } else { 0 },
            if best > 0 { best_at.1 } else { 0 },
            cells,
        )
    }

    #[inline]
    fn saturating(base: i32, delta: i32) -> i32 {
        const NEG: i32 = i32::MIN / 4;
        if base <= NEG {
            NEG
        } else {
            base + delta
        }
    }

    /// One differential input.
    #[derive(Debug)]
    struct Case {
        query: Vec<u8>,
        subject: Vec<u8>,
        q_mid: usize,
        s_mid: usize,
        matrix: ScoringMatrix,
        gaps: GapPenalties,
        band: usize,
        x_drop: i32,
    }

    /// The case drawn from `seed`: BLOSUM62, DNA(+2/−3) or, one time in
    /// eight, DNA(+3/−130), which has no `i8` rows; lengths 0–1,000; a
    /// subject that is either unrelated or a mutant of the query (so the
    /// DP runs long); ambiguity codes in a quarter of the pairs; anchors at
    /// either end, on the pair's diagonal, or anywhere; band 0–64, or
    /// |query| + |subject| (+0–2), or `usize::MAX`; X-drop 0–200, open
    /// 0–15, extend 0–4.
    fn case(seed: u64) -> Case {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (alphabet, matrix) = match rng.random_range(0..8u8) {
            0..=3 => (Alphabet::Protein, ScoringMatrix::blosum62()),
            4..=6 => (Alphabet::Dna, ScoringMatrix::dna(2, -3)),
            _ => (Alphabet::Dna, ScoringMatrix::dna(3, -130)),
        };
        let max_len = [8, 300, 1_000][rng.random_range(0..3usize)];
        let len = rng.random_range(0..=max_len);
        let mut query = random_sequence(alphabet, len, &mut rng);
        let related = rng.random_bool(0.75);
        let mut subject = if related {
            let model =
                MutationModel::with_indels(rng.random_range(0.0..0.5), rng.random_range(0.0..0.15));
            model.mutate(alphabet, &query, &mut rng)
        } else {
            let len = rng.random_range(0..=max_len);
            random_sequence(alphabet, len, &mut rng)
        };
        if rng.random_bool(0.25) {
            for r in query.iter_mut().chain(subject.iter_mut()) {
                if rng.random_bool(0.02) {
                    *r = rng.random_range(0..alphabet.size() as u8);
                }
            }
        }
        let anywhere = |len: usize, rng: &mut ChaCha8Rng| match rng.random_range(0..4u8) {
            0 => 0,
            1 => len,
            _ => rng.random_range(0..=len),
        };
        let q_mid = anywhere(query.len(), &mut rng);
        let s_mid = if related && rng.random_bool(0.5) {
            (q_mid * subject.len())
                .checked_div(query.len())
                .unwrap_or(0)
        } else {
            anywhere(subject.len(), &mut rng)
        };
        let band = match rng.random_range(0..16u8) {
            0 => usize::MAX,
            1 => query.len() + subject.len() + rng.random_range(0..=2usize),
            _ => rng.random_range(0..=64),
        };
        Case {
            query,
            subject,
            q_mid,
            s_mid,
            matrix,
            gaps: GapPenalties {
                open: rng.random_range(0..=15),
                extend: rng.random_range(0..=4),
            },
            band,
            x_drop: rng.random_range(0..=200),
        }
    }

    /// Whether the case's forward half is inside the `i16` bound.
    fn forward_fits_i16(c: &Case) -> bool {
        let (a, b) = (c.query.len() - c.q_mid, c.subject.len() - c.s_mid);
        let band = c.band.min(c.query.len() + c.subject.len());
        fits_i16(a, b.min(a + band), &c.matrix, c.gaps)
    }

    fn agrees(seed: u64) -> Result<(), TestCaseError> {
        let c = case(seed);
        let (q, s) = (&c.query[..], &c.subject[..]);
        let (mid, m, gaps, x) = ((c.q_mid, c.s_mid), &c.matrix, c.gaps, c.x_drop);
        // The reference adds the band unclamped; half of `usize::MAX` is
        // as wide as any band it can add without wrapping.
        let want = reference_extend(q, s, mid.0, mid.1, m, gaps, c.band.min(usize::MAX / 2), x);
        let _on = switch();
        let dispatched = extend_gapped_banded(q, s, mid.0, mid.1, m, gaps, c.band, x);
        let fallback = extend_with((q, s, mid.0, mid.1), m, gaps, c.band, x, scalar_half);
        let prev = set_simd_enabled(false);
        let switched_off = extend_gapped_banded(q, s, mid.0, mid.1, m, gaps, c.band, x);
        set_simd_enabled(prev);
        prop_assert_eq!(dispatched, want, "dispatched");
        prop_assert_eq!(fallback, want, "forced fallback");
        prop_assert_eq!(switched_off, want, "kill switch");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// The dispatched kernel (lanes where a half fits them), the
        /// scalar kernel behind the kill switch and the scalar kernel
        /// forced return the reference's extension on every field,
        /// `cells` included, so all walk the same band.
        #[test]
        fn kernel_equals_the_reference(seed in any::<u64>()) {
            agrees(seed)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50_000))]

        /// The same at 25× the cases, in release only (`ci.sh`).
        #[test]
        #[cfg_attr(debug_assertions, ignore)]
        fn kernel_equals_the_reference_release_sweep(seed in any::<u64>()) {
            agrees(seed)?;
        }
    }

    /// The first 2,000 draws reach every corner the sweep claims to cover.
    #[test]
    fn cases_reach_every_corner() {
        let cases: Vec<Case> = (0..2_000).map(case).collect();
        let any = |p: &dyn Fn(&Case) -> bool| cases.iter().any(p);
        assert!(any(&|c| c.matrix.alphabet == Alphabet::Protein));
        assert!(any(&|c| c.matrix.alphabet == Alphabet::Dna));
        assert!(any(&|c| c.query.is_empty()) && any(&|c| c.subject.is_empty()));
        assert!(any(&|c| c.query.len() >= 950));
        assert!(any(&|c| c.q_mid == 0 && !c.query.is_empty()));
        assert!(any(&|c| c.q_mid == c.query.len() && !c.query.is_empty()));
        assert!(any(&|c| c.band == 0) && any(&|c| c.band == 64));
        for r in [0, 1, 7] {
            assert!(
                any(&|c| c.band <= 64 && c.band % 8 == r),
                "band ≡ {r} mod 8"
            );
        }
        assert!(any(&|c| c.band == usize::MAX && !c.query.is_empty()));
        assert!(any(&|c| {
            let both = c.query.len() + c.subject.len();
            c.band >= both && c.band < usize::MAX && both > 0
        }));
        assert!(any(&|c| c.matrix.i8_rows().is_none()));
        // Forward halves on both sides of the `i16` guard.
        let rows = |c: &Case| c.matrix.i8_rows().is_some() && c.q_mid < c.query.len();
        let long = |c: &Case| c.query.len() - c.q_mid > 300;
        assert!(any(&|c| rows(c) && forward_fits_i16(c) && long(c)));
        assert!(any(&|c| rows(c) && !forward_fits_i16(c)));
        assert!(any(&|c| {
            c.matrix.alphabet == Alphabet::Protein && c.subject.iter().any(|&r| r >= 16)
        }));
        assert!(any(&|c| c.x_drop == 0) && any(&|c| c.x_drop == 200));
        assert!(any(&|c| c.gaps.open == 0) && any(&|c| c.gaps.open == 15));
        assert!(any(&|c| c.gaps.extend == 0) && any(&|c| c.gaps.extend == 4));
        assert!(any(&|c| {
            let n = c.matrix.alphabet.canonical_size() as u8;
            c.query.iter().any(|&r| r >= n)
        }));
    }

    /// A band of `usize::MAX` is the band |a| + |b| on every path: a
    /// 300-residue pair scores the same full-length hit at both, where the
    /// unclamped sums once wrapped to an empty or truncated extension.
    #[test]
    fn a_huge_band_is_the_widest_useful_band() {
        let mut rng = ChaCha8Rng::seed_from_u64(300);
        let a = random_sequence(Alphabet::Protein, 300, &mut rng);
        let b = MutationModel::with_indels(0.2, 0.05).mutate(Alphabet::Protein, &a, &mut rng);
        let (m, gaps) = (ScoringMatrix::blosum62(), GapPenalties::BLASTP_DEFAULT);
        let both = a.len() + b.len();
        let _on = switch();
        for half in [banded_half as HalfKernel, scalar_half] {
            let at = |band| extend_with((&a, &b, 150, 150), &m, gaps, band, 1_000, half);
            let widest = at(both);
            assert!(widest.score > 500 && widest.cells > 0);
            for band in [usize::MAX, usize::MAX - 5, both + 1, 1 << 40] {
                assert_eq!(at(band), widest, "band {band}");
            }
        }
    }

    /// Benchmark-shaped extensions — a 420-residue protein pair at the
    /// served `l` = 24 and a 150-nt read at `l` = 16 — run both halves in
    /// lanes whenever `active_kernel()` reports `sse4.1`: a dispatch that
    /// quietly fell back would leave the differential sweeps comparing
    /// the scalar kernel with itself.
    #[test]
    fn benchmark_shaped_halves_run_in_lanes() {
        let mut rng = ChaCha8Rng::seed_from_u64(420);
        let protein = (ScoringMatrix::blosum62(), GapPenalties::BLASTP_DEFAULT);
        let dna = (ScoringMatrix::dna(2, -3), GapPenalties::BLASTN_DEFAULT);
        let shapes = [
            (Alphabet::Protein, protein, 420, 24, 38),
            (Alphabet::Dna, dna, 150, 16, 30),
        ];
        let _on = switch();
        for (alphabet, (m, gaps), len, band, x_drop) in shapes {
            let a = random_sequence(alphabet, len, &mut rng);
            let b = MutationModel::with_indels(0.2, 0.03).mutate(alphabet, &a, &mut rng);
            let before = LANE_HALVES.with(|c| c.get());
            let g = extend_gapped_banded(&a, &b, len / 2, len / 2, &m, gaps, band, x_drop);
            let lanes = LANE_HALVES.with(|c| c.get()) - before;
            assert!(g.cells > 0);
            let want = if active_kernel() == "sse4.1" { 2 } else { 0 };
            assert_eq!(lanes, want, "{alphabet:?} on {}", active_kernel());
        }
    }

    /// A code outside the matrix panics on the dispatched path as on the
    /// scalar one, in either sequence.
    #[test]
    fn a_code_outside_the_matrix_panics_on_every_path() {
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let a = random_sequence(Alphabet::Protein, 200, &mut rng);
        let (m, gaps) = (ScoringMatrix::blosum62(), GapPenalties::BLASTP_DEFAULT);
        let _on = switch();
        for (at, code) in [(0, 24u8), (1, 31), (0, 200)] {
            let mut pair = [a.clone(), a.clone()];
            pair[at][110] = code;
            for half in [banded_half as HalfKernel, scalar_half] {
                let run = || extend_with((&pair[0], &pair[1], 100, 100), &m, gaps, 24, 1_000, half);
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
                assert!(caught.is_err(), "code {code} in sequence {at}");
            }
        }
    }

    /// 50,000-residue pairs walk their whole band with every add
    /// overflow-checked (in a debug build): against itself, where the
    /// answer is the self-score sum, and against a random subject with no
    /// X-drop at all.
    #[test]
    fn fifty_thousand_residue_pairs_do_not_overflow() {
        const LEN: usize = 50_000;
        const BAND: usize = 24;
        let mut rng = ChaCha8Rng::seed_from_u64(50_000);
        let a = random_sequence(Alphabet::Protein, LEN, &mut rng);
        let b = random_sequence(Alphabet::Protein, LEN, &mut rng);
        let (matrix, gaps) = (ScoringMatrix::blosum62(), GapPenalties::BLASTP_DEFAULT);
        let half = LEN / 2;
        let whole_band: u64 = (1..=half)
            .map(|i| (i.saturating_sub(BAND).max(1)..=(i + BAND).min(half)).count() as u64)
            .sum();

        let own = extend_gapped_banded(&a, &a, half, half, &matrix, gaps, BAND, 38);
        let self_score: i32 = a.iter().map(|&r| matrix.score(r, r)).sum();
        assert_eq!((own.query_start, own.query_end), (0, LEN));
        assert_eq!((own.subject_start, own.subject_end), (0, LEN));
        assert_eq!(own.score, self_score);
        assert_eq!(own.cells, 2 * whole_band);

        let random = extend_gapped_banded(&a, &b, half, half, &matrix, gaps, BAND, i32::MAX);
        assert_eq!(random.cells, 2 * whole_band);
        assert!(random.score >= 0 && random.query_end <= LEN && random.subject_end <= LEN);
    }
}
