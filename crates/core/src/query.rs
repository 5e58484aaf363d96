//! Query-side primitives (§V-B): subquery decomposition, the
//! consecutivity score, and candidate filtering.

use mendel_seq::ScoringMatrix;

/// Decompose a query into subquery offsets: windows of `block_len`
/// stepping by `step` ("in larger intervals of size k ... to reduce the
//  amplification of the subqueries"), plus a final window flush with the
/// query's end so the tail is always covered.
pub fn subquery_offsets(query_len: usize, block_len: usize, step: usize) -> Vec<usize> {
    assert!(block_len >= 1 && step >= 1);
    if query_len < block_len {
        return Vec::new();
    }
    let last = query_len - block_len;
    let mut offsets: Vec<usize> = (0..=last).step_by(step).collect();
    if offsets.last() != Some(&last) {
        offsets.push(last);
    }
    offsets
}

/// Whether one position counts as a "match" for the consecutivity
/// score: identical residues always; for proteins, "substitutions to
/// which the BLOSUM62 matrix gives a positive score are considered as
/// successive" (§V-B).
#[inline]
fn is_match(q: u8, c: u8, positive: Option<&ScoringMatrix>) -> bool {
    q == c || positive.is_some_and(|m| m.score(q, c) > 0)
}

/// Match positions of a candidate window packed into a `u64` (bit `i`
/// set ⇔ position `i` matches). Callers guarantee the windows fit.
#[inline]
fn match_bits(query_win: &[u8], cand_win: &[u8], positive: Option<&ScoringMatrix>) -> u64 {
    let mut mask = 0u64;
    for (i, (&q, &c)) in query_win.iter().zip(cand_win).enumerate() {
        mask |= u64::from(is_match(q, c, positive)) << i;
    }
    mask
}

/// The consecutivity score (c-score): "calculates from the existing
/// matches the percent of those matches that are in succession" — the
/// fraction of matching positions that have an adjacent matching
/// position. 0 when nothing matches.
///
/// This sits on the per-candidate hot path (once per k-NN result per
/// subquery), so windows up to 64 residues — every paper block length —
/// take an allocation-free bitmask path; longer windows fall back to a
/// rolling slice scan, also allocation-free.
pub fn c_score(query_win: &[u8], cand_win: &[u8], positive: Option<&ScoringMatrix>) -> f32 {
    debug_assert_eq!(query_win.len(), cand_win.len());
    let n = query_win.len().min(cand_win.len());
    if n == 0 {
        return 0.0;
    }
    if n <= 64 {
        let mask = match_bits(query_win, cand_win, positive);
        let total = mask.count_ones();
        if total == 0 {
            return 0.0;
        }
        // A bit is "successive" when its left or right neighbour is set;
        // the shifts drop neighbours past the window edges for free.
        let successive = (mask & ((mask << 1) | (mask >> 1))).count_ones();
        return successive as f32 / total as f32;
    }
    c_score_slice(query_win, cand_win, positive)
}

/// Fallback for windows longer than 64 residues: one pass with a
/// prev/cur/next match window, evaluating each position exactly once.
fn c_score_slice(query_win: &[u8], cand_win: &[u8], positive: Option<&ScoringMatrix>) -> f32 {
    let n = query_win.len().min(cand_win.len());
    let mut total = 0u32;
    let mut successive = 0u32;
    let mut prev = false;
    let mut cur = is_match(query_win[0], cand_win[0], positive);
    for i in 0..n {
        let next = i + 1 < n && is_match(query_win[i + 1], cand_win[i + 1], positive);
        if cur {
            total += 1;
            if prev || next {
                successive += 1;
            }
        }
        prev = cur;
        cur = next;
    }
    if total == 0 {
        return 0.0;
    }
    successive as f32 / total as f32
}

/// Percent identity between two equal-length windows (the §V-B candidate
/// measure, `1 − hamming/length`).
pub fn identity(query_win: &[u8], cand_win: &[u8]) -> f32 {
    debug_assert_eq!(query_win.len(), cand_win.len());
    if query_win.is_empty() {
        return 0.0;
    }
    let same = query_win
        .iter()
        .zip(cand_win)
        .filter(|(a, b)| a == b)
        .count();
    identity_of(same, query_win.len())
}

/// [`identity`] of two `len`-residue windows equal at `same` positions.
fn identity_of(same: usize, len: usize) -> f32 {
    same as f32 / len as f32
}

/// The identity filter's Hamming radius: the most mismatches two
/// `len`-residue windows can have and still pass `identity ≥ min`, read
/// off [`identity`]'s own expression so no rounding differs; `None` when
/// not even equal windows pass. ⌊(1 − 0.70) · 16⌋ = 4 at the DNA
/// defaults.
pub fn identity_radius(len: usize, min: f32) -> Option<usize> {
    if len == 0 {
        return None;
    }
    (0..=len).rev().find(|&d| identity_of(len - d, len) >= min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mendel_seq::Alphabet;

    #[test]
    fn the_radius_is_the_most_mismatches_the_filter_passes() {
        assert_eq!(identity_radius(16, 0.70), Some(4));
        assert_eq!(identity_radius(16, 0.50), Some(8));
        assert_eq!(identity_radius(16, 0.85), Some(2));
        assert_eq!(identity_radius(16, 0.0), Some(16));
        assert_eq!(identity_radius(16, 1.0), Some(0));
        assert_eq!(identity_radius(16, 1.5), None);
        assert_eq!(identity_radius(0, 0.5), None);
        for len in 1..=40 {
            for i in [0.3f32, 0.6, 0.7, 0.75, 0.8, 0.9] {
                let r = identity_radius(len, i).unwrap();
                let window = vec![0u8; len];
                let mut other = window.clone();
                other[..r].fill(1);
                assert!(identity(&window, &other) >= i, "{len} {i}");
                if r < len {
                    other[r] = 1;
                    assert!(identity(&window, &other) < i, "{len} {i}");
                }
            }
        }
    }

    #[test]
    fn offsets_cover_query_with_step() {
        assert_eq!(subquery_offsets(20, 8, 8), vec![0, 8, 12]);
        assert_eq!(subquery_offsets(24, 8, 8), vec![0, 8, 16]);
        assert_eq!(subquery_offsets(8, 8, 8), vec![0]);
        assert_eq!(subquery_offsets(9, 8, 8), vec![0, 1]);
    }

    #[test]
    fn offsets_empty_when_query_too_short() {
        assert!(subquery_offsets(5, 8, 4).is_empty());
    }

    #[test]
    fn offsets_step_one_is_every_position() {
        assert_eq!(subquery_offsets(10, 8, 1), vec![0, 1, 2]);
    }

    #[test]
    fn tail_window_always_lands_on_query_end() {
        for (len, bl, step) in [(100, 16, 7), (33, 8, 8), (50, 10, 13)] {
            let offs = subquery_offsets(len, bl, step);
            assert_eq!(
                *offs.last().unwrap(),
                len - bl,
                "len {len} bl {bl} step {step}"
            );
        }
    }

    #[test]
    fn identity_counts_exact_positions() {
        assert_eq!(identity(&[1, 2, 3, 4], &[1, 2, 9, 4]), 0.75);
        assert_eq!(identity(&[], &[]), 0.0);
    }

    #[test]
    fn c_score_perfect_match_is_one() {
        assert_eq!(c_score(&[1, 2, 3, 4], &[1, 2, 3, 4], None), 1.0);
    }

    #[test]
    fn c_score_isolated_matches_score_zero() {
        // Matches at positions 0 and 2 with a mismatch between: neither
        // has an adjacent match.
        assert_eq!(c_score(&[1, 2, 3, 4], &[1, 9, 3, 9], None), 0.0);
    }

    #[test]
    fn c_score_mixed_runs() {
        // Mask: T T F T — matches 3, successive (0,1) = 2/3.
        let c = c_score(&[1, 2, 3, 4], &[1, 2, 9, 4], None);
        assert!((c - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn c_score_no_matches_is_zero() {
        assert_eq!(c_score(&[1, 1], &[2, 2], None), 0.0);
    }

    /// The original (pre-bitmask) definition: materialize the match mask
    /// as `Vec<bool>` and count adjacency by indexing. Kept here purely
    /// to pin the optimized paths to the reference semantics.
    fn c_score_reference(
        query_win: &[u8],
        cand_win: &[u8],
        positive: Option<&ScoringMatrix>,
    ) -> f32 {
        let mask: Vec<bool> = query_win
            .iter()
            .zip(cand_win)
            .map(|(&q, &c)| q == c || positive.is_some_and(|m| m.score(q, c) > 0))
            .collect();
        let total = mask.iter().filter(|&&m| m).count();
        if total == 0 {
            return 0.0;
        }
        let successive = mask
            .iter()
            .enumerate()
            .filter(|&(i, &m)| m && ((i > 0 && mask[i - 1]) || (i + 1 < mask.len() && mask[i + 1])))
            .count();
        successive as f32 / total as f32
    }

    #[test]
    fn bitmask_and_slice_paths_equal_the_reference_c_score() {
        // LCG-driven random windows across the fast-path/fallback split,
        // with and without the positive-substitution matrix.
        let m = ScoringMatrix::blosum62();
        let mut state = 0xC5C0_12E5u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8 % 24
        };
        for len in [1usize, 2, 3, 15, 16, 63, 64, 65, 128, 200] {
            for _ in 0..16 {
                let q: Vec<u8> = (0..len).map(|_| next()).collect();
                // Bias candidates toward the query so runs actually form.
                let c: Vec<u8> = q
                    .iter()
                    .map(|&r| if next() % 3 == 0 { next() } else { r })
                    .collect();
                for positive in [None, Some(&m)] {
                    let want = c_score_reference(&q, &c, positive);
                    let got = c_score(&q, &c, positive);
                    assert_eq!(got.to_bits(), want.to_bits(), "len {len}");
                    let slice = c_score_slice(&q, &c, positive);
                    assert_eq!(slice.to_bits(), want.to_bits(), "slice len {len}");
                }
            }
        }
    }

    #[test]
    fn c_score_counts_positive_substitutions_for_protein() {
        let m = ScoringMatrix::blosum62();
        let e = |c| Alphabet::Protein.encode(c).unwrap();
        // L/I scores +2 (positive): with the matrix the pair is a "match",
        // without it the run breaks.
        let q = [e(b'W'), e(b'L'), e(b'W')];
        let c_with = c_score(&q, &[e(b'W'), e(b'I'), e(b'W')], Some(&m));
        let c_without = c_score(&q, &[e(b'W'), e(b'I'), e(b'W')], None);
        assert_eq!(c_with, 1.0);
        assert_eq!(c_without, 0.0);
    }
}
