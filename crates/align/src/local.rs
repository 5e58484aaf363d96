//! Smith–Waterman local alignment scores with affine gaps (Gotoh's
//! algorithm): the exact answer the banded gapped extension is tested
//! against.

use crate::alignment::GapPenalties;
use mendel_seq::ScoringMatrix;

/// The best local alignment score of `query` against `subject` (both
/// encoded), in `O(n)` memory; 0 when no pairing scores above zero.
// audit:allow(unreached): the exact oracle extend.rs's gapped_score_matches_smith_waterman_when_band_is_wide and crates/align/tests/properties.rs hold the banded kernel to
pub fn smith_waterman_score(
    query: &[u8],
    subject: &[u8],
    matrix: &ScoringMatrix,
    gaps: GapPenalties,
) -> i32 {
    let n = subject.len();
    if query.is_empty() || n == 0 {
        return 0;
    }
    const NEG: i32 = i32::MIN / 4;
    let mut h_prev = vec![0i32; n + 1];
    let mut f = vec![NEG; n + 1];
    let mut best = 0i32;
    for &q in query {
        let mut h_diag = h_prev[0]; // H[i-1][j-1]
        let mut h_cur = 0i32; // H[i][j-1] starts as column 0 = 0
        let mut e = NEG;
        for j in 1..=n {
            e = (e - gaps.extend).max(h_cur - gaps.cost(1));
            f[j] = (f[j] - gaps.extend).max(h_prev[j] - gaps.cost(1));
            let diag = h_diag + matrix.score(q, subject[j - 1]);
            let v = 0.max(diag).max(e).max(f[j]);
            h_diag = h_prev[j];
            h_prev[j - 1] = h_cur;
            h_cur = v;
            best = best.max(v);
        }
        h_prev[n] = h_cur;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mendel_seq::Alphabet;

    fn dna(s: &[u8]) -> Vec<u8> {
        Alphabet::Dna.encode_seq(s).unwrap()
    }

    fn dna_matrix() -> ScoringMatrix {
        ScoringMatrix::dna(2, -3)
    }

    const GAPS: GapPenalties = GapPenalties { open: 5, extend: 2 };

    fn score(q: &[u8], s: &[u8]) -> i32 {
        smith_waterman_score(&dna(q), &dna(s), &dna_matrix(), GAPS)
    }

    #[test]
    fn identical_sequences_score_every_column() {
        assert_eq!(score(b"ACGTACGT", b"ACGTACGT"), 16);
    }

    #[test]
    fn finds_embedded_local_match() {
        assert_eq!(score(b"ACGTACGT", b"TTTTTACGTACGTTTTT"), 16);
    }

    #[test]
    fn bridges_a_gap_when_it_pays() {
        // The subject is the query with "AA" removed: 14 matched columns
        // (28) minus one gap of length 2 (5 + 2·2 = 9).
        assert_eq!(score(b"ACGTACGTAAGGCCTT", b"ACGTACGTGGCCTT"), 28 - 9);
    }

    #[test]
    fn unrelated_and_empty_inputs_score_zero() {
        assert_eq!(score(b"A", b"C"), 0);
        assert_eq!(score(b"", b"ACGT"), 0);
        assert_eq!(score(b"ACGT", b""), 0);
    }

    #[test]
    fn protein_scores_use_blosum() {
        let q = Alphabet::Protein.encode_seq(b"WWWW").unwrap();
        let m = ScoringMatrix::blosum62();
        assert_eq!(
            smith_waterman_score(&q, &q, &m, GapPenalties::BLASTP_DEFAULT),
            44
        );
    }
}
