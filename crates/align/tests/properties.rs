//! Property tests for the alignment substrate.

use mendel_align::local::smith_waterman_score;
use mendel_align::{extend_gapped_banded, extend_ungapped, needleman_wunsch, GapPenalties};
use mendel_seq::ScoringMatrix;
use proptest::prelude::*;

fn dna(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..4, n)
}

const GAPS: GapPenalties = GapPenalties { open: 5, extend: 2 };

fn m() -> ScoringMatrix {
    ScoringMatrix::dna(2, -3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Local alignment score is symmetric and never negative-reported.
    #[test]
    fn sw_symmetry_and_positivity(a in dna(1..50), b in dna(1..50)) {
        let matrix = m();
        let ab = smith_waterman_score(&a, &b, &matrix, GAPS);
        let ba = smith_waterman_score(&b, &a, &matrix, GAPS);
        prop_assert_eq!(ab, ba);
        prop_assert!(ab >= 0);
    }

    /// Appending context can never lower the best local score.
    #[test]
    fn sw_monotone_under_extension(a in dna(1..40), b in dna(1..40), extra in dna(0..20)) {
        let matrix = m();
        let base = smith_waterman_score(&a, &b, &matrix, GAPS);
        let mut b2 = b.clone();
        b2.extend(extra);
        prop_assert!(smith_waterman_score(&a, &b2, &matrix, GAPS) >= base);
    }

    /// Global alignment covers both sequences entirely, whatever they are.
    #[test]
    fn nw_is_global(a in dna(0..40), b in dna(0..40)) {
        let aln = needleman_wunsch(&a, &b, &m(), GAPS);
        prop_assert!(aln.is_consistent());
        prop_assert_eq!(aln.query_end, a.len());
        prop_assert_eq!(aln.subject_end, b.len());
    }

    /// Global score never exceeds the local score.
    #[test]
    fn global_score_bounded_by_local(a in dna(1..40), b in dna(1..40)) {
        let matrix = m();
        let local = smith_waterman_score(&a, &b, &matrix, GAPS);
        let global = needleman_wunsch(&a, &b, &matrix, GAPS).score;
        prop_assert!(global <= local);
    }

    /// Ungapped extension contains its seed, stays on one diagonal, and a
    /// larger X-drop never shrinks the score.
    #[test]
    fn ungapped_extension_invariants(
        a in dna(8..80),
        b in dna(8..80),
        seed_q in 0usize..4,
        seed_s in 0usize..4,
        x in 0i32..24,
    ) {
        let len = 4usize;
        prop_assume!(seed_q + len <= a.len() && seed_s + len <= b.len());
        let matrix = m();
        let e = extend_ungapped(&a, &b, seed_q, seed_s, len, &matrix, x);
        prop_assert!(e.query_start <= seed_q);
        prop_assert!(e.query_end >= seed_q + len);
        prop_assert_eq!(
            e.subject_start as i64 - e.query_start as i64,
            seed_s as i64 - seed_q as i64
        );
        let wider = extend_ungapped(&a, &b, seed_q, seed_s, len, &matrix, x + 8);
        prop_assert!(wider.score >= e.score);
    }

    /// Banded gapped extension never beats unrestricted Smith–Waterman,
    /// and a wider band never scores less.
    #[test]
    fn banded_extension_bounded_by_sw(a in dna(4..50), b in dna(4..50), band in 1usize..8) {
        let matrix = m();
        let sw = smith_waterman_score(&a, &b, &matrix, GAPS);
        let narrow = extend_gapped_banded(&a, &b, 0, 0, &matrix, GAPS, band, 100);
        let wide = extend_gapped_banded(&a, &b, 0, 0, &matrix, GAPS, band + 8, 100);
        prop_assert!(narrow.score <= sw, "banded {} > SW {sw}", narrow.score);
        prop_assert!(wide.score <= sw);
        prop_assert!(wide.score >= narrow.score, "wider band lost score");
    }
}
