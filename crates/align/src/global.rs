//! Needleman–Wunsch global alignment with affine gaps.
//!
//! Mendel itself only needs local alignments, but the tests use global
//! alignment to verify mutation levels (two sequences at known identity must
//! globally align with exactly that identity), so the substrate ships it.

use crate::alignment::{push_op, AlignOp, Alignment, GapPenalties};
use mendel_seq::ScoringMatrix;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Tb {
    Diag,
    Up,
    Left,
    None,
}

/// Globally align `query` against `subject` end-to-end, returning the
/// optimal alignment (always exists; empty inputs produce pure-gap
/// alignments).
// audit:allow(unreached): the global-alignment oracle of global_identity_recovers_mutation_level (below) and crates/align/tests/properties.rs
pub fn needleman_wunsch(
    query: &[u8],
    subject: &[u8],
    matrix: &ScoringMatrix,
    gaps: GapPenalties,
) -> Alignment {
    let (m, n) = (query.len(), subject.len());
    let w = n + 1;
    const NEG: i32 = i32::MIN / 4;

    let mut h = vec![NEG; (m + 1) * w];
    let mut e = vec![NEG; (m + 1) * w]; // gap in query (Left)
    let mut f = vec![NEG; (m + 1) * w]; // gap in subject (Up)
    let mut tb = vec![Tb::None; (m + 1) * w];

    h[0] = 0;
    for j in 1..=n {
        e[j] = -gaps.cost(j);
        h[j] = e[j];
        tb[j] = Tb::Left;
    }
    for i in 1..=m {
        f[i * w] = -gaps.cost(i);
        h[i * w] = f[i * w];
        tb[i * w] = Tb::Up;
    }

    for i in 1..=m {
        for j in 1..=n {
            let idx = i * w + j;
            e[idx] = (e[idx - 1] - gaps.extend).max(h[idx - 1] - gaps.cost(1));
            f[idx] = (f[idx - w] - gaps.extend).max(h[idx - w] - gaps.cost(1));
            let diag = h[idx - w - 1] + matrix.score(query[i - 1], subject[j - 1]);
            let (v, t) = if diag >= e[idx] && diag >= f[idx] {
                (diag, Tb::Diag)
            } else if e[idx] >= f[idx] {
                (e[idx], Tb::Left)
            } else {
                (f[idx], Tb::Up)
            };
            h[idx] = v;
            tb[idx] = t;
        }
    }

    let (mut i, mut j) = (m, n);
    let mut ops_rev: Vec<AlignOp> = Vec::new();
    while i > 0 || j > 0 {
        match tb[i * w + j] {
            Tb::Diag => {
                ops_rev.push(AlignOp::Diagonal(1));
                i -= 1;
                j -= 1;
            }
            Tb::Left => {
                ops_rev.push(AlignOp::Delete(1));
                j -= 1;
            }
            Tb::Up => {
                ops_rev.push(AlignOp::Insert(1));
                i -= 1;
            }
            Tb::None => unreachable!("traceback escaped the DP table"),
        }
    }
    let mut ops = Vec::new();
    for op in ops_rev.into_iter().rev() {
        push_op(&mut ops, op);
    }
    let aln = Alignment {
        query_start: 0,
        query_end: m,
        subject_start: 0,
        subject_end: n,
        score: h[m * w + n],
        ops,
    };
    debug_assert!(aln.is_consistent());
    aln
}

#[cfg(test)]
mod tests {
    use super::*;
    use mendel_seq::Alphabet;

    fn dna(s: &[u8]) -> Vec<u8> {
        Alphabet::Dna.encode_seq(s).unwrap()
    }

    fn m() -> ScoringMatrix {
        ScoringMatrix::dna(1, -1)
    }

    const GAPS: GapPenalties = GapPenalties { open: 2, extend: 1 };

    #[test]
    fn identical_sequences() {
        let q = dna(b"ACGT");
        let a = needleman_wunsch(&q, &q, &m(), GAPS);
        assert_eq!(a.score, 4);
        assert_eq!(a.ops, vec![AlignOp::Diagonal(4)]);
    }

    #[test]
    fn global_covers_whole_sequences() {
        let q = dna(b"ACGT");
        let s = dna(b"AACGTT");
        let a = needleman_wunsch(&q, &s, &m(), GAPS);
        assert_eq!(a.query_end, 4);
        assert_eq!(a.subject_end, 6);
        assert!(a.is_consistent());
    }

    #[test]
    fn prefers_single_long_gap_over_two_short() {
        // Affine penalties: one 2-gap (2+2=4) beats two 1-gaps (3+3=6).
        let q = dna(b"ACGTACGT");
        let s = dna(b"ACGCGT"); // drop 2
        let a = needleman_wunsch(&q, &s, &m(), GAPS);
        let inserts: Vec<u32> = a
            .ops
            .iter()
            .filter_map(|op| match op {
                AlignOp::Insert(c) => Some(*c),
                _ => None,
            })
            .collect();
        assert_eq!(
            inserts,
            vec![2],
            "expected one insert run of 2, got {:?}",
            a.ops
        );
    }

    #[test]
    fn empty_query_is_all_deletes() {
        let s = dna(b"ACG");
        let a = needleman_wunsch(&[], &s, &m(), GAPS);
        assert_eq!(a.ops, vec![AlignOp::Delete(3)]);
        assert_eq!(a.score, -GAPS.cost(3));
    }

    #[test]
    fn empty_subject_is_all_inserts() {
        let q = dna(b"ACG");
        let a = needleman_wunsch(&q, &[], &m(), GAPS);
        assert_eq!(a.ops, vec![AlignOp::Insert(3)]);
    }

    #[test]
    fn both_empty() {
        let a = needleman_wunsch(&[], &[], &m(), GAPS);
        assert_eq!(a.score, 0);
        assert!(a.ops.is_empty());
    }

    #[test]
    fn global_identity_recovers_mutation_level() {
        use mendel_seq::gen::{mutate_to_identity, random_sequence};
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let q = random_sequence(Alphabet::Dna, 400, &mut rng);
        let s = mutate_to_identity(Alphabet::Dna, &q, 0.85, &mut rng).unwrap();
        let a = needleman_wunsch(&q, &s, &m(), GAPS);
        let id = a.identity(&q, &s);
        assert!((id - 0.85).abs() < 0.02, "identity {id}");
    }
}
