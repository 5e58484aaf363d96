//! Alignment representation: operations, gap penalties, and summaries.

/// Affine gap penalties. A gap of length `g` costs `open + extend * g`
/// (both values are positive; they are *subtracted* from scores).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapPenalties {
    /// One-time cost for opening a gap.
    pub open: i32,
    /// Per-residue cost for extending a gap.
    pub extend: i32,
}

impl GapPenalties {
    /// BLAST's protein default: 11/1.
    pub const BLASTP_DEFAULT: GapPenalties = GapPenalties {
        open: 11,
        extend: 1,
    };
    /// BLAST's nucleotide default: 5/2.
    pub const BLASTN_DEFAULT: GapPenalties = GapPenalties { open: 5, extend: 2 };

    /// Cost of a gap of `len` residues.
    #[inline]
    pub fn cost(&self, len: usize) -> i32 {
        debug_assert!(len > 0);
        self.open + self.extend * len as i32
    }
}

/// One aligned column (or run of columns) in an alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignOp {
    /// `count` columns pairing query and subject residues (match or
    /// substitution — distinguished by looking at the sequences).
    Diagonal(u32),
    /// `count` residues present in the query but not the subject
    /// (insertion relative to the subject).
    Insert(u32),
    /// `count` residues present in the subject but not the query
    /// (deletion relative to the subject).
    Delete(u32),
}

/// A scored pairwise alignment between a query range and a subject range.
#[derive(Debug, Clone, PartialEq)]
pub struct Alignment {
    /// Start of the aligned region in the query (0-based, inclusive).
    pub query_start: usize,
    /// End of the aligned region in the query (exclusive).
    pub query_end: usize,
    /// Start of the aligned region in the subject (0-based, inclusive).
    pub subject_start: usize,
    /// End of the aligned region in the subject (exclusive).
    pub subject_end: usize,
    /// Raw alignment score under the scoring matrix and gap penalties used.
    pub score: i32,
    /// Alignment operations from start to end, run-length encoded.
    pub ops: Vec<AlignOp>,
}

impl Alignment {
    /// Fraction of *diagonal* columns whose residues are identical.
    /// Returns 0 for an empty alignment.
    // audit:allow(unreached): global.rs's global_identity_recovers_mutation_level measures the NW oracle's identity with it
    pub fn identity(&self, query: &[u8], subject: &[u8]) -> f64 {
        let (mut qi, mut si) = (self.query_start, self.subject_start);
        let mut diag_cols = 0usize;
        let mut matches = 0usize;
        for op in &self.ops {
            match *op {
                AlignOp::Diagonal(c) => {
                    for k in 0..c as usize {
                        if query[qi + k] == subject[si + k] {
                            matches += 1;
                        }
                    }
                    diag_cols += c as usize;
                    qi += c as usize;
                    si += c as usize;
                }
                AlignOp::Insert(c) => qi += c as usize,
                AlignOp::Delete(c) => si += c as usize,
            }
        }
        if diag_cols == 0 {
            0.0
        } else {
            matches as f64 / diag_cols as f64
        }
    }

    /// Validate internal consistency: op counts must add up to the query
    /// and subject spans.
    pub fn is_consistent(&self) -> bool {
        let mut qspan = 0usize;
        let mut sspan = 0usize;
        for op in &self.ops {
            match *op {
                AlignOp::Diagonal(c) => {
                    qspan += c as usize;
                    sspan += c as usize;
                }
                AlignOp::Insert(c) => qspan += c as usize,
                AlignOp::Delete(c) => sspan += c as usize,
            }
        }
        self.query_start + qspan == self.query_end && self.subject_start + sspan == self.subject_end
    }
}

/// Push an op onto a run-length-encoded op list, merging adjacent runs of
/// the same kind.
pub(crate) fn push_op(ops: &mut Vec<AlignOp>, op: AlignOp) {
    match (ops.last_mut(), op) {
        (Some(AlignOp::Diagonal(a)), AlignOp::Diagonal(b)) => *a += b,
        (Some(AlignOp::Insert(a)), AlignOp::Insert(b)) => *a += b,
        (Some(AlignOp::Delete(a)), AlignOp::Delete(b)) => *a += b,
        _ => ops.push(op),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mendel_seq::Alphabet;

    fn diag(c: u32) -> AlignOp {
        AlignOp::Diagonal(c)
    }

    #[test]
    fn gap_cost_is_affine() {
        let g = GapPenalties::BLASTP_DEFAULT;
        assert_eq!(g.cost(1), 12);
        assert_eq!(g.cost(5), 16);
    }

    #[test]
    fn consistent_alignment_accepted() {
        let a = Alignment {
            query_start: 0,
            query_end: 5,
            subject_start: 0,
            subject_end: 7,
            score: 10,
            ops: vec![diag(3), AlignOp::Delete(2), diag(2)],
        };
        assert!(a.is_consistent());
    }

    #[test]
    fn inconsistent_alignment_detected() {
        let a = Alignment {
            query_start: 0,
            query_end: 4,
            subject_start: 0,
            subject_end: 3,
            score: 0,
            ops: vec![diag(3)],
        };
        assert!(!a.is_consistent());
    }

    #[test]
    fn identity_over_diagonal_only() {
        // query ACG-T vs subject ACGAT: 4 diagonal columns, all matching.
        let q = Alphabet::Dna.encode_seq(b"ACGT").unwrap();
        let s = Alphabet::Dna.encode_seq(b"ACGAT").unwrap();
        let a = Alignment {
            query_start: 0,
            query_end: 4,
            subject_start: 0,
            subject_end: 5,
            score: 0,
            ops: vec![diag(3), AlignOp::Delete(1), diag(1)],
        };
        assert!(a.is_consistent());
        assert_eq!(a.identity(&q, &s), 1.0);
    }

    #[test]
    fn push_op_merges_runs() {
        let mut ops = vec![];
        push_op(&mut ops, diag(2));
        push_op(&mut ops, diag(3));
        push_op(&mut ops, AlignOp::Insert(1));
        push_op(&mut ops, AlignOp::Insert(1));
        push_op(&mut ops, diag(1));
        assert_eq!(ops, vec![diag(5), AlignOp::Insert(2), diag(1)]);
    }

    #[test]
    fn empty_alignment_identity_zero() {
        let a = Alignment {
            query_start: 0,
            query_end: 0,
            subject_start: 0,
            subject_end: 0,
            score: 0,
            ops: vec![],
        };
        assert_eq!(a.identity(&[], &[]), 0.0);
        assert!(a.is_consistent());
    }
}
