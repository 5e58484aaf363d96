//! High-scoring segment pairs: diagonals, binning, and overlap merging.
//!
//! Both BLAST and Mendel's aggregation stages (§V-B: "combine overlapping
//! anchors on the same diagonal") work with ungapped segment pairs keyed
//! by subject sequence and diagonal.

use mendel_seq::ScoringMatrix;

/// An ungapped high-scoring segment pair between a query and one subject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hsp {
    /// Index (or id) of the subject sequence.
    pub subject_id: u32,
    /// Query range `[query_start, query_end)`.
    pub query_start: usize,
    /// Exclusive query end.
    pub query_end: usize,
    /// Subject start; `subject_end` is implied by the equal lengths.
    pub subject_start: usize,
    /// Ungapped score of the segment.
    pub score: i32,
}

impl Hsp {
    /// Exclusive subject end (ungapped segments have equal spans).
    #[inline]
    pub fn subject_end(&self) -> usize {
        self.subject_start + self.len()
    }

    /// Segment length.
    #[inline]
    pub fn len(&self) -> usize {
        self.query_end - self.query_start
    }

    /// True for zero-length segments.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Diagonal = subject_start − query_start; constant along the segment.
    #[inline]
    pub fn diagonal(&self) -> i64 {
        self.subject_start as i64 - self.query_start as i64
    }

    /// True when `other` lies on the same subject and diagonal and the
    /// query ranges overlap or touch.
    pub fn overlaps_on_diagonal(&self, other: &Hsp) -> bool {
        self.subject_id == other.subject_id
            && self.diagonal() == other.diagonal()
            && self.query_start <= other.query_end
            && other.query_start <= self.query_end
    }

    /// Merge two overlapping same-diagonal segments into their union.
    /// Scores are combined conservatively: the max of the two (re-scoring
    /// the union is the caller's job if exactness matters; see
    /// [`Hsp::rescored`]).
    pub fn merged_with(&self, other: &Hsp) -> Hsp {
        debug_assert!(self.overlaps_on_diagonal(other));
        let query_start = self.query_start.min(other.query_start);
        let query_end = self.query_end.max(other.query_end);
        Hsp {
            subject_id: self.subject_id,
            query_start,
            query_end,
            subject_start: (query_start as i64 + self.diagonal()) as usize,
            score: self.score.max(other.score),
        }
    }

    /// The maximal-scoring stretch of this segment's diagonal, scored
    /// exactly: the earliest-ending maximum, with no zero-sum prefix.
    /// Seeds met along one diagonal extend to different ends when scores
    /// tie, so a merged union's extent depends on which seeds were found;
    /// this depends only on the residues under it.
    pub fn rescored(&self, query: &[u8], subject: &[u8], matrix: &ScoringMatrix) -> Hsp {
        let (mut best, mut run, mut start) = ((i32::MIN, 0, 0), 0i32, 0);
        for k in 0..self.len() {
            if run <= 0 {
                (run, start) = (0, k);
            }
            run += matrix.score(query[self.query_start + k], subject[self.subject_start + k]);
            if run > best.0 {
                best = (run, start, k + 1);
            }
        }
        let (score, from, to) = best;
        Hsp {
            subject_id: self.subject_id,
            query_start: self.query_start + from,
            query_end: self.query_start + to,
            subject_start: self.subject_start + from,
            score,
        }
    }
}

/// Combine overlapping same-diagonal HSPs. This is the aggregation
/// primitive run first at each group entry point and again at the system
/// entry point (§V-B). Output is sorted by (subject, diagonal, query start).
pub fn merge_overlapping(mut hsps: Vec<Hsp>) -> Vec<Hsp> {
    hsps.sort_by_key(|h| (h.subject_id, h.diagonal(), h.query_start, h.query_end));
    let mut out: Vec<Hsp> = Vec::with_capacity(hsps.len());
    for h in hsps {
        match out.last_mut() {
            Some(last) if last.overlaps_on_diagonal(&h) => *last = last.merged_with(&h),
            _ => out.push(h),
        }
    }
    out
}

/// Bin HSPs by subject id, preserving (diagonal, start) order within each
/// bin — the paper's "binning matches with other anchors from the same
/// sequence ... sorted by the anchor start position".
pub fn bin_by_subject(hsps: Vec<Hsp>) -> Vec<(u32, Vec<Hsp>)> {
    let mut sorted = hsps;
    sorted.sort_by_key(|h| (h.subject_id, h.query_start, h.diagonal()));
    let mut out: Vec<(u32, Vec<Hsp>)> = Vec::new();
    for h in sorted {
        match out.last_mut() {
            Some((id, bin)) if *id == h.subject_id => bin.push(h),
            _ => out.push((h.subject_id, vec![h])),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hsp(subject_id: u32, qs: usize, qe: usize, ss: usize, score: i32) -> Hsp {
        Hsp {
            subject_id,
            query_start: qs,
            query_end: qe,
            subject_start: ss,
            score,
        }
    }

    #[test]
    fn diagonal_arithmetic() {
        assert_eq!(hsp(0, 5, 10, 8, 1).diagonal(), 3);
        assert_eq!(hsp(0, 8, 10, 5, 1).diagonal(), -3);
        assert_eq!(hsp(0, 5, 10, 8, 1).subject_end(), 13);
    }

    #[test]
    fn overlap_requires_same_subject_and_diagonal() {
        let a = hsp(0, 0, 10, 0, 5);
        assert!(a.overlaps_on_diagonal(&hsp(0, 5, 15, 5, 5)));
        assert!(
            !a.overlaps_on_diagonal(&hsp(1, 5, 15, 5, 5)),
            "different subject"
        );
        assert!(
            !a.overlaps_on_diagonal(&hsp(0, 5, 15, 6, 5)),
            "different diagonal"
        );
        assert!(
            !a.overlaps_on_diagonal(&hsp(0, 11, 15, 11, 5)),
            "disjoint ranges"
        );
    }

    #[test]
    fn touching_segments_merge() {
        let a = hsp(0, 0, 10, 0, 5);
        let b = hsp(0, 10, 20, 10, 7);
        assert!(a.overlaps_on_diagonal(&b));
        let m = a.merged_with(&b);
        assert_eq!((m.query_start, m.query_end), (0, 20));
        assert_eq!(m.subject_start, 0);
        assert_eq!(m.score, 7);
    }

    #[test]
    fn merge_overlapping_chains_runs() {
        let hsps = vec![
            hsp(0, 20, 30, 20, 3),
            hsp(0, 0, 12, 0, 5),
            hsp(0, 10, 22, 10, 4),
            hsp(1, 0, 5, 2, 9),
        ];
        let merged = merge_overlapping(hsps);
        assert_eq!(merged.len(), 2);
        assert_eq!((merged[0].query_start, merged[0].query_end), (0, 30));
        assert_eq!(merged[1].subject_id, 1);
    }

    #[test]
    fn merge_keeps_distinct_diagonals_apart() {
        let hsps = vec![hsp(0, 0, 10, 0, 5), hsp(0, 0, 10, 3, 5)];
        assert_eq!(merge_overlapping(hsps).len(), 2);
    }

    #[test]
    fn bin_by_subject_groups_and_sorts() {
        let hsps = vec![
            hsp(2, 50, 60, 50, 1),
            hsp(1, 0, 10, 0, 1),
            hsp(2, 10, 20, 12, 1),
            hsp(1, 30, 40, 31, 1),
        ];
        let bins = bin_by_subject(hsps);
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[0].0, 1);
        assert_eq!(bins[0].1.len(), 2);
        assert!(bins[0].1[0].query_start < bins[0].1[1].query_start);
        assert_eq!(bins[1].0, 2);
        assert_eq!(bins[1].1[0].query_start, 10);
    }

    #[test]
    fn rescoring_makes_a_union_independent_of_its_seeds() {
        use mendel_seq::Alphabet;
        let dna = |s: &[u8]| Alphabet::Dna.encode_seq(s).unwrap();
        // Eight matches (16), two mismatches (−6), three matches (+6),
        // then a mismatch wall: ends 8 and 13 score the same.
        let q = dna(b"ACGTACGTAAGGGCC");
        let s = dna(b"ACGTACGTTTGGGAA");
        let m = ScoringMatrix::dna(2, -3);
        let canonical = hsp(0, 0, 8, 0, 16);
        // A seed near the start stops at the first maximum; one in the GGG
        // run extends back over the dip. Their union only keeps `max`.
        let union = hsp(0, 0, 8, 0, 16).merged_with(&hsp(0, 0, 13, 0, 16));
        assert_eq!(union.query_end, 13);
        assert_eq!(union.rescored(&q, &s, &m), canonical);
        assert_eq!(canonical.rescored(&q, &s, &m), canonical);
        // A leading loss is trimmed and the score made exact.
        assert_eq!(
            hsp(0, 8, 13, 8, 1).rescored(&q, &s, &m),
            hsp(0, 10, 13, 10, 6)
        );
    }

    #[test]
    fn empty_inputs() {
        assert!(merge_overlapping(vec![]).is_empty());
        assert!(bin_by_subject(vec![]).is_empty());
    }
}
