//! Alignment scoring matrices.
//!
//! BLOSUM62 — the default scoring matrix of BLAST and of the paper — is
//! embedded in NCBI text format and parsed at construction (the parser also
//! accepts any user-supplied NCBI-format matrix, satisfying the paper's
//! "the matrix used to score the alignments is a user defined parameter").
//! DNA matrices are generated from match/mismatch scores.

use crate::alphabet::Alphabet;
use crate::error::SeqError;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Canonical BLOSUM62 in NCBI format (row/column order
/// `ARNDCQEGHILKMFPSTWYVBZX*`).
pub const BLOSUM62_TEXT: &str = "\
   A  R  N  D  C  Q  E  G  H  I  L  K  M  F  P  S  T  W  Y  V  B  Z  X  *
A  4 -1 -2 -2  0 -1 -1  0 -2 -1 -1 -1 -1 -2 -1  1  0 -3 -2  0 -2 -1  0 -4
R -1  5  0 -2 -3  1  0 -2  0 -3 -2  2 -1 -3 -2 -1 -1 -3 -2 -3 -1  0 -1 -4
N -2  0  6  1 -3  0  0  0  1 -3 -3  0 -2 -3 -2  1  0 -4 -2 -3  3  0 -1 -4
D -2 -2  1  6 -3  0  2 -1 -1 -3 -4 -1 -3 -3 -1  0 -1 -4 -3 -3  4  1 -1 -4
C  0 -3 -3 -3  9 -3 -4 -3 -3 -1 -1 -3 -1 -2 -3 -1 -1 -2 -2 -1 -3 -3 -2 -4
Q -1  1  0  0 -3  5  2 -2  0 -3 -2  1  0 -3 -1  0 -1 -2 -1 -2  0  3 -1 -4
E -1  0  0  2 -4  2  5 -2  0 -3 -3  1 -2 -3 -1  0 -1 -3 -2 -2  1  4 -1 -4
G  0 -2  0 -1 -3 -2 -2  6 -2 -4 -4 -2 -3 -3 -2  0 -2 -2 -3 -3 -1 -2 -1 -4
H -2  0  1 -1 -3  0  0 -2  8 -3 -3 -1 -2 -1 -2 -1 -2 -2  2 -3  0  0 -1 -4
I -1 -3 -3 -3 -1 -3 -3 -4 -3  4  2 -3  1  0 -3 -2 -1 -3 -1  3 -3 -3 -1 -4
L -1 -2 -3 -4 -1 -2 -3 -4 -3  2  4 -2  2  0 -3 -2 -1 -2 -1  1 -4 -3 -1 -4
K -1  2  0 -1 -3  1  1 -2 -1 -3 -2  5 -1 -3 -1  0 -1 -3 -2 -2  0  1 -1 -4
M -1 -1 -2 -3 -1  0 -2 -3 -2  1  2 -1  5  0 -2 -1 -1 -1 -1  1 -3 -1 -1 -4
F -2 -3 -3 -3 -2 -3 -3 -3 -1  0  0 -3  0  6 -4 -2 -2  1  3 -1 -3 -3 -1 -4
P -1 -2 -2 -1 -3 -1 -1 -2 -2 -3 -3 -1 -2 -4  7 -1 -1 -4 -3 -2 -2 -1 -2 -4
S  1 -1  1  0 -1  0  0  0 -1 -2 -2  0 -1 -2 -1  4  1 -3 -2 -2  0  0  0 -4
T  0 -1  0 -1 -1 -1 -1 -2 -2 -1 -1 -1 -1 -2 -1  1  5 -2 -2  0 -1 -1  0 -4
W -3 -3 -4 -4 -2 -2 -3 -2 -2 -3 -2 -3 -1  1 -4 -3 -2 11  2 -3 -4 -3 -2 -4
Y -2 -2 -2 -3 -2 -1 -2 -3  2 -1 -1 -2 -1  3 -3 -2 -2  2  7 -1 -3 -2 -1 -4
V  0 -3 -3 -3 -1 -2 -2 -3 -3  3  1 -2  1 -1 -2 -2  0 -3 -1  4 -3 -2 -1 -4
B -2 -1  3  4 -3  0  1 -1  0 -3 -4  0 -3 -3 -2  0 -1 -4 -3 -3  4  1 -1 -4
Z -1  0  0  1 -3  3  4 -2  0 -3 -3  1 -1 -3 -1  0 -1 -3 -2 -2  1  4 -1 -4
X  0 -1 -1 -1 -2 -1 -1 -1 -1 -1 -1 -1 -1 -1 -2  0  0 -2 -1 -1 -1 -1 -1 -4
* -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4  1
";

/// A square substitution-score matrix indexed by residue *codes*.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScoringMatrix {
    /// Human-readable name (`"BLOSUM62"`, `"DNA(+5/-4)"`, ...).
    pub name: String,
    /// Alphabet whose codes index this matrix.
    pub alphabet: Alphabet,
    n: usize,
    scores: Vec<i32>,
}

impl ScoringMatrix {
    /// The BLOSUM62 matrix (the paper's and BLAST's default for proteins).
    /// The embedded text is parsed once per process; each call clones the
    /// parsed table.
    pub fn blosum62() -> Self {
        static PARSED: OnceLock<ScoringMatrix> = OnceLock::new();
        PARSED
            .get_or_init(|| {
                Self::from_ncbi_text("BLOSUM62", Alphabet::Protein, BLOSUM62_TEXT)
                    .expect("embedded BLOSUM62 must parse") // audit:allow(expect): embedded constant text; failing to parse it is a build defect worth a panic
            })
            .clone()
    }

    /// A DNA matrix with the given match reward and mismatch penalty.
    /// `N` scores `mismatch` against everything including itself (unknown
    /// bases never help an alignment).
    pub fn dna(match_score: i32, mismatch: i32) -> Self {
        assert!(match_score > 0, "match reward must be positive");
        assert!(mismatch < 0, "mismatch penalty must be negative");
        let n = Alphabet::Dna.size();
        let mut scores = vec![mismatch; n * n];
        for i in 0..4 {
            scores[i * n + i] = match_score;
        }
        ScoringMatrix {
            name: format!("DNA({match_score:+}/{mismatch})"),
            alphabet: Alphabet::Dna,
            n,
            scores,
        }
    }

    /// BLAST's default nucleotide scoring (+2/−3).
    pub fn dna_default() -> Self {
        Self::dna(2, -3)
    }

    /// Parse a matrix in NCBI text format: a header line of symbols, then
    /// one row per symbol, each row led by its symbol. Lines starting with
    /// `#` are comments.
    pub fn from_ncbi_text(
        name: impl Into<String>,
        alphabet: Alphabet,
        text: &str,
    ) -> Result<Self, SeqError> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));

        let header = lines
            .next()
            .ok_or_else(|| SeqError::Matrix("empty matrix text".into()))?;
        let cols: Vec<u8> = header
            .split_ascii_whitespace()
            .map(|tok| {
                let b = tok.as_bytes();
                if b.len() != 1 {
                    return Err(SeqError::Matrix(format!("bad header symbol {tok:?}")));
                }
                alphabet.encode(b[0]).ok_or_else(|| {
                    SeqError::Matrix(format!("header symbol {tok:?} not in alphabet"))
                })
            })
            .collect::<Result<_, _>>()?;

        let n = alphabet.size();
        // i32::MIN marks "not provided"; every (canonical) pair must be filled.
        let mut scores = vec![i32::MIN; n * n];
        let mut rows_seen = 0usize;
        for line in lines {
            let mut toks = line.split_ascii_whitespace();
            let row_sym = toks
                .next()
                .ok_or_else(|| SeqError::Matrix("blank matrix row".into()))?;
            let rb = row_sym.as_bytes();
            if rb.len() != 1 {
                return Err(SeqError::Matrix(format!("bad row symbol {row_sym:?}")));
            }
            let row = alphabet.encode(rb[0]).ok_or_else(|| {
                SeqError::Matrix(format!("row symbol {row_sym:?} not in alphabet"))
            })? as usize;
            let vals: Vec<i32> = toks
                .map(|t| {
                    t.parse::<i32>()
                        .map_err(|_| SeqError::Matrix(format!("bad score token {t:?}")))
                })
                .collect::<Result<_, _>>()?;
            if vals.len() != cols.len() {
                return Err(SeqError::Matrix(format!(
                    "row {row_sym} has {} scores, header has {} symbols",
                    vals.len(),
                    cols.len()
                )));
            }
            for (col, val) in cols.iter().zip(vals) {
                scores[row * n + *col as usize] = val;
            }
            rows_seen += 1;
        }
        if rows_seen != cols.len() {
            return Err(SeqError::Matrix(format!(
                "matrix has {rows_seen} rows but {} header symbols",
                cols.len()
            )));
        }
        for i in 0..cols.len() {
            for j in 0..cols.len() {
                let (a, b) = (cols[i] as usize, cols[j] as usize);
                if scores[a * n + b] == i32::MIN {
                    return Err(SeqError::Matrix(format!(
                        "missing score for pair ({i},{j})"
                    )));
                }
            }
        }
        Ok(ScoringMatrix {
            name: name.into(),
            alphabet,
            n,
            scores,
        })
    }

    /// Score of substituting residue code `a` with residue code `b`.
    ///
    /// # Panics
    /// Panics (in debug builds) if a code is out of range for the alphabet.
    #[inline]
    pub fn score(&self, a: u8, b: u8) -> i32 {
        debug_assert!((a as usize) < self.n && (b as usize) < self.n);
        self.scores[a as usize * self.n + b as usize]
    }

    /// Matrix dimension (number of residue codes).
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Largest score on the diagonal (the best possible per-residue score).
    pub fn max_self_score(&self) -> i32 {
        (0..self.alphabet.canonical_size() as u8)
            .map(|c| self.score(c, c))
            .max()
            .unwrap_or(0)
    }

    /// Score an ungapped pairing of two equal-length encoded windows.
    pub fn score_window(&self, a: &[u8], b: &[u8]) -> Result<i32, SeqError> {
        if a.len() != b.len() {
            return Err(SeqError::LengthMismatch {
                left: a.len(),
                right: b.len(),
            });
        }
        Ok(a.iter().zip(b).map(|(&x, &y)| self.score(x, y)).sum())
    }

    /// True when the matrix is symmetric over canonical residues (every
    /// standard substitution matrix is).
    pub fn is_symmetric(&self) -> bool {
        let k = self.alphabet.canonical_size() as u8;
        (0..k).all(|i| (0..k).all(|j| self.score(i, j) == self.score(j, i)))
    }
}

/// Accumulator of aligned residue-pair observations — the raw input of
/// the BLOSUM construction (Henikoff & Henikoff 1992): tally pairs from
/// trusted (high-identity) alignment columns, then turn the tallies into
/// a log-odds matrix with [`ScoringMatrix::log_odds`].
#[derive(Debug, Clone, PartialEq)]
pub struct PairCounts {
    /// Alphabet whose canonical codes index the table.
    pub alphabet: Alphabet,
    k: usize,
    counts: Vec<f64>,
}

impl PairCounts {
    /// Empty tally for an alphabet's canonical residues.
    pub fn new(alphabet: Alphabet) -> Self {
        let k = alphabet.canonical_size();
        PairCounts {
            alphabet,
            k,
            counts: vec![0.0; k * k],
        }
    }

    /// Record one aligned pair (order-insensitive; both cells get half).
    /// Non-canonical codes are ignored.
    pub fn add_pair(&mut self, a: u8, b: u8) {
        if (a as usize) < self.k && (b as usize) < self.k {
            self.counts[a as usize * self.k + b as usize] += 0.5;
            self.counts[b as usize * self.k + a as usize] += 0.5;
        }
    }

    /// Record every column of an ungapped aligned window pair.
    pub fn add_window(&mut self, a: &[u8], b: &[u8]) -> Result<(), SeqError> {
        if a.len() != b.len() {
            return Err(SeqError::LengthMismatch {
                left: a.len(),
                right: b.len(),
            });
        }
        for (&x, &y) in a.iter().zip(b) {
            self.add_pair(x, y);
        }
        Ok(())
    }

    /// Total pairs recorded.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Marginal residue frequencies implied by the tally.
    pub fn marginals(&self) -> Vec<f64> {
        let total = self.total().max(f64::MIN_POSITIVE);
        (0..self.k)
            .map(|i| {
                (0..self.k)
                    .map(|j| self.counts[i * self.k + j])
                    .sum::<f64>()
                    / total
            })
            .collect()
    }
}

impl ScoringMatrix {
    /// Build a log-odds substitution matrix from observed pair counts —
    /// the BLOSUM procedure: `s(i,j) = round(scale · log2(q_ij / e_ij))`
    /// where `q` are observed pair frequencies (with a pseudocount),
    /// `e_ij = p_i·p_j` the expectation under the tally's marginals, and
    /// `scale` = 2 gives BLOSUM's half-bit units. Ambiguity codes score
    /// the matrix minimum; `X` rows get −1.
    pub fn log_odds(
        name: impl Into<String>,
        pairs: &PairCounts,
        scale: f64,
    ) -> Result<Self, SeqError> {
        if pairs.total() <= 0.0 {
            return Err(SeqError::Config("no pairs tallied".into()));
        }
        if scale <= 0.0 {
            return Err(SeqError::Config("scale must be positive".into()));
        }
        let k = pairs.k;
        let n = pairs.alphabet.size();
        let total = pairs.total();
        let p = pairs.marginals();
        // Jeffreys-style pseudocount keeps unseen pairs finite.
        let pseudo = 0.5;
        let mut scores = vec![0i32; n * n];
        let mut minimum = i32::MAX;
        for i in 0..k {
            for j in 0..k {
                let q = (pairs.counts[i * k + j] + pseudo) / (total + pseudo * (k * k) as f64);
                let e = (p[i] * p[j]).max(f64::MIN_POSITIVE);
                let s = (scale * (q / e).log2()).round() as i32;
                scores[i * n + j] = s;
                minimum = minimum.min(s);
            }
        }
        // Ambiguity codes: pessimistic defaults à la NCBI (X ≈ -1,
        // everything else the matrix minimum).
        let x = pairs.alphabet.wildcard() as usize;
        for i in 0..n {
            for j in 0..n {
                if i >= k || j >= k {
                    scores[i * n + j] = if i == x || j == x { -1 } else { minimum };
                }
            }
        }
        Ok(ScoringMatrix {
            name: name.into(),
            alphabet: pairs.alphabet,
            n,
            scores,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(c: u8) -> u8 {
        Alphabet::Protein.encode(c).unwrap()
    }

    #[test]
    fn blosum62_spot_values() {
        let m = ScoringMatrix::blosum62();
        assert_eq!(m.score(enc(b'W'), enc(b'W')), 11);
        assert_eq!(m.score(enc(b'L'), enc(b'L')), 4);
        assert_eq!(m.score(enc(b'A'), enc(b'A')), 4);
        assert_eq!(m.score(enc(b'C'), enc(b'C')), 9);
        assert_eq!(m.score(enc(b'A'), enc(b'R')), -1);
        assert_eq!(m.score(enc(b'W'), enc(b'V')), -3);
        assert_eq!(m.score(enc(b'E'), enc(b'Z')), 4);
        assert_eq!(m.score(enc(b'*'), enc(b'*')), 1);
    }

    #[test]
    fn blosum62_is_symmetric() {
        assert!(ScoringMatrix::blosum62().is_symmetric());
    }

    #[test]
    fn blosum62_max_self_score_is_tryptophan() {
        assert_eq!(ScoringMatrix::blosum62().max_self_score(), 11);
    }

    #[test]
    fn dna_matrix_scores() {
        let m = ScoringMatrix::dna(5, -4);
        let e = |c| Alphabet::Dna.encode(c).unwrap();
        assert_eq!(m.score(e(b'A'), e(b'A')), 5);
        assert_eq!(m.score(e(b'A'), e(b'G')), -4);
        assert_eq!(m.score(e(b'N'), e(b'N')), -4, "N never rewards");
        assert!(m.is_symmetric());
    }

    #[test]
    #[should_panic(expected = "match reward")]
    fn dna_matrix_rejects_nonpositive_match() {
        ScoringMatrix::dna(0, -1);
    }

    #[test]
    fn score_window_sums_pairs() {
        let m = ScoringMatrix::blosum62();
        let a = Alphabet::Protein.encode_seq(b"WW").unwrap();
        let b = Alphabet::Protein.encode_seq(b"WV").unwrap();
        assert_eq!(m.score_window(&a, &b).unwrap(), 11 - 3);
        assert!(m.score_window(&a, &[0]).is_err());
    }

    #[test]
    fn parser_rejects_truncated_matrix() {
        let bad = "   A  R\nA  4 -1\n"; // missing R row
        let err = ScoringMatrix::from_ncbi_text("bad", Alphabet::Protein, bad).unwrap_err();
        assert!(matches!(err, SeqError::Matrix(_)));
    }

    #[test]
    fn parser_rejects_ragged_row() {
        let bad = "   A  R\nA  4\nR -1  5\n";
        assert!(ScoringMatrix::from_ncbi_text("bad", Alphabet::Protein, bad).is_err());
    }

    #[test]
    fn parser_rejects_unknown_symbol() {
        let bad = "   A  ?\nA  4 -1\n?  1  1\n";
        assert!(ScoringMatrix::from_ncbi_text("bad", Alphabet::Protein, bad).is_err());
    }

    #[test]
    fn parser_accepts_comments_and_partial_alphabets() {
        let txt = "# toy DNA matrix\n   A  C\nA  1 -1\nC -1  1\n";
        let m = ScoringMatrix::from_ncbi_text("toy", Alphabet::Dna, txt).unwrap();
        assert_eq!(m.score(0, 0), 1);
        assert_eq!(m.score(0, 1), -1);
    }

    #[test]
    fn pair_counts_tally_symmetrically() {
        let mut pc = PairCounts::new(Alphabet::Protein);
        pc.add_pair(enc(b'L'), enc(b'I'));
        pc.add_pair(enc(b'L'), enc(b'L'));
        assert_eq!(pc.total(), 2.0);
        let m = pc.marginals();
        assert!((m[enc(b'L') as usize] - 0.75).abs() < 1e-12);
        assert!((m[enc(b'I') as usize] - 0.25).abs() < 1e-12);
        // Windows and wildcards.
        let mut pc2 = PairCounts::new(Alphabet::Protein);
        pc2.add_window(&[0, 1, crate::alphabet::PROTEIN_X], &[0, 2, 0])
            .unwrap();
        assert_eq!(pc2.total(), 2.0, "wildcard column is skipped");
        assert!(pc2.add_window(&[0], &[0, 1]).is_err());
    }

    #[test]
    fn log_odds_matrix_from_family_alignments_is_blosum_like() {
        // Tally pairs from synthetic 80%-identity alignments and check the
        // resulting matrix has the structural properties the BLOSUM
        // construction guarantees: symmetry, positive diagonal, negative
        // expected score under the background (valid Karlin system).
        use crate::gen::{mutate_to_identity, random_sequence};
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let mut pc = PairCounts::new(Alphabet::Protein);
        for _ in 0..50 {
            let a = random_sequence(Alphabet::Protein, 200, &mut rng);
            let b = mutate_to_identity(Alphabet::Protein, &a, 0.8, &mut rng).unwrap();
            pc.add_window(&a, &b).unwrap();
        }
        let m = ScoringMatrix::log_odds("SYN80", &pc, 2.0).unwrap();
        assert!(m.is_symmetric());
        for i in 0..20u8 {
            assert!(m.score(i, i) > 0, "diagonal {i} = {}", m.score(i, i));
        }
        // Expected score under the tally's background must be negative.
        let p = pc.marginals();
        let mean: f64 = (0..20)
            .flat_map(|i| (0..20).map(move |j| (i, j)))
            .map(|(i, j)| p[i] * p[j] * m.score(i as u8, j as u8) as f64)
            .sum();
        assert!(mean < 0.0, "mean background score {mean} must be negative");
        // Wildcard behaviour.
        let x = Alphabet::Protein.wildcard();
        assert_eq!(m.score(x, 0), -1);
    }

    #[test]
    fn log_odds_rejects_degenerate_inputs() {
        let pc = PairCounts::new(Alphabet::Protein);
        assert!(ScoringMatrix::log_odds("empty", &pc, 2.0).is_err());
        let mut pc = PairCounts::new(Alphabet::Protein);
        pc.add_pair(0, 0);
        assert!(ScoringMatrix::log_odds("bad-scale", &pc, 0.0).is_err());
    }

    #[test]
    fn user_defined_matrix_roundtrip() {
        // The paper: "The matrix used to score the alignments is a user
        // defined parameter."  Re-parse the embedded text under a new name.
        let m = ScoringMatrix::from_ncbi_text("custom", Alphabet::Protein, BLOSUM62_TEXT).unwrap();
        assert_eq!(
            m,
            ScoringMatrix {
                name: "custom".into(),
                ..ScoringMatrix::blosum62()
            }
        );
    }
}
