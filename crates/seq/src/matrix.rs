//! Alignment scoring matrices.
//!
//! BLOSUM62 — the default scoring matrix of BLAST and of the paper — is
//! embedded in NCBI text format and parsed at construction (the parser also
//! accepts any user-supplied NCBI-format matrix, satisfying the paper's
//! "the matrix used to score the alignments is a user defined parameter").
//! DNA matrices are generated from match/mismatch scores.

use crate::alphabet::Alphabet;
use crate::error::SeqError;
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoringMatrix {
    /// Human-readable name (`"BLOSUM62"`, `"DNA(+5/-4)"`, ...).
    pub name: String,
    /// Alphabet whose codes index this matrix.
    pub alphabet: Alphabet,
    n: usize,
    scores: Vec<i32>,
    /// Every row as [`I8_ROW`] `i8` scores, zero past the alphabet, for
    /// `pshufb` look-ups; empty when a score does not fit `i8` or the
    /// alphabet has more than [`I8_ROW`] letters.
    i8_rows: Vec<[i8; I8_ROW]>,
    /// The smallest and the largest score in the table.
    extremes: (i32, i32),
}

/// Scores per row of [`ScoringMatrix::i8_rows`]: two 16-byte `pshufb`
/// tables, indexed by the low four bits of a code and picked by bit 4.
pub const I8_ROW: usize = 32;

impl ScoringMatrix {
    /// The BLOSUM62 matrix (the paper's and BLAST's default for proteins).
    /// The embedded text is parsed once per process; each call clones the
    /// parsed table.
    #[expect(
        clippy::expect_used,
        reason = "embedded constant text; failing to parse it is a build defect worth a panic"
    )]
    pub fn blosum62() -> Self {
        static PARSED: OnceLock<ScoringMatrix> = OnceLock::new();
        PARSED
            .get_or_init(|| {
                Self::from_ncbi_text("BLOSUM62", Alphabet::Protein, BLOSUM62_TEXT)
                    .expect("embedded BLOSUM62 must parse")
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
        Self::new(
            format!("DNA({match_score:+}/{mismatch})"),
            Alphabet::Dna,
            n,
            scores,
        )
    }

    /// The matrix over `n` codes with row-major `scores`, and its caches.
    fn new(name: String, alphabet: Alphabet, n: usize, scores: Vec<i32>) -> Self {
        let fits = n <= I8_ROW && scores.iter().all(|&s| i8::try_from(s).is_ok());
        let i8_rows = if fits {
            let rows = scores.chunks_exact(n).map(|row| {
                let mut out = [0i8; I8_ROW];
                for (o, &s) in out.iter_mut().zip(row) {
                    *o = s as i8;
                }
                out
            });
            rows.collect()
        } else {
            Vec::new()
        };
        let extremes = scores
            .iter()
            .fold((i32::MAX, i32::MIN), |(lo, hi), &s| (lo.min(s), hi.max(s)));
        ScoringMatrix {
            name,
            alphabet,
            n,
            scores,
            i8_rows,
            extremes,
        }
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
        Ok(Self::new(name.into(), alphabet, n, scores))
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

    /// Every score of residue code `a`, indexed by the other code:
    /// `row(a)[b] == score(a, b)`. A DP row over one residue of `a` looks
    /// its scores up here instead of multiplying out each cell's index.
    ///
    /// # Panics
    /// Panics if `a` is out of range for the alphabet.
    #[inline]
    pub fn row(&self, a: u8) -> &[i32] {
        let start = a as usize * self.n;
        &self.scores[start..start + self.n]
    }

    /// Every row as [`I8_ROW`] `i8` scores, indexed by code:
    /// `i8_rows()[a][b] == score(a, b)`, zero past the alphabet. `None`
    /// when a score does not fit `i8` or the alphabet has more than
    /// [`I8_ROW`] letters. The gapped extension's lane kernel looks a
    /// row's scores up here with two `pshufb`s.
    #[inline]
    pub fn i8_rows(&self) -> Option<&[[i8; I8_ROW]]> {
        (!self.i8_rows.is_empty()).then_some(&self.i8_rows[..])
    }

    /// The smallest and the largest score in the table.
    #[inline]
    pub fn extremes(&self) -> (i32, i32) {
        self.extremes
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
    fn rows_agree_with_pair_scores() {
        for m in [ScoringMatrix::blosum62(), ScoringMatrix::dna(2, -3)] {
            let n = m.alphabet.size() as u8;
            let i8_rows = m.i8_rows().unwrap();
            assert_eq!(i8_rows.len(), usize::from(n));
            let (mut lo, mut hi) = (i32::MAX, i32::MIN);
            for a in 0..n {
                assert_eq!(m.row(a).len(), m.alphabet.size());
                for b in 0..n {
                    assert_eq!(m.row(a)[b as usize], m.score(a, b), "{} ({a},{b})", m.name);
                    (lo, hi) = (lo.min(m.score(a, b)), hi.max(m.score(a, b)));
                }
                for b in 0..I8_ROW as u8 {
                    let want = if b < n { m.score(a, b) } else { 0 };
                    assert_eq!(i32::from(i8_rows[usize::from(a)][usize::from(b)]), want);
                }
            }
            assert_eq!(m.extremes(), (lo, hi), "{}", m.name);
        }
        assert_eq!(ScoringMatrix::blosum62().extremes(), (-4, 11));
        // One score past `i8` and the table has no byte rows.
        let wide = ScoringMatrix::dna(128, -3);
        assert!(wide.i8_rows().is_none());
        assert_eq!(wide.extremes(), (-3, 128));
        assert!(ScoringMatrix::dna(127, -128).i8_rows().is_some());
    }

    fn is_symmetric(m: &ScoringMatrix) -> bool {
        let k = m.alphabet.canonical_size() as u8;
        (0..k).all(|i| (0..k).all(|j| m.score(i, j) == m.score(j, i)))
    }

    #[test]
    fn blosum62_is_symmetric() {
        assert!(is_symmetric(&ScoringMatrix::blosum62()));
    }

    #[test]
    fn dna_matrix_scores() {
        let m = ScoringMatrix::dna(5, -4);
        let e = |c| Alphabet::Dna.encode(c).unwrap();
        assert_eq!(m.score(e(b'A'), e(b'A')), 5);
        assert_eq!(m.score(e(b'A'), e(b'G')), -4);
        assert_eq!(m.score(e(b'N'), e(b'N')), -4, "N never rewards");
        assert!(is_symmetric(&m));
    }

    #[test]
    #[should_panic(expected = "match reward")]
    fn dna_matrix_rejects_nonpositive_match() {
        ScoringMatrix::dna(0, -1);
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
