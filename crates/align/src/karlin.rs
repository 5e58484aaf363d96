//! Karlin–Altschul statistics for local alignment scores.
//!
//! The paper ranks gapped alignments by an expectation value `E` (its
//! Table I parameter). For an ungapped scoring system with residue
//! background frequencies `p_i`, Karlin & Altschul (PNAS 1990) showed
//! that the number of segment pairs scoring ≥ `S` between random
//! sequences of lengths `m`, `n` is Poisson with mean
//!
//! ```text
//! E = K · m · n · e^(−λS)
//! ```
//!
//! where `λ` is the unique positive solution of `Σ p(s)·e^(λs) = 1` over
//! the score distribution `p(s) = Σ_{i,j : s_ij = s} p_i p_j`, and `K` is
//! computable from the partial-sum series (their eq. (4); NCBI's
//! `BlastKarlinLHtoK` implements the same series). This module solves both
//! numerically for *any* scoring matrix and background composition, and
//! ships the published gapped constants for BLOSUM62 (gapped statistics
//! have no analytic form; BLAST also uses precomputed tables).

use mendel_seq::stats::background_frequencies;
use mendel_seq::ScoringMatrix;

/// The (λ, K, H) triple describing a scoring system's extreme-value
/// statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KarlinParams {
    /// Scale of the score distribution (nats per score unit).
    pub lambda: f64,
    /// Search-space scaling constant.
    pub k: f64,
    /// Relative entropy of the aligned-pair distribution (nats per pair).
    pub h: f64,
}

impl KarlinParams {
    /// Published gapped BLOSUM62 constants for gap open 11 / extend 1
    /// (BLAST's default blastp configuration).
    pub const BLOSUM62_GAPPED_11_1: KarlinParams = KarlinParams {
        lambda: 0.267,
        k: 0.041,
        h: 0.14,
    };

    /// Bit score of a raw score under these parameters.
    pub fn bit_score(&self, raw: i32) -> f64 {
        (self.lambda * raw as f64 - self.k.ln()) / std::f64::consts::LN_2
    }

    /// Expectation value for a raw score against a search space of
    /// `m × n` residues.
    pub fn evalue(&self, raw: i32, m: usize, n: usize) -> f64 {
        self.k * m as f64 * n as f64 * (-self.lambda * raw as f64).exp()
    }
}

/// Convenience: E-value under explicit parameters.
pub fn evalue(params: &KarlinParams, raw: i32, m: usize, n: usize) -> f64 {
    params.evalue(raw, m, n)
}

/// Convenience: bit score under explicit parameters.
pub fn bit_score(params: &KarlinParams, raw: i32) -> f64 {
    params.bit_score(raw)
}

/// Errors from the numeric solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KarlinError {
    /// The expected score is non-negative; local alignment statistics
    /// require a negative drift.
    NonNegativeDrift,
    /// No positive score exists; nothing can ever align.
    NoPositiveScore,
    /// The λ iteration failed to converge.
    NoConvergence,
}

impl std::fmt::Display for KarlinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KarlinError::NonNegativeDrift => {
                write!(
                    f,
                    "expected score is non-negative; scoring system is invalid"
                )
            }
            KarlinError::NoPositiveScore => write!(f, "no positive score in the matrix"),
            KarlinError::NoConvergence => write!(f, "lambda iteration failed to converge"),
        }
    }
}

impl std::error::Error for KarlinError {}

/// The integer score distribution induced by a matrix and a composition.
#[derive(Debug, Clone)]
struct ScoreDist {
    /// Lowest score with positive probability.
    low: i32,
    /// `probs[k]` = P(score = low + k).
    probs: Vec<f64>,
}

impl ScoreDist {
    fn from_matrix(matrix: &ScoringMatrix, freqs: &[f64]) -> Self {
        let k = matrix.alphabet.canonical_size();
        assert_eq!(freqs.len(), k, "composition must cover canonical residues");
        let mut low = i32::MAX;
        let mut high = i32::MIN;
        for i in 0..k as u8 {
            for j in 0..k as u8 {
                let s = matrix.score(i, j);
                low = low.min(s);
                high = high.max(s);
            }
        }
        let mut probs = vec![0.0; (high - low + 1) as usize];
        for i in 0..k {
            for j in 0..k {
                let s = matrix.score(i as u8, j as u8);
                probs[(s - low) as usize] += freqs[i] * freqs[j];
            }
        }
        ScoreDist { low, probs }
    }

    fn mean(&self) -> f64 {
        self.probs
            .iter()
            .enumerate()
            .map(|(k, &p)| (self.low + k as i32) as f64 * p)
            .sum()
    }

    fn high(&self) -> i32 {
        self.low + self.probs.len() as i32 - 1
    }

    /// `Σ p(s)·e^(λs)`.
    fn mgf(&self, lambda: f64) -> f64 {
        self.probs
            .iter()
            .enumerate()
            .map(|(k, &p)| p * (lambda * (self.low + k as i32) as f64).exp())
            .sum()
    }

    /// Lattice span: gcd of all scores in the support.
    fn span(&self) -> i32 {
        let mut d = 0i64;
        for (k, &p) in self.probs.iter().enumerate() {
            if p > 0.0 {
                let s = (self.low + k as i32).unsigned_abs() as i64;
                if s != 0 {
                    d = gcd(d, s);
                }
            }
        }
        d.max(1) as i32
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Solve (λ, K, H) for an ungapped scoring system defined by `matrix` and
/// canonical-residue background frequencies `freqs` (pass
/// [`background_frequencies`] output, or any measured composition).
pub fn solve_ungapped(matrix: &ScoringMatrix, freqs: &[f64]) -> Result<KarlinParams, KarlinError> {
    let dist = ScoreDist::from_matrix(matrix, freqs);
    if dist.mean() >= 0.0 {
        return Err(KarlinError::NonNegativeDrift);
    }
    if dist.high() <= 0 {
        return Err(KarlinError::NoPositiveScore);
    }
    let lambda = solve_lambda(&dist)?;
    let h = lambda
        * dist
            .probs
            .iter()
            .enumerate()
            .map(|(k, &p)| {
                let s = (dist.low + k as i32) as f64;
                p * s * (lambda * s).exp()
            })
            .sum::<f64>();
    let k = solve_k(&dist, lambda, h);
    Ok(KarlinParams { lambda, k, h })
}

/// Solve (λ, K, H) using the alphabet's background composition.
pub fn solve_ungapped_background(matrix: &ScoringMatrix) -> Result<KarlinParams, KarlinError> {
    solve_ungapped(matrix, &background_frequencies(matrix.alphabet))
}

/// Bisection on `mgf(λ) − 1`: the function is 0 at λ=0, dips negative
/// (negative drift), and grows to +∞, so the positive root brackets
/// cleanly once we find an upper bound.
fn solve_lambda(dist: &ScoreDist) -> Result<f64, KarlinError> {
    let mut hi = 0.5f64;
    let mut guard = 0;
    while dist.mgf(hi) < 1.0 {
        hi *= 2.0;
        guard += 1;
        if guard > 64 {
            return Err(KarlinError::NoConvergence);
        }
    }
    let mut lo = 0.0f64;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if dist.mgf(mid) < 1.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let lambda = 0.5 * (lo + hi);
    if lambda <= 0.0 || !lambda.is_finite() {
        return Err(KarlinError::NoConvergence);
    }
    Ok(lambda)
}

/// K via the partial-sum series of Karlin & Altschul (1990), eq. (4):
///
/// ```text
/// σ = Σ_{k≥1} (1/k) · [ P(S_k ≥ 0) + E(e^(λ·S_k); S_k < 0) ]
/// K = δ · λ · e^(−2σ) / ( H · (1 − e^(−λδ)) )
/// ```
///
/// where `S_k` is the k-step random walk of scores and `δ` the lattice
/// span. Both bracketed terms decay exponentially (the first under the
/// original measure, the second under the λ-tilted measure), so the
/// series converges in a few dozen terms.
fn solve_k(dist: &ScoreDist, lambda: f64, h: f64) -> f64 {
    let step = &dist.probs;
    let low = dist.low as i64;
    // walk[k] = P(S_j = walk_low + k) for the current j.
    let mut walk: Vec<f64> = step.clone();
    let mut walk_low = low;
    let mut sigma = 0.0f64;
    const MAX_ITER: usize = 128;
    const EPS: f64 = 1e-12;
    for j in 1..=MAX_ITER {
        let mut term = 0.0f64;
        for (k, &p) in walk.iter().enumerate() {
            if p <= 0.0 {
                continue;
            }
            let s = walk_low + k as i64;
            if s >= 0 {
                term += p;
            } else {
                term += p * (lambda * s as f64).exp();
            }
        }
        sigma += term / j as f64;
        if term < EPS {
            break;
        }
        if j < MAX_ITER {
            // Convolve the walk with one more step.
            let mut next = vec![0.0f64; walk.len() + step.len() - 1];
            for (a, &pa) in walk.iter().enumerate() {
                if pa == 0.0 {
                    continue;
                }
                for (b, &pb) in step.iter().enumerate() {
                    next[a + b] += pa * pb;
                }
            }
            walk = next;
            walk_low += low;
        }
    }
    let delta = dist.span() as f64;
    delta * lambda * (-2.0 * sigma).exp() / (h * (1.0 - (-lambda * delta).exp()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mendel_seq::Alphabet;

    #[test]
    fn blosum62_lambda_matches_published_value() {
        let p = solve_ungapped_background(&ScoringMatrix::blosum62()).unwrap();
        // Published 0.3176 uses Robinson–Robinson composition; Swiss-Prot
        // composition lands within a couple of percent.
        assert!((p.lambda - 0.3176).abs() < 0.01, "lambda = {}", p.lambda);
    }

    #[test]
    fn blosum62_k_and_h_match_published_values() {
        let p = solve_ungapped_background(&ScoringMatrix::blosum62()).unwrap();
        assert!((p.k - 0.134).abs() < 0.03, "K = {}", p.k);
        assert!((p.h - 0.4012).abs() < 0.05, "H = {}", p.h);
    }

    #[test]
    fn plus_one_minus_one_dna_has_lambda_ln3() {
        // Match probability 1/4 ⇒ 0.25·e^λ + 0.75·e^(−λ) = 1 ⇒ e^λ = 3.
        let m = ScoringMatrix::dna(1, -1);
        let p = solve_ungapped_background(&m).unwrap();
        assert!(
            (p.lambda - 3.0f64.ln()).abs() < 1e-6,
            "lambda = {}",
            p.lambda
        );
    }

    #[test]
    fn lattice_span_scales_lambda_inversely() {
        // Doubling all scores must halve lambda exactly.
        let a = solve_ungapped_background(&ScoringMatrix::dna(1, -1)).unwrap();
        let b = solve_ungapped_background(&ScoringMatrix::dna(2, -2)).unwrap();
        assert!((b.lambda - a.lambda / 2.0).abs() < 1e-9);
        // ...and K and H are invariant under the rescaling.
        assert!((b.k - a.k).abs() < 1e-6, "K {} vs {}", b.k, a.k);
        assert!((b.h - a.h).abs() < 1e-9, "H {} vs {}", b.h, a.h);
    }

    #[test]
    fn positive_drift_is_rejected() {
        // match 5 / mismatch -1 at uniform DNA: mean = 0.25·5 − 0.75 > 0.
        let m = ScoringMatrix::dna(5, -1);
        assert_eq!(
            solve_ungapped_background(&m).unwrap_err(),
            KarlinError::NonNegativeDrift
        );
    }

    #[test]
    fn evalue_decreases_exponentially_in_score() {
        let p = KarlinParams::BLOSUM62_GAPPED_11_1;
        let e50 = p.evalue(50, 1000, 1_000_000);
        let e60 = p.evalue(60, 1000, 1_000_000);
        assert!(e60 < e50);
        let ratio = e50 / e60;
        assert!((ratio - (10.0 * p.lambda).exp()).abs() / ratio < 1e-9);
    }

    #[test]
    fn evalue_scales_linearly_with_search_space() {
        let p = KarlinParams::BLOSUM62_GAPPED_11_1;
        let e1 = p.evalue(80, 500, 1_000);
        let e2 = p.evalue(80, 500, 2_000);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bit_score_roundtrip() {
        // E = m·n·2^(−bits) must agree with the raw formula.
        let p = KarlinParams::BLOSUM62_GAPPED_11_1;
        let (m, n, s) = (700usize, 9_000usize, 64);
        let bits = p.bit_score(s);
        let via_bits = m as f64 * n as f64 * 2f64.powf(-bits);
        let direct = p.evalue(s, m, n);
        assert!((via_bits - direct).abs() / direct < 1e-9);
    }

    #[test]
    fn helper_functions_delegate() {
        let p = KarlinParams::BLOSUM62_GAPPED_11_1;
        assert_eq!(evalue(&p, 42, 10, 10), p.evalue(42, 10, 10));
        assert_eq!(bit_score(&p, 42), p.bit_score(42));
    }

    #[test]
    fn score_dist_sums_to_one() {
        let d = ScoreDist::from_matrix(
            &ScoringMatrix::blosum62(),
            &background_frequencies(Alphabet::Protein),
        );
        let total: f64 = d.probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(d.low, -4);
        assert_eq!(d.high(), 11);
        assert_eq!(d.span(), 1);
    }

    #[test]
    fn span_of_even_scores_is_two() {
        let d = ScoreDist::from_matrix(
            &ScoringMatrix::dna(2, -2),
            &background_frequencies(Alphabet::Dna),
        );
        assert_eq!(d.span(), 2);
    }
}
