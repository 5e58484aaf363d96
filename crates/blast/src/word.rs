//! k-letter words: packing, tokenization, and neighbourhood generation.
//!
//! BLAST "tokenized [the query] into k-letter words. Probable variants
//! for each word are generated and BLAST then searches the whole database
//! for exact matches to the generated tokens" (§II-B1). For proteins the
//! variants are the *neighbourhood*: every word scoring at least `T`
//! against the query word under the scoring matrix. DNA uses exact words
//! only (larger k, no neighbourhood), as in blastn.

use mendel_seq::{Alphabet, ScoringMatrix};

/// Word shape: length and the alphabet radix used for packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordSpec {
    /// Word length (blastp default 3, blastn default 11).
    pub k: usize,
    /// Number of canonical residues (packing radix).
    pub radix: u32,
}

impl WordSpec {
    /// blastp-style: 3-letter protein words over the canonical 20.
    pub fn protein() -> Self {
        WordSpec {
            k: 3,
            radix: Alphabet::Protein.canonical_size() as u32,
        }
    }

    /// blastn-style: 11-letter DNA words over ACGT.
    pub fn dna() -> Self {
        WordSpec {
            k: 11,
            radix: Alphabet::Dna.canonical_size() as u32,
        }
    }

    /// A custom shape.
    ///
    /// # Panics
    /// Panics if `radix^k` overflows `u32` (the packed-word domain).
    pub fn new(k: usize, radix: u32) -> Self {
        let spec = WordSpec { k, radix };
        assert!(k >= 1, "word length must be positive");
        assert!(
            spec.domain_checked().is_some(),
            "radix^k must fit in u32 (got {radix}^{k})"
        );
        spec
    }

    /// Number of possible packed words (`radix^k`).
    #[expect(
        clippy::expect_used,
        reason = "WordSpec constructors reject overflowing k/radix, so the product always fits"
    )]
    pub fn domain(&self) -> u32 {
        self.domain_checked().expect("validated at construction")
    }

    fn domain_checked(&self) -> Option<u32> {
        let mut d: u32 = 1;
        for _ in 0..self.k {
            d = d.checked_mul(self.radix)?;
        }
        Some(d)
    }
}

/// Pack `k` residue codes into a single integer word code. Returns `None`
/// if any residue is non-canonical (wildcards never seed).
pub fn pack_word(spec: WordSpec, window: &[u8]) -> Option<u32> {
    debug_assert_eq!(window.len(), spec.k);
    let mut code: u32 = 0;
    for &r in window {
        if (r as u32) >= spec.radix {
            return None;
        }
        code = code * spec.radix + r as u32;
    }
    Some(code)
}

/// Unpack a word code back into residue codes (inverse of [`pack_word`]).
pub fn unpack_word(spec: WordSpec, mut code: u32) -> Vec<u8> {
    let mut out = vec![0u8; spec.k];
    for slot in out.iter_mut().rev() {
        *slot = (code % spec.radix) as u8;
        code /= spec.radix;
    }
    out
}

/// All words of the query: `(offset, packed code)` per position whose
/// window is fully canonical.
pub fn query_words(spec: WordSpec, query: &[u8]) -> Vec<(usize, u32)> {
    if query.len() < spec.k {
        return Vec::new();
    }
    (0..=query.len() - spec.k)
        .filter_map(|i| pack_word(spec, &query[i..i + spec.k]).map(|w| (i, w)))
        .collect()
}

/// The neighbourhood of `word`: every packed word whose ungapped score
/// against `word` under `matrix` is at least `threshold`. Includes the
/// word itself when it meets the threshold (it nearly always does).
///
/// Enumeration prunes by best-possible completion, so the cost is far
/// below `radix^k` for realistic thresholds.
pub fn neighborhood(
    spec: WordSpec,
    word: &[u8],
    matrix: &ScoringMatrix,
    threshold: i32,
) -> Vec<u32> {
    debug_assert_eq!(word.len(), spec.k);
    // best_suffix[i] = max achievable score from positions i..k.
    let mut best_suffix = vec![0i32; spec.k + 1];
    for i in (0..spec.k).rev() {
        let best_here = (0..spec.radix as u8)
            .map(|c| matrix.score(word[i], c))
            .max()
            .unwrap_or(0);
        best_suffix[i] = best_suffix[i + 1] + best_here;
    }
    let mut out = Vec::new();
    let mut partial = Vec::with_capacity(spec.k);
    expand(
        spec,
        word,
        matrix,
        threshold,
        &best_suffix,
        0,
        0,
        &mut partial,
        &mut out,
    );
    out
}

#[allow(
    clippy::too_many_arguments,
    reason = "the recursion carries the whole DFS state; a struct would only rename the arguments"
)]
fn expand(
    spec: WordSpec,
    word: &[u8],
    matrix: &ScoringMatrix,
    threshold: i32,
    best_suffix: &[i32],
    pos: usize,
    score: i32,
    partial: &mut Vec<u8>,
    out: &mut Vec<u32>,
) {
    if pos == spec.k {
        if score >= threshold {
            #[expect(
                clippy::expect_used,
                reason = "partial holds canonical residues below the radix by construction"
            )]
            out.push(pack_word(spec, partial).expect("canonical residues"));
        }
        return;
    }
    for c in 0..spec.radix as u8 {
        let s = score + matrix.score(word[pos], c);
        if s + best_suffix[pos + 1] < threshold {
            continue;
        }
        partial.push(c);
        expand(
            spec,
            word,
            matrix,
            threshold,
            best_suffix,
            pos + 1,
            s,
            partial,
            out,
        );
        partial.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(s: &[u8]) -> Vec<u8> {
        Alphabet::Protein.encode_seq(s).unwrap()
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let spec = WordSpec::protein();
        for w in [[0u8, 0, 0], [19, 19, 19], [4, 7, 13]] {
            let code = pack_word(spec, &w).unwrap();
            assert_eq!(unpack_word(spec, code), w.to_vec());
            assert!(code < spec.domain());
        }
    }

    #[test]
    fn wildcards_do_not_pack() {
        let spec = WordSpec::protein();
        let x = Alphabet::Protein.encode(b'X').unwrap();
        assert!(pack_word(spec, &[0, x, 0]).is_none());
    }

    #[test]
    fn dna_spec_domain() {
        let spec = WordSpec::dna();
        assert_eq!(spec.domain(), 4u32.pow(11));
    }

    #[test]
    #[should_panic(expected = "fit in u32")]
    fn oversized_spec_rejected() {
        WordSpec::new(8, 20); // 20^8 > u32::MAX
    }

    #[test]
    fn query_words_skip_wildcard_windows() {
        let spec = WordSpec::new(2, 20);
        let q = enc(b"ARXND");
        let words = query_words(spec, &q);
        // Windows: AR ok, RX no, XN no, ND ok.
        assert_eq!(words.len(), 2);
        assert_eq!(words[0].0, 0);
        assert_eq!(words[1].0, 3);
    }

    #[test]
    fn query_words_of_short_query_is_empty() {
        assert!(query_words(WordSpec::protein(), &enc(b"AR")).is_empty());
    }

    #[test]
    fn neighborhood_contains_self_and_respects_threshold() {
        let m = ScoringMatrix::blosum62();
        let spec = WordSpec::protein();
        let w = enc(b"WWW"); // self-score 33
        let hood = neighborhood(spec, &w, &m, 11);
        let self_code = pack_word(spec, &w).unwrap();
        assert!(hood.contains(&self_code));
        // Every member scores >= 11 when re-checked by hand.
        for &code in &hood {
            let v = unpack_word(spec, code);
            let score: i32 = w.iter().zip(&v).map(|(&a, &b)| m.score(a, b)).sum();
            assert!(score >= 11, "word {v:?} scores {score}");
        }
    }

    #[test]
    fn neighborhood_is_exhaustive_vs_brute_force() {
        let m = ScoringMatrix::blosum62();
        let spec = WordSpec::new(2, 20); // 400 words: brute force is cheap
        let w = enc(b"LK");
        let threshold = 7;
        let mut want: Vec<u32> = (0..spec.domain())
            .filter(|&code| {
                let v = unpack_word(spec, code);
                let s: i32 = w.iter().zip(&v).map(|(&a, &b)| m.score(a, b)).sum();
                s >= threshold
            })
            .collect();
        let mut got = neighborhood(spec, &w, &m, threshold);
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn high_threshold_empties_the_neighborhood() {
        let m = ScoringMatrix::blosum62();
        let spec = WordSpec::protein();
        let w = enc(b"AAA"); // self-score 12
        assert!(neighborhood(spec, &w, &m, 100).is_empty());
    }

    #[test]
    fn lower_threshold_grows_the_neighborhood() {
        let m = ScoringMatrix::blosum62();
        let spec = WordSpec::protein();
        let w = enc(b"LKF");
        let tight = neighborhood(spec, &w, &m, 13).len();
        let loose = neighborhood(spec, &w, &m, 11).len();
        assert!(loose > tight, "loose {loose} vs tight {tight}");
    }
}
