//! Deterministic synthetic dataset generators.
//!
//! The paper evaluates against NCBI's non-redundant protein database
//! (`nr`, 73 M sequences) and two whole-genome query sets (`s_aureus`,
//! `e_coli`). None of those ship with this repository, so this module
//! generates faithful stand-ins (see DESIGN.md §3):
//!
//! * [`random_sequence`] — background-frequency residue sampling
//!   (Swiss-Prot composition for proteins, uniform for DNA),
//! * [`MutationModel`] / [`mutate_to_identity`] — controlled divergence
//!   with substitutions and indels,
//! * [`NrLikeSpec`] — an `nr`-like database with planted homologous
//!   families (so sensitivity has a ground truth),
//! * [`QuerySetSpec`] — genome-like query sets sampled from a database
//!   with known provenance.
//!
//! All generation is driven by a caller-seeded [`rand::Rng`], so every
//! experiment is reproducible bit-for-bit.

use crate::alphabet::Alphabet;
use crate::error::SeqError;
use crate::seq::{SeqId, SeqStore, Sequence};
use crate::stats::background_frequencies;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Weighted sampler over an alphabet's canonical residues.
#[derive(Debug, Clone)]
pub struct ResidueSampler {
    alphabet: Alphabet,
    cumulative: Vec<f64>,
}

impl ResidueSampler {
    /// Sampler using the alphabet's background frequencies.
    #[expect(
        clippy::expect_used,
        reason = "embedded background tables are positive and match the alphabet size"
    )]
    pub fn background(alphabet: Alphabet) -> Self {
        Self::with_frequencies(alphabet, &background_frequencies(alphabet))
            .expect("background frequencies are valid")
    }

    /// Sampler with caller-supplied canonical-residue frequencies.
    pub fn with_frequencies(alphabet: Alphabet, freqs: &[f64]) -> Result<Self, SeqError> {
        if freqs.len() != alphabet.canonical_size() {
            return Err(SeqError::Config(format!(
                "expected {} frequencies, got {}",
                alphabet.canonical_size(),
                freqs.len()
            )));
        }
        if freqs.iter().any(|&f| f < 0.0) {
            return Err(SeqError::Config("negative frequency".into()));
        }
        let total: f64 = freqs.iter().sum();
        if total <= 0.0 {
            return Err(SeqError::Config("frequencies sum to zero".into()));
        }
        let mut acc = 0.0;
        let cumulative = freqs
            .iter()
            .map(|&f| {
                acc += f / total;
                acc
            })
            .collect();
        Ok(ResidueSampler {
            alphabet,
            cumulative,
        })
    }

    /// Draw one residue code.
    pub fn sample(&self, rng: &mut impl Rng) -> u8 {
        let x: f64 = rng.random();
        // Last bucket absorbs floating-point shortfall.
        self.cumulative
            .iter()
            .position(|&c| x < c)
            .unwrap_or(self.cumulative.len() - 1) as u8
    }

    /// Draw one residue code different from `not`.
    pub fn sample_excluding(&self, not: u8, rng: &mut impl Rng) -> u8 {
        debug_assert!(self.alphabet.canonical_size() > 1);
        loop {
            let c = self.sample(rng);
            if c != not {
                return c;
            }
        }
    }
}

/// Generate a random sequence of `len` residues from background frequencies.
pub fn random_sequence(alphabet: Alphabet, len: usize, rng: &mut impl Rng) -> Vec<u8> {
    let sampler = ResidueSampler::background(alphabet);
    (0..len).map(|_| sampler.sample(rng)).collect()
}

/// A mutation model applied per residue position: substitutions, insertions,
/// and deletions, each with an independent per-position probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MutationModel {
    /// Per-position substitution probability.
    pub substitution: f64,
    /// Per-position insertion probability (insert before the position).
    pub insertion: f64,
    /// Per-position deletion probability.
    pub deletion: f64,
}

impl MutationModel {
    /// Substitutions plus symmetric indels (sequencer-like noise).
    pub fn with_indels(substitution: f64, indel: f64) -> Self {
        MutationModel {
            substitution,
            insertion: indel / 2.0,
            deletion: indel / 2.0,
        }
    }

    /// Validate that every rate lies in `[0, 1]`.
    pub fn validate(&self) -> Result<(), SeqError> {
        for (name, r) in [
            ("substitution", self.substitution),
            ("insertion", self.insertion),
            ("deletion", self.deletion),
        ] {
            if !(0.0..=1.0).contains(&r) {
                return Err(SeqError::Config(format!("{name} rate {r} outside [0,1]")));
            }
        }
        Ok(())
    }

    /// Apply the model to an encoded sequence, returning the mutant.
    pub fn mutate(&self, alphabet: Alphabet, seq: &[u8], rng: &mut impl Rng) -> Vec<u8> {
        let sampler = ResidueSampler::background(alphabet);
        let mut out = Vec::with_capacity(seq.len() + 8);
        for &res in seq {
            if rng.random::<f64>() < self.insertion {
                out.push(sampler.sample(rng));
            }
            if rng.random::<f64>() < self.deletion {
                continue;
            }
            if rng.random::<f64>() < self.substitution {
                out.push(sampler.sample_excluding(res, rng));
            } else {
                out.push(res);
            }
        }
        out
    }
}

/// Mutate a sequence to an *exact* target identity by substituting a fixed
/// count of distinct random positions (no indels). This is the procedure of
/// the paper's sensitivity experiment (§VI-E): "groups of sequences are
/// generated by randomly mutating residues from the original sequence
/// corresponding to the desired similarity level."
pub fn mutate_to_identity(
    alphabet: Alphabet,
    seq: &[u8],
    identity: f64,
    rng: &mut impl Rng,
) -> Result<Vec<u8>, SeqError> {
    if seq.is_empty() {
        return Err(SeqError::EmptySequence);
    }
    if !(0.0..=1.0).contains(&identity) {
        return Err(SeqError::Config(format!(
            "identity {identity} outside [0,1]"
        )));
    }
    let n_mut = ((1.0 - identity) * seq.len() as f64).round() as usize;
    let sampler = ResidueSampler::background(alphabet);
    let mut positions: Vec<usize> = (0..seq.len()).collect();
    positions.shuffle(rng);
    let mut out = seq.to_vec();
    for &p in positions.iter().take(n_mut) {
        out[p] = sampler.sample_excluding(out[p], rng);
    }
    Ok(out)
}

/// Specification of an `nr`-like synthetic reference database.
///
/// The database is built from `families` independent ancestor sequences;
/// each family contributes `members_per_family` descendants mutated by
/// `family_divergence`. Planted families give sensitivity experiments a
/// ground truth. Lengths are drawn uniformly from `length_range`.
#[derive(Debug, Clone)]
pub struct NrLikeSpec {
    /// Residue alphabet of the database.
    pub alphabet: Alphabet,
    /// Number of independent families (ancestors).
    pub families: usize,
    /// Descendants generated per family, including the ancestor itself.
    pub members_per_family: usize,
    /// Inclusive sequence-length range, sampled uniformly.
    pub length_range: (usize, usize),
    /// Mutation model applied to derive each non-ancestor member.
    pub family_divergence: MutationModel,
    /// RNG seed; same spec + same seed ⇒ identical database.
    pub seed: u64,
}

impl Default for NrLikeSpec {
    fn default() -> Self {
        NrLikeSpec {
            alphabet: Alphabet::Protein,
            families: 64,
            members_per_family: 4,
            length_range: (200, 600),
            family_divergence: MutationModel::with_indels(0.10, 0.01),
            seed: 0x4d454e44, // "MEND"
        }
    }
}

impl NrLikeSpec {
    /// Generate the database. Sequence names are `fam{F}_m{M}`; member 0 of
    /// each family is the unmutated ancestor.
    pub fn generate(&self) -> Result<SeqStore, SeqError> {
        if self.families == 0 || self.members_per_family == 0 {
            return Err(SeqError::Config(
                "families and members must be positive".into(),
            ));
        }
        if self.length_range.0 == 0 || self.length_range.0 > self.length_range.1 {
            return Err(SeqError::Config(format!(
                "bad length range {:?}",
                self.length_range
            )));
        }
        self.family_divergence.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut store = SeqStore::new();
        for f in 0..self.families {
            let len = rng.random_range(self.length_range.0..=self.length_range.1);
            let ancestor = random_sequence(self.alphabet, len, &mut rng);
            for m in 0..self.members_per_family {
                let codes = if m == 0 {
                    ancestor.clone()
                } else {
                    self.family_divergence
                        .mutate(self.alphabet, &ancestor, &mut rng)
                };
                let mut s = Sequence::from_codes(format!("fam{f}_m{m}"), self.alphabet, codes);
                s.description = format!("family {f} member {m}");
                store.insert(s);
            }
        }
        Ok(store)
    }
}

/// One generated query with its ground-truth provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// The query sequence itself.
    pub query: Sequence,
    /// Database sequence the query was sampled from.
    pub source: SeqId,
    /// Start offset of the sampled window within the source.
    pub source_start: usize,
    /// Identity level the mutation model was asked for (1.0 = exact copy).
    pub target_identity: f64,
}

/// Specification of a genome-like query set sampled from a database —
/// the stand-in for the paper's `s_aureus` / `e_coli` query sets.
#[derive(Debug, Clone)]
pub struct QuerySetSpec {
    /// Number of queries to draw.
    pub count: usize,
    /// Length of each query window.
    pub length: usize,
    /// Identity of each query to its source window (mutations are uniform
    /// random substitutions; see [`mutate_to_identity`]).
    pub identity: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QuerySetSpec {
    fn default() -> Self {
        QuerySetSpec {
            count: 16,
            length: 1000,
            identity: 0.9,
            seed: 0x51534554,
        } // "QSET"
    }
}

impl QuerySetSpec {
    /// Sample the query set from `db`. Sources are drawn uniformly among
    /// database sequences long enough to hold a window of `self.length`.
    pub fn generate(&self, db: &SeqStore) -> Result<Vec<QueryRecord>, SeqError> {
        if self.count == 0 || self.length == 0 {
            return Err(SeqError::Config("count and length must be positive".into()));
        }
        let eligible: Vec<&Sequence> = db.iter().filter(|s| s.len() >= self.length).collect();
        if eligible.is_empty() {
            return Err(SeqError::Config(format!(
                "no database sequence is >= {} residues",
                self.length
            )));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(self.count);
        for q in 0..self.count {
            let src = eligible[rng.random_range(0..eligible.len())];
            let start = rng.random_range(0..=src.len() - self.length);
            let window = &src.residues[start..start + self.length];
            let codes = mutate_to_identity(src.alphabet, window, self.identity, &mut rng)?;
            let mut query = Sequence::from_codes(format!("q{q}"), src.alphabet, codes);
            query.description = format!("from {} @{}", src.name, start);
            out.push(QueryRecord {
                query,
                source: src.id,
                source_start: start,
                target_identity: self.identity,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Hamming;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn sampler_respects_frequencies() {
        let mut r = rng(1);
        let s = ResidueSampler::with_frequencies(Alphabet::Dna, &[1.0, 0.0, 0.0, 0.0]).unwrap();
        for _ in 0..100 {
            assert_eq!(s.sample(&mut r), 0);
        }
    }

    #[test]
    fn sampler_rejects_bad_frequencies() {
        assert!(ResidueSampler::with_frequencies(Alphabet::Dna, &[1.0; 3]).is_err());
        assert!(ResidueSampler::with_frequencies(Alphabet::Dna, &[0.0; 4]).is_err());
        assert!(ResidueSampler::with_frequencies(Alphabet::Dna, &[-1.0, 1.0, 0.5, 0.5]).is_err());
    }

    #[test]
    fn sample_excluding_never_returns_excluded() {
        let mut r = rng(2);
        let s = ResidueSampler::background(Alphabet::Dna);
        for _ in 0..200 {
            assert_ne!(s.sample_excluding(2, &mut r), 2);
        }
    }

    #[test]
    fn protein_background_matches_swissprot_roughly() {
        let mut r = rng(3);
        let seq = random_sequence(Alphabet::Protein, 50_000, &mut r);
        let freq = |code: u8| seq.iter().filter(|&&r| r == code).count() as f64 / seq.len() as f64;
        let leu = freq(10);
        let trp = freq(17);
        assert!(leu > 0.08 && leu < 0.11, "Leu freq {leu}");
        assert!(trp < 0.02, "Trp freq {trp}");
    }

    #[test]
    fn mutate_to_identity_hits_exact_substitution_count() {
        let mut r = rng(4);
        let seq = random_sequence(Alphabet::Protein, 1000, &mut r);
        for identity in [1.0, 0.9, 0.5, 0.0] {
            let m = mutate_to_identity(Alphabet::Protein, &seq, identity, &mut r).unwrap();
            let diff = Hamming::count(&seq, &m);
            let expect = ((1.0 - identity) * 1000.0).round() as usize;
            assert_eq!(diff, expect, "identity {identity}");
        }
    }

    #[test]
    fn mutate_to_identity_validates_inputs() {
        let mut r = rng(5);
        assert!(mutate_to_identity(Alphabet::Dna, &[], 0.5, &mut r).is_err());
        assert!(mutate_to_identity(Alphabet::Dna, &[0], 1.5, &mut r).is_err());
    }

    #[test]
    fn mutation_model_substitution_only_preserves_length() {
        let mut r = rng(6);
        let seq = random_sequence(Alphabet::Dna, 500, &mut r);
        let m = MutationModel::with_indels(0.2, 0.0).mutate(Alphabet::Dna, &seq, &mut r);
        assert_eq!(m.len(), seq.len());
        let diff = Hamming::count(&seq, &m);
        assert!((50..150).contains(&diff), "observed {diff} substitutions");
    }

    #[test]
    fn mutation_model_indels_change_length() {
        let mut r = rng(7);
        let seq = random_sequence(Alphabet::Dna, 2000, &mut r);
        let m = MutationModel::with_indels(0.0, 0.2).mutate(Alphabet::Dna, &seq, &mut r);
        assert_ne!(m.len(), seq.len(), "indels at 20% should move the length");
    }

    #[test]
    fn mutation_model_zero_rates_is_identity() {
        let mut r = rng(8);
        let seq = random_sequence(Alphabet::Protein, 100, &mut r);
        let m = MutationModel::with_indels(0.0, 0.0).mutate(Alphabet::Protein, &seq, &mut r);
        assert_eq!(m, seq);
    }

    #[test]
    fn mutation_model_validation() {
        assert!(MutationModel::with_indels(1.5, 0.0).validate().is_err());
        assert!(MutationModel {
            substitution: 0.1,
            insertion: -0.1,
            deletion: 0.0
        }
        .validate()
        .is_err());
        assert!(MutationModel::with_indels(0.5, 0.5).validate().is_ok());
    }

    #[test]
    fn nr_like_generation_is_deterministic() {
        let spec = NrLikeSpec {
            families: 4,
            members_per_family: 3,
            ..Default::default()
        };
        let a = spec.generate().unwrap();
        let b = spec.generate().unwrap();
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn nr_like_families_are_similar_but_not_identical() {
        let spec = NrLikeSpec {
            families: 2,
            members_per_family: 2,
            length_range: (300, 300),
            family_divergence: MutationModel::with_indels(0.1, 0.0),
            ..Default::default()
        };
        let db = spec.generate().unwrap();
        let anc = db.iter().find(|s| s.name == "fam0_m0").unwrap();
        let desc = db.iter().find(|s| s.name == "fam0_m1").unwrap();
        let diff = Hamming::count(&anc.residues, &desc.residues);
        assert!(diff > 0, "descendant must differ");
        assert!(diff < 100, "descendant must stay close (got {diff}/300)");
    }

    #[test]
    fn nr_like_rejects_bad_specs() {
        assert!(NrLikeSpec {
            families: 0,
            ..Default::default()
        }
        .generate()
        .is_err());
        assert!(NrLikeSpec {
            length_range: (10, 5),
            ..Default::default()
        }
        .generate()
        .is_err());
        assert!(NrLikeSpec {
            length_range: (0, 5),
            ..Default::default()
        }
        .generate()
        .is_err());
    }

    #[test]
    fn query_set_has_correct_provenance() {
        let db = NrLikeSpec {
            families: 4,
            members_per_family: 2,
            length_range: (400, 500),
            ..Default::default()
        }
        .generate()
        .unwrap();
        let qs = QuerySetSpec {
            count: 8,
            length: 200,
            identity: 1.0,
            seed: 9,
        }
        .generate(&db)
        .unwrap();
        assert_eq!(qs.len(), 8);
        for q in &qs {
            let src = db.get(q.source).unwrap();
            let window = src.window(q.source_start, 200).unwrap();
            assert_eq!(
                q.query.residues, window,
                "identity-1.0 query must copy source"
            );
        }
    }

    #[test]
    fn query_set_identity_level_is_respected() {
        let db = NrLikeSpec {
            families: 2,
            members_per_family: 1,
            length_range: (500, 500),
            ..Default::default()
        }
        .generate()
        .unwrap();
        let qs = QuerySetSpec {
            count: 4,
            length: 300,
            identity: 0.8,
            seed: 10,
        }
        .generate(&db)
        .unwrap();
        for q in &qs {
            let src = db.get(q.source).unwrap();
            let window = src.window(q.source_start, 300).unwrap();
            let diff = Hamming::count(&q.query.residues, window);
            assert_eq!(diff, 60, "20% of 300 positions must differ");
        }
    }

    #[test]
    fn query_set_rejects_oversized_windows() {
        let db = NrLikeSpec {
            families: 1,
            members_per_family: 1,
            length_range: (100, 100),
            ..Default::default()
        }
        .generate()
        .unwrap();
        assert!(QuerySetSpec {
            length: 500,
            ..Default::default()
        }
        .generate(&db)
        .is_err());
    }
}
