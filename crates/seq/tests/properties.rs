//! Property tests for the sequence substrate.

use mendel_seq::dist::percent_identity;
use mendel_seq::gen::{mutate_to_identity, MutationModel, ResidueSampler};
use mendel_seq::{
    parse_fasta_sequences, write_fasta, Alphabet, Hamming, MatrixDistance, Metric, ScoringMatrix,
    Sequence,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn protein_codes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..20, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Encoding then decoding is the identity on valid sequences.
    #[test]
    fn encode_decode_roundtrip(codes in protein_codes(1..100)) {
        let ascii = Alphabet::Protein.decode_seq(&codes);
        let back = Alphabet::Protein.encode_seq(ascii.as_bytes()).unwrap();
        prop_assert_eq!(back, codes);
    }

    /// FASTA write → parse is the identity for any valid sequence set.
    #[test]
    fn fasta_roundtrip(
        seqs in proptest::collection::vec(protein_codes(1..60), 1..6),
        width in 1usize..100,
    ) {
        let originals: Vec<Sequence> = seqs
            .into_iter()
            .enumerate()
            .map(|(i, codes)| Sequence::from_codes(format!("s{i}"), Alphabet::Protein, codes))
            .collect();
        let text = write_fasta(originals.iter(), width);
        let parsed = parse_fasta_sequences(&text, Alphabet::Protein).unwrap();
        prop_assert_eq!(parsed.len(), originals.len());
        for (p, o) in parsed.iter().zip(&originals) {
            prop_assert_eq!(&p.residues, &o.residues);
            prop_assert_eq!(&p.name, &o.name);
        }
    }

    /// Hamming distance is a metric on equal-length windows.
    #[test]
    fn hamming_metric_axioms(
        a in protein_codes(8..9),
        b in protein_codes(8..9),
        c in protein_codes(8..9),
    ) {
        let d = |x: &[u8], y: &[u8]| Hamming.dist(x, y);
        prop_assert_eq!(d(&a, &a), 0.0);
        prop_assert_eq!(d(&a, &b), d(&b, &a));
        prop_assert!(d(&a, &c) <= d(&a, &b) + d(&b, &c), "triangle inequality");
        prop_assert_eq!(d(&a, &b) == 0.0, a == b);
    }

    /// The *repaired* Mendel matrix satisfies the triangle inequality on
    /// windows (L1 composition preserves it).
    #[test]
    fn repaired_matrix_window_triangle(
        a in protein_codes(6..7),
        b in protein_codes(6..7),
        c in protein_codes(6..7),
    ) {
        let m = MatrixDistance::mendel(&ScoringMatrix::blosum62()).repair_metric();
        let ab = m.dist(&a[..], &b[..]);
        let bc = m.dist(&b[..], &c[..]);
        let ac = m.dist(&a[..], &c[..]);
        prop_assert!(ac <= ab + bc + 1e-4, "ac={ac} ab={ab} bc={bc}");
    }

    /// mutate_to_identity produces exactly the requested divergence and
    /// percent_identity measures it back.
    #[test]
    fn mutation_and_identity_are_inverse(
        codes in protein_codes(40..200),
        identity in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let m = mutate_to_identity(Alphabet::Protein, &codes, identity, &mut rng).unwrap();
        prop_assert_eq!(m.len(), codes.len());
        let measured = percent_identity(&codes, &m).unwrap() as f64;
        let expected = 1.0 - ((1.0 - identity) * codes.len() as f64).round() / codes.len() as f64;
        prop_assert!((measured - expected).abs() < 1e-6, "measured {measured} expected {expected}");
    }

    /// Substitution-only mutation preserves length; indel rates move it.
    #[test]
    fn mutation_model_length_behaviour(
        codes in protein_codes(50..150),
        sub in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let m = MutationModel::with_indels(sub, 0.0).mutate(Alphabet::Protein, &codes, &mut rng);
        prop_assert_eq!(m.len(), codes.len());
    }

    /// Sampled residues are always canonical.
    #[test]
    fn sampler_stays_canonical(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let s = ResidueSampler::background(Alphabet::Protein);
        for _ in 0..64 {
            prop_assert!((s.sample(&mut rng) as usize) < 20);
        }
    }

    /// Reverse complement is an involution and preserves length for any
    /// DNA (including ambiguous bases).
    #[test]
    fn reverse_complement_involution(dna in proptest::collection::vec(0u8..5, 0..150)) {
        use mendel_seq::reverse_complement;
        let rc = reverse_complement(&dna);
        prop_assert_eq!(rc.len(), dna.len());
        prop_assert_eq!(reverse_complement(&rc), dna);
    }

    /// Translation frame arithmetic: frame f yields ⌊(L−f)/3⌋ residues,
    /// all valid protein codes; the three forward frames tile the input.
    #[test]
    fn translation_frame_lengths(dna in proptest::collection::vec(0u8..5, 0..120)) {
        use mendel_seq::translate;
        for frame in 0..3usize {
            let p = translate(&dna, frame).unwrap();
            prop_assert_eq!(p.len(), dna.len().saturating_sub(frame) / 3);
            for &aa in &p {
                prop_assert!((aa as usize) < Alphabet::Protein.size());
            }
        }
    }

}
