//! Residue composition statistics.
//!
//! The paper motivates its protein distance function with the September
//! 2015 UniProtKB/Swiss-Prot composition statistics ("Leucine appears
//! almost nine times more frequently than Tryptophan"); this module embeds
//! those background frequencies, used by the Karlin–Altschul statistics in
//! `mendel-align` and by the synthetic generators in [`crate::gen`].

use crate::alphabet::Alphabet;

/// Swiss-Prot (release 2015_09) amino-acid background frequencies, in the
/// protein code order `ARNDCQEGHILKMFPSTWYV` (canonical 20 only). Sums to 1.
pub const SWISSPROT_FREQS: [f64; 20] = [
    0.0826, // A
    0.0553, // R
    0.0406, // N
    0.0546, // D
    0.0137, // C
    0.0393, // Q
    0.0674, // E
    0.0708, // G
    0.0227, // H
    0.0593, // I
    0.0965, // L
    0.0582, // K
    0.0241, // M
    0.0386, // F
    0.0472, // P
    0.0660, // S
    0.0535, // T
    0.0110, // W
    0.0292, // Y
    0.0686, // V
];

/// Uniform DNA base frequencies (`A`, `C`, `G`, `T`).
pub const DNA_UNIFORM_FREQS: [f64; 4] = [0.25; 4];

/// Background residue frequencies for an alphabet's canonical residues,
/// normalised to sum to exactly 1.
pub fn background_frequencies(alphabet: Alphabet) -> Vec<f64> {
    let raw: &[f64] = match alphabet {
        Alphabet::Dna => &DNA_UNIFORM_FREQS,
        Alphabet::Protein => &SWISSPROT_FREQS,
    };
    let total: f64 = raw.iter().sum();
    raw.iter().map(|f| f / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swissprot_frequencies_sum_to_one() {
        let total: f64 = SWISSPROT_FREQS.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "sum = {total}");
        let norm = background_frequencies(Alphabet::Protein);
        let ntotal: f64 = norm.iter().sum();
        assert!((ntotal - 1.0).abs() < 1e-12);
    }

    #[test]
    fn leucine_about_nine_times_tryptophan() {
        // The paper's §III-B motivation, verbatim check.
        let leu = SWISSPROT_FREQS[Alphabet::Protein.encode(b'L').unwrap() as usize];
        let trp = SWISSPROT_FREQS[Alphabet::Protein.encode(b'W').unwrap() as usize];
        let ratio = leu / trp;
        assert!((8.0..10.0).contains(&ratio), "Leu/Trp ratio = {ratio}");
    }
}
