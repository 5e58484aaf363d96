//! Residue alphabets and compact encodings.
//!
//! Mendel stores sequences as compact residue *codes* (`u8`), not ASCII.
//! The protein code order matches the NCBI scoring-matrix row order
//! `ARNDCQEGHILKMFPSTWYVBZX*` so a residue code doubles as a matrix index.
//! DNA uses `ACGTN`.

use crate::error::SeqError;

/// ASCII symbols of the DNA alphabet in code order (`N` = any base).
pub const DNA_SYMBOLS: &[u8; 5] = b"ACGTN";

/// ASCII symbols of the protein alphabet in NCBI matrix order.
///
/// The first 20 are the canonical amino acids; `B` (Asx), `Z` (Glx) are
/// ambiguity codes, `X` is any residue and `*` a translation stop.
pub const PROTEIN_SYMBOLS: &[u8; 24] = b"ARNDCQEGHILKMFPSTWYVBZX*";

/// Code of the protein wildcard residue `X`.
pub const PROTEIN_X: u8 = 22;
/// Code of the DNA wildcard base `N`.
pub const DNA_N: u8 = 4;

/// A residue alphabet: DNA (`ACGTN`) or protein (NCBI 24-letter order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Alphabet {
    /// Nucleotides `A`, `C`, `G`, `T` plus the wildcard `N`.
    Dna,
    /// The 20 canonical amino acids plus `B`, `Z`, `X`, `*`.
    Protein,
}

impl Alphabet {
    /// Total number of residue codes, including ambiguity codes.
    #[inline]
    pub fn size(self) -> usize {
        match self {
            Alphabet::Dna => DNA_SYMBOLS.len(),
            Alphabet::Protein => PROTEIN_SYMBOLS.len(),
        }
    }

    /// Number of *canonical* (unambiguous) residues: 4 for DNA, 20 for protein.
    #[inline]
    pub fn canonical_size(self) -> usize {
        match self {
            Alphabet::Dna => 4,
            Alphabet::Protein => 20,
        }
    }

    /// The ASCII symbol table in code order.
    #[inline]
    pub fn symbols(self) -> &'static [u8] {
        match self {
            Alphabet::Dna => DNA_SYMBOLS,
            Alphabet::Protein => PROTEIN_SYMBOLS,
        }
    }

    /// Encode one ASCII byte into a residue code. Case-insensitive.
    ///
    /// Unknown-but-plausible IUPAC bytes map to the wildcard (`N`/`X`) so
    /// real-world FASTA with rare ambiguity codes still loads; genuinely
    /// non-alphabetic bytes return `None`.
    pub fn encode(self, byte: u8) -> Option<u8> {
        let up = byte.to_ascii_uppercase();
        match self {
            Alphabet::Dna => match up {
                b'A' => Some(0),
                b'C' => Some(1),
                b'G' => Some(2),
                b'T' | b'U' => Some(3),
                b'N' | b'R' | b'Y' | b'S' | b'W' | b'K' | b'M' | b'B' | b'D' | b'H' | b'V' => {
                    Some(DNA_N)
                }
                _ => None,
            },
            Alphabet::Protein => match up {
                b'*' => Some(23),
                b'U' | b'O' | b'J' => Some(PROTEIN_X),
                c if c.is_ascii_uppercase() => PROTEIN_SYMBOLS
                    .iter()
                    .position(|&s| s == c)
                    .map(|i| i as u8),
                _ => None,
            },
        }
    }

    /// Decode a residue code back to its ASCII symbol.
    ///
    /// # Panics
    /// Panics if `code` is out of range for the alphabet (that indicates a
    /// corrupted sequence, never ordinary data).
    #[inline]
    pub fn decode(self, code: u8) -> u8 {
        self.symbols()[code as usize]
    }

    /// Encode an ASCII byte string, failing on the first invalid byte.
    pub fn encode_seq(self, bytes: &[u8]) -> Result<Vec<u8>, SeqError> {
        bytes
            .iter()
            .enumerate()
            .map(|(position, &byte)| {
                self.encode(byte)
                    .ok_or(SeqError::InvalidResidue { byte, position })
            })
            .collect()
    }

    /// Decode a slice of residue codes into an ASCII string.
    pub fn decode_seq(self, codes: &[u8]) -> String {
        codes.iter().map(|&c| char::from(self.decode(c))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dna_roundtrip() {
        let enc = Alphabet::Dna.encode_seq(b"ACGTN").unwrap();
        assert_eq!(enc, vec![0, 1, 2, 3, 4]);
        assert_eq!(Alphabet::Dna.decode_seq(&enc), "ACGTN");
    }

    #[test]
    fn dna_lowercase_and_uracil() {
        assert_eq!(Alphabet::Dna.encode(b'a'), Some(0));
        assert_eq!(Alphabet::Dna.encode(b'u'), Some(3));
        assert_eq!(Alphabet::Dna.encode(b'U'), Some(3));
    }

    #[test]
    fn dna_iupac_ambiguity_maps_to_n() {
        for &b in b"RYSWKMBDHVryswkmbdhv" {
            assert_eq!(
                Alphabet::Dna.encode(b),
                Some(DNA_N),
                "byte {}",
                char::from(b)
            );
        }
    }

    #[test]
    fn dna_rejects_garbage() {
        assert_eq!(Alphabet::Dna.encode(b'!'), None);
        assert_eq!(Alphabet::Dna.encode(b'1'), None);
        assert_eq!(Alphabet::Dna.encode(b' '), None);
    }

    #[test]
    fn protein_roundtrip_full_symbol_table() {
        let enc = Alphabet::Protein.encode_seq(PROTEIN_SYMBOLS).unwrap();
        let expect: Vec<u8> = (0..24).collect();
        assert_eq!(enc, expect);
        assert_eq!(
            Alphabet::Protein.decode_seq(&enc).as_bytes(),
            PROTEIN_SYMBOLS
        );
    }

    #[test]
    fn protein_rare_residues_map_to_x() {
        for &b in b"UOJuoj" {
            assert_eq!(Alphabet::Protein.encode(b), Some(PROTEIN_X));
        }
    }

    #[test]
    fn protein_rejects_digits_and_punct() {
        for &b in b"0- .@" {
            assert_eq!(Alphabet::Protein.encode(b), None, "byte {}", char::from(b));
        }
    }

    #[test]
    fn encode_seq_reports_position_of_bad_byte() {
        let err = Alphabet::Protein.encode_seq(b"ARN!D").unwrap_err();
        assert_eq!(
            err,
            SeqError::InvalidResidue {
                byte: b'!',
                position: 3
            }
        );
    }

    #[test]
    fn canonical_sizes() {
        assert_eq!(Alphabet::Dna.canonical_size(), 4);
        assert_eq!(Alphabet::Protein.canonical_size(), 20);
    }

    #[test]
    fn wildcards() {
        assert_eq!(Alphabet::Dna.decode(DNA_N), b'N');
        assert_eq!(Alphabet::Protein.decode(PROTEIN_X), b'X');
    }
}
