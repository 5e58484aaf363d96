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

/// The code-table entry of a byte with no code. No alphabet has 128 codes,
/// so it is the only entry with its top bit set.
const INVALID: u8 = 0xFF;

/// The code of `byte` in `alphabet`, by the rules [`Alphabet::encode`]
/// documents: case-insensitive; `U` is `T` in DNA; the other IUPAC
/// ambiguity letters are `N` in DNA; `U`, `O` and `J` are `X` in protein.
/// Run once per byte, at compile time, to fill the code tables.
const fn rule(alphabet: Alphabet, byte: u8) -> Option<u8> {
    let up = byte.to_ascii_uppercase();
    match alphabet {
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
            _ => {
                let mut i = 0;
                while i < PROTEIN_SYMBOLS.len() {
                    if up.is_ascii_uppercase() && PROTEIN_SYMBOLS[i] == up {
                        return Some(i as u8);
                    }
                    i += 1;
                }
                None
            }
        },
    }
}

/// Every byte's [`rule`] code, [`INVALID`] where it has none.
const fn code_table(alphabet: Alphabet) -> [u8; 256] {
    let mut table = [INVALID; 256];
    let mut byte = 0;
    while byte < 256 {
        if let Some(code) = rule(alphabet, byte as u8) {
            table[byte] = code;
        }
        byte += 1;
    }
    table
}

static DNA_TABLE: [u8; 256] = code_table(Alphabet::Dna);
static PROTEIN_TABLE: [u8; 256] = code_table(Alphabet::Protein);

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
    #[inline]
    pub fn encode(self, byte: u8) -> Option<u8> {
        let code = self.table()[byte as usize];
        (code != INVALID).then_some(code)
    }

    /// The alphabet's 256-entry code table ([`INVALID`] where a byte has
    /// no code).
    #[inline]
    fn table(self) -> &'static [u8; 256] {
        match self {
            Alphabet::Dna => &DNA_TABLE,
            Alphabet::Protein => &PROTEIN_TABLE,
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
    /// One table look-up per byte; the bad byte is located only when the
    /// pass saw one.
    pub fn encode_seq(self, bytes: &[u8]) -> Result<Vec<u8>, SeqError> {
        let table = self.table();
        let codes: Vec<u8> = bytes.iter().map(|&b| table[b as usize]).collect();
        // `INVALID` is the only code with its top bit set.
        if codes.iter().fold(0, |acc, &c| acc | c) < 0x80 {
            return Ok(codes);
        }
        let position = codes.iter().position(|&c| c == INVALID).unwrap_or(0);
        Err(SeqError::InvalidResidue {
            byte: bytes[position],
            position,
        })
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

    /// `encode` as it read before the code tables: the oracle every table
    /// entry is checked against.
    fn encode_as_written(alphabet: Alphabet, byte: u8) -> Option<u8> {
        let up = byte.to_ascii_uppercase();
        match alphabet {
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

    #[test]
    fn tables_equal_the_rules_on_every_byte() {
        for alphabet in [Alphabet::Dna, Alphabet::Protein] {
            for byte in 0..=255u8 {
                assert_eq!(
                    alphabet.encode(byte),
                    encode_as_written(alphabet, byte),
                    "{alphabet:?} byte {byte}"
                );
            }
        }
    }

    /// `encode_seq` fails at the first byte the rules refuse, naming it and
    /// its position, and otherwise encodes byte by byte.
    #[test]
    fn encode_seq_errors_where_the_byte_by_byte_encoding_does() {
        let mut state = 0x9E37_79B9u32;
        for alphabet in [Alphabet::Dna, Alphabet::Protein] {
            for case in 0..2_000 {
                let len = case % 97;
                let bytes: Vec<u8> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 17;
                        state ^= state << 5;
                        // Mostly valid letters, now and then any byte.
                        match state % 50 {
                            0 => (state >> 8) as u8,
                            r => alphabet.symbols()[r as usize % alphabet.size()],
                        }
                    })
                    .collect();
                let want: Result<Vec<u8>, SeqError> = bytes
                    .iter()
                    .enumerate()
                    .map(|(position, &byte)| {
                        encode_as_written(alphabet, byte)
                            .ok_or(SeqError::InvalidResidue { byte, position })
                    })
                    .collect();
                assert_eq!(
                    alphabet.encode_seq(&bytes),
                    want,
                    "{alphabet:?} case {case}"
                );
            }
        }
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
