//! FASTA parsing and writing.
//!
//! Supports multi-line records, `>name description` headers, CRLF input,
//! and `;` comment lines (an old but still-seen FASTA dialect).

use crate::alphabet::Alphabet;
use crate::error::SeqError;
use crate::seq::Sequence;

/// One raw FASTA record: header split into name/description plus the
/// un-encoded residue text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastaRecord {
    /// First whitespace-delimited token of the header.
    pub name: String,
    /// Remainder of the header line (may be empty).
    pub description: String,
    /// Concatenated sequence bytes, whitespace removed, case preserved.
    pub residues: Vec<u8>,
}

impl FastaRecord {
    /// Encode this record into a [`Sequence`] under `alphabet`.
    pub fn into_sequence(self, alphabet: Alphabet) -> Result<Sequence, SeqError> {
        let mut s = Sequence::from_ascii(self.name, alphabet, &self.residues)?;
        s.description = self.description;
        Ok(s)
    }
}

/// Parse FASTA text into records.
///
/// Rules: records start at `>`; `;` lines are comments; blank lines are
/// skipped; sequence text before the first header is an error; a header
/// with no sequence lines yields an empty record error.
pub fn parse_fasta(text: &str) -> Result<Vec<FastaRecord>, SeqError> {
    let mut records: Vec<FastaRecord> = Vec::new();
    let mut current: Option<FastaRecord> = None;

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end_matches('\r');
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        if let Some(header) = line.strip_prefix('>') {
            if let Some(rec) = current.take() {
                finish_record(rec, &mut records)?;
            }
            let header = header.trim();
            let (name, description) = match header.split_once(char::is_whitespace) {
                Some((n, d)) => (n.to_string(), d.trim().to_string()),
                None => (header.to_string(), String::new()),
            };
            if name.is_empty() {
                return Err(SeqError::Fasta(format!(
                    "empty header at line {}",
                    lineno + 1
                )));
            }
            current = Some(FastaRecord {
                name,
                description,
                residues: Vec::new(),
            });
        } else {
            match current.as_mut() {
                Some(rec) => rec
                    .residues
                    .extend(line.bytes().filter(|b| !b.is_ascii_whitespace())),
                None => {
                    return Err(SeqError::Fasta(format!(
                        "sequence data before first '>' header at line {}",
                        lineno + 1
                    )))
                }
            }
        }
    }
    if let Some(rec) = current.take() {
        finish_record(rec, &mut records)?;
    }
    Ok(records)
}

fn finish_record(rec: FastaRecord, out: &mut Vec<FastaRecord>) -> Result<(), SeqError> {
    if rec.residues.is_empty() {
        return Err(SeqError::Fasta(format!(
            "record {:?} has no sequence data",
            rec.name
        )));
    }
    out.push(rec);
    Ok(())
}

/// Parse FASTA text and encode every record under `alphabet`.
pub fn parse_fasta_sequences(text: &str, alphabet: Alphabet) -> Result<Vec<Sequence>, SeqError> {
    parse_fasta(text)?
        .into_iter()
        .map(|r| r.into_sequence(alphabet))
        .collect()
}

/// Serialize sequences to FASTA text, wrapping residue lines at `width`.
pub fn write_fasta<'a>(seqs: impl IntoIterator<Item = &'a Sequence>, width: usize) -> String {
    let width = width.max(1);
    let mut out = String::new();
    for s in seqs {
        out.push('>');
        out.push_str(&s.name);
        if !s.description.is_empty() {
            out.push(' ');
            out.push_str(&s.description);
        }
        out.push('\n');
        let ascii = s.to_ascii();
        let bytes = ascii.as_bytes();
        for chunk in bytes.chunks(width) {
            out.push_str(&String::from_utf8_lossy(chunk));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = ">p1 human hemoglobin\nMARND\nWWY\n\n>p2\nACDEF\n";

    #[test]
    fn parses_multiline_records() {
        let recs = parse_fasta(SAMPLE).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "p1");
        assert_eq!(recs[0].description, "human hemoglobin");
        assert_eq!(recs[0].residues, b"MARNDWWY");
        assert_eq!(recs[1].name, "p2");
        assert_eq!(recs[1].description, "");
        assert_eq!(recs[1].residues, b"ACDEF");
    }

    #[test]
    fn handles_crlf_and_comments() {
        let text = "; legacy comment\r\n>x\r\nMAR\r\nND\r\n";
        let recs = parse_fasta(text).unwrap();
        assert_eq!(recs[0].residues, b"MARND");
    }

    #[test]
    fn rejects_leading_sequence_data() {
        let err = parse_fasta("MARND\n>x\nM\n").unwrap_err();
        assert!(matches!(err, SeqError::Fasta(_)));
    }

    #[test]
    fn rejects_empty_record() {
        assert!(parse_fasta(">only_header\n").is_err());
        assert!(parse_fasta(">a\nMA\n>empty\n>b\nMR\n").is_err());
    }

    #[test]
    fn rejects_empty_header() {
        assert!(parse_fasta(">\nMA\n").is_err());
    }

    #[test]
    fn encode_and_roundtrip() {
        let seqs = parse_fasta_sequences(SAMPLE, Alphabet::Protein).unwrap();
        assert_eq!(seqs[0].to_ascii(), "MARNDWWY");
        let text = write_fasta(seqs.iter(), 4);
        let re = parse_fasta_sequences(&text, Alphabet::Protein).unwrap();
        assert_eq!(re.len(), 2);
        assert_eq!(re[0].to_ascii(), "MARNDWWY");
        assert_eq!(re[0].description, "human hemoglobin");
        // 8 residues at width 4 → exactly two full lines
        assert!(text.contains("MARN\nDWWY\n"), "{text}");
    }

    #[test]
    fn encoding_error_propagates_from_record() {
        let err = parse_fasta_sequences(">bad\nM1R\n", Alphabet::Protein).unwrap_err();
        assert!(matches!(err, SeqError::InvalidResidue { byte: b'1', .. }));
    }

    #[test]
    fn write_fasta_minimum_width_is_one() {
        let s = Sequence::from_ascii("t", Alphabet::Dna, b"ACG").unwrap();
        let text = write_fasta([&s], 0);
        assert_eq!(text, ">t\nA\nC\nG\n");
    }
}
