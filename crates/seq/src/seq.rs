//! Encoded sequences and the id-addressed sequence store.

use crate::alphabet::Alphabet;
use crate::error::SeqError;

/// Stable identifier of a sequence within a [`SeqStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqId(pub u32);

impl SeqId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SeqId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seq#{}", self.0)
    }
}

/// A single encoded sequence: residue codes plus provenance metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sequence {
    /// Identifier assigned by the owning store (or `SeqId(0)` when detached).
    pub id: SeqId,
    /// Accession / name, e.g. `sp|P69905|HBA_HUMAN`.
    pub name: String,
    /// Free-text description from the FASTA header.
    pub description: String,
    /// Which alphabet `residues` is encoded in.
    pub alphabet: Alphabet,
    /// Residue codes (see [`Alphabet::encode`]).
    pub residues: Vec<u8>,
}

impl Sequence {
    /// Build a sequence from ASCII text, encoding it into residue codes.
    pub fn from_ascii(
        name: impl Into<String>,
        alphabet: Alphabet,
        ascii: &[u8],
    ) -> Result<Self, SeqError> {
        Ok(Sequence {
            id: SeqId(0),
            name: name.into(),
            description: String::new(),
            alphabet,
            residues: alphabet.encode_seq(ascii)?,
        })
    }

    /// Build a sequence directly from residue codes (caller guarantees the
    /// codes are valid for `alphabet`).
    pub fn from_codes(name: impl Into<String>, alphabet: Alphabet, codes: Vec<u8>) -> Self {
        debug_assert!(
            codes.iter().all(|&c| (c as usize) < alphabet.size()),
            "residue code out of range for {alphabet:?}"
        );
        Sequence {
            id: SeqId(0),
            name: name.into(),
            description: String::new(),
            alphabet,
            residues: codes,
        }
    }

    /// Number of residues.
    #[inline]
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// True when the sequence holds no residues.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
    }

    /// Decode back to ASCII text.
    pub fn to_ascii(&self) -> String {
        self.alphabet.decode_seq(&self.residues)
    }

    /// A window `[start, start+len)` of residue codes; `None` if out of range.
    pub fn window(&self, start: usize, len: usize) -> Option<&[u8]> {
        self.residues.get(start..start.checked_add(len)?)
    }
}

/// An append-only, id-addressed collection of sequences — the "reference
/// database" role in the paper (NCBI `nr` stood in by synthetic data).
#[derive(Debug, Clone, Default)]
pub struct SeqStore {
    seqs: Vec<Sequence>,
}

impl SeqStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a sequence, assigning and returning its [`SeqId`]. Duplicate
    /// names are allowed (NCBI `nr` has them).
    pub fn insert(&mut self, mut seq: Sequence) -> SeqId {
        let id = SeqId(self.seqs.len() as u32);
        seq.id = id;
        self.seqs.push(seq);
        id
    }

    /// Insert many sequences, returning the assigned ids in order.
    pub fn insert_batch(&mut self, seqs: impl IntoIterator<Item = Sequence>) -> Vec<SeqId> {
        seqs.into_iter().map(|s| self.insert(s)).collect()
    }

    /// Fetch by id.
    #[inline]
    pub fn get(&self, id: SeqId) -> Option<&Sequence> {
        self.seqs.get(id.index())
    }

    /// Number of sequences stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// True when no sequences are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Total residue count across all sequences.
    pub fn total_residues(&self) -> usize {
        self.seqs.iter().map(Sequence::len).sum()
    }

    /// Iterate over all sequences in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Sequence> {
        self.seqs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn protein(name: &str, ascii: &[u8]) -> Sequence {
        Sequence::from_ascii(name, Alphabet::Protein, ascii).unwrap()
    }

    #[test]
    fn sequence_roundtrip() {
        let s = protein("p1", b"MARNDW");
        assert_eq!(s.len(), 6);
        assert_eq!(s.to_ascii(), "MARNDW");
    }

    #[test]
    fn window_bounds() {
        let s = protein("p1", b"MARNDW");
        assert_eq!(s.window(0, 3).map(|w| w.len()), Some(3));
        assert_eq!(s.window(4, 2).map(|w| w.len()), Some(2));
        assert!(s.window(4, 3).is_none());
        assert!(s.window(7, 0).is_none());
        assert!(s.window(usize::MAX, 2).is_none(), "overflow must not panic");
    }

    #[test]
    fn store_assigns_sequential_ids() {
        let mut st = SeqStore::new();
        let a = st.insert(protein("a", b"MA"));
        let b = st.insert(protein("b", b"MR"));
        assert_eq!(a, SeqId(0));
        assert_eq!(b, SeqId(1));
        assert_eq!(st.get(b).unwrap().name, "b");
        assert_eq!(st.len(), 2);
        assert_eq!(st.total_residues(), 4);
    }

    #[test]
    fn insert_batch_preserves_order() {
        let mut st = SeqStore::new();
        let ids = st.insert_batch(vec![protein("a", b"M"), protein("b", b"MM")]);
        assert_eq!(ids, vec![SeqId(0), SeqId(1)]);
    }

    #[test]
    fn empty_store() {
        let st = SeqStore::new();
        assert!(st.is_empty());
        assert_eq!(st.total_residues(), 0);
        assert!(st.get(SeqId(0)).is_none());
    }
}
