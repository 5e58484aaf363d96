//! # mendel-seq — sequence substrate for the Mendel framework
//!
//! This crate provides everything Mendel (IPDPS 2016) needs to talk about
//! biological sequences:
//!
//! * [`Alphabet`] — DNA and protein alphabets with compact residue codes,
//! * [`Sequence`] / [`SeqStore`] — encoded sequences and an id-addressed store,
//! * [`fasta`] — FASTA parsing and writing, the one input format (the
//!   paper ingests FASTA reference sequences),
//! * [`matrix`] — alignment scoring matrices (BLOSUM62, DNA match/mismatch,
//!   NCBI-format parser),
//! * [`dist`] — metric-space distance functions: Hamming for DNA and the
//!   Mendel distance matrix derived from BLOSUM62 (§III-B of the paper),
//!   with an optional *metric repair* that restores the triangle inequality,
//!   plus bounded (early-abandoning) kernel variants for vp-tree searches,
//! * [`lanes`] — the lane-major layout vp-tree leaves store their windows
//!   in, which the leaf kernels score sixteen at a time,
//! * [`window`] — zero-copy window views over a shared sequence buffer,
//!   so overlapping inverted-index blocks share their sequence's bytes,
//! * [`gen`] — deterministic synthetic dataset generators standing in for
//!   NCBI `nr` and the `s_aureus` / `e_coli` query sets,
//! * [`stats`] — Swiss-Prot and uniform DNA background residue
//!   frequencies.
//!
//! Everything is deterministic under a caller-supplied RNG so experiments
//! reproduce bit-for-bit.

pub mod alphabet;
pub mod dist;
pub mod error;
pub mod fasta;
pub mod gen;
pub mod lanes;
pub mod matrix;
pub mod seq;
pub mod simd;
pub mod stats;
pub mod translate;
pub mod window;

pub use alphabet::Alphabet;
pub use dist::{Hamming, MatrixDistance, Metric, Unbounded};
pub use error::SeqError;
pub use fasta::{parse_fasta, parse_fasta_sequences, write_fasta, FastaRecord};
pub use matrix::ScoringMatrix;
pub use seq::{SeqId, SeqStore, Sequence};
pub use translate::{reverse_complement, six_frames, translate};
pub use window::WindowView;
