//! # mendel-align — alignment substrate
//!
//! Dynamic-programming alignment and alignment statistics shared by the
//! Mendel query pipeline and the BLAST baseline:
//!
//! * [`local`] — Smith–Waterman local alignment scores with affine gaps
//!   (Gotoh), the exact reference for the banded extension,
//! * [`global`] — Needleman–Wunsch global alignment with affine gaps,
//! * [`extend`] — seed extensions: ungapped X-drop (BLAST's first stage)
//!   and banded gapped X-drop (Gapped BLAST's second stage; the band width
//!   is the paper's `l` query parameter),
//! * [`hsp`] — high-scoring segment pairs, diagonals, overlap merging,
//! * [`karlin`] — Karlin–Altschul statistics: exact λ and H for any
//!   ungapped scoring system, K via the partial-sum series of
//!   Karlin & Altschul (1990), E-values and bit scores.

pub mod alignment;
pub mod extend;
pub mod global;
pub mod hsp;
pub mod karlin;
pub mod local;

pub use alignment::{AlignOp, Alignment, GapPenalties};
pub use extend::{extend_gapped_banded, extend_ungapped, GappedExtension, UngappedExtension};
pub use global::needleman_wunsch;
pub use hsp::Hsp;
pub use karlin::{bit_score, evalue, KarlinParams};
