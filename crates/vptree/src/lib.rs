//! # mendel-vptree — vantage-point trees for Mendel
//!
//! Implements §III of the paper:
//!
//! * [`tree`] — the vp-tree (Yianilos 1993), [`VpTree`], with the two
//!   optimizations of §III-D: leaf *buckets* and per-subtree distance
//!   *bounds* used for extra pruning during search,
//! * [`knn`] — the shrinking-τ k-nearest-neighbour search machinery,
//! * [`dynamic`] — how a [`VpTree`] grows: single-element and batched
//!   insertion with the four rebalancing cases of Fu et al. (VLDB J.
//!   2000) that the paper adopts (§III-D's dynamic indexing discussion),
//! * [`prefix`] — the vp-*prefix* tree of §III-E/F: a depth-limited
//!   vp-tree whose root-to-node binary paths act as a locality-sensitive
//!   hash, including multi-group fan-out when a query ball straddles a
//!   partition boundary,
//! * [`pigeonhole`] — the DNA node index that replaces the vp-tree on
//!   DNA storage nodes: pigeonhole tables over 8-base parts, exact at the
//!   identity filter's Hamming radius.
//!
//! A [`VpTree`] indexes fixed-length byte windows, which it owns, under
//! any [`mendel_seq::Metric`] over `[u8]`: protein blocks under the
//! Mendel BLOSUM62-derived distance on storage nodes, and windows of
//! either alphabet wherever a caller builds one (the ablation bins, the
//! benchmark's layer probes). The vp-prefix tree is generic over its
//! point type and routes both alphabets.

pub mod dynamic;
pub mod knn;
pub mod metrics;
pub mod pigeonhole;
pub mod prefix;
pub mod tree;

pub use knn::{brute_force_knn, Neighbor};
pub use metrics::SearchMetrics;
pub use pigeonhole::{IndexMetrics, PigeonholeIndex};
pub use prefix::{GroupAssignment, VpPrefixTree};
pub use tree::{VpTree, VpTreeStats};
