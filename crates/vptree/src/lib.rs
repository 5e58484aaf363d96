//! # mendel-vptree — vantage-point trees for Mendel
//!
//! Implements §III of the paper:
//!
//! * [`tree`] — the bulk-built vp-tree (Yianilos 1993) with the two
//!   optimizations of §III-D: leaf *buckets* and per-subtree distance
//!   *bounds* used for extra pruning during search,
//! * [`knn`] — the shrinking-τ k-nearest-neighbour search machinery,
//! * [`dynamic`] — single-element and batched insertion with the four
//!   rebalancing cases of Fu et al. (VLDB J. 2000) that the paper adopts
//!   (§III-D's dynamic indexing discussion),
//! * [`prefix`] — the vp-*prefix* tree of §III-E/F: a depth-limited
//!   vp-tree whose root-to-node binary paths act as a locality-sensitive
//!   hash, including multi-group fan-out when a query ball straddles a
//!   partition boundary.
//!
//! Trees are generic over the point type `P` and any
//! [`mendel_seq::Metric`] implementation, so the same structure indexes
//! DNA blocks under Hamming distance and protein blocks under the Mendel
//! BLOSUM62-derived distance.

pub mod dynamic;
pub mod knn;
pub mod metrics;
pub mod prefix;
pub mod tree;

pub use dynamic::DynamicVpTree;
pub use knn::{brute_force_knn, Neighbor};
pub use metrics::SearchMetrics;
pub use prefix::{GroupAssignment, VpPrefixTree};
pub use tree::{VpTree, VpTreeStats};
