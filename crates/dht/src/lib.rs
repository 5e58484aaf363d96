//! # mendel-dht — the two-tier, zero-hop DHT substrate (§IV)
//!
//! Mendel's network overlay is "a zero-hop DHT ... \[that\] deviates from
//! the standard DHT in that it employs a hierarchical partitioning
//! scheme": storage nodes are placed in *groups*; the vp-prefix LSH
//! (`mendel-vptree`) picks a group so similar data collocates, and a flat
//! SHA-1 hash spreads data evenly *within* the group (§V-A2).
//!
//! * [`sha1`](mod@sha1) — SHA-1 implemented from scratch (validated against the
//!   FIPS-180 vectors); used purely as a uniform placement hash,
//! * [`topology`] — groups, node membership, zero-hop routing state,
//!   elastic join with the heterogeneous speed mix of the paper's
//!   testbed,
//! * [`placement`] — the second-tier flat hash: block key → node within
//!   a group,
//! * [`load`] — cluster-wide load-balance reports (Fig. 5's measurement).

pub mod load;
pub mod placement;
pub mod sha1;
pub mod topology;

pub use load::LoadReport;
pub use placement::FlatPlacement;
pub use sha1::{sha1, Sha1};
pub use topology::{GroupId, NodeId, Topology};
