//! # mendel — a distributed storage framework for similarity searching
//! over sequencing data
//!
//! A from-scratch Rust reproduction of *Mendel* (Tolooee, Pallickara,
//! Ben-Hur — IEEE IPDPS 2016): a similarity-aware distributed storage
//! framework that answers DNA/protein homology queries against a
//! voluminous reference database by
//!
//! 1. fragmenting every reference sequence into overlapping
//!    *inverted-index blocks* ([`block`]),
//! 2. dispersing the blocks over a two-tier zero-hop DHT — a vp-prefix
//!    LSH picks a *group* of storage nodes so similar blocks collocate,
//!    and a flat SHA-1 hash balances blocks across the group
//!    ([`cluster`], with the substrate in `mendel-dht`),
//! 3. indexing each node's blocks in a local dynamic vantage-point tree
//!    ([`node`]),
//! 4. answering queries with a distributed nearest-neighbour search:
//!    subquery decomposition, group fan-out, per-node k-NN with identity
//!    and consecutivity filtering, anchor extension, two-stage diagonal
//!    aggregation, gapped extension, and E-value ranking ([`query`]).
//!
//! There is one query pipeline — plan → evaluator → finish (DESIGN.md
//! "The query pipeline"). [`MendelCluster::query`], `query_from` and
//! `query_batch` are thin callers of its in-process evaluator (a single
//! query is a batch of one); [`wire::query_via`] runs the same plan and
//! the same epilogue around real messages over any transport.
//!
//! The public entry point is [`MendelCluster`]; [`QueryParams`] mirrors
//! Table I of the paper. See the workspace DESIGN.md for the full
//! experiment map and the documented substitutions (in-process cluster,
//! synthetic `nr`-like data, simulated LAN clock).
//!
//! ```
//! use mendel::{ClusterConfig, MendelCluster, QueryParams};
//! use mendel_seq::gen::NrLikeSpec;
//! use std::sync::Arc;
//!
//! let db = Arc::new(NrLikeSpec { families: 8, members_per_family: 2,
//!     length_range: (120, 200), ..Default::default() }.generate().unwrap());
//! let cluster = MendelCluster::build(ClusterConfig::small_protein(), db.clone()).unwrap();
//! let query = db.get(mendel_seq::SeqId(3)).unwrap().residues.clone();
//! let report = cluster.query(&query, &QueryParams::protein()).unwrap();
//! assert_eq!(report.hits[0].subject, mendel_seq::SeqId(3));
//! ```

pub mod block;
pub mod cluster;
pub mod config;
pub mod error;
mod ledger;
pub mod metric;
pub mod node;
pub mod params;
mod pipeline;
pub mod query;
pub mod report;
pub mod serve;
pub mod snapshot;
pub mod wire;

pub use block::{check_block_chain, make_blocks, Block, BlockKey};
pub use cluster::{FailoverDelta, MendelCluster, RepairReport};
pub use config::{ClusterConfig, MetricKind, StorageBackend};
pub use error::MendelError;
pub use mendel_obs::{
    chrome_trace_json, parse_records_text, render_records_text, Clock, CriticalHop,
    MetricsSnapshot, MonotonicClock, Registry as MetricsRegistry, SlowLogConfig, SlowQueryLog,
    SpanRecord, TraceCollector, TraceId, TraceTree,
};
pub use mendel_store as store;
pub use metric::BlockMetric;
pub use params::QueryParams;
pub use report::{CoverageReport, GroupCoverage, MendelHit, QueryReport, StageTimings};
pub use serve::{NodeServer, TcpFrontEnd, FRONT_END_ADDR_BASE};
pub use wire::{node_serve_loop, query_via, WireCluster, WireQueryOutcome, WireTimeouts};
