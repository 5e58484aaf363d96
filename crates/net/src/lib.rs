//! # mendel-net — envelope carriage for a Mendel cluster
//!
//! The paper evaluates Mendel on a 50-node LAN cluster. Storage nodes
//! talk exclusively through typed, *byte-encoded* [`Envelope`]s pushed
//! through a [`Transport`]; this crate supplies the two carriers behind
//! that trait and what they are tested with. Matching a reply to its
//! request is not done here: the one request/reply layer sits where the
//! traffic is, in `mendel::wire` (DESIGN.md §16.3).
//!
//! * [`codec`] — a compact little-endian binary wire format
//!   ([`codec::Encode`]/[`codec::Decode`]) implemented from scratch; the
//!   byte counts it produces feed the latency model,
//! * [`transport`] — the [`Transport`] seam: address, best-effort send,
//!   blocking / bounded / non-blocking receive,
//! * [`mailbox`] — the simulated carrier (DESIGN.md §3): a
//!   [`mailbox::Network`] of unbounded per-node channels with
//!   [`mailbox::Endpoint`] handles and global traffic accounting,
//! * [`tcp`] + [`frame`] — the real carrier (DESIGN.md §16): the same
//!   envelope bytes in length-prefixed frames over pooled, reconnecting
//!   sockets,
//! * [`latency`] — the simulated LAN cost model: per-message base latency,
//!   per-byte transfer cost, and per-node speed factors for the
//!   heterogeneous cluster,
//! * [`heartbeat`] — liveness beats and the suspicion monitor,
//! * [`fault`] — seeded, deterministic fault injection (drops, delays,
//!   duplication, crash/restart schedules) consulted by the mailbox
//!   network for chaos testing,
//! * [`metrics`] — the `mendel.net.*` counters of both carriers.

pub mod codec;
pub mod fault;
pub mod frame;
pub mod heartbeat;
pub mod latency;
pub mod mailbox;
pub mod metrics;
pub mod tcp;
pub mod transport;

pub use codec::{Decode, DecodeError, Encode};
pub use fault::{FaultConfig, FaultEvent, FaultEventKind, FaultPlan, Verdict, XorShift64};
pub use frame::{FrameError, FRAME_MAGIC, MAX_FRAME};
pub use heartbeat::HeartbeatMonitor;
pub use latency::{LatencyModel, NodeSpeed};
pub use mailbox::{Endpoint, Envelope, Network, NetworkStats, NodeAddr, RecvError};
pub use metrics::{NetMetrics, TransportMetrics};
pub use tcp::{TcpConfig, TcpTransport};
pub use transport::{SimTransport, Transport};
