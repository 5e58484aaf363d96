//! # mendel-net — envelope carriage for a Mendel cluster
//!
//! The paper evaluates Mendel on a 50-node LAN cluster. Storage nodes
//! talk exclusively through typed, *byte-encoded* [`Envelope`]s pushed
//! through a [`Transport`]; this crate supplies the seam, the real
//! carrier behind it, and the seeded fault plan the in-process carrier
//! loses messages by. That carrier and the one request/reply layer sit
//! where the traffic is, in `mendel`'s `inline` and `wire` modules
//! (DESIGN.md §16).
//!
//! * [`codec`] — a compact little-endian binary wire format
//!   ([`codec::Encode`]/[`codec::Decode`]) implemented from scratch; the
//!   byte counts it produces feed the latency model,
//! * [`envelope`] — the [`Envelope`] itself, its encoding, node
//!   addresses and the typed receive failure,
//! * [`transport`] — the [`Transport`] seam: address, best-effort send,
//!   bounded receive, and the clock receive deadlines run on,
//! * [`tcp`] + [`frame`] — the real carrier (DESIGN.md §16): envelope
//!   bytes in length-prefixed frames over one link per peer, dialed once
//!   by a send that finds none,
//! * [`latency`] — the simulated LAN cost model: per-message base latency,
//!   per-byte transfer cost, and per-node speed factors for the
//!   heterogeneous cluster,
//! * [`fault`] — seeded, deterministic fault injection (drops and
//!   crashed nodes): the one way in-process delivery loses a message,
//! * [`metrics`] — the `mendel.net.transport.*` counters of the TCP
//!   carrier.

pub mod codec;
pub mod envelope;
pub mod fault;
pub mod frame;
pub mod latency;
pub mod metrics;
pub mod tcp;
pub mod transport;

pub use codec::{Decode, DecodeError, Encode};
pub use envelope::{Envelope, NodeAddr, RecvError};
pub use fault::{FaultConfig, FaultPlan, Verdict, XorShift64};
pub use frame::{FrameError, FRAME_MAGIC, MAX_FRAME};
pub use latency::{LatencyModel, NodeSpeed};
pub use metrics::TransportMetrics;
pub use tcp::{TcpConfig, TcpTransport};
pub use transport::Transport;
