//! The `Transport` seam between messaging semantics and message carriage.
//!
//! The wire-mode request/reply gather (`mendel::wire`) needs only four
//! operations: know its own address, push an [`Envelope`] toward a peer,
//! pull delivered envelopes back out with a bounded wait, and read the
//! clock its deadlines run on. [`Transport`] names exactly that
//! surface so the same protocol code runs over two carriers:
//!
//! * the in-process delivery in `mendel`'s `inline` module, where each
//!   node's handler runs on the caller's thread (what
//!   `MendelCluster::query` and `WireCluster` use) and time is logical,
//! * [`crate::tcp::TcpTransport`] — real loopback/LAN sockets carrying
//!   the identical envelope bytes inside length-prefixed frames
//!   ([`crate::frame`]), on the monotonic wall clock.
//!
//! Semantics every backend must honour (the TCP backend is checked by
//! `tests/transport_conformance.rs`):
//!
//! * **Per-peer FIFO**: two envelopes sent A→B are delivered to B in
//!   send order (no ordering guarantee across distinct senders).
//! * **Best-effort send**: `send_envelope` returns `false` when the
//!   envelope is known lost at the sender (unknown peer, or a peer whose
//!   link broke and whose one redial was refused); `true` means *handed
//!   to the carrier*, not acknowledged end-to-end. A send never sleeps
//!   or retries: a silent peer is the request/reply layer's to judge.
//! * **Typed receive failure**: [`RecvError::Timeout`] is transient,
//!   [`RecvError::Disconnected`] is terminal for the endpoint.

use crate::envelope::{Envelope, NodeAddr, RecvError};
use bytes::Bytes;
use mendel_obs::{Clock, TraceContext};
use std::time::Duration;

/// Minimal peer-to-peer envelope carriage. See the module docs for the
/// semantics backends must uphold.
pub trait Transport: Send + Sync {
    /// The address peers use to reach this endpoint.
    fn addr(&self) -> NodeAddr;

    /// Hand one envelope to the carrier. `false` means the envelope is
    /// already known lost (a dead letter: the wire path marks the peer
    /// unreachable and fails over).
    fn send_envelope(&self, env: Envelope) -> bool;

    /// Block up to `timeout` for the next envelope.
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError>;

    /// The clock [`Self::recv_timeout`] waits on: a deadline is read
    /// from it, never from the wall clock directly, so a carrier on
    /// logical time keeps its waits logical.
    fn clock(&self) -> &dyn Clock;

    /// Untraced convenience send.
    fn send(&self, to: NodeAddr, correlation: u64, payload: Bytes) -> bool {
        self.send_traced(to, correlation, payload, None)
    }

    /// Send stamped with a causal trace context, so downstream hops can
    /// attribute it.
    fn send_traced(
        &self,
        to: NodeAddr,
        correlation: u64,
        payload: Bytes,
        trace: Option<TraceContext>,
    ) -> bool {
        self.send_envelope(Envelope {
            from: self.addr(),
            to,
            correlation,
            payload,
            trace,
        })
    }
}
