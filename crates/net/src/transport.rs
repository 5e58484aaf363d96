//! The `Transport` seam between messaging semantics and message carriage.
//!
//! Everything above the mailbox — heartbeats, the wire-mode cluster and
//! its request/reply gather — needs only five operations: know its own
//! address, push an [`Envelope`] toward a peer, and pull delivered
//! envelopes back out (blocking, bounded-wait, or non-blocking). [`Transport`] names exactly that surface so the same
//! protocol code runs over two interchangeable carriers:
//!
//! * [`SimTransport`] — the deterministic in-process substrate
//!   ([`crate::mailbox::Endpoint`], re-exported under its backend name):
//!   per-node channels, [`crate::fault::FaultPlan`] chaos injection,
//!   latency modelling, and trace capture. Nothing about it changed when
//!   the trait was extracted; the simulation *is* one backend.
//! * [`crate::tcp::TcpTransport`] — real loopback/LAN sockets carrying
//!   the identical envelope bytes inside length-prefixed frames
//!   ([`crate::frame`]).
//!
//! Semantics every backend must honour (checked by the shared
//! conformance suite in `tests/transport_conformance.rs`):
//!
//! * **Per-peer FIFO**: two envelopes sent A→B are delivered to B in
//!   send order (no ordering guarantee across distinct senders).
//! * **Best-effort send**: `send_envelope` returns `false` when the
//!   envelope is known lost at the sender (unknown peer, dead letter,
//!   connection refused after capped retries); `true` means *handed to
//!   the carrier*, not acknowledged end-to-end.
//! * **Typed receive failure**: [`RecvError::Timeout`] is transient,
//!   [`RecvError::Disconnected`] is terminal for the endpoint.

use crate::mailbox::{Endpoint, Envelope, NodeAddr, RecvError};
use bytes::Bytes;
use mendel_obs::TraceContext;
use std::time::Duration;

/// The simulated backend: a mailbox [`Endpoint`] under its transport name.
///
/// A type alias rather than a newtype so the entire existing test and
/// chaos surface (`Network::endpoint`, fault plans, virtual-clock
/// latency) keeps working unchanged — an `Endpoint` *is* a
/// `SimTransport`.
pub type SimTransport = Endpoint;

/// Minimal peer-to-peer envelope carriage. See the module docs for the
/// semantics backends must uphold.
///
/// The required methods deliberately mirror [`Endpoint`]'s inherent
/// method names, so protocol code written against the concrete mailbox
/// reads identically once made generic.
pub trait Transport: Send + Sync {
    /// The address peers use to reach this endpoint.
    fn addr(&self) -> NodeAddr;

    /// Hand one envelope to the carrier. `false` means the envelope is
    /// already known lost (a dead letter: the wire path marks the peer
    /// unreachable and fails over).
    fn send_envelope(&self, env: Envelope) -> bool;

    /// Block until an envelope arrives or the carrier shuts down.
    fn recv(&self) -> Result<Envelope, RecvError>;

    /// Block up to `timeout` for the next envelope.
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError>;

    /// Non-blocking poll; `None` when the inbox is empty.
    fn try_recv(&self) -> Option<Envelope>;

    /// Untraced convenience send, mirroring [`Endpoint::send`].
    fn send(&self, to: NodeAddr, correlation: u64, payload: Bytes) -> bool {
        self.send_traced(to, correlation, payload, None)
    }

    /// Traced convenience send, mirroring [`Endpoint::send_traced`].
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

impl Transport for Endpoint {
    fn addr(&self) -> NodeAddr {
        Endpoint::addr(self)
    }

    fn send_envelope(&self, env: Envelope) -> bool {
        self.network().send(env)
    }

    fn recv(&self) -> Result<Envelope, RecvError> {
        Endpoint::recv(self)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
        Endpoint::recv_timeout(self, timeout)
    }

    fn try_recv(&self) -> Option<Envelope> {
        Endpoint::try_recv(self)
    }
}

/// Blanket passthrough so `&T` and `Arc<T>` are transports too —
/// protocol code can hold whichever ownership shape fits.
impl<T: Transport + ?Sized> Transport for &T {
    fn addr(&self) -> NodeAddr {
        (**self).addr()
    }
    fn send_envelope(&self, env: Envelope) -> bool {
        (**self).send_envelope(env)
    }
    fn recv(&self) -> Result<Envelope, RecvError> {
        (**self).recv()
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
        (**self).recv_timeout(timeout)
    }
    fn try_recv(&self) -> Option<Envelope> {
        (**self).try_recv()
    }
}

impl<T: Transport + ?Sized> Transport for std::sync::Arc<T> {
    fn addr(&self) -> NodeAddr {
        (**self).addr()
    }
    fn send_envelope(&self, env: Envelope) -> bool {
        (**self).send_envelope(env)
    }
    fn recv(&self) -> Result<Envelope, RecvError> {
        (**self).recv()
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
        (**self).recv_timeout(timeout)
    }
    fn try_recv(&self) -> Option<Envelope> {
        (**self).try_recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::Network;

    #[test]
    fn endpoint_satisfies_transport() {
        let net = Network::new();
        let a = net.join();
        let b = net.join();
        fn ship<T: Transport>(t: &T, to: NodeAddr) -> bool {
            t.send(to, 7, Bytes::from_static(b"hi"))
        }
        assert!(ship(&a, Transport::addr(&b)));
        let env = Transport::recv(&b).expect("delivered");
        assert_eq!(env.correlation, 7);
        assert_eq!(env.from, Transport::addr(&a));
        assert!(env.trace.is_none());
    }

    #[test]
    fn arc_and_ref_passthrough() {
        let net = Network::new();
        let a = std::sync::Arc::new(net.join());
        let b = net.join();
        assert!(a.send(Transport::addr(&b), 1, Bytes::new()));
        assert!((&b).try_recv().is_some() || Transport::recv(&b).is_ok());
    }
}
