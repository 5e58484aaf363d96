//! Network-layer instrumentation (`mendel.net.*`).
//!
//! Two handle bundles mirror the crate's two carriers:
//!
//! * [`NetMetrics`] hangs off a [`crate::mailbox::Network`] and counts
//!   traffic at the delivery point — per-peer sent/received bytes and
//!   envelopes silently dropped by an installed
//!   [`crate::fault::FaultPlan`] (probabilistic drops *and*
//!   crash-blocks both surface as `Verdict::Drop` at the mailbox),
//! * [`TransportMetrics`] hangs off a [`crate::tcp::TcpTransport`] and
//!   counts wire activity — frames, framed bytes, connects.
//!
//! Both default to *detached* counters (functional atomics registered
//! nowhere), so the substrate carries no registry unless a caller
//! installs one.

use crate::mailbox::NodeAddr;
use mendel_obs::{Counter, Gauge, Registry};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-peer byte counters, created lazily on first traffic.
#[derive(Debug, Clone)]
struct PeerCounters {
    sent_bytes: Arc<Counter>,
    recv_bytes: Arc<Counter>,
}

/// Mailbox-level counters for one [`crate::mailbox::Network`].
///
/// Per-peer counters live under `mendel.net.peer.node<N>.sent_bytes` /
/// `.recv_bytes`; a delivered envelope from A to B of `n` payload bytes
/// adds `n` to A's `sent_bytes` and `n` to B's `recv_bytes`. Dropped
/// envelopes (fault plan verdicts, including crash-blocks) count under
/// `mendel.net.dropped_envelopes` — by design they add no bytes
/// anywhere, matching [`crate::mailbox::NetworkStats`].
#[derive(Debug, Clone)]
pub struct NetMetrics {
    registry: Registry,
    /// Envelopes a fault plan decided to drop (sender saw `true`).
    pub dropped_envelopes: Arc<Counter>,
    /// Envelopes delivered into a mailbox.
    pub delivered_envelopes: Arc<Counter>,
    peers: Arc<RwLock<HashMap<u16, PeerCounters>>>,
}

impl NetMetrics {
    /// Counters registered under `mendel.net.*` in `registry`.
    pub fn registered(registry: &Registry) -> Self {
        let scope = registry.scoped("mendel.net");
        NetMetrics {
            dropped_envelopes: scope.counter("dropped_envelopes"),
            delivered_envelopes: scope.counter("delivered_envelopes"),
            registry: registry.clone(),
            peers: Arc::new(RwLock::new(HashMap::new())),
        }
    }

    fn peer(&self, addr: NodeAddr) -> PeerCounters {
        if let Some(p) = self.peers.read().get(&addr.0) {
            return p.clone();
        }
        let mut peers = self.peers.write();
        peers
            .entry(addr.0)
            .or_insert_with(|| {
                let scope = self.registry.scoped(&format!("mendel.net.peer.{addr}"));
                PeerCounters {
                    sent_bytes: scope.counter("sent_bytes"),
                    recv_bytes: scope.counter("recv_bytes"),
                }
            })
            .clone()
    }

    /// Record one successful delivery of `bytes` payload bytes.
    pub fn record_delivery(&self, from: NodeAddr, to: NodeAddr, bytes: usize) {
        self.delivered_envelopes.inc();
        self.peer(from).sent_bytes.add(bytes as u64);
        self.peer(to).recv_bytes.add(bytes as u64);
    }

    /// Record one fault-plan drop.
    pub fn record_drop(&self) {
        self.dropped_envelopes.inc();
    }
}

/// Carrier-level counters for one [`crate::tcp::TcpTransport`], under
/// `mendel.net.transport.*` when registered.
///
/// These count *wire* activity (frames and framed bytes, including the
/// 4-byte length prefix and envelope header), unlike [`NetMetrics`]
/// which counts payload bytes at the simulated delivery point — the two
/// views deliberately measure different layers.
#[derive(Debug, Clone, Default)]
pub struct TransportMetrics {
    /// Frames successfully written to a peer.
    pub frames_sent: Arc<Counter>,
    /// Frames successfully read from any connection.
    pub frames_received: Arc<Counter>,
    /// Bytes written, including frame prefixes.
    pub bytes_sent: Arc<Counter>,
    /// Bytes read, including frame prefixes.
    pub bytes_received: Arc<Counter>,
    /// Outbound dials that completed a handshake.
    pub connects: Arc<Counter>,
    /// Inbound connections that completed a handshake.
    pub accepts: Arc<Counter>,
    /// Dials performed after a previously-working connection failed.
    pub reconnects: Arc<Counter>,
    /// Sends abandoned after exhausting dial/write attempts.
    pub dead_letters: Arc<Counter>,
    /// Connections torn down on a frame protocol error (bad magic,
    /// oversized prefix, undecodable body, truncation).
    pub frame_errors: Arc<Counter>,
    /// Idle pooled outbound connections, across all peers.
    pub pool_size: Arc<Gauge>,
}

impl TransportMetrics {
    /// Detached counters (registered nowhere).
    pub fn detached() -> Self {
        Self::default()
    }

    /// Counters registered under `mendel.net.transport.*` in `registry`.
    pub fn registered(registry: &Registry) -> Self {
        let scope = registry.scoped("mendel.net.transport");
        TransportMetrics {
            frames_sent: scope.counter("frames_sent"),
            frames_received: scope.counter("frames_received"),
            bytes_sent: scope.counter("bytes_sent"),
            bytes_received: scope.counter("bytes_received"),
            connects: scope.counter("connects"),
            accepts: scope.counter("accepts"),
            reconnects: scope.counter("reconnects"),
            dead_letters: scope.counter("dead_letters"),
            frame_errors: scope.counter("frame_errors"),
            pool_size: scope.gauge("pool_size"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_metrics_register_under_transport_scope() {
        let r = Registry::new();
        let m = TransportMetrics::registered(&r);
        m.frames_sent.inc();
        m.bytes_sent.add(42);
        m.reconnects.inc();
        m.pool_size.set(3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("mendel.net.transport.frames_sent"), 1);
        assert_eq!(snap.counter("mendel.net.transport.bytes_sent"), 42);
        assert_eq!(snap.counter("mendel.net.transport.reconnects"), 1);
        assert_eq!(snap.gauge("mendel.net.transport.pool_size"), 3);
    }

    #[test]
    fn delivery_splits_bytes_between_sender_and_receiver() {
        let r = Registry::new();
        let m = NetMetrics::registered(&r);
        m.record_delivery(NodeAddr(1), NodeAddr(2), 100);
        m.record_delivery(NodeAddr(1), NodeAddr(3), 50);
        m.record_delivery(NodeAddr(2), NodeAddr(1), 7);
        let snap = r.snapshot();
        assert_eq!(snap.counter("mendel.net.peer.node1.sent_bytes"), 150);
        assert_eq!(snap.counter("mendel.net.peer.node1.recv_bytes"), 7);
        assert_eq!(snap.counter("mendel.net.peer.node2.recv_bytes"), 100);
        assert_eq!(snap.counter("mendel.net.peer.node3.recv_bytes"), 50);
        assert_eq!(snap.counter("mendel.net.delivered_envelopes"), 3);
    }

    #[test]
    fn drops_count_no_bytes() {
        let r = Registry::new();
        let m = NetMetrics::registered(&r);
        m.record_drop();
        m.record_drop();
        let snap = r.snapshot();
        assert_eq!(snap.counter("mendel.net.dropped_envelopes"), 2);
        assert_eq!(snap.counter("mendel.net.delivered_envelopes"), 0);
    }
}
