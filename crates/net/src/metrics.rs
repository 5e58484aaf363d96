//! TCP carrier instrumentation (`mendel.net.transport.*`).
//!
//! [`TransportMetrics`] hangs off a [`crate::tcp::TcpTransport`] and
//! counts wire activity — frames, framed bytes, connects — and gauges
//! its live connections. It defaults to *detached* counters (functional
//! atomics registered nowhere), so the carrier carries no registry
//! unless a caller installs one.

use mendel_obs::{Counter, Gauge, Registry};
use std::sync::Arc;

/// Carrier-level counters for one [`crate::tcp::TcpTransport`], under
/// `mendel.net.transport.*` when registered.
///
/// These count *wire* activity: frames and framed bytes, including the
/// 4-byte length prefix and envelope header.
#[derive(Debug, Clone, Default)]
pub struct TransportMetrics {
    /// Frames handed to a socket: counted before the write, so a reply
    /// never arrives ahead of its request's count. A write that fails
    /// still counts; the link is dropped and the send retried or
    /// dead-lettered (`reconnects`, `dead_letters`).
    pub frames_sent: Arc<Counter>,
    /// Frames successfully read from any connection.
    pub frames_received: Arc<Counter>,
    /// Bytes handed to a socket, counted as `frames_sent` is: each
    /// frame with its prefix, and each dial's handshake magic.
    pub bytes_sent: Arc<Counter>,
    /// Bytes read, including frame prefixes.
    pub bytes_received: Arc<Counter>,
    /// Outbound dials that completed a handshake.
    pub connects: Arc<Counter>,
    /// Inbound connections that completed a handshake.
    pub accepts: Arc<Counter>,
    /// Dials performed after a previously-working connection failed.
    pub reconnects: Arc<Counter>,
    /// Sends abandoned: no link took the write and the one dial failed
    /// (or the peer's address is unknown).
    pub dead_letters: Arc<Counter>,
    /// Connections torn down on a frame protocol error (bad magic,
    /// oversized prefix, undecodable body, truncation).
    pub frame_errors: Arc<Counter>,
    /// Live connections, dialed and accepted.
    pub connections: Arc<Gauge>,
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
            connections: scope.gauge("connections"),
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
        m.connections.set(3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("mendel.net.transport.frames_sent"), 1);
        assert_eq!(snap.counter("mendel.net.transport.bytes_sent"), 42);
        assert_eq!(snap.counter("mendel.net.transport.reconnects"), 1);
        assert_eq!(snap.gauge("mendel.net.transport.connections"), 3);
    }
}
