//! Transport-conformance suite: one set of behavioural tests, two
//! backends.
//!
//! Every test in [`suite`] is written against the [`Transport`] trait
//! alone and instantiated for both [`SimTransport`] (in-process
//! mailboxes) and [`TcpTransport`] (real loopback sockets) via a
//! fixture that builds N mutually-reachable endpoints. The point is to
//! stop the backends drifting semantically: per-peer FIFO ordering,
//! dead-letter signalling, replies pairing with their request, typed
//! receive timeouts, and heartbeat liveness must hold identically whether envelopes cross a channel or
//! a socket.

use bytes::Bytes;
use mendel_net::heartbeat::{beat_until_stopped, HeartbeatMonitor, HEARTBEAT_CORRELATION};
use mendel_net::mailbox::{Network, NodeAddr, RecvError};
use mendel_net::tcp::{TcpConfig, TcpTransport};
use mendel_net::transport::{SimTransport, Transport};
use mendel_net::TransportMetrics;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Builds a clique of N mutually-reachable transports for one backend.
trait Fixture {
    type T: Transport + 'static;
    /// N endpoints; element i is addressable by every other element.
    fn clique(n: usize) -> Vec<Self::T>;
}

struct Sim;

impl Fixture for Sim {
    type T = SimTransport;
    fn clique(n: usize) -> Vec<SimTransport> {
        Network::new().join_many(n)
    }
}

struct Tcp;

impl Fixture for Tcp {
    type T = TcpTransport;
    fn clique(n: usize) -> Vec<TcpTransport> {
        let any: SocketAddr = "127.0.0.1:0".parse().expect("loopback");
        let cfg = TcpConfig {
            connect_timeout: Duration::from_millis(500),
            reconnect_base: Duration::from_millis(1),
            ..TcpConfig::default()
        };
        let nodes: Vec<TcpTransport> = (0..n)
            .map(|i| {
                TcpTransport::bind(
                    NodeAddr(i as u16 + 1),
                    any,
                    &[],
                    cfg.clone(),
                    TransportMetrics::detached(),
                )
                .expect("bind loopback")
            })
            .collect();
        let addrs: Vec<SocketAddr> = nodes
            .iter()
            .map(|t| t.local_socket_addr().expect("bound"))
            .collect();
        for t in &nodes {
            for (j, &sock) in addrs.iter().enumerate() {
                t.add_peer(NodeAddr(j as u16 + 1), sock);
            }
        }
        nodes
    }
}

/// The backend-generic test bodies.
mod suite {
    use super::*;

    const T: Duration = Duration::from_secs(5);

    /// Envelopes A→B arrive in send order, with payloads intact.
    pub fn per_peer_fifo<F: Fixture>() {
        let mut clique = F::clique(2);
        let b = clique.pop().expect("b");
        let a = clique.pop().expect("a");
        let b_addr = b.addr();
        for i in 0..100u64 {
            assert!(a.send(b_addr, i, Bytes::from(i.to_le_bytes().to_vec())));
        }
        for i in 0..100u64 {
            let env = b.recv_timeout(T).expect("delivered");
            assert_eq!(env.correlation, i, "FIFO per peer");
            assert_eq!(&env.payload[..], &i.to_le_bytes());
            assert_eq!(env.from, a.addr());
        }
    }

    /// Concurrent senders each stay FIFO relative to themselves.
    pub fn fifo_per_sender_under_interleaving<F: Fixture>() {
        let mut clique = F::clique(3);
        let rx = clique.pop().expect("rx");
        let s2 = clique.pop().expect("s2");
        let s1 = clique.pop().expect("s1");
        let rx_addr = rx.addr();
        let spawn = |t: F::T| {
            thread::spawn(move || {
                for i in 0..50u64 {
                    assert!(t.send(rx_addr, i, Bytes::new()));
                }
            })
        };
        let h1 = spawn(s1);
        let h2 = spawn(s2);
        let mut next: std::collections::HashMap<NodeAddr, u64> = Default::default();
        for _ in 0..100 {
            let env = rx.recv_timeout(T).expect("delivered");
            let want = next.entry(env.from).or_insert(0);
            assert_eq!(env.correlation, *want, "per-sender order from {}", env.from);
            *want += 1;
        }
        h1.join().expect("sender 1");
        h2.join().expect("sender 2");
    }

    /// A reply sent to a request's `from` under the request's
    /// correlation id reaches the requester, carrying that id and the
    /// replier's address — what the wire path's gather matches on. Over
    /// TCP this is the learned reply route back down the request's
    /// connection.
    pub fn reply_pairs_with_request_id_and_sender<F: Fixture>() {
        let mut clique = F::clique(2);
        let server = clique.pop().expect("server");
        let client = clique.pop().expect("client");
        let (server_addr, client_addr) = (server.addr(), client.addr());
        let h = thread::spawn(move || {
            for _ in 0..2 {
                let req = server.recv_timeout(T).expect("request");
                assert_eq!(req.from, client_addr);
                let x = u32::from_le_bytes(req.payload[..].try_into().expect("u32 payload"));
                let reply = Bytes::from((x * 3).to_le_bytes().to_vec());
                assert!(server.send(req.from, req.correlation, reply));
            }
        });
        let ids = [(7u64 << 48) | 1, 42];
        for (id, x) in ids.into_iter().zip([14u32, 5]) {
            assert!(client.send(server_addr, id, Bytes::from(x.to_le_bytes().to_vec())));
            let resp = client.recv_timeout(T).expect("reply");
            assert_eq!((resp.from, resp.correlation), (server_addr, id));
            assert_eq!(&resp.payload[..], &(x * 3).to_le_bytes());
        }
        h.join().expect("server thread");
    }

    /// A request nobody answers ends in the typed, transient timeout.
    pub fn unanswered_request_times_out_typed<F: Fixture>() {
        let mut clique = F::clique(2);
        let silent = clique.pop().expect("silent");
        let client = clique.pop().expect("client");
        assert!(client.send(silent.addr(), 1, Bytes::new()));
        let err = client
            .recv_timeout(Duration::from_millis(80))
            .expect_err("nobody answers");
        assert_eq!(err, RecvError::Timeout);
    }

    /// Heartbeats keep a node alive in the monitor; silence past the
    /// threshold makes it (and only it) a suspect.
    pub fn heartbeat_liveness<F: Fixture>() {
        let mut clique = F::clique(3);
        let crasher = clique.pop().expect("crasher");
        let healthy = clique.pop().expect("healthy");
        let monitor_t = clique.pop().expect("monitor");
        let monitor_addr = monitor_t.addr();
        let healthy_addr = healthy.addr();
        let crasher_addr = crasher.addr();
        let period = Duration::from_millis(10);
        let stop_healthy = Arc::new(AtomicBool::new(false));
        let stop_crasher = Arc::new(AtomicBool::new(false));
        let (sh, sc) = (Arc::clone(&stop_healthy), Arc::clone(&stop_crasher));
        let h1 = thread::spawn(move || beat_until_stopped(&healthy, monitor_addr, period, &sh));
        let h2 = thread::spawn(move || beat_until_stopped(&crasher, monitor_addr, period, &sc));
        let mut monitor = HeartbeatMonitor::new(Duration::from_millis(150));
        // Both beat: both alive, nobody suspect.
        let deadline = 100;
        let mut saw_both = false;
        for _ in 0..deadline {
            monitor.drain(&monitor_t);
            let alive = monitor.alive();
            if alive.contains(&healthy_addr) && alive.contains(&crasher_addr) {
                saw_both = true;
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        assert!(saw_both, "both beaters observed alive");
        assert!(monitor.suspects().is_empty());
        // Crash one; only it becomes a suspect.
        stop_crasher.store(true, Ordering::Relaxed);
        let mut suspected = Vec::new();
        for _ in 0..deadline {
            monitor.drain(&monitor_t);
            suspected = monitor.suspects();
            if !suspected.is_empty() {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(suspected, vec![crasher_addr], "exactly the silent node");
        assert!(monitor.alive().contains(&healthy_addr));
        stop_healthy.store(true, Ordering::Relaxed);
        assert!(h1.join().expect("healthy beater") > 0);
        assert!(h2.join().expect("crashed beater") > 0);
    }

    /// Heartbeat envelopes coexist with request traffic on one inbox:
    /// drain absorbs beats and returns data untouched.
    pub fn heartbeats_interleave_with_data<F: Fixture>() {
        let mut clique = F::clique(2);
        let peer = clique.pop().expect("peer");
        let monitor_t = clique.pop().expect("monitor");
        let monitor_addr = monitor_t.addr();
        assert!(peer.send(monitor_addr, HEARTBEAT_CORRELATION, Bytes::new()));
        assert!(peer.send(monitor_addr, 7, Bytes::from_static(b"data")));
        assert!(peer.send(monitor_addr, HEARTBEAT_CORRELATION, Bytes::new()));
        let mut monitor = HeartbeatMonitor::new(Duration::from_secs(1));
        let mut beats = 0;
        let mut data = Vec::new();
        for _ in 0..100 {
            let (b, mut d) = monitor.drain(&monitor_t);
            beats += b;
            data.append(&mut d);
            if beats >= 2 && !data.is_empty() {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(beats, 2);
        assert_eq!(data.len(), 1);
        assert_eq!(data[0].correlation, 7);
        assert_eq!(monitor.alive(), vec![peer.addr()]);
    }
}

macro_rules! conformance {
    ($backend:ident, $fixture:ty) => {
        mod $backend {
            use super::*;

            #[test]
            fn per_peer_fifo() {
                suite::per_peer_fifo::<$fixture>();
            }

            #[test]
            fn fifo_per_sender_under_interleaving() {
                suite::fifo_per_sender_under_interleaving::<$fixture>();
            }

            #[test]
            fn reply_pairs_with_request_id_and_sender() {
                suite::reply_pairs_with_request_id_and_sender::<$fixture>();
            }

            #[test]
            fn unanswered_request_times_out_typed() {
                suite::unanswered_request_times_out_typed::<$fixture>();
            }

            #[test]
            fn heartbeat_liveness() {
                suite::heartbeat_liveness::<$fixture>();
            }

            #[test]
            fn heartbeats_interleave_with_data() {
                suite::heartbeats_interleave_with_data::<$fixture>();
            }
        }
    };
}

conformance!(sim_transport, Sim);
conformance!(tcp_transport, Tcp);
