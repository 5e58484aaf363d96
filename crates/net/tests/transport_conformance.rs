//! Transport-conformance suite for [`TcpTransport`] over real loopback
//! sockets: per-peer FIFO ordering, replies pairing with their request,
//! and typed receive timeouts — the semantics the [`Transport`] trait
//! documents and the wire path's gather relies on.

#![allow(
    clippy::expect_used,
    clippy::disallowed_methods,
    reason = "test support code outside #[test] functions fails the calling test on a broken fixture; it times real loopback sockets on the wall clock"
)]

use bytes::Bytes;
use mendel_net::tcp::{TcpConfig, TcpTransport};
use mendel_net::transport::Transport;
use mendel_net::{NodeAddr, RecvError, TransportMetrics};
use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

const T: Duration = Duration::from_secs(5);

/// N mutually-reachable transports; element i is addressable by every
/// other element.
fn clique(n: usize) -> Vec<TcpTransport> {
    let any: SocketAddr = "127.0.0.1:0".parse().expect("loopback");
    let cfg = TcpConfig {
        connect_timeout: Duration::from_millis(500),
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

/// Envelopes A→B arrive in send order, with payloads intact.
#[test]
fn per_peer_fifo() {
    let mut clique = clique(2);
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
#[test]
fn fifo_per_sender_under_interleaving() {
    let mut clique = clique(3);
    let rx = clique.pop().expect("rx");
    let s2 = clique.pop().expect("s2");
    let s1 = clique.pop().expect("s1");
    let rx_addr = rx.addr();
    let spawn = |t: TcpTransport| {
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

/// A reply sent to a request's `from` under the request's correlation
/// id reaches the requester, carrying that id and the replier's address
/// — what the wire path's gather matches on. This is the learned reply
/// route back down the request's connection.
#[test]
fn reply_pairs_with_request_id_and_sender() {
    let mut clique = clique(2);
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

/// A frame is counted before a reply to it can arrive: in 1,000
/// request/reply rounds, the moment each reply is received both ends'
/// `frames_sent` already count every frame they sent — the replier's
/// included, whose count a served query's `/metrics` reads.
#[test]
fn frames_sent_counts_a_frame_before_its_reply_arrives() {
    const ROUNDS: u64 = 1000;
    let mut clique = clique(2);
    let server = clique.pop().expect("server");
    let client = clique.pop().expect("client");
    let server_addr = server.addr();
    let replied = server.metrics().clone();
    let h = thread::spawn(move || {
        for _ in 0..ROUNDS {
            let req = server.recv_timeout(T).expect("request");
            assert!(server.send(req.from, req.correlation, req.payload));
        }
    });
    for i in 0..ROUNDS {
        assert!(client.send(server_addr, i, Bytes::new()));
        let reply = client.recv_timeout(T).expect("reply");
        assert_eq!(reply.correlation, i);
        assert_eq!(client.metrics().frames_sent.get(), i + 1, "requests sent");
        assert_eq!(replied.frames_sent.get(), i + 1, "replies sent");
    }
    h.join().expect("server thread");
}

/// A request nobody answers ends in the typed, transient timeout.
#[test]
fn unanswered_request_times_out_typed() {
    let mut clique = clique(2);
    let silent = clique.pop().expect("silent");
    let client = clique.pop().expect("client");
    assert!(client.send(silent.addr(), 1, Bytes::new()));
    let err = client
        .recv_timeout(Duration::from_millis(80))
        .expect_err("nobody answers");
    assert_eq!(err, RecvError::Timeout);
}

/// Open file descriptors of this process, where the OS lists them.
fn open_fds() -> Option<usize> {
    std::fs::read_dir("/proc/self/fd").ok().map(|d| d.count())
}

/// Connections that end leave nothing behind: 50 peers that connect,
/// present the magic and hang up each leave the table when their
/// reader sees the close, and the descriptors go with them — not at
/// shutdown. (Other tests in this binary open sockets too, so the
/// descriptor count is polled until it settles.)
#[test]
fn closed_connections_leave_no_descriptor_behind() {
    use std::io::Write;
    use std::time::Instant;
    let any: SocketAddr = "127.0.0.1:0".parse().expect("loopback");
    let server = TcpTransport::bind(
        NodeAddr(1),
        any,
        &[],
        TcpConfig::default(),
        TransportMetrics::detached(),
    )
    .expect("bind loopback");
    let at = server.local_socket_addr().expect("bound");
    let before = open_fds();
    for _ in 0..50 {
        let mut peer = std::net::TcpStream::connect(at).expect("connect");
        peer.write_all(&mendel_net::FRAME_MAGIC).expect("magic");
    }
    let connections = || server.metrics().connections.get();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().accepts.get() < 50 || connections() != 0 {
        assert!(
            Instant::now() < deadline,
            "{} of 50 closed connections still in the table",
            connections()
        );
        thread::sleep(Duration::from_millis(5));
    }
    if let Some(before) = before {
        while open_fds().is_some_and(|now| now > before + 2) {
            assert!(
                Instant::now() < deadline,
                "descriptors grew from {before} to {:?}",
                open_fds()
            );
            thread::sleep(Duration::from_millis(5));
        }
    }
}

/// A peer that restarts on the same port is redialed: the link to its
/// old incarnation leaves the table when its reader sees the close, and
/// the next send dials the new one.
#[test]
fn restarted_peer_is_redialed() {
    let mut clique = clique(2);
    let b = clique.pop().expect("b");
    let a = clique.pop().expect("a");
    let (b_addr, b_sock) = (b.addr(), b.local_socket_addr().expect("bound"));
    assert!(a.send(b_addr, 1, Bytes::new()));
    assert_eq!(b.recv_timeout(T).expect("first incarnation").correlation, 1);
    drop(b);
    let deadline = std::time::Instant::now() + T;
    while a.metrics().connections.get() != 0 {
        assert!(std::time::Instant::now() < deadline, "dead link kept");
        thread::sleep(Duration::from_millis(5));
    }
    let b = TcpTransport::bind(
        b_addr,
        b_sock,
        &[],
        TcpConfig::default(),
        TransportMetrics::detached(),
    )
    .expect("rebind the port");
    assert!(a.send(b_addr, 2, Bytes::new()));
    assert_eq!(
        b.recv_timeout(T).expect("second incarnation").correlation,
        2
    );
    assert_eq!(a.metrics().connects.get(), 2);
}

/// Two peers that dial each other at once keep both links, and every
/// envelope either way arrives; each end then writes on one of them.
#[test]
fn crossing_dials_lose_nothing() {
    for _ in 0..10 {
        let mut clique = clique(2);
        let b = clique.pop().expect("b");
        let a = clique.pop().expect("a");
        let (a_addr, b_addr) = (a.addr(), b.addr());
        let h = thread::spawn(move || {
            assert!(a.send(b_addr, 1, Bytes::new()));
            a
        });
        assert!(b.send(a_addr, 2, Bytes::new()));
        let a = h.join().expect("sender");
        assert_eq!(a.recv_timeout(T).expect("b's request").correlation, 2);
        assert_eq!(b.recv_timeout(T).expect("a's request").correlation, 1);
        assert!(a.send(b_addr, 3, Bytes::new()));
        assert!(b.send(a_addr, 4, Bytes::new()));
        assert_eq!(a.recv_timeout(T).expect("b's reply").correlation, 4);
        assert_eq!(b.recv_timeout(T).expect("a's reply").correlation, 3);
        for t in [&a, &b] {
            assert!(t.metrics().connections.get() <= 2);
        }
    }
}
