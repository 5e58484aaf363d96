//! Real-socket [`Transport`] backend: length-prefixed envelope frames
//! over TCP.
//!
//! Where `mendel`'s in-process carrier hands envelopes straight to the
//! node that serves them, `TcpTransport` moves the *same bytes*
//! ([`crate::frame`]) across OS sockets, so a Mendel cluster can run as
//! N real processes (`mendel serve`) on loopback or a LAN. Design:
//!
//! * **Thread-per-connection, std::net.** The workspace vendors no
//!   async runtime, so the backend uses blocking sockets: one acceptor
//!   thread per listener and one reader thread per live connection,
//!   each parking in `read` until its stream closes. Node counts here
//!   are tens, not tens of thousands — the thread model is the honest
//!   fit.
//! * **One table of live connections.** Each connection, dialed or
//!   accepted, is in the table from its handshake until its reader sees
//!   the stream end and removes it, tagged with the peer it talks to:
//!   the address dialed, or the `env.from` of an accepted connection's
//!   first frame. A send writes on the peer's newest link, so replies
//!   ride back on the connection a request came in on (how a client
//!   with no listener hears back), and only a peer with no link is
//!   dialed. Two peers that dial each other at once keep both links.
//! * **One dial per send.** A send writes on the peer's newest link; if
//!   that write fails (the link is dropped) or there is no link, it
//!   dials the peer once. A refused or failed dial makes the envelope a
//!   dead letter at once: `send` returns `false`, which the wire path
//!   answers by counting the peer as not answering and failing over.
//!   Nothing sleeps: whether a silent peer is worth waiting for is the
//!   request/reply layer's call (its suspect set), not the carrier's.
//! * **Determinism boundary.** Everything *above* the transport stays
//!   deterministic (same envelopes, same codec, same merge logic);
//!   arrival interleaving across distinct senders is real-OS
//!   nondeterministic.

use crate::envelope::{Envelope, NodeAddr, RecvError};
use crate::frame::{self, FrameError};
use crate::metrics::TransportMetrics;
use crate::transport::Transport;
use crossbeam::channel::{unbounded, Receiver, Sender};
use mendel_obs::{Clock, MonotonicClock};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Tuning knobs for [`TcpTransport`]. `Default` is sized for loopback
/// clusters and the conformance tests; long-haul deployments would
/// raise the timeouts.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Per-dial connect timeout.
    pub connect_timeout: Duration,
    /// Socket write timeout; a stalled peer fails the write (the link
    /// is dropped and the send dials once) rather than wedging the
    /// caller.
    pub write_timeout: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// One socket, read by its reader thread and written by senders. The
/// mutex makes each frame write atomic on the wire; shutting the
/// stream down needs no lock and ends the reader.
struct Conn {
    stream: TcpStream,
    write: Mutex<()>,
}

/// A live connection's entry in the table.
struct Link {
    /// The peer it talks to; `None` for an accepted connection until
    /// its first frame names the sender.
    peer: Option<u16>,
    conn: Arc<Conn>,
    reader: JoinHandle<()>,
}

struct Shared {
    me: NodeAddr,
    cfg: TcpConfig,
    metrics: TransportMetrics,
    /// Static peer map: who listens where.
    peers: RwLock<HashMap<u16, SocketAddr>>,
    /// Live connections, oldest first.
    links: Mutex<Vec<Link>>,
    inbox_tx: Sender<Envelope>,
    shutdown: AtomicBool,
}

impl Shared {
    fn is_shut_down(&self) -> bool {
        // audit:ordering(Acquire): pairs with the AcqRel swap in `shutdown`; observers must see the teardown writes
        self.shutdown.load(Ordering::Acquire)
    }

    /// The newest live link to `peer`.
    fn link_to(&self, peer: u16) -> Option<Arc<Conn>> {
        let links = self.links.lock();
        let link = links.iter().rev().find(|link| link.peer == Some(peer))?;
        Some(Arc::clone(&link.conn))
    }

    /// Take `conn` out of the table; `None` if it has already gone.
    fn unlink(&self, conn: &Arc<Conn>) -> Option<Link> {
        let mut links = self.links.lock();
        let at = links
            .iter()
            .position(|link| Arc::ptr_eq(&link.conn, conn))?;
        let link = links.remove(at);
        self.metrics.connections.add(-1);
        Some(link)
    }
}

/// Real-socket transport. See the module docs for the design.
pub struct TcpTransport {
    shared: Arc<Shared>,
    inbox_rx: Receiver<Envelope>,
    local: Option<SocketAddr>,
    accept_handle: Mutex<Option<JoinHandle<()>>>,
    /// What receive deadlines are measured on: real sockets wait in
    /// real time.
    clock: MonotonicClock,
}

impl TcpTransport {
    /// Listen on `listen` as `me`, with a static peer map. The returned
    /// transport accepts inbound connections and can dial every listed
    /// peer.
    pub fn bind(
        me: NodeAddr,
        listen: SocketAddr,
        peers: &[(NodeAddr, SocketAddr)],
        cfg: TcpConfig,
        metrics: TransportMetrics,
    ) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(listen)?;
        let local = listener.local_addr()?;
        let mut t = TcpTransport::make(me, peers, cfg, metrics);
        t.local = Some(local);
        let shared = Arc::clone(&t.shared);
        let handle = thread::Builder::new()
            .name(format!("tcp-accept-{me}"))
            .spawn(move || accept_loop(shared, listener))?;
        *t.accept_handle.lock() = Some(handle);
        Ok(t)
    }

    /// A dial-only transport: no listener, suitable for ephemeral
    /// client endpoints. Responses arrive on the connections this
    /// endpoint dials (reply routing), so peers never need to reach it.
    pub fn connect_only(
        me: NodeAddr,
        peers: &[(NodeAddr, SocketAddr)],
        cfg: TcpConfig,
        metrics: TransportMetrics,
    ) -> TcpTransport {
        TcpTransport::make(me, peers, cfg, metrics)
    }

    fn make(
        me: NodeAddr,
        peers: &[(NodeAddr, SocketAddr)],
        cfg: TcpConfig,
        metrics: TransportMetrics,
    ) -> TcpTransport {
        let (inbox_tx, inbox_rx) = unbounded();
        let peer_map = peers.iter().map(|(a, s)| (a.0, *s)).collect();
        TcpTransport {
            shared: Arc::new(Shared {
                me,
                cfg,
                metrics,
                peers: RwLock::new(peer_map),
                links: Mutex::new(Vec::new()),
                inbox_tx,
                shutdown: AtomicBool::new(false),
            }),
            inbox_rx,
            local: None,
            accept_handle: Mutex::new(None),
            clock: MonotonicClock::new(),
        }
    }

    /// The socket address the listener actually bound (useful with
    /// port 0); `None` for dial-only transports.
    pub fn local_socket_addr(&self) -> Option<SocketAddr> {
        self.local
    }

    /// Add or replace a peer's listen address.
    pub fn add_peer(&self, addr: NodeAddr, socket: SocketAddr) {
        self.shared.peers.write().insert(addr.0, socket);
    }

    /// Carrier counters for this transport.
    // audit:allow(unreached): this file's tests and the conformance suite read the transport counters with it
    pub fn metrics(&self) -> &TransportMetrics {
        &self.shared.metrics
    }

    /// Tear the transport down: stop accepting, close every
    /// connection, unpark every reader, and join the worker threads.
    /// Idempotent; also run by `Drop`.
    pub fn shutdown(&self) {
        // audit:ordering(AcqRel): swap claims the one-shot teardown and publishes it to `is_shut_down` readers
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unpark the acceptor with a throwaway dial; it re-checks the
        // shutdown flag on every wakeup.
        if let Some(local) = self.local {
            let _ = TcpStream::connect_timeout(&local, Duration::from_millis(200));
        }
        if let Some(h) = self.accept_handle.lock().take() {
            let _ = h.join();
        }
        // Nothing joins the table from here on (`link` checks the flag
        // under the table's lock), so this empties it for good.
        let links = std::mem::take(&mut *self.shared.links.lock());
        self.shared.metrics.connections.add(-(links.len() as i64));
        for link in &links {
            let _ = link.conn.stream.shutdown(Shutdown::Both);
        }
        for link in links {
            let _ = link.reader.join();
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Transport for TcpTransport {
    fn addr(&self) -> NodeAddr {
        self.shared.me
    }

    fn send_envelope(&self, env: Envelope) -> bool {
        send_envelope(&self.shared, env)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
        // Drain anything already delivered even after shutdown, then
        // report the carrier gone instead of idling out the timeout.
        match self.inbox_rx.try_recv() {
            Ok(env) => return Ok(env),
            Err(_) => {
                if self.shared.is_shut_down() {
                    return Err(RecvError::Disconnected);
                }
            }
        }
        self.inbox_rx.recv_timeout(timeout).map_err(|e| match e {
            crossbeam::channel::RecvTimeoutError::Timeout => {
                if self.shared.is_shut_down() {
                    RecvError::Disconnected
                } else {
                    RecvError::Timeout
                }
            }
            crossbeam::channel::RecvTimeoutError::Disconnected => RecvError::Disconnected,
        })
    }

    fn clock(&self) -> &dyn Clock {
        &self.clock
    }
}

/// Dial `peer` at `socket`, complete the outbound handshake, and put
/// the connection in the table as a link to `peer`.
fn dial(shared: &Arc<Shared>, peer: u16, socket: SocketAddr) -> io::Result<Arc<Conn>> {
    let stream = TcpStream::connect_timeout(&socket, shared.cfg.connect_timeout)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(shared.cfg.write_timeout))?;
    frame::write_magic(&mut &stream)?;
    shared
        .metrics
        .bytes_sent
        .add(frame::FRAME_MAGIC.len() as u64);
    shared.metrics.connects.inc();
    link(shared, stream, Some(peer))
}

/// Put `stream` in the table as a link to `peer` — `None` for an
/// accepted stream, which must present the magic preamble before
/// frames and whose first frame names its peer — and start its reader.
/// Refused once the transport is shut down.
fn link(shared: &Arc<Shared>, stream: TcpStream, peer: Option<u16>) -> io::Result<Arc<Conn>> {
    let conn = Arc::new(Conn {
        stream,
        write: Mutex::new(()),
    });
    // The reader starts under the table's lock, so its entry is in the
    // table before it can look for it.
    let mut links = shared.links.lock();
    if shared.is_shut_down() {
        let _ = conn.stream.shutdown(Shutdown::Both);
        return Err(io::ErrorKind::NotConnected.into());
    }
    let reader = {
        let (shared, conn) = (Arc::clone(shared), Arc::clone(&conn));
        thread::Builder::new()
            .name(format!("tcp-read-{}", shared.me))
            .spawn(move || reader_loop(shared, conn, peer.is_none()))?
    };
    links.push(Link {
        peer,
        conn: Arc::clone(&conn),
        reader,
    });
    shared.metrics.connections.add(1);
    Ok(conn)
}

/// Per-connection read loop: verify the preamble (inbound side), then
/// pump frames into the inbox until the stream closes or desyncs —
/// after a desync there is no reliable next frame boundary, so the
/// dialer reconnects. Either way the connection leaves the table and
/// its stream is shut, so the peer sees the close.
fn reader_loop(shared: Arc<Shared>, conn: Arc<Conn>, inbound: bool) {
    match pump(&shared, &conn, inbound) {
        Ok(()) | Err(FrameError::Closed) => {}
        Err(_) => {
            if !shared.is_shut_down() {
                shared.metrics.frame_errors.inc();
            }
        }
    }
    shared.unlink(&conn);
    let _ = conn.stream.shutdown(Shutdown::Both);
}

fn pump(shared: &Shared, conn: &Arc<Conn>, inbound: bool) -> Result<(), FrameError> {
    let mut stream = &conn.stream;
    let mut unnamed = inbound;
    if inbound {
        frame::read_magic(&mut stream)?;
        shared
            .metrics
            .bytes_received
            .add(frame::FRAME_MAGIC.len() as u64);
        shared.metrics.accepts.inc();
    }
    loop {
        let (env, n) = frame::read_frame(&mut stream)?;
        shared.metrics.frames_received.inc();
        shared.metrics.bytes_received.add(n as u64);
        // Named before the frame is delivered, so the reply finds it.
        if unnamed {
            let mut links = shared.links.lock();
            if let Some(link) = links.iter_mut().find(|l| Arc::ptr_eq(&l.conn, conn)) {
                link.peer = Some(env.from.0);
            }
            unnamed = false;
        }
        if shared.inbox_tx.send(env).is_err() {
            return Ok(());
        }
    }
}

/// Blocking accept loop; exits when the shutdown flag flips (woken by
/// the throwaway dial in [`TcpTransport::shutdown`]).
fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    loop {
        let conn = listener.accept();
        if shared.is_shut_down() {
            return;
        }
        let Ok((stream, _)) = conn else { continue };
        if stream.set_nodelay(true).is_err() {
            continue;
        }
        if stream
            .set_write_timeout(Some(shared.cfg.write_timeout))
            .is_err()
        {
            continue;
        }
        let _ = link(&shared, stream, None);
    }
}

/// Write one frame on `conn`, holding its write lock so concurrent
/// senders cannot interleave bytes mid-frame. The frame is counted
/// under the lock before its bytes reach the socket: a peer can answer
/// as soon as they do, and whoever reads `frames_sent` after that
/// answer must find the frame in it. A failed write means the
/// connection is broken: it is dropped — its shut stream ends its
/// reader — and `false` returned.
fn write_on(shared: &Shared, conn: &Arc<Conn>, env: &Envelope) -> bool {
    // audit:allow(guard-across-io): the write lock MUST be held across
    // the frame write — releasing it mid-frame would let another sender
    // interleave bytes and desync the peer's framing. Bounded by the
    // socket write timeout.
    let guard = conn.write.lock();
    shared.metrics.frames_sent.inc();
    shared.metrics.bytes_sent.add(frame::frame_len(env) as u64);
    let written = frame::write_frame(&mut &conn.stream, env);
    drop(guard);
    match written {
        Ok(_) => true,
        Err(_) => {
            if let Some(link) = shared.unlink(conn) {
                let _ = link.conn.stream.shutdown(Shutdown::Both);
                let _ = link.reader.join();
            }
            false
        }
    }
}

/// Write on the peer's newest link, or else dial it once; a send that
/// neither reaches is a dead letter.
fn send_envelope(shared: &Arc<Shared>, env: Envelope) -> bool {
    if shared.is_shut_down() {
        return false;
    }
    // Self-sends short-circuit to the inbox.
    if env.to == shared.me {
        return shared.inbox_tx.send(env).is_ok();
    }
    let to = env.to.0;
    let broken = match shared.link_to(to) {
        Some(conn) if write_on(shared, &conn, &env) => return true,
        Some(_) => true,
        None => false,
    };
    let socket = shared.peers.read().get(&to).copied();
    if let Some(socket) = socket {
        if broken {
            shared.metrics.reconnects.inc();
        }
        if dial(shared, to, socket).is_ok_and(|conn| write_on(shared, &conn, &env)) {
            return true;
        }
    }
    shared.metrics.dead_letters.inc();
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn pair() -> (TcpTransport, TcpTransport) {
        let any: SocketAddr = "127.0.0.1:0".parse().expect("addr");
        let server = TcpTransport::bind(
            NodeAddr(1),
            any,
            &[],
            TcpConfig::default(),
            TransportMetrics::detached(),
        )
        .expect("bind");
        let server_at = server.local_socket_addr().expect("bound");
        let client = TcpTransport::connect_only(
            NodeAddr(2),
            &[(NodeAddr(1), server_at)],
            TcpConfig::default(),
            TransportMetrics::detached(),
        );
        (server, client)
    }

    #[test]
    fn request_and_reply_over_real_sockets() {
        let (server, client) = pair();
        assert!(client.send(NodeAddr(1), 42, Bytes::from_static(b"ping")));
        let req = server.recv_timeout(Duration::from_secs(5)).expect("req");
        assert_eq!(req.from, NodeAddr(2));
        assert_eq!(req.correlation, 42);
        assert_eq!(&req.payload[..], b"ping");
        // The server never dials the client: the reply rides the
        // learned route back over the inbound connection.
        assert!(server.send(NodeAddr(2), 42, Bytes::from_static(b"pong")));
        let resp = client.recv_timeout(Duration::from_secs(5)).expect("resp");
        assert_eq!(resp.from, NodeAddr(1));
        assert_eq!(&resp.payload[..], b"pong");
    }

    #[test]
    fn unknown_peer_is_dead_letter() {
        let (_server, client) = pair();
        assert!(!client.send(NodeAddr(9), 1, Bytes::new()));
        assert_eq!(client.metrics().dead_letters.get(), 1);
    }

    /// A refused peer is dialed once and the send is a dead letter at
    /// once: no retry, no sleep.
    #[test]
    fn refused_connection_is_a_dead_letter_after_one_dial() {
        let any: SocketAddr = "127.0.0.1:0".parse().expect("addr");
        let probe = TcpListener::bind(any).expect("probe");
        let dead = probe.local_addr().expect("addr");
        drop(probe);
        let client = TcpTransport::connect_only(
            NodeAddr(2),
            &[(NodeAddr(1), dead)],
            TcpConfig::default(),
            TransportMetrics::detached(),
        );
        assert!(!client.send(NodeAddr(1), 1, Bytes::new()));
        assert_eq!(client.metrics().dead_letters.get(), 1);
        assert_eq!(client.metrics().reconnects.get(), 0);
        assert_eq!(client.metrics().connects.get(), 0);
    }

    #[test]
    fn shutdown_disconnects_receivers() {
        let (server, client) = pair();
        assert!(client.send(NodeAddr(1), 1, Bytes::new()));
        server.recv_timeout(Duration::from_secs(5)).expect("req");
        server.shutdown();
        assert_eq!(
            server.recv_timeout(Duration::from_millis(100)),
            Err(RecvError::Disconnected)
        );
        drop(client);
    }

    #[test]
    fn self_send_short_circuits() {
        let (server, _client) = pair();
        assert!(server.send(NodeAddr(1), 5, Bytes::from_static(b"me")));
        let env = server.recv_timeout(Duration::from_secs(1)).expect("self");
        assert_eq!(env.from, NodeAddr(1));
        assert_eq!(env.correlation, 5);
    }
}
