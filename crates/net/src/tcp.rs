//! Real-socket [`Transport`] backend: length-prefixed envelope frames
//! over TCP.
//!
//! Where [`SimTransport`](crate::transport::SimTransport) moves
//! envelopes through in-process channels, `TcpTransport` moves the
//! *same bytes* ([`crate::frame`]) across OS sockets, so a Mendel
//! cluster can run as N real processes (`mendel serve`) on loopback or
//! a LAN. Design:
//!
//! * **Thread-per-connection, std::net.** The workspace vendors no
//!   async runtime, so the backend uses blocking sockets: one acceptor
//!   thread per listener and one reader thread per live connection,
//!   each parking in `read` until its stream closes. Node counts here
//!   are tens, not tens of thousands — the thread model is the honest
//!   fit.
//! * **Connections are dialed by the requester; replies ride back on
//!   the same socket.** Every frame a reader receives teaches it a
//!   *reply route* (`env.from` → that connection's write half), so an
//!   ephemeral client endpoint — one with no listener of its own — can
//!   still receive responses. Server-to-server traffic uses the static
//!   peer map instead.
//! * **Per-peer pooling + reconnect with capped backoff.** Idle dialed
//!   connections are pooled per peer (bounded by
//!   [`TcpConfig::pool_per_peer`]); a failed write drops the connection
//!   and redials with exponential backoff capped at
//!   [`TcpConfig::reconnect_cap`]. A send that exhausts
//!   [`TcpConfig::dial_attempts`] returns `false` — the dead-letter
//!   signal the wire path answers by failing over to the next peer.
//! * **Determinism boundary.** Everything *above* the transport stays
//!   deterministic (same envelopes, same codec, same merge logic);
//!   arrival interleaving across distinct senders is real-OS
//!   nondeterministic, exactly like the simulated network under a
//!   latency model.

use crate::frame::{self, FrameError};
use crate::mailbox::{Envelope, NodeAddr, RecvError};
use crate::metrics::TransportMetrics;
use crate::transport::Transport;
use crossbeam::channel::{unbounded, Receiver, Sender};
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
    /// Socket write timeout; a stalled peer fails the write (and the
    /// send falls back to reconnect) rather than wedging the caller.
    pub write_timeout: Duration,
    /// Total dial-or-write attempts per send before the envelope is
    /// declared a dead letter.
    pub dial_attempts: u32,
    /// First reconnect backoff; doubles per failed attempt.
    pub reconnect_base: Duration,
    /// Backoff ceiling.
    pub reconnect_cap: Duration,
    /// Idle dialed connections kept per peer.
    pub pool_per_peer: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(5),
            dial_attempts: 3,
            reconnect_base: Duration::from_millis(10),
            reconnect_cap: Duration::from_millis(250),
            pool_per_peer: 2,
        }
    }
}

/// A connection's write half, shared between the pool/route tables and
/// the send path. The mutex makes each frame write atomic on the wire.
type WriteHalf = Arc<Mutex<TcpStream>>;

struct Shared {
    me: NodeAddr,
    cfg: TcpConfig,
    metrics: TransportMetrics,
    /// Static peer map: who listens where.
    peers: RwLock<HashMap<u16, SocketAddr>>,
    /// Idle dialed connections, per peer.
    pool: Mutex<HashMap<u16, Vec<WriteHalf>>>,
    /// Learned reply routes: sender address → the write half of the
    /// connection its frames arrive on.
    routes: Mutex<HashMap<u16, WriteHalf>>,
    /// Every live stream (one clone per connection), torn down on
    /// shutdown to unpark blocked readers.
    conns: Mutex<Vec<TcpStream>>,
    reader_handles: Mutex<Vec<JoinHandle<()>>>,
    inbox_tx: Sender<Envelope>,
    shutdown: AtomicBool,
}

impl Shared {
    fn is_shut_down(&self) -> bool {
        // audit:ordering(Acquire): pairs with the AcqRel swap in `shutdown`; observers must see the teardown writes
        self.shutdown.load(Ordering::Acquire)
    }
}

/// Real-socket transport. See the module docs for the design.
pub struct TcpTransport {
    shared: Arc<Shared>,
    inbox_rx: Receiver<Envelope>,
    local: Option<SocketAddr>,
    accept_handle: Mutex<Option<JoinHandle<()>>>,
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
                pool: Mutex::new(HashMap::new()),
                routes: Mutex::new(HashMap::new()),
                conns: Mutex::new(Vec::new()),
                reader_handles: Mutex::new(Vec::new()),
                inbox_tx,
                shutdown: AtomicBool::new(false),
            }),
            inbox_rx,
            local: None,
            accept_handle: Mutex::new(None),
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
        self.shared.pool.lock().clear();
        self.shared.routes.lock().clear();
        let conns = std::mem::take(&mut *self.shared.conns.lock());
        for c in &conns {
            let _ = c.shutdown(Shutdown::Both);
        }
        // Unpark the acceptor with a throwaway dial; it re-checks the
        // shutdown flag on every wakeup.
        if let Some(local) = self.local {
            let _ = TcpStream::connect_timeout(&local, Duration::from_millis(200));
        }
        if let Some(h) = self.accept_handle.lock().take() {
            let _ = h.join();
        }
        let readers = std::mem::take(&mut *self.shared.reader_handles.lock());
        for h in readers {
            let _ = h.join();
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

    fn recv(&self) -> Result<Envelope, RecvError> {
        loop {
            match self.recv_timeout(Duration::from_millis(50)) {
                Err(RecvError::Timeout) => continue,
                other => return other,
            }
        }
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

    fn try_recv(&self) -> Option<Envelope> {
        self.inbox_rx.try_recv().ok()
    }
}

/// Dial `peer`, complete the outbound handshake, and hand the read half
/// to a fresh reader thread. Returns the write half.
fn dial(shared: &Arc<Shared>, peer: SocketAddr) -> io::Result<WriteHalf> {
    let stream = TcpStream::connect_timeout(&peer, shared.cfg.connect_timeout)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(shared.cfg.write_timeout))?;
    let mut write_half = stream.try_clone()?;
    frame::write_magic(&mut write_half)?;
    shared
        .metrics
        .bytes_sent
        .add(frame::FRAME_MAGIC.len() as u64);
    shared.metrics.connects.inc();
    spawn_reader(shared, stream, false)?;
    Ok(Arc::new(Mutex::new(write_half)))
}

/// Register `stream` for shutdown teardown and start its reader thread.
/// `inbound` streams must present the magic preamble before frames.
fn spawn_reader(shared: &Arc<Shared>, stream: TcpStream, inbound: bool) -> io::Result<()> {
    shared.conns.lock().push(stream.try_clone()?);
    let write_half: Option<WriteHalf> = if inbound {
        Some(Arc::new(Mutex::new(stream.try_clone()?)))
    } else {
        None
    };
    let shared2 = Arc::clone(shared);
    let handle = thread::Builder::new()
        .name(format!("tcp-read-{}", shared.me))
        .spawn(move || reader_loop(shared2, stream, write_half))?;
    shared.reader_handles.lock().push(handle);
    Ok(())
}

/// Per-connection read loop: verify the preamble (inbound side), then
/// pump frames into the inbox until the stream closes or desyncs. Each
/// inbound frame also teaches the reply route `env.from` → this
/// connection; on exit every route still pointing here is withdrawn.
fn reader_loop(shared: Arc<Shared>, mut stream: TcpStream, write_half: Option<WriteHalf>) {
    let mut learned: Vec<u16> = Vec::new();
    match pump(&shared, &mut stream, write_half.as_ref(), &mut learned) {
        Ok(()) | Err(FrameError::Closed) => {}
        Err(_) => {
            if !shared.is_shut_down() {
                shared.metrics.frame_errors.inc();
            }
            // After a desync there is no reliable next frame boundary:
            // drop the connection and let the dialer reconnect.
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
    if let Some(wh) = write_half.as_ref() {
        let mut routes = shared.routes.lock();
        for from in learned {
            if routes.get(&from).is_some_and(|r| Arc::ptr_eq(r, wh)) {
                routes.remove(&from);
            }
        }
    }
}

fn pump(
    shared: &Shared,
    stream: &mut TcpStream,
    write_half: Option<&WriteHalf>,
    learned: &mut Vec<u16>,
) -> Result<(), FrameError> {
    if write_half.is_some() {
        frame::read_magic(stream)?;
        shared
            .metrics
            .bytes_received
            .add(frame::FRAME_MAGIC.len() as u64);
        shared.metrics.accepts.inc();
    }
    loop {
        let (env, n) = frame::read_frame(stream)?;
        shared.metrics.frames_received.inc();
        shared.metrics.bytes_received.add(n as u64);
        if let Some(wh) = write_half {
            let from = env.from.0;
            let mut routes = shared.routes.lock();
            let stale = match routes.get(&from) {
                Some(existing) => !Arc::ptr_eq(existing, wh),
                None => true,
            };
            if stale {
                routes.insert(from, Arc::clone(wh));
                learned.push(from);
            }
            drop(routes);
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
        let _ = spawn_reader(&shared, stream, true);
    }
}

/// Write one frame on `conn`, holding its mutex so concurrent senders
/// cannot interleave bytes mid-frame.
fn write_on(shared: &Shared, conn: &WriteHalf, env: &Envelope) -> io::Result<usize> {
    // audit:allow(guard-across-io): the stream mutex MUST be held across
    // the frame write — releasing it mid-frame would let another sender
    // interleave bytes and desync the peer's framing. Bounded by the
    // socket write timeout.
    let mut stream = conn.lock();
    let n = frame::write_frame(&mut *stream, env)?;
    drop(stream);
    shared.metrics.frames_sent.inc();
    shared.metrics.bytes_sent.add(n as u64);
    Ok(n)
}

fn send_envelope(shared: &Arc<Shared>, env: Envelope) -> bool {
    if shared.is_shut_down() {
        return false;
    }
    // Self-sends short-circuit to the inbox, mirroring the simulated
    // network's self-delivery.
    if env.to == shared.me {
        return shared.inbox_tx.send(env).is_ok();
    }
    // Prefer a learned reply route: it reaches ephemeral peers that
    // have no listener, and reuses the hot connection for the rest.
    let route = shared.routes.lock().get(&env.to.0).cloned();
    if let Some(conn) = route {
        if write_on(shared, &conn, &env).is_ok() {
            return true;
        }
        let mut routes = shared.routes.lock();
        if routes.get(&env.to.0).is_some_and(|r| Arc::ptr_eq(r, &conn)) {
            routes.remove(&env.to.0);
        }
        drop(routes);
    }
    let Some(peer) = shared.peers.read().get(&env.to.0).copied() else {
        shared.metrics.dead_letters.inc();
        return false;
    };
    let mut backoff = shared.cfg.reconnect_base;
    for attempt in 0..shared.cfg.dial_attempts {
        if shared.is_shut_down() {
            return false;
        }
        if attempt > 0 {
            shared.metrics.reconnects.inc();
            thread::sleep(backoff);
            backoff = (backoff * 2).min(shared.cfg.reconnect_cap);
        }
        let pooled = shared.pool.lock().get_mut(&env.to.0).and_then(|v| v.pop());
        if pooled.is_some() {
            shared.metrics.pool_size.add(-1);
        }
        let conn = match pooled {
            Some(c) => c,
            None => match dial(shared, peer) {
                Ok(c) => c,
                Err(_) => continue,
            },
        };
        if write_on(shared, &conn, &env).is_ok() {
            let mut pool = shared.pool.lock();
            let idle = pool.entry(env.to.0).or_default();
            if idle.len() < shared.cfg.pool_per_peer {
                idle.push(conn);
                shared.metrics.pool_size.add(1);
            }
            return true;
        }
        // Failed write: the connection is broken — drop it (its reader
        // will observe the close) and redial on the next attempt.
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

    #[test]
    fn refused_connection_fails_after_capped_retries() {
        let any: SocketAddr = "127.0.0.1:0".parse().expect("addr");
        let probe = TcpListener::bind(any).expect("probe");
        let dead = probe.local_addr().expect("addr");
        drop(probe);
        let cfg = TcpConfig {
            dial_attempts: 2,
            reconnect_base: Duration::from_millis(1),
            ..TcpConfig::default()
        };
        let client = TcpTransport::connect_only(
            NodeAddr(2),
            &[(NodeAddr(1), dead)],
            cfg,
            TransportMetrics::detached(),
        );
        assert!(!client.send(NodeAddr(1), 1, Bytes::new()));
        assert_eq!(client.metrics().dead_letters.get(), 1);
        assert_eq!(client.metrics().reconnects.get(), 1);
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
