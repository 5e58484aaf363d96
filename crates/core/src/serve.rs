//! Serving over TCP: a storage node's serving thread and a query
//! front-end — what a `mendel serve` process runs.
//!
//! This is the thin ownership layer between the wire machinery
//! ([`crate::wire`]) and an OS process. A [`NodeServer`] binds its
//! node's address and runs the node side (`node_serve_loop` →
//! `serve_request`) on a thread; a [`FrontEnd`] dials the nodes and
//! evaluates queries through `query_via`. The process builds its
//! [`MendelCluster`] control plane deterministically from the shared
//! corpus (every process derives the same routing tables and block
//! placement from the same seed); `mendel serve` builds it with
//! [`MendelCluster::build_member`], so the one node it serves is the
//! one node whose blocks it indexes. The bytes on the loopback wire are
//! exactly the bytes in-process delivery carries for
//! [`MendelCluster::query`], so a real cluster and its in-process twin
//! return identical hits — asserted end-to-end by the tests below,
//! `tests/batch.rs` and the multi-process suite in `mendel-cli`.
//!
//! Addressing convention (shared with in-process delivery): storage
//! node `i` listens as `NodeAddr(i + 1)`; front-ends use
//! [`FRONT_END_ADDR_BASE`]` + front_end_id` so reply routes learned at
//! entry points never collide with node addresses. Each front-end
//! serializes its own queries (one in flight per transport address).

use crate::cluster::MendelCluster;
use crate::error::MendelError;
use crate::params::QueryParams;
use crate::wire::{
    node_addr, node_serve_loop, query_via, Deadlines, WireQueryOutcome, WireTimeouts,
};
use mendel_dht::NodeId;
use mendel_net::envelope::NodeAddr;
use mendel_net::tcp::{TcpConfig, TcpTransport};
use mendel_net::TransportMetrics;
use parking_lot::Mutex;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;

/// First transport address reserved for query front-ends. Node `i`
/// occupies `i + 1`, so any cluster with fewer than ~64k nodes leaves
/// this range free.
pub const FRONT_END_ADDR_BASE: u16 = 60_000;

/// One storage node serving over TCP: owns the transport and the
/// serving thread. Dropping it shuts the transport down, which ends the
/// loop, and joins the thread.
pub struct NodeServer {
    node: NodeId,
    transport: Arc<TcpTransport>,
    handle: Option<JoinHandle<()>>,
}

impl NodeServer {
    /// Bind `node`'s transport at `listen` and serve queries from
    /// `cluster`'s replica of the node's data on a thread of its own,
    /// until [`Self::shutdown`] or drop.
    ///
    /// `peers` maps the *other* nodes' transport addresses; more can be
    /// added later through [`NodeServer::transport`] as their processes
    /// come up.
    pub fn start(
        cluster: Arc<MendelCluster>,
        node: NodeId,
        listen: SocketAddr,
        peers: &[(NodeAddr, SocketAddr)],
        cfg: TcpConfig,
        metrics: TransportMetrics,
        timeouts: WireTimeouts,
    ) -> io::Result<Self> {
        let transport = Arc::new(TcpTransport::bind(
            node_addr(node),
            listen,
            peers,
            cfg,
            metrics,
        )?);
        let topo = cluster.topology();
        let handle = {
            let transport = transport.clone();
            std::thread::Builder::new()
                .name(format!("mendel-serve-{}", node.0))
                .spawn(move || {
                    node_serve_loop(&cluster, &topo, node, &transport, timeouts);
                })?
        };
        Ok(NodeServer {
            node,
            transport,
            handle: Some(handle),
        })
    }

    /// The node this server answers for.
    // audit:allow(unreached): tests/batch.rs and this file's tests map each server to its node with it
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The underlying transport, e.g. to register late-joining peers.
    // audit:allow(unreached): tests/batch.rs and this file's tests add peers through it
    pub fn transport(&self) -> &Arc<TcpTransport> {
        &self.transport
    }

    /// The socket the transport actually bound (resolves port 0).
    pub fn local_socket_addr(&self) -> Option<SocketAddr> {
        self.transport.local_socket_addr()
    }

    /// Close the transport — its listener refuses connections from here
    /// on, and the serving loop sees it disconnected within one idle
    /// poll — then join the serving thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.transport.shutdown();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A query front-end over TCP: evaluates queries through `query_via`,
/// the pipeline every query runs, against nodes served by
/// [`NodeServer`]s. It serves nothing: replies reach it on the
/// connections it dialed.
pub struct FrontEnd {
    cluster: Arc<MendelCluster>,
    transport: TcpTransport,
    /// Its deadline, and the entry points that missed it.
    deadlines: Deadlines,
    /// One query in flight per front-end: `query_via` owns the
    /// transport inbox for the duration of a call.
    in_flight: Mutex<()>,
}

impl FrontEnd {
    /// Connect a front-end with id `front_end_id` (distinct per
    /// process/handle so reply routes at shared entry points never
    /// collide) to the given node listen addresses. It dials only — no
    /// listener of its own; replies ride the request connections back.
    pub fn connect(
        cluster: Arc<MendelCluster>,
        front_end_id: u16,
        peers: &[(NodeAddr, SocketAddr)],
        cfg: TcpConfig,
        metrics: TransportMetrics,
        timeouts: WireTimeouts,
    ) -> Self {
        let me = NodeAddr(FRONT_END_ADDR_BASE.saturating_add(front_end_id));
        FrontEnd {
            deadlines: Deadlines::new(&cluster, timeouts),
            cluster,
            transport: TcpTransport::connect_only(me, peers, cfg, metrics),
            in_flight: Mutex::new(()),
        }
    }

    /// Evaluate one query against the serving nodes. Identical hits to
    /// [`MendelCluster::query`] on the same corpus; nodes observed
    /// unreachable degrade the outcome's coverage exactly like
    /// `fail_node` does in-process.
    pub fn query(
        &self,
        query: &[u8],
        params: &QueryParams,
    ) -> Result<WireQueryOutcome, MendelError> {
        let _guard = self.in_flight.lock();
        // audit:allow(guard-across-io): the guard IS the one-query-in-flight rule — released mid-call, a second gather on this inbox would drop the first's replies as not its own
        query_via(
            &self.cluster,
            &self.transport,
            query,
            params,
            &self.deadlines,
        )
        .map(|evaluated| evaluated.outcome)
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "these tests time real loopback servers on the wall clock"
)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use mendel_net::Transport;
    use mendel_seq::gen::NrLikeSpec;
    use mendel_seq::SeqId;
    use std::time::Duration;

    fn cluster() -> Arc<MendelCluster> {
        let db = Arc::new(
            NrLikeSpec {
                families: 8,
                members_per_family: 2,
                length_range: (120, 200),
                seed: 0x51,
                ..Default::default()
            }
            .generate()
            .unwrap(),
        );
        Arc::new(MendelCluster::build(ClusterConfig::small_protein(), db).unwrap())
    }

    fn timeouts() -> WireTimeouts {
        WireTimeouts {
            rpc: Duration::from_secs(5),
        }
    }

    /// Every node of `cluster` a [`NodeServer`] on loopback, each knowing
    /// every other's listen address; returns the servers and that map.
    fn serve_all(
        cluster: &Arc<MendelCluster>,
        timeouts: WireTimeouts,
    ) -> (Vec<NodeServer>, Vec<(NodeAddr, SocketAddr)>) {
        let any: SocketAddr = "127.0.0.1:0".parse().expect("loopback");
        let servers: Vec<NodeServer> = cluster
            .topology()
            .nodes()
            .map(|n| {
                NodeServer::start(
                    cluster.clone(),
                    n,
                    any,
                    &[],
                    TcpConfig::default(),
                    TransportMetrics::detached(),
                    timeouts,
                )
                .expect("bind node server")
            })
            .collect();
        let addrs: Vec<(NodeAddr, SocketAddr)> = servers
            .iter()
            .map(|s| (node_addr(s.node()), s.local_socket_addr().expect("bound")))
            .collect();
        for s in &servers {
            for &(peer, sock) in &addrs {
                s.transport().add_peer(peer, sock);
            }
        }
        (servers, addrs)
    }

    /// Shutting its transport down is the one way a serving loop ends:
    /// an idle server's `shutdown` returns within about one 100 ms poll,
    /// and dropping the others ends their loops the same way.
    #[test]
    fn shutdown_and_drop_end_idle_serving_loops_promptly() {
        let cluster = cluster();
        let (mut servers, _) = serve_all(&cluster, timeouts());
        let prompt = Duration::from_millis(100) + Duration::from_secs(1);
        let started = std::time::Instant::now();
        servers[0].shutdown();
        assert!(started.elapsed() < prompt, "{:?}", started.elapsed());
        let started = std::time::Instant::now();
        drop(servers);
        assert!(started.elapsed() < prompt * 2, "{:?}", started.elapsed());
    }

    /// Full in-process TCP cluster: every node a NodeServer on
    /// loopback, a front-end dialing them, hits identical to the
    /// in-process twin.
    #[test]
    fn tcp_cluster_matches_in_process_twin() {
        let cluster = cluster();
        let (mut servers, addrs) = serve_all(&cluster, timeouts());
        let fe = FrontEnd::connect(
            cluster.clone(),
            0,
            &addrs,
            TcpConfig::default(),
            TransportMetrics::detached(),
            timeouts(),
        );
        let params = QueryParams::protein();
        for id in [0u32, 3, 9] {
            let q = cluster.db().get(SeqId(id)).unwrap().residues.clone();
            let want = cluster.query(&q, &params).unwrap().hits;
            let before = cluster.metrics_snapshot();
            let got = fe.query(&q, &params).unwrap();
            assert_eq!(got.hits, want, "TCP and in-process agree on seq {id}");
            assert!(got.unreachable.is_empty());
            assert!(!got.coverage.degraded);
            // The serving nodes time their searches where they fill the
            // receipt, as in-process delivery does.
            let served = cluster.metrics_snapshot().since(&before);
            assert!(served.counter("mendel.query.local_search_nanos") > 0);
        }
        for s in &mut servers {
            s.shutdown();
        }
    }

    /// Any process that can reach a node's port can send the MDL1 magic
    /// and a frame whose payload is `[3]`; no such frame stops a node.
    #[test]
    fn forged_stop_frame_does_not_stop_a_node() {
        let cluster = cluster();
        let (mut servers, addrs) = serve_all(&cluster, timeouts());
        let fe = FrontEnd::connect(
            cluster.clone(),
            2,
            &addrs,
            TcpConfig::default(),
            TransportMetrics::detached(),
            timeouts(),
        );
        let q = cluster.db().get(SeqId(2)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let clean = fe.query(&q, &params).unwrap();
        assert!(!clean.hits.is_empty() && clean.unreachable.is_empty());

        let frames_in = |s: &NodeServer| s.transport().metrics().frames_received.get();
        let before: Vec<u64> = servers.iter().map(frames_in).collect();
        let stranger = TcpTransport::connect_only(
            NodeAddr(FRONT_END_ADDR_BASE + 99),
            &addrs,
            TcpConfig::default(),
            TransportMetrics::detached(),
        );
        for &(node, _) in &addrs {
            assert!(stranger.send(node, 0, bytes::Bytes::from_static(&[3])));
        }
        // Each forged frame is in its node's inbox before the next query
        // is sent, so the query is served after it.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while servers.iter().zip(&before).any(|(s, &b)| frames_in(s) == b) {
            assert!(
                std::time::Instant::now() < deadline,
                "forged frames never arrived"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let next = fe.query(&q, &params).unwrap();
        assert_eq!(next.unreachable, Vec::<NodeId>::new());
        assert_eq!(next.hits, clean.hits);
        for s in &mut servers {
            s.shutdown();
        }
    }

    /// Killing one node's server degrades the TCP answer exactly like
    /// `fail_node` degrades the in-process twin. The killed server's
    /// listener is closed, so the entry point's one dial to it is
    /// refused and the send returns `false`: the member takes
    /// `request`'s dead-letter path, counted as not answering at once,
    /// with no member timeout waited out. (The nodes a fault plan
    /// crashes in `wire.rs`'s `dead_` failover tests are silent instead,
    /// and are timed out on the inline clock.)
    #[test]
    fn killed_node_server_degrades_like_fail_node() {
        let cluster = cluster();
        let fast = WireTimeouts {
            rpc: Duration::from_secs(2),
        };
        let (mut servers, addrs) = serve_all(&cluster, fast);
        // Kill a non-entry-point member, so the group's entry point
        // cannot reach it.
        let topo = cluster.topology();
        let victim = topo
            .group_ids()
            .filter_map(|g| topo.group_members(g).get(1).copied())
            .next()
            .expect("a group with two members");
        let pos = servers
            .iter()
            .position(|s| s.node() == victim)
            .expect("victim serves");
        servers[pos].shutdown();

        let fe = FrontEnd::connect(
            cluster.clone(),
            1,
            &addrs,
            TcpConfig::default(),
            TransportMetrics::detached(),
            fast,
        );
        let q = cluster.db().get(SeqId(0)).unwrap().residues.clone();
        let outcome = fe.query(&q, &QueryParams::protein()).unwrap();

        let twin = self::cluster();
        twin.fail_node(victim).unwrap();
        let want = twin.query(&q, &QueryParams::protein()).unwrap().hits;
        assert_eq!(outcome.hits, want, "degraded hits match fail_node twin");
        if outcome
            .responded
            .keys()
            .any(|&g| topo.group_members(g).contains(&victim))
        {
            assert!(outcome.unreachable.contains(&victim));
            let twin_cov = twin.coverage();
            assert_eq!(outcome.coverage.degraded, twin_cov.degraded);
            assert_eq!(outcome.coverage.per_group, twin_cov.per_group);
        }
        for s in &mut servers {
            s.shutdown();
        }
    }
}
