//! `mendel serve` — run one storage node as a real OS process.
//!
//! Each process builds its [`MendelCluster`] control plane
//! deterministically from the ingested corpus (same FASTA + same
//! cluster parameters ⇒ same routing tables and block placement in
//! every process), indexes only the blocks placed on its own node
//! ([`MendelCluster::build_member`]: one local index per process, every
//! other node's blocks are keys in the ledger), serves that share of
//! query traffic over a [`mendel::NodeServer`] TCP transport, and
//! exposes a small HTTP/JSON front-end:
//!
//! * `POST /ingest`  — body: FASTA; builds the cluster and starts
//!   serving. A process ingests once: any other `/ingest`, later or
//!   concurrent, answers 409 and changes nothing, while one that fails
//!   (bad FASTA, a refused bind) leaves the process ingestible. Replies
//!   with `blocks`, the cluster-wide copy count every process agrees
//!   on, `hosted_blocks`, the copies this process indexes, and
//!   `ingest_ms`, where the ingest's time went (`total`, `parse`,
//!   `route`, `place`, `tree`), with `route_threads`, the threads the
//!   routing pass ran on. `place` is pass 2: one walk over the routes
//!   that writes every node's ledger slots and copies the hosted
//!   node's windows into its tree input (and, with `--data-dir`, the
//!   stores' writes before it); `tree` is that node's index build (a
//!   vp-tree for protein, pigeonhole tables for DNA).
//! * `POST /query`   — body: residues (raw or FASTA); answers with
//!   hits + coverage JSON rendered by [`render_outcome_json`].
//!   `?trace=1` appends the query's trace id and critical path (the
//!   plain body stays byte-identical to the untraced rendering).
//! * `GET  /metrics` — Prometheus text exposition (cluster + transport).
//!   `?scope=cluster` scrapes every `http-peers` member and merges the
//!   texts with `node="N"` labels ([`federate_prometheus`]).
//! * `GET  /healthz` — liveness + whether the node is serving yet.
//!   `?verbose=1` adds build info (version, git sha), uptime, the
//!   active SIMD kernel and, once serving, `blocks`, `hosted_blocks`
//!   (`/metrics` exports it as the `mendel_hosted_blocks` gauge),
//!   `ingest_ms` and `route_threads` as `/ingest` reports them, and
//!   `ledger_bytes`, what the placement ledger holds (the
//!   `mendel_ledger_bytes` gauge), `index_bytes`, what the hosted
//!   node's index holds (the `mendel_index_bytes` gauge), and
//!   `dna_index`, the buckets a DNA node's searches probed and the
//!   windows they checked (the `mendel_dna_index_{probes,candidates}`
//!   counters; 0 on protein, whose node search counts into
//!   `mendel_vptree_*`).
//! * `GET  /trace/<id>` — span records for one trace; `format=`
//!   `chrome` (default, Perfetto-loadable) | `records` | `tree` |
//!   `path`; `scope=cluster` (default) stitches fragments scraped from
//!   every peer's `/trace/<id>?scope=local` into one merged tree.
//! * `GET  /debug/traces` — trace ids this node has records for.
//! * `GET  /debug/flight` — flight-recorder ring dump.
//! * `GET  /debug/slowlog` — structured slow-query log (JSON).
//! * `POST /shutdown` — orderly exit (tests also just SIGKILL).
//!
//! Configuration is flags, read like every other command's. The
//! cluster is `commands::cluster_config` of the geometry flags (`--nodes
//! --groups --block-len --replication --seed --dna`), the one `mendel
//! query` builds, and must match every peer process's. The rest is this
//! process's own:
//!
//! ```text
//! --node 0 --listen 127.0.0.1:7701 --http 127.0.0.1:8701
//! --peers 1=127.0.0.1:7702,2=127.0.0.1:7703     # node-to-node TCP
//! --http-peers 1=127.0.0.1:8702,2=127.0.0.1:8703
//! --data-dir /var/lib/mendel/node0 --rpc-timeout-ms 2000
//! --tracing true --trace-sample 1 --slowlog-threshold-ms 500 --slowlog-sample 0
//! ```

use crate::args::{ArgError, Args};
use crate::commands::{alphabet_of, cluster_config, query_params, CliError};
use crate::http::{http_request, Handler, HttpServer, Request, Response};
use mendel::store::{RealVfs, Vfs};
use mendel::{
    chrome_trace_json, escape_json, parse_records_text, render_records_text, Clock, ClusterConfig,
    CoverageReport, FrontEnd, MendelCluster, MendelError, MendelHit, MonotonicClock, NodeServer,
    QueryParams, SlowLogConfig, StorageBackend, TraceCollector, TraceId, WireQueryOutcome,
    WireTimeouts,
};
use mendel_dht::NodeId;
use mendel_net::envelope::NodeAddr;
use mendel_net::tcp::TcpConfig;
use mendel_net::TransportMetrics;
use mendel_seq::{parse_fasta_sequences, Alphabet, SeqStore};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Duration;

/// Everything a serve process needs to know, read from its flags.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// This process's node id (0-based, `< nodes`; checked at parse).
    pub node: u16,
    /// Node-to-node transport listen address.
    pub listen: SocketAddr,
    /// HTTP front-end listen address.
    pub http: SocketAddr,
    /// Other nodes' transport addresses: `node-id=host:port,...`.
    pub peers: Vec<(u16, SocketAddr)>,
    /// Durable storage root; `None` runs RAM-only.
    pub data_dir: Option<String>,
    /// Wire deadlines.
    pub timeouts: WireTimeouts,
    /// Other nodes' *HTTP* addresses, for trace stitching and metrics
    /// federation: `node-id=host:port,...`.
    pub http_peers: Vec<(u16, SocketAddr)>,
    /// Distributed tracing on/off (DESIGN.md §17).
    pub tracing: bool,
    /// Trace every Nth query (deterministic counter modulus, ≥ 1).
    pub trace_sample: u64,
    /// Slow-query log admission threshold.
    pub slowlog_threshold: Duration,
    /// Also admit every Nth query to the slowlog (0 = off).
    pub slowlog_sample: u64,
    /// The cluster every peer process builds alike: `cluster_config`
    /// of the flags, on the durable backend under `data_dir`.
    pub cluster: ClusterConfig,
    /// The search parameters `/query` answers with.
    pub params: QueryParams,
}

fn bad(key: &str, value: &str, expected: &'static str) -> CliError {
    CliError::Args(ArgError::BadValue {
        key: key.into(),
        value: value.into(),
        expected,
    })
}

/// Parse `node-id=host:port,...`.
fn parse_peers(raw: &str) -> Result<Vec<(u16, SocketAddr)>, CliError> {
    let mut out = Vec::new();
    for part in raw.split(',').filter(|p| !p.trim().is_empty()) {
        let Some((id, addr)) = part.trim().split_once('=') else {
            return Err(bad("peers", raw, "node-id=host:port,..."));
        };
        let id: u16 = id
            .trim()
            .parse()
            .map_err(|_| bad("peers", raw, "node-id=host:port,..."))?;
        let addr: SocketAddr = addr
            .trim()
            .parse()
            .map_err(|_| bad("peers", raw, "node-id=host:port,..."))?;
        out.push((id, addr));
    }
    Ok(out)
}

/// The keys `serve` reads besides the geometry flags.
pub(crate) const SERVE_KEYS: &[&str] = &[
    "node",
    "listen",
    "http",
    "peers",
    "http-peers",
    "data-dir",
    "rpc-timeout-ms",
    "tracing",
    "trace-sample",
    "slowlog-threshold-ms",
    "slowlog-sample",
];

impl ServeConfig {
    /// Read a serve process's flags; `run` has already refused any key
    /// outside the geometry flags and `SERVE_KEYS`.
    pub fn from_args(args: &Args) -> Result<ServeConfig, CliError> {
        let alphabet = alphabet_of(args);
        let data_dir = args.get("data-dir").map(str::to_string);
        let cluster = ClusterConfig {
            storage: if data_dir.is_some() {
                StorageBackend::durable()
            } else {
                StorageBackend::Memory
            },
            ..cluster_config(args, alphabet)?
        };
        // A zero deadline would make every peer a suspect.
        let timeouts = match args.get_parsed("rpc-timeout-ms", 30_000, "integer")? {
            0 => return Err(bad("rpc-timeout-ms", "0", "deadline of at least 1 ms")),
            ms => WireTimeouts {
                rpc: Duration::from_millis(ms),
            },
        };
        // `--tracing false` turns tracing off; 0 is refused, not read as 1.
        let trace_sample = match args.get_parsed("trace-sample", 1, "integer")? {
            0 => return Err(bad("trace-sample", "0", "integer of at least 1")),
            n => n,
        };
        let node: u64 = args.get_parsed("node", 0, "integer")?;
        // A process hosts a node of the topology: no wrap into u16, no id
        // past `nodes`.
        let node = u16::try_from(node)
            .ok()
            .filter(|&n| usize::from(n) < cluster.nodes)
            .ok_or_else(|| bad("node", &node.to_string(), "node id below --nodes"))?;
        let sock = |key: &str| -> Result<SocketAddr, CliError> {
            let raw = args.require(key)?;
            raw.parse().map_err(|_| bad(key, raw, "host:port"))
        };
        Ok(ServeConfig {
            node,
            listen: sock("listen")?,
            http: sock("http")?,
            peers: parse_peers(args.get("peers").unwrap_or_default())?,
            data_dir,
            timeouts,
            http_peers: parse_peers(args.get("http-peers").unwrap_or_default())?,
            tracing: args.get_parsed("tracing", true, "true or false")?,
            trace_sample,
            slowlog_threshold: Duration::from_millis(args.get_parsed(
                "slowlog-threshold-ms",
                500,
                "integer",
            )?),
            slowlog_sample: args.get_parsed("slowlog-sample", 0, "integer")?,
            params: query_params(args, alphabet)?,
            cluster,
        })
    }
}

/// Render hits + coverage as deterministic JSON. The multi-process
/// twin test renders the in-process outcome with this same function and
/// asserts byte equality with the HTTP body, so keep every float
/// formatted by Rust's shortest-roundtrip `Display`.
pub fn render_outcome_json(
    db: &SeqStore,
    hits: &[MendelHit],
    coverage: &CoverageReport,
    unreachable: &[NodeId],
) -> String {
    let mut out = String::from("{\"hits\":[");
    for (i, h) in hits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = db
            .get(h.subject)
            .map(|s| s.name.clone())
            .unwrap_or_default();
        let _ = write!(
            out,
            "{{\"subject\":{},\"name\":\"{}\",\"score\":{},\"bits\":{},\"evalue\":{},\
             \"identity\":{},\"query_start\":{},\"query_end\":{},\"subject_start\":{},\
             \"subject_end\":{}}}",
            h.subject.0,
            escape_json(&name),
            h.score,
            h.bits,
            h.evalue,
            h.identity,
            h.query_start,
            h.query_end,
            h.subject_start,
            h.subject_end,
        );
    }
    let _ = write!(
        out,
        "],\"coverage\":{{\"blocks_expected\":{},\"blocks_reachable\":{},\"degraded\":{},\
         \"unreachable\":[",
        coverage.blocks_expected, coverage.blocks_reachable, coverage.degraded,
    );
    for (i, n) in unreachable.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", n.0);
    }
    out.push_str("]}}");
    out
}

/// The body of a 400: `{"error":"<message>"}`.
fn error_json(e: &impl std::fmt::Display) -> String {
    format!("{{\"error\":\"{}\"}}", escape_json(&e.to_string()))
}

/// A serving node: cluster replica + TCP node server + query front-end.
struct Serving {
    cluster: Arc<MendelCluster>,
    /// Held for its Drop: owns the bound transport + serving thread.
    _node_server: NodeServer,
    front: FrontEnd,
    sequences: usize,
    /// `"ingest_ms":{…},"route_threads":N`: where the `/ingest` that
    /// built this went ([`Serving::ingest_json`]).
    ingest: String,
}

impl Serving {
    /// The fields `/ingest` and `/healthz?verbose=1` both report: the
    /// cluster-wide copies, this process's copies, and the ingest's time
    /// — `total` (the whole `/ingest`) and its phases `parse` (FASTA into
    /// the store), `route` (pass 1), `place` (pass 2: every node's
    /// ledger slots and the hosted node's tree input, in one walk) and
    /// `tree` (the hosted node's index build) — with pass 1's thread count.
    fn ingest_json(&self) -> String {
        format!(
            "\"blocks\":{},\"hosted_blocks\":{},{}",
            self.cluster.placed_copies(),
            self.cluster.total_blocks(),
            self.ingest
        )
    }
}

struct State {
    cfg: ServeConfig,
    /// Set once, by the first `/ingest` that succeeds; every route reads
    /// it without a lock.
    serving: OnceLock<Serving>,
    /// Claimed by the `/ingest` that builds `serving`, so no other one
    /// builds or binds; given back only if that build fails.
    ingest_claimed: AtomicBool,
    /// `/shutdown` sends on it; `cmd_serve` blocks on its receiver.
    stop: mpsc::Sender<()>,
    /// Anchored at process start; `/healthz?verbose=1` reports its age.
    uptime: MonotonicClock,
}

impl State {
    /// Build this node's share of the cluster from FASTA text and start its
    /// node server and front-end; the caller holds `ingest_claimed`. Returns
    /// the serving node, which keeps where the ingest's time went. The
    /// text is dropped once it is parsed, before the build.
    fn ingest(&self, fasta: String) -> Result<&Serving, CliError> {
        let started = self.uptime.now();
        let mut store = SeqStore::new();
        for s in parse_fasta_sequences(&fasta, self.cfg.cluster.alphabet)? {
            store.insert(s);
        }
        drop(fasta);
        let parse = self.uptime.now().saturating_sub(started);
        let sequences = store.len();
        let db = Arc::new(store);
        let config = self.cfg.cluster.clone();
        let me = NodeId(self.cfg.node);
        let vfs: Option<Arc<dyn Vfs>> = match &self.cfg.data_dir {
            None => None,
            Some(dir) => Some(Arc::new(RealVfs::new(dir).map_err(|e| {
                CliError::Mendel(MendelError::Store(format!("data dir {dir}: {e}")))
            })?)),
        };
        let cluster = Arc::new(MendelCluster::build_member(config, db, me, vfs)?);
        // Span ids minted here must never collide with a peer process's
        // once the fragments are stitched into one tree: give each node
        // its own id plane (top 16 bits).
        cluster
            .metrics_registry()
            .seed_trace_ids(((self.cfg.node as u64 + 1) << 48) | 1);
        cluster.set_tracing(self.cfg.tracing);
        cluster.set_trace_sampling(self.cfg.trace_sample);
        cluster.set_slowlog_config(SlowLogConfig {
            threshold: self.cfg.slowlog_threshold,
            sample_every: self.cfg.slowlog_sample,
            ..SlowLogConfig::default()
        });
        let peer_addrs: Vec<(NodeAddr, SocketAddr)> = self
            .cfg
            .peers
            .iter()
            .map(|&(id, sock)| (NodeAddr(id + 1), sock))
            .collect();
        let node_server = NodeServer::start(
            cluster.clone(),
            me,
            self.cfg.listen,
            &peer_addrs,
            TcpConfig::default(),
            // Registered (not detached): `mendel top` reads wire bytes
            // from the federated exposition. Node server and front-end
            // share the scope, so the counters aggregate both roles.
            TransportMetrics::registered(cluster.metrics_registry()),
            self.cfg.timeouts,
        )
        .map_err(|e| CliError::Io(self.cfg.listen.to_string(), e))?;
        let mut front_peers = peer_addrs.clone();
        if let Some(sock) = node_server.local_socket_addr() {
            front_peers.push((NodeAddr(me.0 + 1), sock));
        }
        let front = FrontEnd::connect(
            cluster.clone(),
            self.cfg.node,
            &front_peers,
            TcpConfig::default(),
            TransportMetrics::registered(cluster.metrics_registry()),
            self.cfg.timeouts,
        );
        let profile = cluster.ingest_profile();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let ingest = format!(
            "\"ingest_ms\":{{\"total\":{:.3},\"parse\":{:.3},\"route\":{:.3},\"place\":{:.3},\
             \"tree\":{:.3}}},\"route_threads\":{}",
            ms(self.uptime.now().saturating_sub(started)),
            ms(parse),
            ms(profile.route),
            ms(profile.place),
            ms(profile.tree),
            profile.threads,
        );
        Ok(self.serving.get_or_init(|| Serving {
            cluster,
            _node_server: node_server,
            front,
            sequences,
            ingest,
        }))
    }

    fn handle(&self, req: Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => {
                let serving = self.serving.get();
                let mut body = format!(
                    "{{\"status\":\"ok\",\"node\":{},\"serving\":{}",
                    self.cfg.node,
                    serving.is_some()
                );
                if req.query_param("verbose").is_some_and(|v| v != "0") {
                    let _ = write!(
                        body,
                        ",\"version\":\"{}\",\"git_sha\":\"{}\",\"uptime_seconds\":{},\
                         \"kernel\":\"{}\",\"sha1_kernel\":\"{}\",\"tracing\":{},\
                         \"trace_sample\":{}",
                        escape_json(env!("CARGO_PKG_VERSION")),
                        escape_json(env!("MENDEL_GIT_SHA")),
                        self.uptime.now().as_secs(),
                        escape_json(mendel_seq::simd::active_kernel()),
                        escape_json(mendel_dht::sha1::active_kernel()),
                        self.cfg.tracing,
                        self.cfg.trace_sample,
                    );
                    if let Some(serving) = serving {
                        let count = |name| serving.cluster.metrics_registry().counter(name).get();
                        let _ = write!(
                            body,
                            ",{},\"ledger_bytes\":{},\"index_bytes\":{},\
                             \"dna_index\":{{\"probes\":{},\"candidates\":{}}}",
                            serving.ingest_json(),
                            serving.cluster.ledger_bytes(),
                            serving.cluster.index_bytes(),
                            count("mendel.dna_index.probes"),
                            count("mendel.dna_index.candidates"),
                        );
                    }
                }
                body.push('}');
                Response::json(200, body)
            }
            ("POST", "/ingest") => {
                let Ok(text) = String::from_utf8(req.body) else {
                    return Response::json(400, "{\"error\":\"ingest body must be UTF-8 FASTA\"}");
                };
                // audit:ordering(AcqRel): the claim is the one builder's; a failed build's release hands it on
                if self.ingest_claimed.swap(true, Ordering::AcqRel) {
                    return Response::json(
                        409,
                        "{\"error\":\"a corpus is ingested or ingesting\"}",
                    );
                }
                match self.ingest(text) {
                    Ok(serving) => Response::json(
                        200,
                        format!(
                            "{{\"ingested\":true,\"sequences\":{},{}}}",
                            serving.sequences,
                            serving.ingest_json()
                        ),
                    ),
                    Err(e) => {
                        // audit:ordering(Release): pairs with the claim's Acquire
                        self.ingest_claimed.store(false, Ordering::Release);
                        Response::json(400, error_json(&e))
                    }
                }
            }
            ("POST", "/query") => {
                let Ok(text) = std::str::from_utf8(&req.body) else {
                    return Response::json(400, "{\"error\":\"query body must be UTF-8\"}");
                };
                let residues = match extract_query(text, self.cfg.cluster.alphabet) {
                    Ok(r) => r,
                    Err(e) => return Response::json(400, error_json(&e)),
                };
                let Some(serving) = self.serving.get() else {
                    return Response::json(503, "{\"error\":\"no corpus ingested yet\"}");
                };
                match serving.front.query(&residues, &self.cfg.params) {
                    Ok(outcome) => {
                        let mut body = render_outcome_json(
                            &serving.cluster.db(),
                            &outcome.hits,
                            &outcome.coverage,
                            &outcome.unreachable,
                        );
                        // `?trace=1` appends trace fields; the plain
                        // body must stay byte-identical to PR 9 (the
                        // multi-process twin test asserts equality).
                        if req.query_param("trace").is_some_and(|v| v != "0") {
                            body.pop();
                            body.push_str(&render_trace_suffix(&outcome));
                            body.push('}');
                        }
                        Response::json(200, body)
                    }
                    Err(e) => Response::json(400, error_json(&e)),
                }
            }
            ("GET", "/metrics") => {
                let Some(Serving { cluster, .. }) = self.serving.get() else {
                    return Response::text(200, "# no corpus ingested yet\n");
                };
                let local = cluster.metrics_snapshot().to_prometheus();
                if req.query_param("scope") != Some("cluster") {
                    return Response::text(200, local);
                }
                let mut parts = vec![(self.cfg.node, local)];
                for &(node, http) in &self.cfg.http_peers {
                    if let Some(text) = scrape_peer(http, "/metrics") {
                        parts.push((node, text));
                    }
                }
                Response::text(200, federate_prometheus(&parts))
            }
            ("GET", "/debug/traces") => {
                let Some(Serving { cluster, .. }) = self.serving.get() else {
                    return Response::json(503, "{\"error\":\"no corpus ingested yet\"}");
                };
                let mut collector = TraceCollector::new();
                collector.ingest(cluster.trace_records());
                let ids: Vec<String> = collector
                    .trace_ids()
                    .iter()
                    .map(|t| t.0.to_string())
                    .collect();
                Response::json(200, format!("{{\"traces\":[{}]}}", ids.join(",")))
            }
            ("GET", "/debug/flight") => {
                let Some(Serving { cluster, .. }) = self.serving.get() else {
                    return Response::json(503, "{\"error\":\"no corpus ingested yet\"}");
                };
                Response::text(200, cluster.flight_recorder_dump())
            }
            ("GET", "/debug/slowlog") => {
                let Some(Serving { cluster, .. }) = self.serving.get() else {
                    return Response::json(503, "{\"error\":\"no corpus ingested yet\"}");
                };
                // `render_json` clones entries out under the ring lock
                // and renders after — nothing here holds a lock across
                // the socket write.
                Response::json(200, cluster.slowlog().render_json())
            }
            ("GET", path) if path.starts_with("/trace/") => self.trace_response(&req),
            ("POST", "/shutdown") => {
                // `cmd_serve` holds the receiver until it returns.
                let _ = self.stop.send(());
                Response::json(200, "{\"shutting_down\":true}")
            }
            _ => Response::json(404, "{\"error\":\"no such route\"}"),
        }
    }

    /// `GET /trace/<id>` — one trace's span records, stitched across
    /// the cluster unless `scope=local`. Local records are ingested
    /// first so the in-band copies (which rode home in reply tails,
    /// already re-anchored onto this node's clock) win under
    /// dedup-keeps-first over raw peer-clock copies scraped via HTTP.
    fn trace_response(&self, req: &Request) -> Response {
        let id_raw = &req.path["/trace/".len()..];
        let Ok(id) = id_raw.parse::<u64>() else {
            return Response::json(400, "{\"error\":\"trace id must be a decimal u64\"}");
        };
        let trace = TraceId(id);
        let Some(Serving { cluster, .. }) = self.serving.get() else {
            return Response::json(503, "{\"error\":\"no corpus ingested yet\"}");
        };
        let mut collector = TraceCollector::new();
        collector.ingest(
            cluster
                .trace_records()
                .into_iter()
                .filter(|r| r.trace == trace),
        );
        if req.query_param("scope").unwrap_or("cluster") == "cluster" {
            // Peers are asked for `scope=local`: no scrape cycles.
            for &(_, http) in &self.cfg.http_peers {
                let path = format!("/trace/{id}?scope=local&format=records");
                if let Some(text) = scrape_peer(http, &path) {
                    if let Ok(records) = parse_records_text(&text) {
                        collector.ingest(records.into_iter().filter(|r| r.trace == trace));
                    }
                }
            }
        }
        collector.dedup(); // the peers' copies of local spans
        if collector.records().is_empty() {
            return Response::json(404, "{\"error\":\"no records for that trace\"}");
        }
        match req.query_param("format").unwrap_or("chrome") {
            "chrome" => Response::json(200, chrome_trace_json(collector.records())),
            "records" => Response::text(200, render_records_text(collector.records())),
            "tree" => match collector.tree(trace) {
                Some(tree) => Response::text(200, tree.render()),
                None => Response::json(404, "{\"error\":\"no records for that trace\"}"),
            },
            "path" => match collector.tree(trace) {
                Some(tree) => {
                    let mut out = String::new();
                    for hop in tree.critical_path() {
                        let _ = writeln!(
                            out,
                            "{}\tnode{}\t{}us",
                            hop.name,
                            hop.node,
                            hop.duration.as_micros()
                        );
                    }
                    Response::text(200, out)
                }
                None => Response::json(404, "{\"error\":\"no records for that trace\"}"),
            },
            other => Response::json(
                400,
                format!("{{\"error\":\"unknown format {other:?} (chrome|records|tree|path)\"}}"),
            ),
        }
    }
}

/// One-shot GET against a peer front-end; `None` on any transport or
/// non-200 outcome (federation degrades to the reachable subset rather
/// than failing the whole request).
fn scrape_peer(addr: SocketAddr, path: &str) -> Option<String> {
    let (status, body) = http_request(addr, "GET", path, b"").ok()?;
    (status == 200).then(|| String::from_utf8_lossy(&body).into_owned())
}

/// The `?trace=1` JSON tail appended to a query response (without the
/// surrounding braces): trace id plus the critical path through the
/// stitched cross-process span tree.
fn render_trace_suffix(outcome: &WireQueryOutcome) -> String {
    let mut out = String::new();
    match outcome.trace {
        None => out.push_str(",\"trace\":null,\"critical_path\":[]"),
        Some(t) => {
            let _ = write!(out, ",\"trace\":{},\"critical_path\":[", t.0);
            for (i, hop) in outcome.critical_path.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"node\":{},\"duration_us\":{}}}",
                    escape_json(&hop.name),
                    hop.node,
                    hop.duration.as_micros()
                );
            }
            out.push(']');
        }
    }
    out
}

/// Merge per-node Prometheus expositions into one cluster-scope text:
/// every sample line gains a leading `node="N"` label; `# TYPE` lines
/// are kept once (first node wins — the metric vocabulary is identical
/// across processes); other comment lines are dropped.
pub fn federate_prometheus(parts: &[(u16, String)]) -> String {
    let mut out = String::new();
    let mut typed: Vec<String> = Vec::new();
    for (node, text) in parts {
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().unwrap_or("");
                if !typed.iter().any(|n| n == name) {
                    typed.push(name.to_string());
                    out.push_str(line);
                    out.push('\n');
                }
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            match line.find('{') {
                Some(brace) if !line[brace + 1..].starts_with('}') => {
                    let _ = writeln!(
                        out,
                        "{}{{node=\"{node}\",{}",
                        &line[..brace],
                        &line[brace + 1..]
                    );
                }
                Some(brace) => {
                    let _ = writeln!(
                        out,
                        "{}{{node=\"{node}\"{}",
                        &line[..brace],
                        &line[brace + 1..]
                    );
                }
                None => match line.split_once(' ') {
                    Some((name, rest)) => {
                        let _ = writeln!(out, "{name}{{node=\"{node}\"}} {rest}");
                    }
                    None => {
                        out.push_str(line);
                        out.push('\n');
                    }
                },
            }
        }
    }
    out
}

/// Accept a raw residue string or a FASTA record (first sequence).
fn extract_query(text: &str, alphabet: Alphabet) -> Result<Vec<u8>, CliError> {
    let trimmed = text.trim();
    if trimmed.starts_with('>') {
        let mut seqs = parse_fasta_sequences(trimmed, alphabet)?;
        if seqs.is_empty() {
            return Err(bad("query", "<empty fasta>", "FASTA with one sequence"));
        }
        return Ok(seqs.remove(0).residues);
    }
    let cleaned: String = trimmed.chars().filter(|c| !c.is_whitespace()).collect();
    let seqs = parse_fasta_sequences(&format!(">query\n{cleaned}\n"), alphabet)?;
    Ok(seqs
        .into_iter()
        .next()
        .map(|s| s.residues)
        .unwrap_or_default())
}

/// Readiness marker for process harnesses: printed exactly once, after
/// the HTTP socket is live. `cmd_serve` blocks until shutdown, so this
/// cannot be returned through `run()` like other command output.
#[allow(
    clippy::print_stdout,
    reason = "serve readiness marker; the command blocks until shutdown"
)]
fn announce_ready(node: u16, http: SocketAddr) {
    println!("mendel serve: node {node} http {http} ready");
}

/// `mendel serve` — blocks until `POST /shutdown` (or the process is
/// killed). Returns a one-line summary for tests that exercise the
/// orderly path.
pub fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let cfg = ServeConfig::from_args(args)?;
    let (stop, stopped) = mpsc::channel();
    let state = Arc::new(State {
        cfg: cfg.clone(),
        serving: OnceLock::new(),
        ingest_claimed: AtomicBool::new(false),
        stop,
        uptime: MonotonicClock::new(),
    });
    let handler: Handler = {
        let state = state.clone();
        Arc::new(move |req: Request| state.handle(req))
    };
    let mut http =
        HttpServer::bind(cfg.http, handler).map_err(|e| CliError::Io(cfg.http.to_string(), e))?;
    announce_ready(cfg.node, http.local_addr());
    // `state` holds a sender, so this returns only on `/shutdown`.
    let _ = stopped.recv();
    http.shutdown();
    let served = state.serving.get().map_or(0, |s| s.sequences);
    Ok(format!(
        "node {} stopped; its corpus had {served} sequences\n",
        cfg.node
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// A serve process's state from its flags, without its HTTP socket.
    fn state(flags: &str) -> State {
        let args = Args::parse(&toks(&format!("serve {flags}"))).unwrap();
        State {
            cfg: ServeConfig::from_args(&args).unwrap(),
            serving: OnceLock::new(),
            ingest_claimed: AtomicBool::new(false),
            stop: mpsc::channel().0,
            uptime: MonotonicClock::new(),
        }
    }

    /// `state`'s answer to `method target`: its status and body.
    fn call(state: &State, method: &str, target: &str, body: &[u8]) -> (u16, String) {
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        let req = Request {
            method: method.into(),
            path: path.into(),
            query: query.into(),
            body: body.to_vec(),
        };
        let resp = state.handle(req);
        (resp.status, String::from_utf8(resp.body).unwrap())
    }

    /// The unsigned integer after `"name":` in a JSON body.
    fn number(body: &str, name: &str) -> u64 {
        let key = format!("\"{name}\":");
        let at = body
            .find(&key)
            .unwrap_or_else(|| panic!("{name} in {body}"))
            + key.len();
        let digits = body[at..].split(|c: char| !c.is_ascii_digit()).next();
        digits.unwrap().parse().unwrap()
    }

    /// A small generated protein corpus of `families` × 2 sequences.
    fn corpus_fasta(families: usize) -> String {
        let corpus = mendel_seq::gen::NrLikeSpec {
            families,
            members_per_family: 2,
            length_range: (100, 140),
            seed: 0x40,
            ..Default::default()
        }
        .generate()
        .unwrap();
        mendel_seq::write_fasta(corpus.iter(), 60)
    }

    fn loopback() -> bool {
        match std::net::TcpListener::bind("127.0.0.1:0") {
            Ok(_) => true,
            Err(e) => {
                eprintln!("SKIPPED: loopback sockets unavailable in this environment: {e}");
                false
            }
        }
    }

    #[test]
    fn each_process_reports_its_hosted_share_of_the_blocks() {
        if !loopback() {
            return;
        }
        let fasta = corpus_fasta(4);
        let mut hosted_sum = 0;
        let mut placed = Vec::new();
        for node in 0..3 {
            let state = state(&format!(
                "--node {node} --nodes 3 --groups 1 --listen 127.0.0.1:0 --http 127.0.0.1:0"
            ));
            let call = |method: &str, target: &str, body: &[u8]| {
                let (status, body) = call(&state, method, target, body);
                assert_eq!(status, 200, "{method} {target}");
                body
            };
            let ingest = call("POST", "/ingest", fasta.as_bytes());
            let (blocks, hosted) = (number(&ingest, "blocks"), number(&ingest, "hosted_blocks"));
            assert!(0 < hosted && hosted < blocks, "{ingest}");
            hosted_sum += hosted;
            placed.push(blocks);
            let health = call("GET", "/healthz?verbose=1", b"");
            let both = format!("\"blocks\":{blocks},\"hosted_blocks\":{hosted}");
            assert!(health.contains(&both), "{health}");
            let sha1 = format!("\"sha1_kernel\":\"{}\"", mendel_dht::sha1::active_kernel());
            assert!(health.contains(&sha1), "{health}");
            // The ledger costs 4 bytes per block key, whatever node
            // this process hosts.
            let ledger = number(&health, "ledger_bytes");
            assert!(0 < ledger && ledger <= 4 * blocks + 4096, "{health}");
            let metrics = call("GET", "/metrics", b"");
            let gauge = format!("\nmendel_hosted_blocks {hosted}\n");
            assert!(metrics.contains(&gauge), "{metrics}");
            let gauge = format!("\nmendel_ledger_bytes {ledger}\n");
            assert!(metrics.contains(&gauge), "{metrics}");
            let index = number(&health, "index_bytes");
            assert!(index > 0, "{health}");
            let gauge = format!("\nmendel_index_bytes {index}\n");
            assert!(metrics.contains(&gauge), "{metrics}");
        }
        // Every process reports the same cluster-wide count, and the
        // three hosted shares partition it (one group, no replicas).
        assert!(placed.iter().all(|&b| b == placed[0]), "{placed:?}");
        assert_eq!(hosted_sum, placed[0]);
    }

    /// A process ingests once. An `/ingest` that fails, on bad FASTA or
    /// on a port already bound, leaves it ingestible; the first that
    /// succeeds sets its node, and any later one answers 409 and changes
    /// nothing.
    #[test]
    fn a_process_ingests_once() {
        if !loopback() {
            return;
        }
        let held = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let listen = held.local_addr().unwrap();
        let state = state(&format!(
            "--nodes 1 --groups 1 --replication 1 --listen {listen} --http 127.0.0.1:0"
        ));
        let fasta = corpus_fasta(4);
        let (status, body) = call(&state, "POST", "/ingest", b"MKTAYIAKQR\n");
        assert_eq!(status, 400, "{body}");
        let (status, body) = call(&state, "POST", "/ingest", fasta.as_bytes());
        assert_eq!(status, 400, "the listen port is taken: {body}");
        let (_, health) = call(&state, "GET", "/healthz", b"");
        assert!(health.contains("\"serving\":false"), "{health}");
        drop(held);
        let (status, first) = call(&state, "POST", "/ingest", fasta.as_bytes());
        assert_eq!(status, 200, "{first}");
        let blocks = number(&first, "blocks");
        let (status, body) = call(&state, "POST", "/ingest", corpus_fasta(6).as_bytes());
        assert_eq!(status, 409, "{body}");
        let (status, health) = call(&state, "GET", "/healthz?verbose=1", b"");
        assert_eq!(status, 200);
        assert_eq!(number(&health, "blocks"), blocks, "{health}");
        assert!(health.contains("\"serving\":true"), "{health}");
    }

    /// A DNA process reports its node search's work — buckets probed and
    /// windows checked — in `/healthz?verbose=1` and `/metrics`, and
    /// nothing under `mendel_vptree_*`, which counts protein searches.
    #[test]
    fn a_dna_process_reports_its_index_work() {
        if !loopback() {
            return;
        }
        let state = state(
            "--nodes 1 --groups 1 --replication 1 --dna --listen 127.0.0.1:0 --http 127.0.0.1:0",
        );
        let corpus = mendel_seq::gen::NrLikeSpec {
            alphabet: Alphabet::Dna,
            families: 4,
            members_per_family: 2,
            length_range: (300, 400),
            seed: 0x41,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let fasta = mendel_seq::write_fasta(corpus.iter(), 60);
        assert_eq!(call(&state, "POST", "/ingest", fasta.as_bytes()).0, 200);
        let (_, health) = call(&state, "GET", "/healthz?verbose=1", b"");
        assert!(
            health.contains("\"dna_index\":{\"probes\":0,\"candidates\":0}"),
            "{health}"
        );
        let query = parse_fasta_sequences(&fasta, Alphabet::Dna).unwrap()[0].to_ascii();
        let (status, body) = call(&state, "POST", "/query", query.as_bytes());
        assert_eq!(status, 200, "{body}");
        let (_, health) = call(&state, "GET", "/healthz?verbose=1", b"");
        let checked = number(&health, "candidates");
        assert!(checked > 0, "{health}");
        let (_, metrics) = call(&state, "GET", "/metrics", b"");
        let counter = format!("\nmendel_dna_index_candidates {checked}\n");
        assert!(metrics.contains(&counter), "{metrics}");
        assert!(
            metrics.contains("\nmendel_vptree_dist_calls 0\n"),
            "{metrics}"
        );
    }

    /// Once serving, every route answers 200, each trace format included;
    /// a format name outside `chrome|records|tree|path` answers 400.
    #[test]
    fn every_route_answers_once_serving() {
        if !loopback() {
            return;
        }
        let state =
            state("--nodes 1 --groups 1 --replication 1 --listen 127.0.0.1:0 --http 127.0.0.1:0");
        let fasta = corpus_fasta(4);
        let query = parse_fasta_sequences(&fasta, Alphabet::Protein).unwrap()[0].to_ascii();
        assert_eq!(call(&state, "POST", "/query", query.as_bytes()).0, 503);
        assert_eq!(call(&state, "POST", "/ingest", fasta.as_bytes()).0, 200);
        let (status, traced) = call(&state, "POST", "/query?trace=1", query.as_bytes());
        assert_eq!(status, 200, "{traced}");
        let trace = number(&traced, "trace");
        let routes = [
            ("POST", "/query".to_string()),
            ("GET", "/healthz".into()),
            ("GET", "/healthz?verbose=1".into()),
            ("GET", "/metrics".into()),
            ("GET", "/metrics?scope=cluster".into()),
            ("GET", "/debug/traces".into()),
            ("GET", "/debug/flight".into()),
            ("GET", "/debug/slowlog".into()),
            ("GET", format!("/trace/{trace}")),
            ("GET", format!("/trace/{trace}?format=chrome")),
            ("GET", format!("/trace/{trace}?format=records")),
            ("GET", format!("/trace/{trace}?format=tree")),
            ("GET", format!("/trace/{trace}?format=path")),
            ("POST", "/shutdown".into()),
        ];
        for (method, target) in routes {
            let (status, body) = call(&state, method, &target, query.as_bytes());
            assert_eq!(status, 200, "{method} {target}: {body}");
            assert!(!body.is_empty(), "{method} {target}");
        }
        for format in ["json", "text"] {
            let target = format!("/trace/{trace}?format={format}");
            let (status, body) = call(&state, "GET", &target, b"");
            assert_eq!(status, 400, "{target}: {body}");
        }
    }

    /// The flag sets the benchmark starts its processes with give
    /// exactly serve's preset in that shape, and the Table I parameters.
    #[test]
    fn benchmark_flag_sets_build_the_preset_cluster() {
        let base = "serve --node 0 --listen 127.0.0.1:0 --http 127.0.0.1:0 --replication 1";
        let protein = ClusterConfig {
            nodes: 3,
            groups: 1,
            replication: 1,
            ..ClusterConfig::small_protein()
        };
        let dna = ClusterConfig {
            nodes: 3,
            groups: 3,
            replication: 1,
            ..ClusterConfig::small_dna()
        };
        for (flags, cluster, params) in [
            ("--nodes 3 --groups 1", protein, QueryParams::protein()),
            ("--nodes 3 --groups 3 --dna", dna, QueryParams::dna()),
        ] {
            let args = Args::parse(&toks(&format!("{base} {flags}"))).unwrap();
            let cfg = ServeConfig::from_args(&args).unwrap();
            assert_eq!(cfg.cluster, cluster, "{flags}");
            assert_eq!(cfg.params, params, "{flags}");
        }
    }

    #[test]
    fn missing_listen_is_reported() {
        let args = Args::parse(&toks("serve --node 0 --http 127.0.0.1:0")).unwrap();
        let err = ServeConfig::from_args(&args).unwrap_err();
        assert!(err.to_string().contains("listen"), "{err}");
    }

    #[test]
    fn peers_parse_and_reject() {
        assert_eq!(
            parse_peers("1=127.0.0.1:7702, 2=127.0.0.1:7703").unwrap(),
            vec![
                (1u16, "127.0.0.1:7702".parse().unwrap()),
                (2u16, "127.0.0.1:7703".parse().unwrap()),
            ]
        );
        assert!(parse_peers("x=1").is_err());
        assert!(parse_peers("1:no-equals").is_err());
        assert!(parse_peers("").unwrap().is_empty());
    }

    #[test]
    fn render_outcome_json_is_deterministic_and_wellformed() {
        let db = SeqStore::new();
        let hits = vec![MendelHit {
            subject: mendel_seq::SeqId(3),
            score: 120,
            bits: 50.25,
            evalue: 1.5e-20,
            query_start: 0,
            query_end: 99,
            subject_start: 4,
            subject_end: 103,
            identity: 0.875,
        }];
        let coverage = CoverageReport {
            blocks_expected: 10,
            blocks_reachable: 8,
            per_group: Vec::new(),
            degraded: true,
        };
        let a = render_outcome_json(&db, &hits, &coverage, &[NodeId(2)]);
        let b = render_outcome_json(&db, &hits, &coverage, &[NodeId(2)]);
        assert_eq!(a, b);
        assert!(a.contains("\"subject\":3"));
        assert!(a.contains("\"bits\":50.25"));
        assert!(a.contains("\"degraded\":true"));
        assert!(a.contains("\"unreachable\":[2]"));
        assert!(a.starts_with('{') && a.ends_with('}'));
    }

    #[test]
    fn render_outcome_json_escapes_names_as_json() {
        // A FASTA name token is any run of non-whitespace, so control
        // characters, quotes and non-ASCII reach the body. Rust's `{:?}`
        // writes `\u{1}` and `\u{7f}`, which no JSON parser accepts.
        let names = [
            "ctl\u{1}x",
            "del\u{7f}",
            "zw\u{200b}sp",
            "q\"uote",
            "back\\slash",
        ];
        let mut db = SeqStore::new();
        for name in names {
            db.insert(mendel_seq::Sequence::from_codes(
                name,
                Alphabet::Protein,
                vec![0],
            ));
        }
        let hits: Vec<MendelHit> = (0..names.len() as u32)
            .map(|i| MendelHit {
                subject: mendel_seq::SeqId(i),
                score: 1,
                bits: 1.0,
                evalue: 1.0,
                query_start: 0,
                query_end: 1,
                subject_start: 0,
                subject_end: 1,
                identity: 1.0,
            })
            .collect();
        let body = render_outcome_json(&db, &hits, &CoverageReport::default(), &[]);
        assert!(body.contains("\"name\":\"ctl\\u0001x\""), "{body}");
        assert!(body.contains("\"name\":\"del\u{7f}\""), "{body}");
        assert!(body.contains("\"name\":\"zw\u{200b}sp\""), "{body}");
        assert!(body.contains(r#""name":"q\"uote""#), "{body}");
        assert!(body.contains(r#""name":"back\\slash""#), "{body}");
        assert!(!body.contains("\\u{"), "{body}");
        let err = error_json(&"bad\u{1}query");
        assert_eq!(err, "{\"error\":\"bad\\u0001query\"}");
    }

    #[test]
    fn serve_config_parses_observability_keys() {
        let args = Args::parse(&toks(
            "serve --listen 127.0.0.1:0 --http 127.0.0.1:0 \
             --http-peers 1=127.0.0.1:8702,2=127.0.0.1:8703 \
             --tracing false --trace-sample 4 \
             --slowlog-threshold-ms 25 --slowlog-sample 16",
        ))
        .unwrap();
        let cfg = ServeConfig::from_args(&args).unwrap();
        assert_eq!(cfg.http_peers.len(), 2);
        assert_eq!(cfg.http_peers[0], (1, "127.0.0.1:8702".parse().unwrap()));
        assert!(!cfg.tracing);
        assert_eq!(cfg.trace_sample, 4);
        assert_eq!(cfg.slowlog_threshold, Duration::from_millis(25));
        assert_eq!(cfg.slowlog_sample, 16);
        // Defaults: tracing on, every query sampled, 500ms threshold.
        let args = Args::parse(&toks("serve --listen 127.0.0.1:0 --http 127.0.0.1:0")).unwrap();
        let cfg = ServeConfig::from_args(&args).unwrap();
        assert!(cfg.tracing);
        assert_eq!(cfg.trace_sample, 1);
        assert_eq!(cfg.slowlog_threshold, Duration::from_millis(500));
        assert_eq!(cfg.slowlog_sample, 0);
        assert!(cfg.http_peers.is_empty());
    }

    #[test]
    fn federate_prometheus_labels_samples_and_dedups_types() {
        let n0 = "# HELP mendel_q queries\n# TYPE mendel_q counter\nmendel_q 3\n\
                  # TYPE mendel_lat histogram\nmendel_lat_bucket{le=\"0.1\"} 2\nmendel_lat_count 2\n";
        let n1 = "# TYPE mendel_q counter\nmendel_q 5\nmendel_empty{} 1\n";
        let merged = federate_prometheus(&[(0, n0.to_string()), (1, n1.to_string())]);
        assert!(merged.contains("mendel_q{node=\"0\"} 3\n"), "{merged}");
        assert!(merged.contains("mendel_q{node=\"1\"} 5\n"), "{merged}");
        assert!(
            merged.contains("mendel_lat_bucket{node=\"0\",le=\"0.1\"} 2\n"),
            "{merged}"
        );
        assert!(merged.contains("mendel_empty{node=\"1\"} 1\n"), "{merged}");
        assert_eq!(
            merged.matches("# TYPE mendel_q counter").count(),
            1,
            "{merged}"
        );
        assert!(!merged.contains("# HELP"), "{merged}");
    }

    #[test]
    fn trace_suffix_renders_null_and_hops() {
        let untraced = WireQueryOutcome {
            trace: None,
            ..Default::default()
        };
        assert_eq!(
            render_trace_suffix(&untraced),
            ",\"trace\":null,\"critical_path\":[]"
        );
        let traced = WireQueryOutcome {
            trace: Some(TraceId(9)),
            critical_path: vec![mendel::CriticalHop {
                name: "query".into(),
                node: 60_000,
                duration: Duration::from_micros(1500),
            }],
            ..Default::default()
        };
        let suffix = render_trace_suffix(&traced);
        assert_eq!(
            suffix,
            ",\"trace\":9,\"critical_path\":[{\"name\":\"query\",\"node\":60000,\"duration_us\":1500}]"
        );
    }

    #[test]
    fn extract_query_accepts_raw_and_fasta() {
        let raw = extract_query("MKTAYIAKQR", Alphabet::Protein).unwrap();
        let fasta = extract_query(">q\nMKTAYIAKQR\n", Alphabet::Protein).unwrap();
        assert_eq!(raw, fasta);
        assert!(!raw.is_empty());
        assert!(
            extract_query(">empty\n", Alphabet::Protein).is_err()
                || extract_query(">empty\n", Alphabet::Protein)
                    .map(|r| r.is_empty())
                    .unwrap_or(false)
        );
    }
}
