//! Multi-process serving suite: a real 3-node `mendel serve` cluster on
//! loopback, answered over HTTP, must be hit-for-hit identical to an
//! in-process twin built from the same corpus and seed — including the
//! degraded answer after one node is SIGKILLed — and a hung (SIGSTOPped)
//! or dead (SIGKILLed) member costs one deadline or one refused dial,
//! not one per query, and holds up no `/healthz` meanwhile. A process
//! ingests once: a second `/ingest` answers 409 without waiting for a
//! query.
//!
//! Environment posture: if the sandbox forbids loopback sockets the
//! suite skips with a notice instead of failing; transient port
//! collisions (ports are probed, released, then rebound by children)
//! retry the whole spawn round.

#![allow(
    clippy::print_stderr,
    clippy::expect_used,
    clippy::panic,
    reason = "test support code outside #[test] functions fails the calling test on a broken fixture; it notes skips, retries and measurements on stderr"
)]

use mendel::{ClusterConfig, MendelCluster, QueryParams};
use mendel_cli::http::http_request;
use mendel_cli::render_outcome_json;
use mendel_dht::NodeId;
use mendel_seq::gen::{NrLikeSpec, QuerySetSpec};
use mendel_seq::{parse_fasta_sequences, write_fasta, Alphabet, SeqId, SeqStore};
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 3;

/// The cluster shape every process is launched with; the twin must use
/// the exact same config for bit-identical placement and routing.
fn shape() -> ClusterConfig {
    ClusterConfig {
        nodes: NODES,
        groups: 1,
        replication: 1,
        ..ClusterConfig::small_protein()
    }
}

fn corpus_fasta() -> String {
    let store = NrLikeSpec {
        families: 6,
        members_per_family: 2,
        length_range: (100, 160),
        seed: 0x77,
        ..Default::default()
    }
    .generate()
    .expect("generate corpus");
    write_fasta(store.iter(), 60)
}

/// Parse the corpus exactly the way each serve process does, so names
/// and ids line up byte-for-byte.
fn corpus_store(fasta: &str) -> SeqStore {
    let mut store = SeqStore::new();
    for s in parse_fasta_sequences(fasta, Alphabet::Protein).expect("parse corpus") {
        store.insert(s);
    }
    store
}

/// One spawned serve process; killed (best effort) on drop so a failed
/// assertion never leaks children. SIGKILL ends a stopped process too,
/// so a SIGSTOPped child is not left behind either.
struct Proc {
    node: u16,
    http: SocketAddr,
    child: Child,
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Probe `n` free loopback ports. The listeners are dropped before the
/// children bind, so a collision is possible — the caller retries.
fn probe_ports(n: usize) -> std::io::Result<Vec<u16>> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    listeners
        .iter()
        .map(|l| Ok(l.local_addr()?.port()))
        .collect()
}

fn spawn_node(
    node: u16,
    listen: u16,
    http: u16,
    peers: &str,
    replication: usize,
    extra: &[String],
) -> std::io::Result<Proc> {
    let mut args: Vec<String> = [
        "serve",
        "--node",
        &node.to_string(),
        "--listen",
        &format!("127.0.0.1:{listen}"),
        "--http",
        &format!("127.0.0.1:{http}"),
        "--peers",
        peers,
        "--nodes",
        &NODES.to_string(),
        "--groups",
        "1",
        "--replication",
        &replication.to_string(),
        "--rpc-timeout-ms",
        "1000",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.extend(extra.iter().cloned());
    let child = Command::new(env!("CARGO_BIN_EXE_mendel"))
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()?;
    Ok(Proc {
        node,
        http: format!("127.0.0.1:{http}").parse().expect("socket addr"),
        child,
    })
}

/// Spawn the whole cluster at `replication` and wait for every node's
/// `/healthz`. `None` means a child died or never came up (port
/// collision) — retry. `extra_for(node, http_ports)` appends per-node
/// flags (e.g. each node's view of the peer HTTP addresses).
fn spawn_cluster_with(
    replication: usize,
    extra_for: impl Fn(u16, &[u16]) -> Vec<String>,
) -> std::io::Result<Option<Vec<Proc>>> {
    let ports = probe_ports(2 * NODES)?;
    let (listen, http) = ports.split_at(NODES);
    let peers = (0..NODES)
        .map(|i| format!("{i}=127.0.0.1:{}", listen[i]))
        .collect::<Vec<_>>()
        .join(",");
    let mut procs = Vec::new();
    for i in 0..NODES {
        let extra = extra_for(i as u16, http);
        let (l, h) = (listen[i], http[i]);
        procs.push(spawn_node(i as u16, l, h, &peers, replication, &extra)?);
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    for p in &mut procs {
        loop {
            if let Ok((200, _)) = http_request(p.http, "GET", "/healthz", b"") {
                break;
            }
            if p.child.try_wait()?.is_some() || Instant::now() > deadline {
                return Ok(None); // died (port collision) or wedged
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    Ok(Some(procs))
}

fn spawn_cluster() -> std::io::Result<Option<Vec<Proc>>> {
    spawn_cluster_with(shape().replication, |_, _| Vec::new())
}

/// Retry the spawn round against port races, like the twin test does.
fn spawn_cluster_retrying(
    replication: usize,
    extra_for: impl Fn(u16, &[u16]) -> Vec<String>,
) -> Vec<Proc> {
    for attempt in 0..3 {
        match spawn_cluster_with(replication, &extra_for).expect("spawn serve processes") {
            Some(p) => return p,
            None => eprintln!("spawn round {attempt} lost a port race; retrying"),
        }
    }
    panic!("cluster up within 3 spawn rounds");
}

/// Wait for an orderly exit, bounded.
fn wait_exit(p: &mut Proc, within: Duration) -> Option<std::process::ExitStatus> {
    let deadline = Instant::now() + within;
    loop {
        if let Ok(Some(status)) = p.child.try_wait() {
            return Some(status);
        }
        if Instant::now() > deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The unlabelled samples `names` in one scrape of `p`'s `/metrics`.
fn metrics<const N: usize>(p: &Proc, names: [&str; N]) -> [i64; N] {
    let (status, body) = http_request(p.http, "GET", "/metrics", b"").expect("metrics");
    assert_eq!(status, 200);
    let body = String::from_utf8_lossy(&body);
    names.map(|name| {
        let prefix = format!("{name} ");
        body.lines()
            .find_map(|line| line.strip_prefix(&prefix)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("{name} in /metrics"))
    })
}

/// The unlabelled sample `name` in `p`'s `/metrics`.
fn metric(p: &Proc, name: &str) -> i64 {
    metrics(p, [name])[0]
}

/// What a process's failure handling has cost so far: the suspects it did
/// not wait for (`mendel_wire_suspect_skips`), and its transport's dead
/// letters, redials and frames written (`mendel_net_transport_*`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Costs {
    skips: i64,
    dead_letters: i64,
    reconnects: i64,
    frames_sent: i64,
}

impl Costs {
    fn of(p: &Proc) -> Costs {
        let [skips, dead_letters, reconnects, frames_sent] = metrics(
            p,
            [
                "mendel_wire_suspect_skips",
                "mendel_net_transport_dead_letters",
                "mendel_net_transport_reconnects",
                "mendel_net_transport_frames_sent",
            ],
        );
        Costs {
            skips,
            dead_letters,
            reconnects,
            frames_sent,
        }
    }

    /// `p`'s costs once no count is still landing: a frame is counted
    /// after its write returns, so the peer can answer it — and a query
    /// reach the test — before the sender's count moves. Reads until two
    /// scrapes 100 ms apart agree.
    fn settled(p: &Proc) -> Costs {
        let mut last = Costs::of(p);
        for _ in 0..50 {
            std::thread::sleep(Duration::from_millis(100));
            let now = Costs::of(p);
            if now == last {
                break;
            }
            last = now;
        }
        last
    }

    /// The costs run up since `before`.
    fn since(self, before: Costs) -> Costs {
        Costs {
            skips: self.skips - before.skips,
            dead_letters: self.dead_letters - before.dead_letters,
            reconnects: self.reconnects - before.reconnects,
            frames_sent: self.frames_sent - before.frames_sent,
        }
    }
}

/// The `mendel_net_transport_connections` gauge in `p`'s `/metrics`:
/// its live TCP connections, dialed and accepted.
fn live_connections(p: &Proc) -> i64 {
    metric(p, "mendel_net_transport_connections")
}

#[test]
fn three_process_cluster_matches_in_process_twin() {
    // Skip (loudly) where the sandbox forbids loopback sockets.
    if let Err(e) = TcpListener::bind("127.0.0.1:0") {
        eprintln!("SKIPPED: loopback sockets unavailable in this environment: {e}");
        return;
    }

    let fasta = corpus_fasta();
    let mut procs = None;
    for attempt in 0..3 {
        match spawn_cluster().expect("spawn serve processes") {
            Some(p) => {
                procs = Some(p);
                break;
            }
            None => eprintln!("spawn round {attempt} lost a port race; retrying"),
        }
    }
    let mut procs = procs.expect("cluster up within 3 spawn rounds");

    // Ingest the same corpus into every process; each builds the same
    // control plane from it.
    for p in &procs {
        let (status, body) =
            http_request(p.http, "POST", "/ingest", fasta.as_bytes()).expect("ingest request");
        assert_eq!(
            status,
            200,
            "ingest on node {}: {}",
            p.node,
            String::from_utf8_lossy(&body)
        );
    }

    // The in-process twin: same parse, same config, same seed.
    let twin = MendelCluster::build(shape(), Arc::new(corpus_store(&fasta))).expect("twin");
    let params = QueryParams::protein();

    // Healthy cluster: every node's HTTP answer must be byte-identical
    // to the twin rendered through the same JSON writer.
    for (p, seq) in procs.iter().zip([0u32, 3, 9]) {
        let record = twin.db().get(SeqId(seq)).expect("corpus seq").clone();
        let report = twin.query(&record.residues, &params).expect("twin query");
        let want = render_outcome_json(&twin.db(), &report.hits, &twin.coverage(), &[]);
        let (status, body) = http_request(p.http, "POST", "/query", record.to_ascii().as_bytes())
            .expect("query request");
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        assert_eq!(
            String::from_utf8_lossy(&body),
            want,
            "node {} HTTP answer matches the in-process twin byte-for-byte (seq {seq})",
            p.node
        );
        let (status, metrics) = http_request(p.http, "GET", "/metrics", b"").expect("metrics");
        assert_eq!(status, 200);
        assert!(!metrics.is_empty(), "metrics exposition is non-empty");
    }

    // Every process's live TCP connections before the kill: the
    // survivors' links to the dead peer must be pruned, not kept.
    let before: Vec<i64> = procs.iter().map(live_connections).collect();

    // SIGKILL a non-entry-point member of the (only) group, then query
    // through a surviving front-end: the degraded answer must match the
    // twin's fail_node semantics (PR 2 failover) exactly.
    let topo = twin.topology();
    let group = topo.group_ids().next().expect("a group");
    let victim = topo.group_members(group)[1];
    let vpos = procs
        .iter()
        .position(|p| p.node == victim.0)
        .expect("victim process");
    procs[vpos].child.kill().expect("SIGKILL victim");
    let _ = procs[vpos].child.wait();

    let degraded_twin =
        MendelCluster::build(shape(), Arc::new(corpus_store(&fasta))).expect("twin");
    degraded_twin.fail_node(victim).expect("fail victim");
    let record = degraded_twin
        .db()
        .get(SeqId(0))
        .expect("corpus seq")
        .clone();
    let report = degraded_twin
        .query(&record.residues, &params)
        .expect("degraded twin query");
    let want = render_outcome_json(
        &degraded_twin.db(),
        &report.hits,
        &degraded_twin.coverage(),
        &[victim],
    );
    let survivor = procs
        .iter()
        .find(|p| p.node != victim.0)
        .expect("a survivor");
    let (status, body) = http_request(
        survivor.http,
        "POST",
        "/query",
        record.to_ascii().as_bytes(),
    )
    .expect("degraded query");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert_eq!(
        String::from_utf8_lossy(&body),
        want,
        "degraded HTTP answer matches the fail_node twin byte-for-byte"
    );

    let deadline = Instant::now() + Duration::from_secs(10);
    for (p, &was) in procs.iter().zip(&before) {
        if p.node == victim.0 {
            continue;
        }
        loop {
            let now = live_connections(p);
            if now <= was {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "node {} holds {now} connections, {was} before its peer died",
                p.node
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    // Orderly shutdown of the survivors.
    for p in &mut procs {
        if p.node == victim.0 {
            continue;
        }
        let (status, _) = http_request(p.http, "POST", "/shutdown", b"").expect("shutdown");
        assert_eq!(status, 200);
        let exit = wait_exit(p, Duration::from_secs(10)).expect("orderly exit");
        assert!(exit.success(), "node {} exits cleanly: {exit:?}", p.node);
    }
}

/// The number after `"key":` in `body`.
fn json_number(body: &str, key: &str) -> f64 {
    let field = format!("\"{key}\":");
    let at = body
        .find(&field)
        .unwrap_or_else(|| panic!("no {key}: {body}"))
        + field.len();
    let digits = body[at..]
        .split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .next()
        .unwrap_or("");
    digits
        .parse()
        .unwrap_or_else(|_| panic!("{key} is no number: {body}"))
}

/// An `/ingest` reply reports where its time went (DESIGN.md §11.1):
/// its phases, which run one after another inside it, sum to no more
/// than its total, and the routing pass ran on at least one thread.
fn assert_ingest_budget(body: &str) {
    let total = json_number(body, "total");
    let phases: f64 = ["parse", "route", "place", "tree"]
        .iter()
        .map(|phase| json_number(body, phase))
        .sum();
    assert!(total > 0.0, "{body}");
    // Each figure is rounded to a microsecond.
    assert!(phases <= total + 0.003, "phases over the total: {body}");
    assert!(json_number(body, "route_threads") >= 1.0, "{body}");
}

/// Cross-process distributed tracing (DESIGN.md §17): a traced query
/// against a real 3-process cluster yields one merged Perfetto-loadable
/// chrome JSON with node-side spans from every contacted process and
/// fully-resolving parent links; the federated metrics, slowlog, and
/// verbose healthz surfaces ride along.
#[test]
fn traced_query_stitches_spans_from_all_three_processes() {
    if let Err(e) = TcpListener::bind("127.0.0.1:0") {
        eprintln!("SKIPPED: loopback sockets unavailable in this environment: {e}");
        return;
    }

    let fasta = corpus_fasta();
    // Every node learns every other node's HTTP address, samples every
    // query's trace, and admits every query to the slowlog.
    let mut procs = spawn_cluster_retrying(shape().replication, |node, http_ports| {
        let http_peers = (0..NODES)
            .filter(|&i| i != node as usize)
            .map(|i| format!("{i}=127.0.0.1:{}", http_ports[i]))
            .collect::<Vec<_>>()
            .join(",");
        vec![
            "--http-peers".into(),
            http_peers,
            "--trace-sample".into(),
            "1".into(),
            "--slowlog-threshold-ms".into(),
            "0".into(),
        ]
    });
    let mut ingests = Vec::new();
    for p in &procs {
        let (status, body) =
            http_request(p.http, "POST", "/ingest", fasta.as_bytes()).expect("ingest request");
        let body = String::from_utf8_lossy(&body).into_owned();
        assert_eq!(status, 200, "ingest on node {}: {body}", p.node);
        assert_ingest_budget(&body);
        ingests.push(body);
    }

    // Verbose healthz: build info, uptime, active kernel, and the ingest
    // budget as `/ingest` reported it.
    let entry = procs[0].http;
    let (status, health) =
        http_request(entry, "GET", "/healthz?verbose=1", b"").expect("verbose healthz");
    assert_eq!(status, 200);
    let health = String::from_utf8_lossy(&health).into_owned();
    for key in [
        "\"version\":",
        "\"git_sha\":",
        "\"uptime_seconds\":",
        "\"kernel\":",
        "\"tracing\":true",
    ] {
        assert!(health.contains(key), "healthz missing {key}: {health}");
    }
    let budget = |body: &str| {
        let at = body.find("\"ingest_ms\"").expect("ingest_ms");
        let end = body[at..]
            .find("\"ledger_bytes\"")
            .map_or(body.len(), |e| at + e);
        body[at..end].trim_end_matches(['}', ',']).to_owned()
    };
    assert_eq!(budget(&health), budget(&ingests[0]), "{health}");

    // A traced query through node 0's front-end. The plain body must be
    // untouched; `?trace=1` appends the trace id and critical path.
    let twin = MendelCluster::build(shape(), Arc::new(corpus_store(&fasta))).expect("twin");
    let record = twin.db().get(SeqId(2)).expect("corpus seq").clone();
    let (status, plain) =
        http_request(entry, "POST", "/query", record.to_ascii().as_bytes()).expect("plain query");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&plain));
    let (status, traced) = http_request(
        entry,
        "POST",
        "/query?trace=1",
        record.to_ascii().as_bytes(),
    )
    .expect("traced query");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&traced));
    let traced = String::from_utf8_lossy(&traced).into_owned();
    let plain = String::from_utf8_lossy(&plain).into_owned();
    assert!(
        traced.starts_with(plain.trim_end_matches('}')),
        "traced body extends the plain body:\n{plain}\n{traced}"
    );
    assert!(traced.contains("\"critical_path\":["), "{traced}");
    let trace_id: u64 = traced
        .split("\"trace\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|id| id.trim().parse().ok())
        .expect("traced response carries a numeric trace id");

    // The stitched chrome JSON merges spans from all three processes:
    // front-end spans (query/decompose/group_rpc) plus the group span
    // and a node/<id> evaluation span from every storage process.
    let (status, chrome) = http_request(
        entry,
        "GET",
        &format!("/trace/{trace_id}?format=chrome&scope=cluster"),
        b"",
    )
    .expect("stitched chrome trace");
    assert_eq!(status, 200);
    let chrome = String::from_utf8_lossy(&chrome).into_owned();
    assert!(chrome.contains("\"traceEvents\""), "{chrome}");
    assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
    for name in [
        "\"name\":\"query\"",
        "\"name\":\"decompose\"",
        "\"name\":\"group_rpc/",
        "\"name\":\"group/",
        "\"name\":\"node/0\"",
        "\"name\":\"node/1\"",
        "\"name\":\"node/2\"",
    ] {
        assert!(
            chrome.contains(name),
            "chrome JSON missing {name}: {chrome}"
        );
    }

    // Records format: every parent link resolves inside the merged set
    // and at least three distinct node ids contributed spans.
    let (status, records) = http_request(
        entry,
        "GET",
        &format!("/trace/{trace_id}?format=records&scope=cluster"),
        b"",
    )
    .expect("stitched records");
    assert_eq!(status, 200);
    let records =
        mendel::parse_records_text(&String::from_utf8_lossy(&records)).expect("records parse back");
    assert!(
        records.len() >= 7,
        "expected a full span tree, got {records:?}"
    );
    let spans: std::collections::HashSet<u64> = records.iter().map(|r| r.span.0).collect();
    let mut roots = 0;
    for r in &records {
        match r.parent {
            None => roots += 1,
            Some(p) => assert!(
                spans.contains(&p.0),
                "span {:?} has dangling parent {p:?}",
                r.name
            ),
        }
    }
    assert_eq!(roots, 1, "exactly one root span: {records:?}");
    let nodes: std::collections::HashSet<u32> = records.iter().map(|r| r.node).collect();
    assert!(
        nodes.len() >= 3,
        "spans from at least 3 distinct node id planes: {nodes:?}"
    );

    // Critical path over the merged tree starts at the root query span.
    let (status, path) = http_request(
        entry,
        "GET",
        &format!("/trace/{trace_id}?format=path&scope=cluster"),
        b"",
    )
    .expect("critical path");
    assert_eq!(status, 200);
    let path = String::from_utf8_lossy(&path).into_owned();
    assert!(path.starts_with("query\t"), "critical path root: {path}");
    assert!(path.lines().count() >= 2, "multi-hop critical path: {path}");

    // Slowlog (threshold 0 ⇒ every query admitted) and federation.
    let (status, slowlog) = http_request(entry, "GET", "/debug/slowlog", b"").expect("slowlog");
    assert_eq!(status, 200);
    let slowlog = String::from_utf8_lossy(&slowlog).into_owned();
    assert!(
        slowlog.contains("\"entries\":[{"),
        "slowlog has entries: {slowlog}"
    );
    assert!(slowlog.contains("\"reason\":\"slow\""), "{slowlog}");

    let (status, metrics) =
        http_request(entry, "GET", "/metrics?scope=cluster", b"").expect("federated metrics");
    assert_eq!(status, 200);
    let metrics = String::from_utf8_lossy(&metrics).into_owned();
    for label in ["node=\"0\"", "node=\"1\"", "node=\"2\""] {
        assert!(metrics.contains(label), "federated metrics missing {label}");
    }
    assert_eq!(
        metrics.matches("# TYPE mendel_query_count counter").count(),
        1,
        "TYPE lines deduped across nodes:\n{metrics}"
    );

    // The live-node CLI commands ride the same surfaces.
    let addr = entry.to_string();
    let top = mendel_cli::run(&[
        "top".into(),
        "--addr".into(),
        addr.clone(),
        "--iterations".into(),
        "1".into(),
    ])
    .expect("mendel top against the live cluster");
    assert!(top.contains("mendel top @"), "{top}");
    assert!(top.contains("node 0:"), "{top}");
    let dump = mendel_cli::run(&[
        "trace".into(),
        "dump".into(),
        "--addr".into(),
        addr.clone(),
        "--trace".into(),
        trace_id.to_string(),
    ])
    .expect("mendel trace dump --addr");
    assert!(dump.contains("\"name\":\"node/1\""), "{dump}");
    let slow = mendel_cli::run(&["trace".into(), "slowlog".into(), "--addr".into(), addr])
        .expect("mendel trace slowlog --addr");
    assert!(slow.contains("\"seen\":"), "{slow}");

    // Orderly shutdown.
    for p in &mut procs {
        let (status, _) = http_request(p.http, "POST", "/shutdown", b"").expect("shutdown");
        assert_eq!(status, 200);
        let exit = wait_exit(p, Duration::from_secs(10)).expect("orderly exit");
        assert!(exit.success(), "node {} exits cleanly: {exit:?}", p.node);
    }
}

/// A replication-2 cluster up and ingested, with its in-process twin:
/// `None` where the sandbox forbids loopback sockets.
fn replicated_cluster() -> Option<(Vec<Proc>, MendelCluster, String)> {
    if let Err(e) = TcpListener::bind("127.0.0.1:0") {
        eprintln!("SKIPPED: loopback sockets unavailable in this environment: {e}");
        return None;
    }
    let fasta = corpus_fasta();
    let procs = spawn_cluster_retrying(2, |_, _| Vec::new());
    for p in &procs {
        let (status, body) =
            http_request(p.http, "POST", "/ingest", fasta.as_bytes()).expect("ingest request");
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    }
    let shape = ClusterConfig {
        replication: 2,
        ..shape()
    };
    let twin = MendelCluster::build(shape, Arc::new(corpus_store(&fasta))).expect("twin");
    Some((procs, twin, fasta))
}

/// One `/query` of `residues` through `p`: the body, and how long it took.
fn timed_query(p: &Proc, residues: &str) -> (String, Duration) {
    let started = Instant::now();
    let (status, body) =
        http_request(p.http, "POST", "/query", residues.as_bytes()).expect("query request");
    let took = started.elapsed();
    let body = String::from_utf8_lossy(&body).into_owned();
    assert_eq!(status, 200, "{body}");
    (body, took)
}

/// The bound on a query that must not wait out a member deadline:
/// three times a healthy query timed in the same run, so a loaded host
/// that stretches every query stretches the bound with it, and never
/// under 250 ms, the bound on an unloaded host. A query that waited
/// takes at least the 500 ms member deadline plus a healthy query, so
/// the bound tells the two apart while a healthy query takes under
/// 250 ms.
fn unwaited_bound(healthy: Duration) -> Duration {
    (3 * healthy).max(Duration::from_millis(250))
}

/// Send `signal` (`-STOP`, `-CONT`) to `p`; after `-STOP`, wait until
/// every thread of `p` has stopped, since `kill` returns before a busy
/// thread takes the signal.
fn signal(p: &Proc, signal: &str) {
    let status = Command::new("kill")
        .args([signal, &p.child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill {signal} node {}", p.node);
    if signal == "-STOP" {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !stopped(p) {
            assert!(Instant::now() < deadline, "node {} never stopped", p.node);
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// True when every thread of `p` is stopped, by the state field of its
/// `/proc` stat line; true where there is no `/proc` to read.
fn stopped(p: &Proc) -> bool {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{}/task", p.child.id())) else {
        return true;
    };
    tasks.flatten().all(|task| {
        std::fs::read_to_string(task.path().join("stat")).is_ok_and(|stat| {
            // The state follows the parenthesised command name.
            stat.rsplit_once(") ")
                .is_some_and(|(_, rest)| rest.starts_with(['T', 't']))
        })
    })
}

/// Query `p` until an answer has every member in it, and return it: on
/// a loaded host a slow first answer can leave a member a suspect, and
/// a suspect is not waited for.
fn whole_answer(p: &Proc, residues: &str) -> String {
    (0..5)
        .map(|_| timed_query(p, residues).0)
        .find(|body| body.contains("\"unreachable\":[]"))
        .expect("a whole answer within five queries")
}

/// A hung member — SIGSTOPped: its sockets stay open and it answers
/// nothing — is waited out once by its entry point, which then suspects
/// it: later queries still ask it but do not wait, and answer the same
/// bytes, which match `fail_node` on the twin. Once it runs again its
/// replies clear the suspicion within two queries.
#[test]
fn hung_member_is_waited_out_once_then_only_asked() {
    let Some((procs, twin, _)) = replicated_cluster() else {
        return;
    };
    let topo = twin.topology();
    let group = topo.group_ids().next().expect("a group");
    let (entry, victim) = (topo.group_members(group)[0], topo.group_members(group)[1]);
    let of = |node: NodeId| procs.iter().find(|p| p.node == node.0).expect("process");
    let record = twin.db().get(SeqId(0)).expect("corpus seq").clone();
    let residues = record.to_ascii();
    let healthy = whole_answer(of(entry), &residues);
    // What one whole query costs the entry point.
    let before = Costs::settled(of(entry));
    let (answer, took) = timed_query(of(entry), &residues);
    assert_eq!(answer, healthy);
    let whole = Costs::settled(of(entry)).since(before);
    let bound = unwaited_bound(took);

    twin.fail_node(victim).expect("fail victim");
    let report = twin
        .query(&record.residues, &QueryParams::protein())
        .expect("twin");
    let want = render_outcome_json(&twin.db(), &report.hits, &twin.coverage(), &[victim]);

    signal(of(victim), "-STOP");
    let (first, waited) = timed_query(of(entry), &residues);
    assert!(
        waited >= Duration::from_millis(500),
        "the member deadline was waited out: {waited:?}"
    );
    assert_eq!(first, want, "degraded answer matches the fail_node twin");
    let before = Costs::settled(of(entry));
    for i in 0..5 {
        let (next, took) = timed_query(of(entry), &residues);
        assert!(took < bound, "query {i} took {took:?}, over {bound:?}");
        assert_eq!(next, first, "query {i}");
    }
    // The hung member is still asked, so each query writes every frame
    // of a whole one; one suspect request per query is not waited for.
    let five = Costs {
        skips: 5,
        frames_sent: 5 * whole.frames_sent,
        ..whole
    };
    assert_eq!(
        Costs::settled(of(entry)).since(before),
        five,
        "five queries"
    );

    signal(of(victim), "-CONT");
    let back = (0..2).any(|_| timed_query(of(entry), &residues).0 == healthy);
    assert!(back, "node {victim} answers again within two queries");
}

/// Monitoring does not wait behind a query: while the entry point waits
/// out a hung member's deadline, its `/healthz` answers at once.
#[test]
fn healthz_answers_while_a_query_waits_on_a_hung_member() {
    let Some((procs, twin, _)) = replicated_cluster() else {
        return;
    };
    let topo = twin.topology();
    let group = topo.group_ids().next().expect("a group");
    let (entry, victim) = (topo.group_members(group)[0], topo.group_members(group)[1]);
    let of = |node: NodeId| procs.iter().find(|p| p.node == node.0).expect("process");
    let residues = twin.db().get(SeqId(0)).expect("corpus seq").to_ascii();
    let entry = of(entry);
    whole_answer(entry, &residues);

    signal(of(victim), "-STOP");
    std::thread::scope(|s| {
        let query = s.spawn(|| {
            let (_, took) = timed_query(entry, &residues);
            (took, Instant::now())
        });
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        let (status, _) = http_request(entry.http, "GET", "/healthz", b"").expect("healthz");
        let (answered, took) = (Instant::now(), started.elapsed());
        assert_eq!(status, 200);
        let (waited, done) = query.join().expect("query thread");
        assert!(
            waited >= Duration::from_millis(500),
            "the member deadline was waited out: {waited:?}"
        );
        assert!(answered < done, "healthz answered after the query");
        assert!(took < Duration::from_millis(200), "healthz took {took:?}");
    });
}

/// A dead member — SIGKILLed: its port refuses — costs each send to it
/// one refused dial and no wait: after the first query, no survivor
/// counts a reconnect, and the entry point's dead letters grow by one per
/// query.
#[test]
fn dead_member_costs_one_refused_dial_per_send() {
    let Some((mut procs, twin, _)) = replicated_cluster() else {
        return;
    };
    let topo = twin.topology();
    let group = topo.group_ids().next().expect("a group");
    let (entry, victim) = (topo.group_members(group)[0], topo.group_members(group)[1]);
    let record = twin.db().get(SeqId(0)).expect("corpus seq").clone();
    let residues = record.to_ascii();
    let at = |node: NodeId| {
        procs
            .iter()
            .position(|p| p.node == node.0)
            .expect("process")
    };
    let (entry, victim) = (at(entry), at(victim));
    let survivors: Vec<usize> = (0..procs.len()).filter(|&i| i != victim).collect();
    let costs = |procs: &[Proc]| -> Vec<Costs> {
        survivors
            .iter()
            .map(|&i| Costs::settled(&procs[i]))
            .collect()
    };
    let healthy = whole_answer(&procs[entry], &residues);
    // What one whole query costs each survivor.
    let before = costs(&procs);
    let (answer, took) = timed_query(&procs[entry], &residues);
    assert_eq!(answer, healthy);
    let bound = unwaited_bound(took);
    let whole: Vec<Costs> = (costs(&procs).into_iter().zip(&before))
        .map(|(now, was)| now.since(*was))
        .collect();

    procs[victim].child.kill().expect("SIGKILL victim");
    let _ = procs[victim].child.wait();
    let (first, _) = timed_query(&procs[entry], &residues);

    let before = costs(&procs);
    for i in 0..5 {
        let (next, took) = timed_query(&procs[entry], &residues);
        assert!(took < bound, "query {i} took {took:?}, over {bound:?}");
        assert_eq!(next, first, "query {i}");
    }
    let after = costs(&procs);
    for (i, &p) in survivors.iter().enumerate() {
        // The entry point's send to the dead member is a dead letter in
        // place of a frame; it redials nothing, and there is nothing to
        // wait for or skip. The other survivor works as in a whole query.
        let lost = i64::from(p == entry);
        let five = Costs {
            skips: 5 * whole[i].skips,
            dead_letters: 5 * lost,
            reconnects: 0,
            frames_sent: 5 * (whole[i].frames_sent - lost),
        };
        let node = procs[p].node;
        assert_eq!(after[i].since(before[i]), five, "node {node}");
    }
}

/// A process ingests once, and a second `/ingest` waits behind no query:
/// while the entry point waits out a hung member's deadline, a second
/// `/ingest` to it answers 409 and its `/healthz` 200, both before the
/// query returns, and the query still answers as the `fail_node` twin.
#[test]
fn second_ingest_is_refused_without_waiting_for_a_query() {
    let Some((procs, twin, fasta)) = replicated_cluster() else {
        return;
    };
    let topo = twin.topology();
    let group = topo.group_ids().next().expect("a group");
    let (entry, victim) = (topo.group_members(group)[0], topo.group_members(group)[1]);
    let of = |node: NodeId| procs.iter().find(|p| p.node == node.0).expect("process");
    let record = twin.db().get(SeqId(0)).expect("corpus seq").clone();
    let residues = record.to_ascii();
    whole_answer(of(entry), &residues);
    twin.fail_node(victim).expect("fail victim");
    let report = twin
        .query(&record.residues, &QueryParams::protein())
        .expect("twin");
    let want = render_outcome_json(&twin.db(), &report.hits, &twin.coverage(), &[victim]);

    signal(of(victim), "-STOP");
    let entry = of(entry);
    std::thread::scope(|s| {
        let query = s.spawn(|| {
            let (body, _) = timed_query(entry, &residues);
            (body, Instant::now())
        });
        // The query waits out the member deadline (1 s) from here on.
        std::thread::sleep(Duration::from_millis(100));
        let (ingest, body) =
            http_request(entry.http, "POST", "/ingest", fasta.as_bytes()).expect("ingest");
        let ingested = Instant::now();
        let (health, _) = http_request(entry.http, "GET", "/healthz", b"").expect("healthz");
        let healthy = Instant::now();
        let (answer, done) = query.join().expect("query thread");
        assert!(
            ingested < done,
            "the second /ingest answered after the query"
        );
        assert!(healthy < done, "healthz answered after the query");
        let body = String::from_utf8_lossy(&body);
        assert_eq!(ingest, 409, "a second /ingest is refused: {body}");
        assert_eq!(health, 200);
        assert_eq!(answer, want, "degraded answer matches the fail_node twin");
    });
}

/// `serve` argument errors are reported without touching the network.
#[test]
fn serve_arg_errors_are_reported() {
    let toks: Vec<String> = ["serve", "--node", "0"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let err = mendel_cli::run(&toks).unwrap_err();
    assert!(err.to_string().contains("listen"), "{err}");

    let toks: Vec<String> = ["serve", "--listen", "not-an-addr", "--http", "127.0.0.1:0"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let err = mendel_cli::run(&toks).unwrap_err();
    assert!(err.to_string().contains("listen"), "{err}");

    // A node outside the topology is refused before any socket is
    // bound: neither wrapped into u16 nor past `nodes`.
    for (node, nodes) in [("65536", "3"), ("7", "3"), ("3", "3")] {
        let toks: Vec<String> = ["serve", "--node", node, "--nodes", nodes]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = mendel_cli::run(&toks).unwrap_err();
        let want = format!("--node \"{node}\"");
        assert!(err.to_string().contains(&want), "{err}");
    }

    // A misspelt key is refused, not left at its default, and so is
    // `--db`: `/ingest` is the one road to a serving node. So are a zero
    // deadline, which would make every peer a suspect, and a zero trace
    // sample, which used to be read as 1.
    for (args, want) in [
        ("serve --node 7 --nodes 3 --grups 2", "--grups"),
        (
            "serve --listen 127.0.0.1:0 --http 127.0.0.1:0 --db x",
            "--db",
        ),
        (
            "serve --listen 127.0.0.1:0 --http 127.0.0.1:0 --rpc-timeout-ms 0",
            "--rpc-timeout-ms \"0\"",
        ),
        (
            "serve --listen 127.0.0.1:0 --http 127.0.0.1:0 --trace-sample 0",
            "--trace-sample \"0\"",
        ),
    ] {
        let toks: Vec<String> = args.split_whitespace().map(String::from).collect();
        let err = mendel_cli::run(&toks).unwrap_err();
        assert!(err.to_string().contains(want), "{args}: {err}");
    }
}

/// `mendel query` indexes `--db` itself, into the cluster `mendel serve`
/// builds from the same flags: the executable, run on a generated corpus
/// at three groups with queries 30 % substituted away from their sources
/// (so which groups a query reaches matters), prints the hits an
/// in-process build of serve's preset at that shape answers, for protein
/// and for DNA.
#[test]
fn query_executable_matches_an_in_process_build() {
    let dir = std::env::temp_dir().join(format!("mendel-query-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let a = dir.join("a.fa").to_string_lossy().into_owned();
    let q = dir.join("q.fa").to_string_lossy().into_owned();
    let mendel = |args: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_mendel"))
            .args(args.split_whitespace())
            .output()
            .expect("run mendel");
        assert!(out.status.success(), "{args}: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8 output")
    };
    for (alphabet, flag) in [(Alphabet::Protein, ""), (Alphabet::Dna, "--dna")] {
        mendel(&format!(
            "generate --out {a} --families 12 --members 3 --min-len 200 --max-len 400 --seed 1 {flag}"
        ));
        let fasta = std::fs::read_to_string(&a).expect("read corpus");
        let mut store = SeqStore::new();
        for s in parse_fasta_sequences(&fasta, alphabet).expect("parse corpus") {
            store.insert(s);
        }
        let db = Arc::new(store);
        let queries = QuerySetSpec {
            count: 24,
            length: 150,
            identity: 0.7,
            seed: 0x51,
        }
        .generate(&db)
        .expect("queries");
        std::fs::write(&q, write_fasta(queries.iter().map(|r| &r.query), 60)).expect("write");
        let printed = mendel(&format!(
            "query --db {a} --query {q} --nodes 3 --groups 3 --top 1000 {flag}"
        ));

        let (preset, params) = match alphabet {
            Alphabet::Protein => (ClusterConfig::small_protein(), QueryParams::protein()),
            Alphabet::Dna => (ClusterConfig::small_dna(), QueryParams::dna()),
        };
        let config = ClusterConfig {
            nodes: 3,
            groups: 3,
            ..preset
        };
        let cluster = MendelCluster::build(config, db.clone()).expect("build");
        // Every line but the per-query header's simulated turnaround.
        let mut want = String::new();
        for q in queries.iter().map(|r| &r.query) {
            let report = cluster.query(&q.residues, &params).expect("query");
            want += &format!(
                "query {} ({} residues): {} hits\n",
                q.name,
                q.len(),
                report.hits.len()
            );
            for hit in &report.hits {
                let name = &db.get(hit.subject).expect("subject").name;
                want += &format!(
                    "  {name:<20} score {:>6}  bits {:>8.1}  E {:>10.2e}  id {:>5.1}%  q[{}..{}] s[{}..{}]\n",
                    hit.score,
                    hit.bits,
                    hit.evalue,
                    hit.identity * 100.0,
                    hit.query_start,
                    hit.query_end,
                    hit.subject_start,
                    hit.subject_end
                );
            }
        }
        let got: String = printed
            .lines()
            .map(|l| match l.split_once(", simulated turnaround") {
                Some((head, _)) => format!("{head}\n"),
                None => format!("{l}\n"),
            })
            .collect();
        assert!(want.contains("hits\n  "), "{alphabet:?}: no hits at all");
        assert_eq!(got, want, "{alphabet:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
