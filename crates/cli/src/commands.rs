//! Command implementations. Every command is a function from parsed
//! [`Args`] to a rendered `String` (so tests assert on output without a
//! subprocess); `run` dispatches and does the file I/O.

use crate::args::{ArgError, Args};
use bytes::Bytes;
use mendel::{
    snapshot, store, ClusterConfig, MendelCluster, MendelError, MetricKind, QueryParams,
    StorageBackend,
};
use mendel_net::LatencyModel;
use mendel_seq::gen::{MutationModel, NrLikeSpec};
use mendel_seq::{parse_fasta_sequences, write_fasta, Alphabet, SeqError, SeqStore};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Top-level CLI failures.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing/validation failed.
    Args(ArgError),
    /// The subcommand does not exist.
    UnknownCommand(String),
    /// File I/O failed.
    Io(String, std::io::Error),
    /// A sequence-layer failure.
    Seq(SeqError),
    /// A framework failure.
    Mendel(MendelError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => write!(f, "unknown command {c:?}; try `mendel help`"),
            CliError::Io(path, e) => write!(f, "{path}: {e}"),
            CliError::Seq(e) => write!(f, "{e}"),
            CliError::Mendel(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<SeqError> for CliError {
    fn from(e: SeqError) -> Self {
        CliError::Seq(e)
    }
}

impl From<MendelError> for CliError {
    fn from(e: MendelError) -> Self {
        CliError::Mendel(e)
    }
}

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Io(path.into(), e))
}

fn write_file(path: &str, contents: &[u8]) -> Result<(), CliError> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| CliError::Io(path.into(), e))?;
        }
    }
    std::fs::write(path, contents).map_err(|e| CliError::Io(path.into(), e))
}

fn alphabet_of(args: &Args) -> Alphabet {
    if args.flag("dna") {
        Alphabet::Dna
    } else {
        Alphabet::Protein
    }
}

fn load_db(path: &str, alphabet: Alphabet) -> Result<Arc<SeqStore>, CliError> {
    let text = read(path)?;
    let mut store = SeqStore::new();
    for s in parse_fasta_sequences(&text, alphabet)? {
        store.insert(s);
    }
    Ok(Arc::new(store))
}

fn cluster_config(args: &Args, alphabet: Alphabet) -> Result<ClusterConfig, CliError> {
    let base = if alphabet == Alphabet::Dna {
        ClusterConfig {
            alphabet: Alphabet::Dna,
            metric: MetricKind::Hamming,
            ..ClusterConfig::paper_testbed_protein()
        }
    } else {
        ClusterConfig::paper_testbed_protein()
    };
    Ok(ClusterConfig {
        nodes: args.get_parsed("nodes", base.nodes, "integer")?,
        groups: args.get_parsed("groups", base.groups, "integer")?,
        block_len: args.get_parsed("block-len", base.block_len, "integer")?,
        replication: args.get_parsed("replication", base.replication, "integer")?,
        seed: args.get_parsed("seed", base.seed, "integer")?,
        ..base
    })
}

fn query_params(args: &Args, alphabet: Alphabet) -> Result<QueryParams, CliError> {
    let base = if alphabet == Alphabet::Dna {
        QueryParams::dna()
    } else {
        QueryParams::protein()
    };
    Ok(QueryParams {
        k: args.get_parsed("step", base.k, "integer")?,
        n: args.get_parsed("nn", base.n, "integer")?,
        i: args.get_parsed("identity", base.i, "number")?,
        c: args.get_parsed("cscore", base.c, "number")?,
        l: args.get_parsed("band", base.l, "integer")?,
        e: args.get_parsed("evalue", base.e, "number")?,
        ..base
    })
}

/// `mendel generate` — write a synthetic `nr`-like FASTA database.
pub fn cmd_generate(args: &Args) -> Result<String, CliError> {
    let alphabet = alphabet_of(args);
    let spec = NrLikeSpec {
        alphabet,
        families: args.get_parsed("families", 64, "integer")?,
        members_per_family: args.get_parsed("members", 4, "integer")?,
        length_range: (
            args.get_parsed("min-len", 200, "integer")?,
            args.get_parsed("max-len", 600, "integer")?,
        ),
        family_divergence: MutationModel::with_indels(
            args.get_parsed("divergence", 0.10, "number")?,
            0.01,
        ),
        seed: args.get_parsed("seed", 0x4d454e44, "integer")?,
    };
    let db = spec.generate()?;
    let fasta = write_fasta(db.iter(), 70);
    let out = args.require("out")?;
    write_file(out, fasta.as_bytes())?;
    Ok(format!(
        "wrote {} sequences / {} residues to {out}\n",
        db.len(),
        db.total_residues()
    ))
}

/// `mendel index` — index a FASTA database into a snapshot file.
pub fn cmd_index(args: &Args) -> Result<String, CliError> {
    let alphabet = alphabet_of(args);
    let db = load_db(args.require("db")?, alphabet)?;
    let config = cluster_config(args, alphabet)?;
    let cluster = MendelCluster::build(config, db)?;
    let bytes = snapshot::save(&cluster)?;
    let out = args.require("out")?;
    write_file(out, &bytes)?;
    Ok(format!(
        "indexed {} blocks over {} nodes / {} groups in {:?}; snapshot {} KiB -> {out}\n",
        cluster.total_blocks(),
        cluster.config().nodes,
        cluster.config().groups,
        cluster.index_elapsed(),
        bytes.len() / 1024
    ))
}

/// Restore a cluster from `--index`/`--db`, inferring the alphabet.
/// The db must be encoded with the snapshot's alphabet, so try protein
/// first, then DNA.
fn restore_cluster(args: &Args) -> Result<(MendelCluster, Alphabet), CliError> {
    let index_path = args.require("index")?;
    let raw = std::fs::read(index_path).map_err(|e| CliError::Io(index_path.into(), e))?;
    let try_restore = |alpha: Alphabet| -> Result<MendelCluster, CliError> {
        let db = load_db(args.require("db")?, alpha)?;
        snapshot::restore(&Bytes::from(raw.clone()), db, LatencyModel::lan())
            .map_err(CliError::from)
    };
    match try_restore(Alphabet::Protein) {
        Ok(c) if c.config().alphabet == Alphabet::Protein => Ok((c, Alphabet::Protein)),
        _ => Ok((try_restore(Alphabet::Dna)?, Alphabet::Dna)),
    }
}

/// `mendel query` — run FASTA queries against a snapshot.
pub fn cmd_query(args: &Args) -> Result<String, CliError> {
    let (cluster, alphabet) = restore_cluster(args)?;
    let params = query_params(args, alphabet)?;
    let top = args.get_parsed("top", 5usize, "integer")?;
    let queries = parse_fasta_sequences(&read(args.require("query")?)?, alphabet)?;
    let mut out = String::new();
    for q in &queries {
        let report = cluster.query(&q.residues, &params)?;
        let _ = writeln!(
            out,
            "query {} ({} residues): {} hits, simulated turnaround {:?}",
            q.name,
            q.len(),
            report.hits.len(),
            report.turnaround()
        );
        for hit in report.hits.iter().take(top) {
            let name = cluster
                .db()
                .get(hit.subject)
                .map(|s| s.name.clone())
                .unwrap_or_else(|| hit.subject.to_string());
            let _ = writeln!(
                out,
                "  {name:<20} score {:>6}  bits {:>8.1}  E {:>10.2e}  id {:>5.1}%  q[{}..{}] s[{}..{}]",
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
    Ok(out)
}

/// `mendel blast` — run the BLAST baseline over a FASTA database.
pub fn cmd_blast(args: &Args) -> Result<String, CliError> {
    use mendel_blast::{Blast, BlastParams};
    let alphabet = alphabet_of(args);
    let db = load_db(args.require("db")?, alphabet)?;
    let mut params = if alphabet == Alphabet::Dna {
        BlastParams::dna()
    } else {
        BlastParams::protein()
    };
    params.evalue_cutoff = args.get_parsed("evalue", params.evalue_cutoff, "number")?;
    let blast = Blast::new(db.clone(), params);
    let top = args.get_parsed("top", 5usize, "integer")?;
    let queries = parse_fasta_sequences(&read(args.require("query")?)?, alphabet)?;
    let mut out = String::new();
    for q in &queries {
        let hits = blast.search(&q.residues);
        let _ = writeln!(
            out,
            "query {} ({} residues): {} hits",
            q.name,
            q.len(),
            hits.len()
        );
        for hit in hits.iter().take(top) {
            let name = db
                .get(hit.subject)
                .map(|s| s.name.clone())
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "  {name:<20} score {:>6}  bits {:>8.1}  E {:>10.2e}  id {:>5.1}%",
                hit.score,
                hit.bits,
                hit.evalue,
                hit.identity * 100.0
            );
        }
    }
    Ok(out)
}

/// `mendel info` — describe a snapshot.
pub fn cmd_info(args: &Args) -> Result<String, CliError> {
    let index_path = args.require("index")?;
    let raw = std::fs::read(index_path).map_err(|e| CliError::Io(index_path.into(), e))?;
    let db = load_db(args.require("db")?, Alphabet::Protein)
        .or_else(|_| load_db(args.require("db")?, Alphabet::Dna))?;
    let cluster = snapshot::restore(&Bytes::from(raw), db, LatencyModel::lan())?;
    let cfg = cluster.config();
    let report = cluster.load_report();
    Ok(format!(
        "snapshot: {:?} cluster, {} nodes / {} groups, block length {}, replication {}\n\
         blocks: {} ({} bytes payload), load spread {:.3} pp\n",
        cfg.alphabet,
        cfg.nodes,
        cfg.groups,
        cfg.block_len,
        cfg.replication,
        cluster.total_blocks(),
        report.total(),
        report.spread_pct()
    ))
}

/// `mendel metrics` — exercise a snapshot and dump its metric registry.
///
/// With `--query` the given FASTA queries run first so search counters
/// and stage histograms are populated; without it the dump reflects
/// only restore-time state. `--format prometheus` (default) emits the
/// text exposition; `--format json` the JSON one (DESIGN.md §11).
pub fn cmd_metrics(args: &Args) -> Result<String, CliError> {
    let (cluster, alphabet) = restore_cluster(args)?;
    if let Some(query_path) = args.get("query") {
        let params = query_params(args, alphabet)?;
        for q in parse_fasta_sequences(&read(query_path)?, alphabet)? {
            cluster.query(&q.residues, &params)?;
        }
    }
    let snap = cluster.metrics_snapshot();
    match args.get("format").unwrap_or("prometheus") {
        "prometheus" | "prom" | "text" => Ok(snap.to_prometheus()),
        "json" => Ok(snap.to_json()),
        other => Err(CliError::Args(ArgError::BadValue {
            key: "format".into(),
            value: other.into(),
            expected: "prometheus|json",
        })),
    }
}

/// `mendel durability` — kill-and-recover chaos demo for the durable
/// storage backend (DESIGN.md §14).
///
/// Builds a cluster whose nodes persist every placed block through the
/// `mendel-store` WAL engine on an in-memory fault-injectable disk,
/// records baseline answers for a handful of self-queries, then kills
/// and recovers **every node in turn** — a kill drops the node's RAM
/// and store handle; a recover replays its WAL and verifies its segment
/// checksums. The command fails loudly if any post-recovery answer
/// differs from the baseline; otherwise it reports the engine counters
/// (`mendel.store.*`) and recovery timings.
pub fn cmd_durability(args: &Args) -> Result<String, CliError> {
    let alphabet = alphabet_of(args);
    let spec = NrLikeSpec {
        alphabet,
        families: args.get_parsed("families", 24, "integer")?,
        members_per_family: args.get_parsed("members", 2, "integer")?,
        length_range: (120, 260),
        seed: args.get_parsed("seed", 0x4d45_4e44, "integer")?,
        ..Default::default()
    };
    let db = Arc::new(spec.generate()?);
    let fsync = match args.get("fsync").unwrap_or("always") {
        "always" => store::FsyncPolicy::Always,
        "group" => store::FsyncPolicy::EveryN(8),
        "flush" => store::FsyncPolicy::OnFlush,
        other => {
            return Err(CliError::Args(ArgError::BadValue {
                key: "fsync".into(),
                value: other.into(),
                expected: "always|group|flush",
            }))
        }
    };
    let base = if alphabet == Alphabet::Dna {
        ClusterConfig::small_dna()
    } else {
        ClusterConfig::small_protein()
    };
    let config = ClusterConfig {
        nodes: args.get_parsed("nodes", base.nodes, "integer")?,
        groups: args.get_parsed("groups", base.groups, "integer")?,
        storage: StorageBackend::Durable(store::StoreOptions {
            fsync,
            memtable_max_entries: args.get_parsed("memtable", 1024, "integer")?,
        }),
        ..base
    };
    let cluster = MendelCluster::build(config, db.clone())?;
    let params = if alphabet == Alphabet::Dna {
        QueryParams::dna()
    } else {
        QueryParams::protein()
    };
    let queries: Vec<Vec<u8>> = (0..db.len())
        .step_by((db.len() / 5).max(1))
        .filter_map(|i| db.get(mendel_seq::SeqId(i as u32)))
        .map(|s| s.residues.clone())
        .collect();
    let baseline: Vec<_> = queries
        .iter()
        .map(|q| cluster.query(q, &params).map(|r| r.hits))
        .collect::<Result<_, _>>()?;

    let topo = cluster.topology();
    let nodes: Vec<_> = topo.nodes().collect();
    for &n in &nodes {
        cluster.fail_node(n)?;
        cluster.recover_node(n)?;
    }
    for (q, want) in queries.iter().zip(&baseline) {
        let got = cluster.query(q, &params)?.hits;
        if &got != want {
            return Err(CliError::Mendel(MendelError::Store(
                "post-recovery answers diverged from the baseline".into(),
            )));
        }
    }

    let snap = cluster.metrics_snapshot();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "durable backend: {} nodes / {} groups, fsync {:?}, {} sequences / {} residues",
        nodes.len(),
        cluster.config().groups,
        fsync,
        db.len(),
        db.total_residues(),
    );
    let _ = writeln!(
        out,
        "chaos: killed and recovered {} nodes; {} self-queries bit-identical",
        nodes.len(),
        queries.len(),
    );
    for c in [
        "wal_appends",
        "wal_fsyncs",
        "replayed_records",
        "segment_flushes",
        "segment_reads",
        "bloom_negatives",
        "dedup_hits",
        "recoveries",
    ] {
        let _ = writeln!(
            out,
            "  mendel.store.{c:<18} {}",
            snap.counter(&format!("mendel.store.{c}"))
        );
    }
    if let Some(h) = snap.histogram("mendel.store.recovery.seconds") {
        if let Some(mean) = h.mean() {
            let _ = writeln!(
                out,
                "  recovery time          mean {:.2} ms over {} recoveries",
                mean * 1e3,
                h.count(),
            );
        }
    }
    Ok(out)
}

/// Parse `host:port` for the live-node HTTP commands.
fn http_addr(key: &str, raw: &str) -> Result<std::net::SocketAddr, CliError> {
    raw.parse().map_err(|_| {
        CliError::Args(ArgError::BadValue {
            key: key.into(),
            value: raw.into(),
            expected: "host:port",
        })
    })
}

/// One-shot GET against a live node's HTTP front-end; non-200 is an
/// error carrying the node's own message.
fn http_get(addr: std::net::SocketAddr, path: &str) -> Result<String, CliError> {
    let (status, body) = crate::http::http_request(addr, "GET", path, b"")
        .map_err(|e| CliError::Io(format!("http://{addr}{path}"), e))?;
    let body = String::from_utf8_lossy(&body).into_owned();
    if status != 200 {
        return Err(CliError::Mendel(MendelError::Query(format!(
            "GET {path} returned {status}: {}",
            body.trim()
        ))));
    }
    Ok(body)
}

/// Pull the trace ids a live node knows about (`/debug/traces` returns
/// `{"traces":[1,2,...]}` — parsed by hand, the workspace has no JSON
/// parser).
fn remote_trace_ids(addr: std::net::SocketAddr) -> Result<Vec<u64>, CliError> {
    let body = http_get(addr, "/debug/traces")?;
    let inner = body
        .split_once('[')
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(ids, _)| ids)
        .unwrap_or("");
    Ok(inner
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect())
}

/// `mendel trace dump --addr <host:port>` — pull a stitched trace from
/// a live node over HTTP instead of replaying queries locally. Without
/// `--trace <id>` the most recent trace is dumped.
fn trace_dump_remote(args: &Args, addr_raw: &str) -> Result<String, CliError> {
    let addr = http_addr("addr", addr_raw)?;
    let format = match args.get("format").unwrap_or("chrome") {
        "chrome" | "json" => "chrome",
        "tree" | "text" => "tree",
        "records" => "records",
        "path" => "path",
        other => {
            return Err(CliError::Args(ArgError::BadValue {
                key: "format".into(),
                value: other.into(),
                expected: "chrome|tree|records|path",
            }))
        }
    };
    let id: u64 = match args.get("trace") {
        Some(raw) => raw.parse().map_err(|_| {
            CliError::Args(ArgError::BadValue {
                key: "trace".into(),
                value: raw.into(),
                expected: "decimal trace id",
            })
        })?,
        None => *remote_trace_ids(addr)?.last().ok_or_else(|| {
            CliError::Mendel(MendelError::Query(format!(
                "node at {addr} has no recorded traces (is tracing enabled?)"
            )))
        })?,
    };
    let artifact = http_get(addr, &format!("/trace/{id}?format={format}&scope=cluster"))?;
    match args.get("out") {
        Some(path) => {
            write_file(path, artifact.as_bytes())?;
            Ok(format!(
                "trace {id}: wrote {} bytes to {path}\n",
                artifact.len()
            ))
        }
        None => Ok(artifact),
    }
}

/// `mendel trace slowlog --addr <host:port>` — dump a live node's
/// structured slow-query log (ring-buffered JSON; DESIGN.md §17).
pub fn cmd_trace_slowlog(args: &Args) -> Result<String, CliError> {
    let addr = http_addr("addr", args.require("addr")?)?;
    let mut body = http_get(addr, "/debug/slowlog")?;
    if !body.ends_with('\n') {
        body.push('\n');
    }
    Ok(body)
}

/// `mendel trace dump` — run queries with causal tracing on and dump
/// the per-node flight recorders (DESIGN.md §12).
///
/// `--format chrome` (default) emits Chrome trace-event JSON — load it
/// at ui.perfetto.dev or chrome://tracing; `--format tree` renders each
/// query's trace tree plus its critical path as plain text. With
/// `--out <path>` the artifact goes to a file and a one-line summary is
/// printed instead. With `--addr <host:port>` the trace is pulled from
/// a live node instead (no local replay; see DESIGN.md §17).
pub fn cmd_trace_dump(args: &Args) -> Result<String, CliError> {
    if let Some(addr) = args.get("addr") {
        return trace_dump_remote(args, addr);
    }
    let (cluster, alphabet) = restore_cluster(args)?;
    cluster.set_tracing(true);
    let params = query_params(args, alphabet)?;
    let queries = parse_fasta_sequences(&read(args.require("query")?)?, alphabet)?;
    let mut traced = Vec::new();
    for q in &queries {
        let report = cluster.query(&q.residues, &params)?;
        traced.push((q.name.clone(), report));
    }
    let artifact = match args.get("format").unwrap_or("chrome") {
        "chrome" | "json" => cluster.chrome_trace(),
        "tree" | "text" => {
            let mut out = String::new();
            for (name, report) in &traced {
                if let Some(tree) = report.trace.and_then(|t| cluster.trace_tree(t)) {
                    let _ = writeln!(out, "query {name}:");
                    out.push_str(&tree.render());
                    out.push_str("critical path:");
                    for hop in &report.critical_path {
                        let _ = write!(out, " {} [node{}] {:?};", hop.name, hop.node, hop.duration);
                    }
                    out.push('\n');
                }
            }
            out
        }
        other => {
            return Err(CliError::Args(ArgError::BadValue {
                key: "format".into(),
                value: other.into(),
                expected: "chrome|tree",
            }))
        }
    };
    match args.get("out") {
        Some(path) => {
            write_file(path, artifact.as_bytes())?;
            Ok(format!(
                "traced {} queries; wrote {} bytes to {path}\n",
                traced.len(),
                artifact.len()
            ))
        }
        None => Ok(artifact),
    }
}

/// `mendel bench qps` — the in-process quick check of the one query
/// pipeline (DESIGN.md "The query pipeline"): the query set runs once a
/// query at a time (batches of one; per-query latency percentiles) and
/// once in batches of `--batch` (default 32), then the work-stealing
/// scheduler's counters are reported. Per-query hits are asserted
/// identical between the two batch sizes. Served-path numbers come from
/// `benchmark/`, not from here.
pub fn cmd_bench_qps(args: &Args) -> Result<String, CliError> {
    let (cluster, alphabet) = restore_cluster(args)?;
    let params = query_params(args, alphabet)?;
    let batch: usize = args.get_parsed("batch", 32, "positive integer")?;
    if batch == 0 {
        return Err(CliError::Args(ArgError::BadValue {
            key: "batch".into(),
            value: "0".into(),
            expected: "positive integer",
        }));
    }
    let queries: Vec<Vec<u8>> = parse_fasta_sequences(&read(args.require("query")?)?, alphabet)?
        .into_iter()
        .map(|q| q.residues)
        .collect();

    // Sequential sweep with per-query wall latencies.
    let mut lats = Vec::with_capacity(queries.len());
    let mut seq_hits = Vec::with_capacity(queries.len());
    let wall = std::time::Instant::now();
    for q in &queries {
        let t = std::time::Instant::now();
        let r = cluster.query(q, &params)?;
        lats.push(t.elapsed());
        seq_hits.push(r.hits);
    }
    let seq_wall = wall.elapsed();

    // Batched sweep at the requested batch size.
    let mut batch_hits = Vec::with_capacity(queries.len());
    let mut shed = 0usize;
    let wall = std::time::Instant::now();
    for chunk in queries.chunks(batch) {
        for r in cluster.query_batch(chunk, &params) {
            match r {
                Ok(rep) => batch_hits.push(Some(rep.hits)),
                Err(MendelError::Shed { .. }) => {
                    shed += 1;
                    batch_hits.push(None);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
    let batch_wall = wall.elapsed();
    for (s, b) in seq_hits.iter().zip(&batch_hits) {
        if let Some(b) = b {
            if s != b {
                return Err(CliError::Mendel(MendelError::Query(
                    "batched hits diverged from sequential".into(),
                )));
            }
        }
    }

    lats.sort_unstable();
    let pct = |p: f64| -> f64 {
        let idx = ((p / 100.0) * (lats.len().saturating_sub(1)) as f64).round() as usize;
        lats.get(idx).map_or(0.0, |d| d.as_secs_f64() * 1e3)
    };
    let seq_qps = queries.len() as f64 / seq_wall.as_secs_f64().max(1e-12);
    let served = batch_hits.iter().filter(|h| h.is_some()).count();
    let batch_qps = served as f64 / batch_wall.as_secs_f64().max(1e-12);
    let snap = cluster.metrics_snapshot();

    let mut out = String::new();
    let _ = writeln!(out, "qps bench: {} queries, batch {batch}", queries.len());
    let _ = writeln!(
        out,
        "  sequential {seq_qps:8.2} qps   p50 {:.2} ms   p95 {:.2} ms   p99 {:.2} ms",
        pct(50.0),
        pct(95.0),
        pct(99.0),
    );
    let _ = writeln!(
        out,
        "  batched    {batch_qps:8.2} qps   speedup {:.2}x   ({served} served, {shed} shed)",
        batch_qps / seq_qps.max(1e-12),
    );
    let _ = writeln!(
        out,
        "  scheduler: submitted {} completed {} steals {} shed {}",
        snap.counter("mendel.sched.submitted"),
        snap.counter("mendel.sched.completed"),
        snap.counter("mendel.sched.steals"),
        snap.counter("mendel.sched.shed"),
    );
    Ok(out)
}

/// One Prometheus text sample: metric name, labels, value.
type PromSample = (String, Vec<(String, String)>, f64);

/// Minimal Prometheus text parser for `mendel top` (the workspace has
/// no metrics client): `name{k="v",...} value` lines; comments and
/// anything unparsable are skipped.
fn parse_prom_samples(text: &str) -> Vec<PromSample> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((head, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (name, labels) = match head.split_once('{') {
            None => (head.to_string(), Vec::new()),
            Some((name, rest)) => {
                let rest = rest.strip_suffix('}').unwrap_or(rest);
                let labels = rest
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .filter_map(|pair| {
                        let (k, v) = pair.split_once('=')?;
                        Some((k.to_string(), v.trim_matches('"').to_string()))
                    })
                    .collect();
                (name.to_string(), labels)
            }
        };
        out.push((name, labels, value));
    }
    out
}

fn prom_label<'a>(labels: &'a [(String, String)], key: &str) -> Option<&'a str> {
    labels
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Sum a metric across every node label.
fn sum_samples(samples: &[PromSample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|(n, _, _)| n == name)
        .map(|(_, _, v)| v)
        .sum()
}

/// Approximate quantile (ms) from `<name>_bucket` lines, cumulative
/// counts merged across nodes (every process shares the same log-spaced
/// boundaries). Returns the smallest bucket bound covering `q`; when
/// the mass sits in the +Inf bucket the largest finite bound is a lower
/// estimate.
fn quantile_ms(samples: &[PromSample], name: &str, q: f64) -> Option<f64> {
    let bucket = format!("{name}_bucket");
    let mut acc: Vec<(f64, f64)> = Vec::new();
    for (n, labels, v) in samples {
        if *n != bucket {
            continue;
        }
        let le = match prom_label(labels, "le") {
            Some("+Inf") => f64::INFINITY,
            Some(s) => match s.parse() {
                Ok(le) => le,
                Err(_) => continue,
            },
            None => continue,
        };
        match acc.iter_mut().find(|(l, _)| *l == le) {
            Some((_, c)) => *c += v,
            None => acc.push((le, *v)),
        }
    }
    acc.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let total = acc.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let target = q * total;
    let hit = acc.iter().find(|(_, c)| *c >= target)?.0;
    if hit.is_finite() {
        return Some(hit * 1e3);
    }
    acc.iter()
        .rev()
        .find(|(le, _)| le.is_finite())
        .map(|(le, _)| le * 1e3)
}

fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.2}GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2}MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1}KB", b / 1e3)
    } else {
        format!("{}B", b as u64)
    }
}

/// `mendel top` — live cluster overview from the federated metrics
/// exposition (`/metrics?scope=cluster`): cluster QPS, turnaround
/// percentiles, shed and degraded-coverage counts, and per-node query
/// and wire-byte totals. Renders one frame per poll, `--iterations`
/// times (default 3), sleeping `--interval-ms` (default 1000) between
/// polls; QPS is the counter delta between consecutive frames.
pub fn cmd_top(args: &Args) -> Result<String, CliError> {
    let addr = http_addr("addr", args.require("addr")?)?;
    let iterations: usize = args.get_parsed("iterations", 3, "positive integer")?;
    let interval_ms: u64 = args.get_parsed("interval-ms", 1000, "integer")?;
    let mut out = String::new();
    let mut prev: Option<(std::time::Instant, f64)> = None;
    for i in 0..iterations.max(1) {
        if i > 0 {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
        let text = http_get(addr, "/metrics?scope=cluster")?;
        let now = std::time::Instant::now();
        let samples = parse_prom_samples(&text);
        let total_q = sum_samples(&samples, "mendel_query_count");
        let qps = match prev {
            Some((t0, q0)) => {
                let dt = now.duration_since(t0).as_secs_f64().max(1e-9);
                format!("{:.1}", (total_q - q0).max(0.0) / dt)
            }
            None => "-".to_string(),
        };
        prev = Some((now, total_q));
        let fmt_ms = |v: Option<f64>| v.map_or("-".to_string(), |ms| format!("{ms:.2}ms"));
        let mut nodes: Vec<u64> = samples
            .iter()
            .filter_map(|(_, l, _)| prom_label(l, "node")?.parse().ok())
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        let _ = writeln!(
            out,
            "mendel top @ {addr}  nodes {}  queries {}  qps {qps}  p50 {}  p99 {}  shed {}  degraded {}",
            nodes.len(),
            total_q as u64,
            fmt_ms(quantile_ms(&samples, "mendel_query_turnaround_seconds", 0.50)),
            fmt_ms(quantile_ms(&samples, "mendel_query_turnaround_seconds", 0.99)),
            sum_samples(&samples, "mendel_sched_shed") as u64,
            sum_samples(&samples, "mendel_query_degraded") as u64,
        );
        for n in &nodes {
            let ns = n.to_string();
            let of_node = |name: &str| -> f64 {
                samples
                    .iter()
                    .filter(|(nm, l, _)| nm == name && prom_label(l, "node") == Some(ns.as_str()))
                    .map(|(_, _, v)| v)
                    .sum()
            };
            let _ = writeln!(
                out,
                "  node {n}: queries {}  tx {}  rx {}  dead-letters {}",
                of_node("mendel_query_count") as u64,
                fmt_bytes(of_node("mendel_net_transport_bytes_sent")),
                fmt_bytes(of_node("mendel_net_transport_bytes_received")),
                of_node("mendel_net_transport_dead_letters") as u64,
            );
        }
    }
    Ok(out)
}

/// Dispatch a raw argv (without program name) to its command.
pub fn run(tokens: &[String]) -> Result<String, CliError> {
    // `mendel trace dump` / `mendel bench qps` are two-word subcommands;
    // fold them into one token so the grammar (command, then options)
    // still holds.
    let mut tokens = tokens.to_vec();
    if tokens.first().map(String::as_str) == Some("trace")
        && tokens.get(1).map(String::as_str) == Some("dump")
    {
        tokens.splice(0..2, ["trace-dump".to_string()]);
    }
    if tokens.first().map(String::as_str) == Some("trace")
        && tokens.get(1).map(String::as_str) == Some("slowlog")
    {
        tokens.splice(0..2, ["trace-slowlog".to_string()]);
    }
    if tokens.first().map(String::as_str) == Some("bench")
        && tokens.get(1).map(String::as_str) == Some("qps")
    {
        tokens.splice(0..2, ["bench-qps".to_string()]);
    }
    let args = Args::parse(&tokens)?;
    match args.command.as_str() {
        "generate" => cmd_generate(&args),
        "index" => cmd_index(&args),
        "query" => cmd_query(&args),
        "blast" => cmd_blast(&args),
        "info" => cmd_info(&args),
        "metrics" => cmd_metrics(&args),
        "durability" => cmd_durability(&args),
        "trace-dump" => cmd_trace_dump(&args),
        "trace-slowlog" => cmd_trace_slowlog(&args),
        "bench-qps" => cmd_bench_qps(&args),
        "top" => cmd_top(&args),
        "serve" => crate::serve::cmd_serve(&args),
        "trace" => Err(CliError::UnknownCommand(
            "trace (did you mean `mendel trace dump` or `mendel trace slowlog`?)".into(),
        )),
        "bench" => Err(CliError::UnknownCommand(
            "bench (did you mean `mendel bench qps`?)".into(),
        )),
        "help" | "--help" | "-h" => Ok(crate::USAGE.to_string()),
        other => Err(CliError::UnknownCommand(other.into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("mendel-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&toks("help")).unwrap();
        assert!(out.contains("mendel generate"));
        assert!(out.contains("mendel query"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(matches!(
            run(&toks("frobnicate")),
            Err(CliError::UnknownCommand(_))
        ));
    }

    #[test]
    fn generate_index_query_roundtrip() {
        let fasta = tmp("db.fasta");
        let snap = tmp("db.mendel");
        let qf = tmp("q.fasta");

        let out = run(&toks(&format!(
            "generate --out {fasta} --families 10 --members 2 --min-len 120 --max-len 200 --seed 5"
        )))
        .unwrap();
        assert!(out.contains("20 sequences"), "{out}");

        let out = run(&toks(&format!(
            "index --db {fasta} --out {snap} --nodes 6 --groups 2"
        )))
        .unwrap();
        assert!(out.contains("indexed"), "{out}");

        // Query with the first database sequence itself.
        let text = std::fs::read_to_string(&fasta).unwrap();
        let first_record: String = {
            let mut lines = text.lines();
            let header = lines.next().unwrap().to_string();
            let body: Vec<&str> = lines.take_while(|l| !l.starts_with('>')).collect();
            format!("{header}\n{}\n", body.join("\n"))
        };
        std::fs::write(&qf, first_record).unwrap();
        let out = run(&toks(&format!(
            "query --index {snap} --db {fasta} --query {qf} --top 3"
        )))
        .unwrap();
        assert!(out.contains("fam0_m0"), "self-hit expected:\n{out}");

        let out = run(&toks(&format!("info --index {snap} --db {fasta}"))).unwrap();
        assert!(out.contains("6 nodes"), "{out}");

        // The metrics dump reflects the queries it just ran.
        let out = run(&toks(&format!(
            "metrics --index {snap} --db {fasta} --query {qf}"
        )))
        .unwrap();
        assert!(out.contains("# TYPE mendel_query_count counter"), "{out}");
        assert!(out.contains("mendel_query_count 1"), "{out}");
        assert!(out.contains("mendel_vptree_dist_calls"), "{out}");
        assert!(
            out.contains("mendel_query_turnaround_seconds_count 1"),
            "{out}"
        );

        let out = run(&toks(&format!(
            "metrics --index {snap} --db {fasta} --query {qf} --format json"
        )))
        .unwrap();
        assert!(out.contains("\"mendel.query.count\": 1"), "{out}");

        let err = run(&toks(&format!(
            "metrics --index {snap} --db {fasta} --format xml"
        )))
        .unwrap_err();
        assert!(err.to_string().contains("prometheus|json"), "{err}");
    }

    #[test]
    fn prom_parser_reads_federated_samples() {
        let text = "# TYPE mendel_query_count counter\n\
                    mendel_query_count{node=\"0\"} 3\n\
                    mendel_query_count{node=\"1\"} 5\n\
                    mendel_query_turnaround_seconds_bucket{node=\"0\",le=\"0.001\"} 2\n\
                    mendel_query_turnaround_seconds_bucket{node=\"0\",le=\"+Inf\"} 3\n\
                    mendel_query_turnaround_seconds_bucket{node=\"1\",le=\"0.001\"} 4\n\
                    mendel_query_turnaround_seconds_bucket{node=\"1\",le=\"+Inf\"} 5\n\
                    not a sample\n";
        let samples = parse_prom_samples(text);
        assert_eq!(sum_samples(&samples, "mendel_query_count"), 8.0);
        let s = samples
            .iter()
            .find(|(n, l, _)| n == "mendel_query_count" && prom_label(l, "node") == Some("1"))
            .unwrap();
        assert_eq!(s.2, 5.0);
        // 6/8 of the mass is ≤ 1ms → p50 resolves to the 1ms bound.
        assert_eq!(
            quantile_ms(&samples, "mendel_query_turnaround_seconds", 0.50),
            Some(1.0)
        );
        // p99 spills into +Inf → largest finite bound as lower estimate.
        assert_eq!(
            quantile_ms(&samples, "mendel_query_turnaround_seconds", 0.99),
            Some(1.0)
        );
        assert_eq!(quantile_ms(&samples, "missing_metric", 0.5), None);
    }

    #[test]
    fn fmt_bytes_scales_units() {
        assert_eq!(fmt_bytes(512.0), "512B");
        assert_eq!(fmt_bytes(2_048.0), "2.0KB");
        assert_eq!(fmt_bytes(3_500_000.0), "3.50MB");
        assert_eq!(fmt_bytes(7_250_000_000.0), "7.25GB");
    }

    #[test]
    fn top_and_slowlog_require_addr() {
        let err = run(&toks("top")).unwrap_err();
        assert!(err.to_string().contains("addr"), "{err}");
        let err = run(&toks("trace slowlog")).unwrap_err();
        assert!(err.to_string().contains("addr"), "{err}");
    }

    #[test]
    fn trace_dump_emits_chrome_and_tree_formats() {
        let fasta = tmp("tdb.fasta");
        let snap = tmp("tdb.mendel");
        let qf = tmp("tq.fasta");
        run(&toks(&format!(
            "generate --out {fasta} --families 8 --members 2 --min-len 120 --max-len 180 --seed 11"
        )))
        .unwrap();
        run(&toks(&format!(
            "index --db {fasta} --out {snap} --nodes 6 --groups 2"
        )))
        .unwrap();
        let text = std::fs::read_to_string(&fasta).unwrap();
        let first_record: String = {
            let mut lines = text.lines();
            let header = lines.next().unwrap().to_string();
            let body: Vec<&str> = lines.take_while(|l| !l.starts_with('>')).collect();
            format!("{header}\n{}\n", body.join("\n"))
        };
        std::fs::write(&qf, first_record).unwrap();

        // Default format is chrome trace-event JSON.
        let out = run(&toks(&format!(
            "trace dump --index {snap} --db {fasta} --query {qf}"
        )))
        .unwrap();
        assert!(
            out.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
            "{out}"
        );
        assert!(out.contains("\"name\":\"query\""), "{out}");

        // Tree format renders the spans and the critical path.
        let out = run(&toks(&format!(
            "trace dump --index {snap} --db {fasta} --query {qf} --format tree"
        )))
        .unwrap();
        assert!(out.contains("critical path:"), "{out}");
        assert!(out.contains("decompose"), "{out}");

        // --out writes the artifact and summarizes.
        let artifact = tmp("trace.json");
        let out = run(&toks(&format!(
            "trace dump --index {snap} --db {fasta} --query {qf} --out {artifact}"
        )))
        .unwrap();
        assert!(out.contains("traced 1 queries"), "{out}");
        let written = std::fs::read_to_string(&artifact).unwrap();
        assert!(written.contains("\"ph\":\"X\""), "{written}");

        let err = run(&toks(&format!(
            "trace dump --index {snap} --db {fasta} --query {qf} --format xml"
        )))
        .unwrap_err();
        assert!(err.to_string().contains("chrome|tree"), "{err}");

        // Bare `trace` points at the real spelling.
        let err = run(&toks("trace")).unwrap_err();
        assert!(err.to_string().contains("trace dump"), "{err}");
    }

    #[test]
    fn bench_qps_reports_throughput_and_scheduler_counters() {
        let fasta = tmp("qdb.fasta");
        let snap = tmp("qdb.mendel");
        let qf = tmp("qq.fasta");
        run(&toks(&format!(
            "generate --out {fasta} --families 8 --members 2 --min-len 120 --max-len 180 --seed 13"
        )))
        .unwrap();
        run(&toks(&format!(
            "index --db {fasta} --out {snap} --nodes 6 --groups 2"
        )))
        .unwrap();
        let text = std::fs::read_to_string(&fasta).unwrap();
        let first_record: String = {
            let mut lines = text.lines();
            let header = lines.next().unwrap().to_string();
            let body: Vec<&str> = lines.take_while(|l| !l.starts_with('>')).collect();
            format!("{header}\n{}\n", body.join("\n"))
        };
        std::fs::write(&qf, first_record).unwrap();

        let out = run(&toks(&format!(
            "bench qps --index {snap} --db {fasta} --query {qf} --batch 4"
        )))
        .unwrap();
        assert!(out.contains("qps bench: 1 queries, batch 4"), "{out}");
        assert!(out.contains("sequential"), "{out}");
        assert!(out.contains("batched"), "{out}");
        assert!(out.contains("scheduler: submitted"), "{out}");

        let err = run(&toks(&format!(
            "bench qps --index {snap} --db {fasta} --query {qf} --batch 0"
        )))
        .unwrap_err();
        assert!(err.to_string().contains("positive integer"), "{err}");

        // Bare `bench` points at the real spelling.
        let err = run(&toks("bench")).unwrap_err();
        assert!(err.to_string().contains("bench qps"), "{err}");
    }

    #[test]
    fn blast_command_runs() {
        let fasta = tmp("bdb.fasta");
        let qf = tmp("bq.fasta");
        run(&toks(&format!(
            "generate --out {fasta} --families 6 --members 2 --min-len 100 --max-len 150 --seed 9"
        )))
        .unwrap();
        let text = std::fs::read_to_string(&fasta).unwrap();
        let first: String = text.lines().take(3).collect::<Vec<_>>().join("\n");
        std::fs::write(&qf, first).unwrap();
        let out = run(&toks(&format!("blast --db {fasta} --query {qf}"))).unwrap();
        assert!(out.contains("hits"), "{out}");
    }

    #[test]
    fn durability_command_reports_clean_chaos_run() {
        let out = run(&toks(
            "durability --families 8 --members 2 --nodes 4 --groups 2 --fsync group --seed 11",
        ))
        .unwrap();
        assert!(out.contains("killed and recovered 4 nodes"), "{out}");
        assert!(out.contains("bit-identical"), "{out}");
        assert!(out.contains("mendel.store.wal_appends"), "{out}");
        let err = run(&toks("durability --fsync sometimes")).unwrap_err();
        assert!(err.to_string().contains("always|group|flush"), "{err}");
    }

    #[test]
    fn missing_files_report_path() {
        let err = run(&toks("index --db /nonexistent.fasta --out /tmp/x")).unwrap_err();
        assert!(err.to_string().contains("/nonexistent.fasta"));
    }

    #[test]
    fn missing_required_option_reports_key() {
        let err = run(&toks("generate")).unwrap_err();
        assert!(err.to_string().contains("--out"));
    }
}
