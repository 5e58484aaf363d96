//! End-to-end driver: generates a seeded corpus with `mendel generate`,
//! runs three `mendel serve` processes on loopback, loads them over HTTP
//! from this one process, checks every answer and prints the metrics.
//!
//! It touches the program only through its executable (CLI and HTTP) and
//! uses std only, so refactors of the Rust APIs cannot break it. The
//! traced run additionally starts the `layers` executable (which does
//! link the crates) and merges its probe metrics and spans.

use mendel_benchmark::http;
use mendel_benchmark::json::{num, obj, string, Json};
use mendel_benchmark::parse::{self, Answer};
use mendel_benchmark::procs::{self, Cluster, ClusterOpts, Scratch};
use mendel_benchmark::spans::{self, Recorder, Span};
use mendel_benchmark::stats::{
    fastest, fastest_per_item, median, percentile, relative_range, samples_beyond, Fastest,
};
use mendel_benchmark::workload::{self, client_split, Query, Spec, NODES, STORE_CORPUS};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Deadlines of single requests; far above anything a healthy run needs.
const QUERY_TIMEOUT: Duration = Duration::from_secs(30);
const INGEST_TIMEOUT: Duration = Duration::from_secs(120);
/// Deadline of the `mendel generate` and `layers` child processes.
const TOOL_TIMEOUT: Duration = Duration::from_secs(120);

/// Cold bring-ups per run; `setup_s` is the fastest of them.
const BRING_UPS: usize = 5;
/// The measured phase makes the workload's planned passes, which take a
/// little less than `--seconds` when the machine is at full speed. A pass
/// that, going by the ones before it, would end after `--seconds` is not
/// started, so that a run, and the driver's 48 of them, end in time
/// however slow the host makes the machine; this many passes are made
/// regardless.
const MIN_PASSES: usize = 3;
/// After every pass this share of the list, its slowest queries so far,
/// is sent once more.
const RETEST_SHARE: usize = 5;
/// Shape of the traced run's black-box parts.
const TRACED_PASSES: usize = 2;
const TRACE_QUERIES: usize = 50;
const TRACE_PASSES: usize = 3;
const HTTP_FLOOR_CALLS: usize = 200;
const SCRAPE_CALLS: usize = 15;
/// Queries replayed through the layer probes.
const REPLAY_QUERIES: usize = 24;
/// A recall below this marks the run incorrect.
const MIN_RECALL: f64 = 0.95;

struct Opts {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    mendel: PathBuf,
    layers: PathBuf,
    out_dir: PathBuf,
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: String,
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// What a run hands to `main`: the contract's result line plus the
/// details written to the output directory.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Sample counts, per-pass values and the run-specific part of the
    /// environment stamp.
    details: Vec<(&'static str, Json)>,
    /// Present in traced runs: written to `trace-<workload>.json`.
    spans: Option<Vec<Span>>,
}

fn main() -> ExitCode {
    procs::install_signal_cleanup();
    let opts = match parse_args(std::env::args().skip(1).collect()) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("e2e: {msg}");
            eprintln!(
                "usage: e2e --workload NAME --mendel PATH --out DIR [--seed N] [--seconds N] \
                 [--trace 0|1] [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&opts).and_then(|outcome| report(&opts, &outcome)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("e2e: {}: {msg}", opts.spec.name);
            ExitCode::from(1)
        }
    }
}

fn parse_args(args: Vec<String>) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0f64;
    let mut traced = false;
    let mut smoke = false;
    let mut mendel = None;
    let mut out_dir = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => smoke = true,
            "--mendel" => mendel = Some(PathBuf::from(value()?)),
            "--out" => out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = workload::spec(&name).ok_or_else(|| {
        let names: Vec<_> = workload::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    // `layers` is built next to this executable.
    let layers = std::env::current_exe()
        .map_err(|e| format!("current_exe: {e}"))?
        .with_file_name("layers");
    Ok(Opts {
        spec,
        seed,
        seconds,
        traced,
        smoke,
        mendel: mendel.ok_or("--mendel is required")?,
        layers,
        out_dir: out_dir.ok_or("--out is required")?,
    })
}

fn run(opts: &Opts) -> Result<Outcome, String> {
    procs::check_loopback()?;
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    let scratch = Scratch::create(&opts.out_dir).map_err(|e| format!("create scratch dir: {e}"))?;
    let bench = Bench::prepare(opts, &scratch, opts.spec)?;
    if opts.traced {
        bench.traced_run()
    } else {
        bench.read_run()
    }
}

/// One workload's generated inputs and how to start its clusters.
struct Bench<'a> {
    opts: &'a Opts,
    spec: &'static Spec,
    scratch: &'a Scratch,
    corpus_path: PathBuf,
    fasta: String,
    queries: Vec<Query>,
    cluster: ClusterOpts,
}

/// A cluster that has ingested the corpus and answered one probe per node.
struct BringUp {
    cluster: Cluster,
    /// First spawn → last probe answered.
    wall_s: f64,
    /// Latency of the `POST /ingest` to node 0, 1, 2.
    ingest_ms: Vec<f64>,
    /// Blocks every node reported for the corpus.
    blocks: f64,
}

/// One timed HTTP exchange.
struct Op {
    query: usize,
    start: Instant,
    end: Instant,
    /// `Err` holds the transport error.
    reply: Result<(u16, Vec<u8>), String>,
}

impl Op {
    fn latency_ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// One timed sweep over a stretch of the query list. A measured pass is
/// one sweep per segment of the list (`Spec::segment`), so that wall and
/// CPU time are known for stretches short enough to fit between two of
/// the host's slow spells.
struct Sweep {
    start: Instant,
    wall_s: f64,
    /// Server CPU time (user + system, three processes) spent meanwhile.
    cpu_ms: f64,
    /// Sorted by query index.
    ops: Vec<Op>,
}

impl Sweep {
    fn latencies_ms(&self) -> Vec<f64> {
        self.ops.iter().map(Op::latency_ms).collect()
    }
}

/// Checks every answer: good status, parsable, not degraded, and byte
/// for byte the answer this query got before, whatever the entry node.
struct Ledger {
    reference: Vec<Option<Vec<u8>>>,
    answers: Vec<Option<Answer>>,
    attempted: usize,
    failed: usize,
    mismatches: usize,
    first_failure: Option<String>,
}

impl Ledger {
    fn new(queries: usize) -> Ledger {
        Ledger {
            reference: vec![None; queries],
            answers: vec![None; queries],
            attempted: 0,
            failed: 0,
            mismatches: 0,
            first_failure: None,
        }
    }

    /// Check one exchange; the body must be the plain answer (a
    /// `?trace=1` suffix already removed).
    fn check(&mut self, query: usize, reply: &Result<(u16, Vec<u8>), String>) {
        self.attempted += 1;
        let verdict = match reply {
            Err(e) => Err(format!("transport: {e}")),
            Ok((status, body)) => {
                parse::classify(*status, body).and_then(|answer| match &self.reference[query] {
                    Some(first) if first != body => {
                        self.mismatches += 1;
                        Err("answer differs from an earlier pass or entry node".to_string())
                    }
                    Some(_) => Ok(()),
                    None => {
                        self.reference[query] = Some(body.clone());
                        self.answers[query] = Some(answer);
                        Ok(())
                    }
                })
            }
        };
        if let Err(why) = verdict {
            self.failed += 1;
            self.first_failure
                .get_or_insert(format!("query {query}: {why}"));
        }
    }

    fn check_sweep(&mut self, sweep: &Sweep) {
        for op in &sweep.ops {
            self.check(op.query, &op.reply);
        }
    }

    /// Share of answered queries whose source is among the top hits.
    fn recall(&self, queries: &[Query]) -> f64 {
        let answered: Vec<bool> = self
            .answers
            .iter()
            .zip(queries)
            .filter_map(|(a, q)| a.as_ref().map(|a| a.recalls(&q.source)))
            .collect();
        if answered.is_empty() {
            return 0.0;
        }
        answered.iter().filter(|&&hit| hit).count() as f64 / answered.len() as f64
    }

    /// The answered queries whose source is missing from the top hits,
    /// for the output file: `index (length, source): hits returned`.
    fn recall_misses(&self, queries: &[Query]) -> Json {
        let misses = self.answers.iter().zip(queries).enumerate();
        Json::Arr(
            misses
                .filter_map(|(i, (a, q))| {
                    let a = a.as_ref().filter(|a| !a.recalls(&q.source))?;
                    Some(string(format!(
                        "{i} ({} residues, {}): {} hits",
                        q.residues.len(),
                        q.source,
                        a.names.len()
                    )))
                })
                .collect(),
        )
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The timing estimators of a read run, fed sweep by sweep (see
/// `stats.rs` for why the fastest repeat is kept).
struct ReadTiming {
    fastest: Fastest,
    /// `[pass][segment]` wall and server CPU time of the full passes.
    walls_s: Vec<Vec<f64>>,
    cpus_ms: Vec<Vec<f64>>,
    /// Every latency measured.
    pooled_ms: Vec<f64>,
}

impl ReadTiming {
    fn new(queries: usize) -> ReadTiming {
        ReadTiming {
            fastest: Fastest::new(queries),
            walls_s: Vec::new(),
            cpus_ms: Vec::new(),
            pooled_ms: Vec::new(),
        }
    }

    fn record(&mut self, sweep: &Sweep) {
        for op in &sweep.ops {
            self.fastest.record(op.query, op.latency_ms());
            self.pooled_ms.push(op.latency_ms());
        }
    }

    /// A full pass: one sweep per segment of the list.
    fn record_pass(&mut self, pass: &[Sweep]) {
        pass.iter().for_each(|sweep| self.record(sweep));
        self.walls_s.push(pass.iter().map(|s| s.wall_s).collect());
        self.cpus_ms.push(pass.iter().map(|s| s.cpu_ms).collect());
    }

    fn queries(&self) -> f64 {
        self.fastest.best_ms().len() as f64
    }

    /// Σ over segments of the segment's least server CPU time ÷ Q.
    fn cpu_ms_per_op(&self) -> f64 {
        fastest_per_item(&self.cpus_ms).iter().sum::<f64>() / self.queries()
    }

    /// Q ÷ wall and server CPU time ÷ Q of each full pass on its own:
    /// diagnostics.
    fn pass_ops_per_s(&self) -> Vec<f64> {
        let walls = self.walls_s.iter();
        walls
            .map(|w| self.queries() / w.iter().sum::<f64>())
            .collect()
    }

    fn pass_cpu_ms_per_op(&self) -> Vec<f64> {
        let cpus = self.cpus_ms.iter();
        cpus.map(|c| c.iter().sum::<f64>() / self.queries())
            .collect()
    }
}

impl<'a> Bench<'a> {
    /// Generate `spec`'s corpus and query list for the run's seed.
    fn prepare(
        opts: &'a Opts,
        scratch: &'a Scratch,
        spec: &'static Spec,
    ) -> Result<Bench<'a>, String> {
        let corpus_path = scratch.path().join(format!("{}.fa", spec.name));
        let args = spec.generate_args(opts.seed, &corpus_path.display().to_string());
        procs::run_tool(
            Command::new(&opts.mendel).args(&args),
            "mendel generate",
            TOOL_TIMEOUT,
        )?;
        let fasta = std::fs::read_to_string(&corpus_path)
            .map_err(|e| format!("read generated corpus: {e}"))?;
        let queries = workload::make_queries(spec, opts.seed, spec.query_count(opts.smoke), &fasta);
        Ok(Bench {
            opts,
            spec,
            scratch,
            corpus_path,
            fasta,
            queries,
            cluster: ClusterOpts {
                mendel: opts.mendel.clone(),
                dna: spec.dna,
                groups: spec.groups,
                tracing: false,
                data_root: None,
                log_dir: scratch.path().to_path_buf(),
            },
        })
    }

    /// Spawn, ingest into node 0, 1, 2 one after another, then one probe
    /// query per node (`round` picks which queries serve as probes).
    fn bring_up(&self, cluster_opts: &ClusterOpts, round: usize) -> Result<BringUp, String> {
        let start = Instant::now();
        let cluster = Cluster::spawn(cluster_opts)?;
        let mut ingest_ms = Vec::new();
        let mut blocks = Vec::new();
        for (i, node) in cluster.nodes.iter().enumerate() {
            let t = Instant::now();
            let (status, body) = http::request(
                node.http,
                "POST",
                "/ingest",
                self.fasta.as_bytes(),
                INGEST_TIMEOUT,
            )
            .map_err(|e| format!("POST /ingest to node {i}: {e}"))?;
            ingest_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if status != 200 {
                return Err(format!(
                    "ingest on node {i}: HTTP {status}: {}",
                    String::from_utf8_lossy(&body)
                ));
            }
            blocks
                .push(parse::json_num_field(&body, "blocks").ok_or("ingest reply has no blocks")?);
        }
        if blocks.iter().any(|&b| b != blocks[0] || b <= 0.0) {
            return Err(format!("nodes disagree on the block count: {blocks:?}"));
        }
        for (i, node) in cluster.nodes.iter().enumerate() {
            let query = &self.queries[(round * NODES + i) % self.queries.len()];
            let (status, body) = http::request(
                node.http,
                "POST",
                "/query",
                query.residues.as_bytes(),
                QUERY_TIMEOUT,
            )
            .map_err(|e| format!("probe query on node {i}: {e}"))?;
            parse::classify(status, &body).map_err(|e| format!("probe query on node {i}: {e}"))?;
        }
        Ok(BringUp {
            wall_s: start.elapsed().as_secs_f64(),
            cluster,
            ingest_ms,
            blocks: blocks[0],
        })
    }

    /// Cold bring-ups one after another (kill −9 and reap in between);
    /// the last cluster is kept for the measured phase.
    fn bring_ups(&self, count: usize) -> Result<(BringUp, Vec<f64>), String> {
        let mut walls = Vec::new();
        let mut last = None;
        for round in 0..count {
            drop(last.take());
            let up = self.bring_up(&self.cluster, round)?;
            walls.push(up.wall_s);
            last = Some(up);
        }
        Ok((last.expect("at least one bring-up"), walls))
    }

    /// Send the queries `subset` once: client `c` takes every
    /// `clients`-th of them and waits for each answer before its next
    /// request (closed loop). `pass` picks the entry nodes.
    fn run_sweep(
        &self,
        cluster: &Cluster,
        subset: &[usize],
        pass: usize,
        path: &str,
    ) -> Result<Sweep, String> {
        let addrs: Vec<SocketAddr> = cluster.nodes.iter().map(|n| n.http).collect();
        let split = client_split(subset.len(), self.spec.clients);
        let cpu_before = cluster
            .cpu_ticks()
            .map_err(|e| format!("read server CPU time: {e}"))?;
        let start = Instant::now();
        let mut ops: Vec<Op> = std::thread::scope(|scope| {
            let handles: Vec<_> = split
                .iter()
                .map(|mine| {
                    let addrs = &addrs;
                    scope.spawn(move || {
                        mine.iter()
                            .map(|&pos| {
                                let query = subset[pos];
                                let q = &self.queries[query];
                                let start = Instant::now();
                                let reply = http::request(
                                    addrs[q.entry_node(pass)],
                                    "POST",
                                    path,
                                    q.residues.as_bytes(),
                                    QUERY_TIMEOUT,
                                );
                                Op {
                                    query,
                                    start,
                                    end: Instant::now(),
                                    reply: reply.map_err(|e| e.to_string()),
                                }
                            })
                            .collect::<Vec<Op>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_after = cluster
            .cpu_ticks()
            .map_err(|e| format!("read server CPU time: {e}"))?;
        ops.sort_by_key(|op| op.query);
        Ok(Sweep {
            start,
            wall_s,
            cpu_ms: (cpu_after - cpu_before) as f64 * 1e3 / procs::clock_ticks_per_second(),
            ops,
        })
    }

    /// Discarded warm-up over the first half of the list.
    fn warm_up(&self, cluster: &Cluster) -> Result<(), String> {
        let half: Vec<usize> = (0..self.queries.len().div_ceil(2)).collect();
        self.run_sweep(cluster, &half, 0, "/query").map(drop)
    }

    /// One measured pass: a sweep over each segment of the list in turn.
    fn run_pass(&self, cluster: &Cluster, pass: usize) -> Result<Vec<Sweep>, String> {
        let all: Vec<usize> = (0..self.queries.len()).collect();
        all.chunks(self.spec.segment)
            .map(|segment| self.run_sweep(cluster, segment, pass, "/query"))
            .collect()
    }

    fn read_run(&self) -> Result<Outcome, String> {
        let q = self.queries.len();
        let (up, setup_walls) = self.bring_ups(if self.opts.smoke { 2 } else { BRING_UPS })?;
        let cluster = &up.cluster;
        self.warm_up(cluster)?;
        let mut ledger = Ledger::new(q);
        let mut timing = ReadTiming::new(q);
        let planned = self.spec.pass_count(self.opts.seconds, self.opts.smoke);
        let host_before = procs::host_cpu_ticks();
        let measured = Instant::now();
        for p in 0..planned {
            let elapsed = measured.elapsed().as_secs_f64();
            if p >= MIN_PASSES && elapsed + elapsed / p as f64 > self.opts.seconds {
                eprintln!("e2e: no time for {planned} passes at this speed; stopping after {p}");
                break;
            }
            let pass = self.run_pass(cluster, p)?;
            pass.iter().for_each(|sweep| ledger.check_sweep(sweep));
            timing.record_pass(&pass);
            // The slowest fifth once more (see `Fastest::slowest`).
            let tail = timing.fastest.slowest(q / RETEST_SHARE);
            let tail = self.run_sweep(cluster, &tail, p + 1, "/query")?;
            ledger.check_sweep(&tail);
            timing.record(&tail);
        }
        let measured_s = measured.elapsed().as_secs_f64();
        // Share of the measured phase's CPU time that the host gave away.
        let host_steal_frac = host_before
            .zip(procs::host_cpu_ticks())
            .filter(|((_, t0), (_, t1))| t1 > t0)
            .map(|((s0, t0), (s1, t1))| (s1 - s0) as f64 / (t1 - t0) as f64);
        let rss_mb = cluster
            .rss_hwm_kb()
            .map_err(|e| format!("read server RSS: {e}"))? as f64
            / 1024.0;
        let health = health_stamp(cluster);
        let blocks = up.blocks;
        drop(up);

        let recall = ledger.recall(&self.queries);
        let (least, most) = timing.fastest.samples_range();
        let metrics = vec![
            metric("setup_s", fastest(&setup_walls), "s"),
            metric(
                "ops_per_s",
                timing.fastest.ops_per_s(self.spec.clients),
                "1/s",
            ),
            metric("p50_ms", percentile(timing.fastest.best_ms(), 50.0), "ms"),
            metric("p90_ms", percentile(timing.fastest.best_ms(), 90.0), "ms"),
            metric("cpu_ms_per_op", timing.cpu_ms_per_op(), "ms"),
            metric("rss_mb", rss_mb, "MB"),
            metric("recall", recall, "frac"),
        ];
        let mut details = vec![
            ("queries", num(q as f64)),
            ("passes", num(timing.walls_s.len() as f64)),
            ("passes_planned", num(planned as f64)),
            ("segments", num(timing.walls_s[0].len() as f64)),
            ("samples_per_query", floats(&[least as f64, most as f64])),
            ("host_steal_frac", host_steal_frac.map_or(Json::Null, num)),
            ("clients", num(self.spec.clients as f64)),
            ("corpus_blocks", num(blocks)),
            ("setup_samples_s", floats(&setup_walls)),
            ("pass_ops_per_s", floats(&timing.pass_ops_per_s())),
            ("pass_cpu_ms_per_op", floats(&timing.pass_cpu_ms_per_op())),
            ("measured_s", num(measured_s)),
            ("p50_samples", num(q as f64)),
            ("p90_samples_beyond", num(samples_beyond(q, 90.0) as f64)),
            ("p99_pooled_ms", num(percentile(&timing.pooled_ms, 99.0))),
            ("pass_spread", num(relative_range(&timing.pass_ops_per_s()))),
        ];
        details.push(("recall_misses", ledger.recall_misses(&self.queries)));
        details.extend(ledger_details(&ledger));
        details.extend(health);
        Ok(Outcome {
            correct: ledger.failed == 0 && recall >= MIN_RECALL,
            attempted: ledger.attempted,
            failed: ledger.failed,
            metrics,
            details,
            spans: None,
        })
    }

    /// The per-layer run. Black-box parts first (counter deltas, HTTP
    /// floor, program-reported trace shares, durable-versus-memory
    /// ingest), then the `layers` executable's probes on the same corpus
    /// and queries. Nothing measured here feeds an end-to-end metric.
    fn traced_run(&self) -> Result<Outcome, String> {
        let q = self.queries.len();
        let mut rec = Recorder::new("e2e");
        let root = rec.open("harness", "traced-run", None, None);
        let mut out: Vec<Metric> = Vec::new();
        let mut ledger = Ledger::new(q);

        // A. Tracing off: counts per op, harness diagnostics, HTTP floor.
        let span = rec.open("harness", "bring-up", None, Some(root));
        let up = self.bring_up(&self.cluster, 0)?;
        rec.close(span);
        let cluster = &up.cluster;
        self.warm_up(cluster)?;
        let before = scrape_all(cluster)?;
        let mut timing = ReadTiming::new(q);
        for p in 0..TRACED_PASSES {
            let pass = self.run_pass(cluster, p)?;
            let (first, last) = (&pass[0], &pass[pass.len() - 1]);
            let span = rec.push(
                "harness",
                "pass",
                None,
                Some(root),
                first.start,
                last.start + Duration::from_secs_f64(last.wall_s),
            );
            for sweep in &pass {
                ledger.check_sweep(sweep);
                for op in &sweep.ops {
                    rec.push(
                        "e2e",
                        "POST /query",
                        Some(op.query),
                        Some(span),
                        op.start,
                        op.end,
                    );
                }
            }
            timing.record_pass(&pass);
        }
        let after = scrape_all(cluster)?;
        let ops = (TRACED_PASSES * q) as f64;
        let mut delta = BTreeMap::new();
        for (b, a) in before.iter().zip(&after) {
            parse::add_delta(&mut delta, b, a);
        }
        let count = |name: &str| delta.get(name).copied().unwrap_or(0.0);
        // Per-op counts: Σ of the named counters over the three nodes ÷ ops.
        for (name, counters, unit) in [
            (
                "vptree.dist_calls_per_op",
                &["mendel_vptree_dist_calls"][..],
                "count",
            ),
            (
                "vptree.nodes_visited_per_op",
                &["mendel_vptree_nodes_visited"],
                "count",
            ),
            (
                "vptree.leaf_scans_per_op",
                &["mendel_vptree_leaf_scans"],
                "count",
            ),
            (
                "net.bytes_per_op",
                &[
                    "mendel_net_transport_bytes_sent",
                    "mendel_net_transport_bytes_received",
                ],
                "B",
            ),
            (
                "net.frames_per_op",
                &[
                    "mendel_net_transport_frames_sent",
                    "mendel_net_transport_frames_received",
                ],
                "count",
            ),
            (
                "net.connects_per_op",
                &["mendel_net_transport_connects"],
                "count",
            ),
            (
                "sched.submitted_per_op",
                &["mendel_sched_submitted"],
                "count",
            ),
            ("sched.shed_per_op", &["mendel_sched_shed"], "count"),
        ] {
            let total: f64 = counters.iter().map(|c| count(c)).sum();
            out.push(metric(name, total / ops, unit));
        }
        out.push(metric(
            "vptree.early_abandon_frac",
            count("mendel_vptree_early_abandons") / count("mendel_vptree_dist_calls").max(1.0),
            "frac",
        ));

        out.push(metric(
            "harness.pass_spread",
            relative_range(&timing.pass_ops_per_s()),
            "frac",
        ));
        out.push(metric(
            "harness.p99_pooled_ms",
            percentile(&timing.pooled_ms, 99.0),
            "ms",
        ));

        let node0 = cluster.nodes[0].http;
        let span = rec.open("cli", "GET /healthz", None, Some(root));
        let floor_us = timed_calls(HTTP_FLOOR_CALLS, || get(node0, "/healthz"))?;
        rec.close(span);
        out.push(metric("cli.http_floor_us", median(&floor_us), "us"));
        let span = rec.open("obs", "GET /metrics", None, Some(root));
        let scrape_us = timed_calls(SCRAPE_CALLS, || get(node0, "/metrics"))?;
        rec.close(span);
        out.push(metric("obs.scrape_ms", median(&scrape_us) / 1e3, "ms"));

        // B. The same queries with and without server-side tracing, pass
        // for pass, and the shares the program itself reports.
        let subset: Vec<usize> = (0..q.min(TRACE_QUERIES)).collect();
        let mut plain = Vec::new();
        for p in 0..TRACE_PASSES {
            plain.push(
                self.run_sweep(cluster, &subset, p, "/query")?
                    .latencies_ms(),
            );
        }
        let health = health_stamp(cluster);
        drop(up);
        let span = rec.open("harness", "bring-up tracing=true", None, Some(root));
        let traced_up = self.bring_up(
            &ClusterOpts {
                tracing: true,
                ..self.cluster.clone()
            },
            0,
        )?;
        rec.close(span);
        let mut traced = Vec::new();
        let mut shares: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for p in 0..TRACE_PASSES {
            let mut sweep = self.run_sweep(&traced_up.cluster, &subset, p, "/query?trace=1")?;
            traced.push(sweep.latencies_ms());
            for op in &mut sweep.ops {
                let Ok((_, body)) = &mut op.reply else {
                    continue;
                };
                let trace_id = split_trace_suffix(body);
                if p + 1 == TRACE_PASSES {
                    let entry = traced_up.cluster.nodes[self.queries[op.query].entry_node(p)].http;
                    let id = trace_id.ok_or_else(|| {
                        format!("query {}: ?trace=1 answer carries no trace id", op.query)
                    })?;
                    for (name, share) in trace_shares(entry, id)? {
                        shares.entry(name).or_default().push(share);
                    }
                }
            }
            ledger.check_sweep(&sweep);
        }
        drop(traced_up);
        let p50_plain = percentile(&fastest_per_item(&plain), 50.0);
        let p50_traced = percentile(&fastest_per_item(&traced), 50.0);
        out.push(metric(
            "obs.tracing_overhead_frac",
            p50_traced / p50_plain - 1.0,
            "frac",
        ));
        for name in ["decompose", "group_rpc", "finalize", "unattributed"] {
            let values = shares
                .get(name)
                .ok_or_else(|| format!("no trace share for {name}"))?;
            out.push(metric(
                &format!("trace.{name}_frac"),
                median(values),
                "frac",
            ));
        }

        // C. Durable beside memory ingest, on a small corpus of its own.
        let ingest = Bench::prepare(self.opts, self.scratch, &STORE_CORPUS)?;
        let span = rec.open("store", "memory ingest", None, Some(root));
        let memory_ms = median(&ingest.bring_up(&ingest.cluster, 0)?.ingest_ms);
        rec.close(span);
        let recover_root = self.scratch.path().join("recover");
        let span = rec.open("store", "durable ingest", None, Some(root));
        let durable = ingest.bring_up(
            &ClusterOpts {
                data_root: Some(recover_root.clone()),
                ..ingest.cluster.clone()
            },
            0,
        )?;
        rec.close(span);
        let durable_ms = median(&durable.ingest_ms);
        let mut store = BTreeMap::new();
        for node in scrape_all(&durable.cluster)? {
            parse::add_delta(&mut store, &BTreeMap::new(), &node);
        }
        let recover_blocks = durable.blocks;
        // SIGKILL: what `layers` recovers is what reached the disk.
        drop(durable);
        let stored = |name: &str| store.get(name).copied().unwrap_or(0.0);
        let appends = stored("mendel_store_wal_appends").max(1.0);
        out.push(metric(
            "store.durable_over_memory",
            durable_ms / memory_ms,
            "ratio",
        ));
        out.push(metric(
            "store.wal_fsyncs_per_block",
            stored("mendel_store_wal_fsyncs") / appends,
            "count",
        ));
        out.push(metric(
            "store.segment_flushes_per_op",
            stored("mendel_store_segment_flushes") / NODES as f64,
            "count",
        ));
        out.push(metric(
            "store.dedup_hit_frac",
            stored("mendel_store_dedup_hits") / appends,
            "frac",
        ));
        let recover_dir = recover_root.join("p0");
        out.push(metric(
            "store.bytes_per_block",
            dir_bytes(&recover_dir) as f64 / recover_blocks,
            "B",
        ));

        // D. The layer probes, in a process of their own.
        let replay = q.min(REPLAY_QUERIES);
        let queries_path = self.scratch.path().join("queries.txt");
        let listing: String = self
            .queries
            .iter()
            .map(|q| format!("{}\n", q.residues))
            .collect();
        std::fs::write(&queries_path, listing).map_err(|e| format!("write query list: {e}"))?;
        let layers_out = self.scratch.path().join("layers.json");
        let span = rec.open("harness", "layers", None, Some(root));
        let mut cmd = Command::new(&self.opts.layers);
        cmd.arg("--corpus").arg(&self.corpus_path);
        cmd.arg("--queries").arg(&queries_path);
        cmd.arg("--replay").arg(replay.to_string());
        cmd.arg("--groups").arg(self.spec.groups.to_string());
        cmd.arg("--scratch").arg(self.scratch.path().join("layers"));
        cmd.arg("--recover-dir").arg(&recover_dir);
        cmd.arg("--recover-blocks").arg(recover_blocks.to_string());
        cmd.arg("--out").arg(&layers_out);
        if self.spec.dna {
            cmd.arg("--dna");
        }
        if self.opts.smoke {
            cmd.arg("--smoke");
        }
        procs::run_tool(&mut cmd, "layers", TOOL_TIMEOUT)?;
        rec.close(span);
        let layers = std::fs::read_to_string(&layers_out)
            .map_err(|e| format!("read layers output: {e}"))
            .and_then(|text| Json::parse(&text))?;
        let Some(Json::Obj(probe_metrics)) = layers.get("metrics") else {
            return Err("layers output has no metrics".into());
        };
        for (name, m) in probe_metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("layers metric {name} has no value"))?;
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("layers metric {name} has no unit"))?;
            out.push(metric(name, value, unit));
        }
        let probe = |name: &str| {
            probe_metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("layers reported no {name}"))
        };
        // Share of the black-box latency that replaying the query through
        // the layers' public functions does not account for, and what the
        // real sockets and processes add over the simulated wire; both on
        // the replayed queries only.
        let replayed_us = layers
            .get("replay_sum_us")
            .and_then(Json::as_array)
            .ok_or("layers output has no replay_sum_us")?;
        let replayed_ms: Vec<f64> = replayed_us
            .iter()
            .filter_map(Json::as_f64)
            .map(|us| us / 1e3)
            .collect();
        let blackbox_ms = median(&timing.fastest.best_ms()[..replayed_ms.len().min(q)]);
        out.push(metric(
            "net.real_over_sim_ms",
            blackbox_ms - probe("core.wire_sim_ms")?,
            "ms",
        ));
        out.push(metric(
            "harness.unattributed_frac",
            1.0 - median(&replayed_ms) / blackbox_ms,
            "frac",
        ));
        out.push(metric(
            "harness.response_mismatches",
            ledger.mismatches as f64,
            "count",
        ));
        out.push(metric("harness.failed_frac", ledger.failed_frac(), "frac"));

        rec.close(root);
        rec.absorb(spans::spans_from_json(
            layers.get("spans").ok_or("layers output has no spans")?,
        )?);
        // Each layer's self time per replayed query: the probe spans that
        // sit under a query's `replay` span.
        let mut self_us: BTreeMap<&str, f64> = BTreeMap::new();
        for (span, own) in rec.spans().iter().zip(spans::self_times_us(rec.spans())) {
            if span.process == "layers" && span.parent.is_some() {
                *self_us.entry(span.layer.as_str()).or_insert(0.0) += own;
            }
        }
        for layer in ["cli", "core", "vptree", "align", "net"] {
            let us = self_us.get(layer).copied().unwrap_or(0.0) / replay as f64;
            out.push(metric(&format!("self.{layer}_us_per_op"), us, "us"));
        }

        let recovered = probe("store.recovered_frac")?;
        let mut details = vec![
            ("queries", num(q as f64)),
            ("passes", num(TRACED_PASSES as f64)),
            ("clients", num(self.spec.clients as f64)),
            ("trace_queries", num(subset.len() as f64)),
            ("replayed_queries", num(replay as f64)),
            ("p50_ms_tracing_off", num(p50_plain)),
            ("p50_ms_tracing_on", num(p50_traced)),
            ("ingest_ms_memory", num(memory_ms)),
            ("ingest_ms_durable", num(durable_ms)),
        ];
        details.extend(ledger_details(&ledger));
        details.extend(health);
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(Outcome {
            correct: ledger.failed == 0
                && recovered == 1.0
                && ledger.recall(&self.queries) >= MIN_RECALL,
            attempted: ledger.attempted,
            failed: ledger.failed,
            metrics: out,
            details,
            spans: Some(rec.spans().to_vec()),
        })
    }
}

fn get(addr: SocketAddr, path: &str) -> Result<Vec<u8>, String> {
    match http::request(addr, "GET", path, b"", QUERY_TIMEOUT) {
        Ok((200, body)) => Ok(body),
        Ok((status, _)) => Err(format!("GET {path}: HTTP {status}")),
        Err(e) => Err(format!("GET {path}: {e}")),
    }
}

/// Each call's wall time in µs.
fn timed_calls(
    n: usize,
    mut call: impl FnMut() -> Result<Vec<u8>, String>,
) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            call()?;
            Ok(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect()
}

/// `GET /metrics` of every node, parsed.
fn scrape_all(cluster: &Cluster) -> Result<Vec<BTreeMap<String, f64>>, String> {
    cluster
        .nodes
        .iter()
        .map(|n| {
            Ok(parse::parse_metrics(&String::from_utf8_lossy(&get(
                n.http, "/metrics",
            )?)))
        })
        .collect()
}

/// Cut the `,"trace":N,"critical_path":[…]` tail off a `?trace=1` answer,
/// leaving the plain answer, and return the trace id.
fn split_trace_suffix(body: &mut Vec<u8>) -> Option<u64> {
    const MARK: &[u8] = b",\"trace\":";
    let at = body.windows(MARK.len()).rposition(|w| w == MARK)?;
    let digits: String = body[at + MARK.len()..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .map(|&b| b as char)
        .collect();
    body.truncate(at);
    body.push(b'}');
    digits.parse().ok()
}

/// From the entry node's span records of one trace: the share of the
/// `query` span that its `decompose`, `group_rpc/*` and `finalize`
/// children cover, and the rest.
fn trace_shares(entry: SocketAddr, trace: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let text = get(entry, &format!("/trace/{trace}?format=records&scope=local"))?;
    let text = String::from_utf8_lossy(&text);
    let mut total = 0.0;
    let mut parts = [("decompose", 0.0), ("group_rpc", 0.0), ("finalize", 0.0)];
    for line in text.lines() {
        // trace, span, parent, node, start_ns, end_ns, name, attributes…
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() < 7 {
            continue;
        }
        let (Ok(start), Ok(end)) = (fields[4].parse::<f64>(), fields[5].parse::<f64>()) else {
            continue;
        };
        let name = fields[6];
        if name == "query" && fields[2] == "-" {
            total = end - start;
        }
        for (prefix, sum) in &mut parts {
            if name == *prefix
                || name
                    .strip_prefix(*prefix)
                    .is_some_and(|rest| rest.starts_with('/'))
            {
                *sum += end - start;
            }
        }
    }
    if total <= 0.0 {
        return Err(format!("trace {trace} has no root query span"));
    }
    let mut shares: Vec<(&'static str, f64)> =
        parts.iter().map(|&(name, ns)| (name, ns / total)).collect();
    let attributed: f64 = shares.iter().map(|(_, s)| s).sum();
    shares.push(("unattributed", 1.0 - attributed));
    Ok(shares)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn floats(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| num(v)).collect())
}

fn ledger_details(ledger: &Ledger) -> Vec<(&'static str, Json)> {
    vec![
        ("response_mismatches", num(ledger.mismatches as f64)),
        ("failed_frac", num(ledger.failed_frac())),
        (
            "first_failure",
            ledger.first_failure.clone().map_or(Json::Null, string),
        ),
    ]
}

/// What only a live node can tell: the build it runs and its SIMD kernel.
fn health_stamp(cluster: &Cluster) -> Vec<(&'static str, Json)> {
    let body = get(cluster.nodes[0].http, "/healthz?verbose=1").unwrap_or_default();
    let field =
        |key: &str| string(parse::json_str_field(&body, key).unwrap_or_else(|| "unknown".into()));
    vec![
        ("simd_kernel", field("kernel")),
        ("git_sha", field("git_sha")),
    ]
}

/// Print every metric as `workload metric value unit`, the environment
/// stamp, and the result object as the last line; write the same to the
/// output directory.
fn report(opts: &Opts, outcome: &Outcome) -> Result<(), String> {
    let name = opts.spec.name;
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = obj([
        ("workload", string(name)),
        ("seed", num(opts.seed as f64)),
        ("seconds", num(opts.seconds)),
        ("traced", Json::Bool(opts.traced)),
        ("smoke", Json::Bool(opts.smoke)),
        ("nproc", num(nproc as f64)),
        ("kernel", string(kernel.trim())),
        // Where `--data-dir`s go, and how the store syncs them (its default).
        ("data_dir_fs", string(procs::fs_type_of(&opts.out_dir))),
        ("fsync_policy", string("always")),
        (
            "run",
            Json::Obj(
                outcome
                    .details
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
    ]);
    for m in &outcome.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    println!("# {name} env {}", env.render());
    let metrics = Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj([("value", num(m.value)), ("unit", string(&*m.unit))]),
                )
            })
            .collect(),
    );
    let result = obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", num(outcome.attempted as f64)),
        ("failed", num(outcome.failed as f64)),
        ("metrics", metrics),
    ]);
    let stem = format!(
        "{name}-seed{}{}",
        opts.seed,
        if opts.traced { "-traced" } else { "" }
    );
    let full = obj([("env", env.clone()), ("result", result.clone())]);
    let write = |file: String, json: &Json| {
        let path = opts.out_dir.join(file);
        std::fs::write(&path, json.render() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(format!("{stem}.json"), &full)?;
    if let Some(spans) = &outcome.spans {
        let by_layer = spans::self_time_by_layer(spans);
        for (layer, us) in &by_layer {
            println!("# {name} self-time {layer} {us} us");
        }
        let trace = obj([
            ("env", env),
            (
                "self_time_us_by_layer",
                Json::Obj(by_layer.into_iter().map(|(k, v)| (k, num(v))).collect()),
            ),
            ("spans", spans::spans_to_json(spans)),
        ]);
        write(format!("trace-{name}.json"), &trace)?;
    }
    if !outcome.correct {
        let lookup = |key: &str| {
            outcome
                .details
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.render())
        };
        eprintln!(
            "e2e: {name}: INCORRECT: {} of {} ops failed (first: {}); recall must be >= {MIN_RECALL}, \
             mismatches and failures 0, recovered blocks all",
            outcome.failed,
            outcome.attempted,
            lookup("first_failure").unwrap_or_default(),
        );
    }
    println!("{}", result.render());
    Ok(())
}
