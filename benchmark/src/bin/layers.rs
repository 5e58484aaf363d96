//! Per-layer probes: times calls into each crate's public functions on
//! inputs drawn from the workload's corpus and query list, one span per
//! call, and replays each query through the layers in pipeline order.
//!
//! This is the only part of the benchmark that links the crates; the
//! functions it calls are the benchmark's frozen API surface (listed in
//! README.md). It is started by `e2e` in a traced run and writes its
//! metrics and spans to `--out` as JSON.

use bytes::Bytes;
use mendel::store::{DurableStore, RealVfs, StoreMetrics, StoreOptions, Vfs};
use mendel::{
    make_blocks, query::subquery_offsets, Block, BlockMetric, ClusterConfig, MendelCluster,
    MendelHit, QueryParams, WireCluster,
};
use mendel_align::{extend_gapped_banded, extend_ungapped};
use mendel_benchmark::json::{num, obj, string, Json};
use mendel_benchmark::spans::{spans_to_json, Recorder};
use mendel_benchmark::stats::median;
use mendel_benchmark::workload::NODES;
use mendel_cli::render_outcome_json;
use mendel_dht::{FlatPlacement, GroupId};
use mendel_net::frame::{read_frame, write_frame};
use mendel_net::{Envelope, NodeAddr, TcpConfig, TcpTransport, Transport, TransportMetrics};
use mendel_sched::{SchedConfig, Scheduler};
use mendel_seq::{
    parse_fasta_sequences, Alphabet, Metric, ScoringMatrix, SeqStore, Sequence, WindowView,
};
use mendel_vptree::{VpPrefixTree, VpTree};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `VpTree::knn_with_budget(w, 8, 4096)`: the served path's `n` and budget.
const KNN_N: usize = 8;
const KNN_BUDGET: usize = 4096;

struct Opts {
    corpus: PathBuf,
    queries: PathBuf,
    replay: usize,
    groups: usize,
    dna: bool,
    smoke: bool,
    scratch: PathBuf,
    recover_dir: PathBuf,
    recover_blocks: f64,
    out: PathBuf,
}

fn parse_args(args: Vec<String>) -> Result<Opts, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut flags = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dna" | "--smoke" => flags.push(arg),
            key if key.starts_with("--") => {
                let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
                map.insert(key.to_string(), value);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let take = |key: &str| {
        map.get(key)
            .cloned()
            .ok_or_else(|| format!("{key} is required"))
    };
    let number = |key: &str| {
        take(key)?
            .parse::<f64>()
            .map_err(|_| format!("{key} takes a number"))
    };
    Ok(Opts {
        corpus: take("--corpus")?.into(),
        queries: take("--queries")?.into(),
        replay: number("--replay")? as usize,
        groups: number("--groups")? as usize,
        dna: flags.iter().any(|f| f == "--dna"),
        smoke: flags.iter().any(|f| f == "--smoke"),
        scratch: take("--scratch")?.into(),
        recover_dir: take("--recover-dir")?.into(),
        recover_blocks: number("--recover-blocks")?,
        out: take("--out")?.into(),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1).collect()) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("layers: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("layers: {msg}");
            ExitCode::from(1)
        }
    }
}

/// Collects the probe metrics next to the spans that timed them.
struct Probes {
    rec: Recorder,
    metrics: BTreeMap<String, Json>,
}

impl Probes {
    fn report(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.insert(
            name.to_string(),
            obj([("value", num(value)), ("unit", string(unit))]),
        );
    }

    /// Time `f` once as a span of `layer`; µs.
    fn once<T>(&mut self, layer: &str, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.rec.time(layer, name, None, None, f)
    }

    /// Median µs of `reps` calls of `f`, recorded as one span.
    fn repeated<T>(
        &mut self,
        layer: &str,
        name: &str,
        reps: usize,
        mut f: impl FnMut(usize) -> T,
    ) -> f64 {
        let span = self.rec.open(layer, name, None, None);
        let times: Vec<f64> = (0..reps)
            .map(|i| {
                let t = Instant::now();
                black_box(f(i));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        self.rec.close(span);
        median(&times)
    }
}

fn run(opts: &Opts) -> Result<(), String> {
    let alphabet = if opts.dna {
        Alphabet::Dna
    } else {
        Alphabet::Protein
    };
    let reps = |full: usize| if opts.smoke { (full / 10).max(2) } else { full };
    let mut p = Probes {
        rec: Recorder::new("layers"),
        metrics: BTreeMap::new(),
    };

    // ---- seq: FASTA parse.
    let fasta = std::fs::read_to_string(&opts.corpus).map_err(|e| format!("read corpus: {e}"))?;
    let parse_us = p.repeated("seq", "parse_fasta_sequences", reps(10), |_| {
        parse_fasta_sequences(&fasta, alphabet)
    });
    p.report(
        "seq.fasta_parse_mb_per_s",
        fasta.len() as f64 / parse_us,
        "MB/s",
    );
    let mut store = SeqStore::new();
    for s in parse_fasta_sequences(&fasta, alphabet).map_err(|e| format!("parse corpus: {e}"))? {
        store.insert(s);
    }
    let db = Arc::new(store);
    let query_text =
        std::fs::read_to_string(&opts.queries).map_err(|e| format!("read queries: {e}"))?;
    let queries: Vec<Vec<u8>> = query_text
        .lines()
        .filter(|l| !l.is_empty())
        .take(opts.replay)
        .map(|l| Sequence::from_ascii("q", alphabet, l.as_bytes()).map(|s| s.residues))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("encode query: {e}"))?;
    if queries.is_empty() {
        return Err("no queries to replay".into());
    }

    // ---- core: the in-process twin of the served cluster.
    let base = if opts.dna {
        ClusterConfig::small_dna()
    } else {
        ClusterConfig::small_protein()
    };
    let config = ClusterConfig {
        nodes: NODES,
        groups: opts.groups,
        replication: 1,
        ..base
    };
    let params = if opts.dna {
        QueryParams::dna()
    } else {
        QueryParams::protein()
    };
    let block_len = config.block_len;
    let mut twin = None;
    let build_us = p.repeated("core", "MendelCluster::build", reps(3), |_| {
        twin = Some(MendelCluster::build(config.clone(), db.clone()));
    });
    p.report("core.build_ms", build_us / 1e3, "ms");
    let twin = Arc::new(
        twin.expect("at least one build")
            .map_err(|e| format!("build twin: {e}"))?,
    );

    let (blocks, blocks_us) = p.once("core", "make_blocks", || {
        db.iter()
            .flat_map(|s| make_blocks(s, block_len))
            .collect::<Vec<Block>>()
    });
    p.report(
        "core.make_blocks_per_s",
        blocks.len() as f64 / (blocks_us / 1e6),
        "1/s",
    );
    if blocks.is_empty() {
        return Err("corpus yields no blocks".into());
    }

    // ---- dht: SHA-1 placement of every block key.
    let topo = twin.topology();
    let placement = FlatPlacement::new();
    let placed = blocks.len().min(reps(100_000));
    let (_, place_us) = p.once("dht", "FlatPlacement::replicas", || {
        for b in &blocks[..placed] {
            black_box(placement.replicas(&topo, GroupId(0), &b.key().as_bytes()));
        }
    });
    p.report("dht.place_ns", place_us * 1e3 / placed as f64, "ns");

    // ---- vptree: one node's third of the blocks.
    let metric = config.metric.instantiate();
    let third = || -> Vec<WindowView> {
        blocks
            .iter()
            .step_by(NODES)
            .map(|b| b.window.clone())
            .collect()
    };
    let mut tree = None;
    let tree_us = p.repeated("vptree", "VpTree::build", 2, |_| {
        tree = Some(VpTree::build(
            third(),
            metric.clone(),
            config.bucket_capacity,
            config.seed,
        ));
    });
    p.report("vptree.build_ms", tree_us / 1e3, "ms");
    let tree = tree.expect("tree built");
    let stride = (blocks.len() / config.prefix_sample).max(1);
    let sample: Vec<Vec<u8>> = blocks
        .iter()
        .step_by(stride)
        .map(|b| b.window.to_vec())
        .collect();
    let prefix = VpPrefixTree::build(sample, metric.clone(), config.prefix_depth, config.seed);

    // ---- Per query: the twin's answer, then a replay through the layers.
    let wire = WireCluster::serve(twin.clone());
    let scoring = if opts.dna {
        ScoringMatrix::dna(2, -3)
    } else {
        ScoringMatrix::blosum62()
    };
    let mut inproc_us = Vec::new();
    let mut wire_us = Vec::new();
    let mut replay_sum_us = Vec::new();
    let mut per_call: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut taus = Vec::new();
    for (qi, query) in queries.iter().enumerate() {
        let (report, us) = p
            .rec
            .time("core", "MendelCluster::query", Some(qi), None, || {
                twin.query(query, &params)
            });
        let report = report.map_err(|e| format!("twin query {qi}: {e}"))?;
        inproc_us.push(us);
        let (hits, us) = p
            .rec
            .time("core", "WireCluster::query", Some(qi), None, || {
                wire.query(query, &params)
            });
        let hits = hits.map_err(|e| format!("wire query {qi}: {e}"))?;
        wire_us.push(us);
        if hits.len() != report.hits.len() {
            return Err(format!(
                "query {qi}: wire and in-process twins disagree on the hit count"
            ));
        }

        let replay = p.rec.open("harness", "replay", Some(qi), None);
        let mut sum = 0.0;
        let mut step =
            |p: &mut Probes, layer: &str, name: &'static str, calls: usize, f: &mut dyn FnMut()| {
                let ((), us) = p.rec.time(layer, name, Some(qi), Some(replay), f);
                sum += us;
                per_call
                    .entry(name)
                    .or_default()
                    .push(us / calls.max(1) as f64);
            };

        let mut offsets = Vec::new();
        step(&mut p, "core", "subquery_offsets", 1, &mut || {
            offsets = subquery_offsets(query.len(), block_len, params.k);
        });
        let windows: Vec<WindowView> = offsets
            .iter()
            .map(|&o| WindowView::standalone(query[o..o + block_len].to_vec()))
            .collect();
        // How many nodes search each window: every member of the one
        // group, or the groups the vp-prefix hash routes it to.
        let mut fanout = vec![NODES; windows.len()];
        step(
            &mut p,
            "vptree",
            "VpPrefixTree::hash_with_tolerance",
            windows.len(),
            &mut || {
                for (w, f) in windows.iter().zip(&mut fanout) {
                    let routed = prefix
                        .hash_with_tolerance(&w.to_vec(), params.group_tolerance)
                        .len();
                    if opts.groups > 1 {
                        *f = routed.min(opts.groups);
                    }
                }
            },
        );
        let searches: usize = fanout.iter().sum();
        step(
            &mut p,
            "vptree",
            "VpTree::knn_with_budget",
            searches,
            &mut || {
                for (w, &f) in windows.iter().zip(&fanout) {
                    for _ in 0..f {
                        let found = tree.knn_with_budget(w, KNN_N, KNN_BUDGET);
                        if let Some(last) = found.last() {
                            taus.push(last.dist);
                        }
                    }
                }
            },
        );
        let hits: &[MendelHit] = &report.hits;
        step(&mut p, "align", "extend_ungapped", hits.len(), &mut || {
            for h in hits {
                let Some(subject) = db.get(h.subject) else {
                    continue;
                };
                let seed = block_len
                    .min(h.query_end - h.query_start)
                    .min(h.subject_end - h.subject_start);
                if seed > 0 {
                    black_box(extend_ungapped(
                        query,
                        &subject.residues,
                        h.query_start,
                        h.subject_start,
                        seed,
                        &scoring,
                        params.x_drop_ungapped,
                    ));
                }
            }
        });
        step(
            &mut p,
            "align",
            "extend_gapped_banded",
            hits.len(),
            &mut || {
                for h in hits {
                    let Some(subject) = db.get(h.subject) else {
                        continue;
                    };
                    let half = (h.query_end - h.query_start) / 2;
                    let s_mid = (h.subject_start + half).min(subject.residues.len());
                    black_box(extend_gapped_banded(
                        query,
                        &subject.residues,
                        h.query_start + half,
                        s_mid,
                        &scoring,
                        params.gaps,
                        params.l,
                        params.x_drop_gapped,
                    ));
                }
            },
        );
        let mut coverage = None;
        step(
            &mut p,
            "core",
            "MendelCluster::coverage_with_down",
            1,
            &mut || {
                coverage = Some(twin.coverage_with_down(&[]));
            },
        );
        let coverage = coverage.expect("coverage computed");
        step(&mut p, "cli", "render_outcome_json", 1, &mut || {
            black_box(render_outcome_json(&db, hits, &coverage, &[]));
        });
        // One request and one reply frame per contacted node.
        let envelope = Envelope {
            from: NodeAddr(0),
            to: NodeAddr(1),
            correlation: qi as u64,
            payload: Bytes::from(query.clone()),
            trace: None,
        };
        let contacted = if opts.groups > 1 { opts.groups } else { NODES };
        let mut frame_error = None;
        step(
            &mut p,
            "net",
            "write_frame+read_frame",
            2 * contacted,
            &mut || {
                for _ in 0..2 * contacted {
                    let mut wire_bytes = Vec::with_capacity(query.len() + 64);
                    if let Err(e) = write_frame(&mut wire_bytes, &envelope) {
                        frame_error = Some(e.to_string());
                    }
                    match read_frame(&mut wire_bytes.as_slice()) {
                        Ok(decoded) => {
                            black_box(decoded);
                        }
                        Err(e) => frame_error = Some(e.to_string()),
                    }
                }
            },
        );
        if let Some(e) = frame_error {
            return Err(format!("frame round trip: {e}"));
        }
        p.rec.close(replay);
        replay_sum_us.push(sum);
    }
    drop(wire);
    let call = |name: &str| median(&per_call[name]);
    p.report("core.inproc_ms", median(&inproc_us) / 1e3, "ms");
    p.report("core.wire_sim_ms", median(&wire_us) / 1e3, "ms");
    p.report("core.decompose_us", call("subquery_offsets"), "us");
    p.report(
        "core.coverage_us",
        call("MendelCluster::coverage_with_down"),
        "us",
    );
    p.report("cli.render_us", call("render_outcome_json"), "us");
    p.report(
        "vptree.route_us",
        call("VpPrefixTree::hash_with_tolerance"),
        "us",
    );
    p.report("vptree.knn_us", call("VpTree::knn_with_budget"), "us");
    p.report("align.extend_ungapped_us", call("extend_ungapped"), "us");
    p.report("align.extend_gapped_us", call("extend_gapped_banded"), "us");
    p.report(
        "net.frame_roundtrip_us",
        call("write_frame+read_frame"),
        "us",
    );

    // ---- seq: bounded distances at the search radius τ seen above.
    if taus.is_empty() {
        return Err("no kNN search returned a neighbour".into());
    }
    let tau = median(&taus.iter().map(|&t| f64::from(t)).collect::<Vec<_>>()) as f32;
    let probes: Vec<&[u8]> = queries
        .iter()
        .filter(|q| q.len() >= block_len)
        .map(|q| &q[..block_len])
        .collect();
    let pairs = reps(200_000);
    let native_median = {
        let sample: Vec<f64> = (0..2_000.min(pairs))
            .map(|i| {
                f64::from(Metric::<[u8]>::dist(
                    &metric,
                    probes[i % probes.len()],
                    &blocks[i % blocks.len()].window,
                ))
            })
            .collect();
        median(&sample)
    };
    for (name, kernel) in [
        ("seq.dist_protein_ns", BlockMetric::mendel_blosum62()),
        ("seq.dist_hamming_ns", BlockMetric::Hamming),
    ] {
        // The workload's own metric gets the observed τ; the other one a
        // bound at the same place in its own distance distribution.
        let sample: Vec<f64> = (0..2_000.min(pairs))
            .map(|i| {
                f64::from(Metric::<[u8]>::dist(
                    &kernel,
                    probes[i % probes.len()],
                    &blocks[i % blocks.len()].window,
                ))
            })
            .collect();
        let bound =
            (f64::from(tau) / native_median.max(f64::MIN_POSITIVE) * median(&sample)) as f32;
        let (_, us) = p.once("seq", "Metric::dist_bounded", || {
            for i in 0..pairs {
                let a = probes[i % probes.len()];
                let b: &[u8] = &blocks[(i * 7) % blocks.len()].window;
                black_box(Metric::<[u8]>::dist_bounded(&kernel, a, b, bound));
            }
        });
        p.report(name, us * 1e3 / pairs as f64, "ns");
    }

    // ---- net: a frame over two loopback TCP transports and back.
    let rtt = tcp_rtt_us(&mut p, reps(300), queries[0].clone())?;
    p.report("net.tcp_rtt_us", rtt, "us");

    // ---- sched: hand an empty job to a worker and wait for it.
    let sched = Scheduler::detached(SchedConfig::default());
    let handoff = p.repeated("sched", "Scheduler::run+wait", reps(2_000), |_| {
        sched.run(|| ()).wait()
    });
    p.report("sched.handoff_us", handoff, "us");
    drop(sched);

    // ---- store: the durable engine on the real file system, default options.
    store_probes(&mut p, opts, &blocks, reps(1_500))?;

    let out = obj([
        ("metrics", Json::Obj(p.metrics)),
        (
            "replay_sum_us",
            Json::Arr(replay_sum_us.iter().map(|&us| num(us)).collect()),
        ),
        ("spans", spans_to_json(p.rec.spans())),
    ]);
    std::fs::write(&opts.out, out.render())
        .map_err(|e| format!("write {}: {e}", opts.out.display()))
}

/// Median round trip (send, `recv_timeout`, reply, `recv_timeout`) between
/// two `TcpTransport`s on loopback.
fn tcp_rtt_us(p: &mut Probes, reps: usize, payload: Vec<u8>) -> Result<f64, String> {
    let loopback = "127.0.0.1:0".parse().expect("socket address");
    let io = |e: std::io::Error| format!("TcpTransport::bind: {e}");
    let (a_addr, b_addr) = (NodeAddr(1), NodeAddr(2));
    let a = TcpTransport::bind(
        a_addr,
        loopback,
        &[],
        TcpConfig::default(),
        TransportMetrics::detached(),
    )
    .map_err(io)?;
    let a_sock = a
        .local_socket_addr()
        .ok_or("transport has no socket address")?;
    let b = TcpTransport::bind(
        b_addr,
        loopback,
        &[(a_addr, a_sock)],
        TcpConfig::default(),
        TransportMetrics::detached(),
    )
    .map_err(io)?;
    a.add_peer(
        b_addr,
        b.local_socket_addr()
            .ok_or("transport has no socket address")?,
    );
    let payload = Bytes::from(payload);
    let wait = Duration::from_secs(5);
    let mut lost = false;
    let rtt = p.repeated("net", "TcpTransport send+recv_timeout", reps, |i| {
        lost |= !a.send(b_addr, i as u64, payload.clone());
        lost |= b.recv_timeout(wait).is_err();
        lost |= !b.send(a_addr, i as u64, payload.clone());
        lost |= a.recv_timeout(wait).is_err();
    });
    a.shutdown();
    b.shutdown();
    if lost {
        return Err("a frame was lost between two loopback TcpTransports".into());
    }
    Ok(rtt)
}

fn store_probes(p: &mut Probes, opts: &Opts, blocks: &[Block], count: usize) -> Result<(), String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("store probe: {what}: {e}");
    let vfs: Arc<dyn Vfs> =
        Arc::new(RealVfs::new(opts.scratch.join("store")).map_err(|e| err("RealVfs::new", &e))?);
    let (mut store, _) = DurableStore::open(
        vfs,
        "probe",
        StoreOptions::default(),
        StoreMetrics::detached(),
    )
    .map_err(|e| err("DurableStore::open", &e))?;
    let count = count.min(blocks.len());
    let mut failure = None;
    let put_us = p.repeated("store", "DurableStore::put_block", count, |i| {
        let b = &blocks[i];
        if let Err(e) = store.put_block(
            &b.key().as_bytes(),
            b.window.backing(),
            b.window.offset() as u32,
            b.window.len() as u32,
        ) {
            failure.get_or_insert(err("put_block", &e));
        }
    });
    p.report("store.put_us", put_us, "us");
    let (flushed, flush_us) = p.once("store", "DurableStore::flush", || store.flush());
    flushed.map_err(|e| err("flush", &e))?;
    p.report("store.flush_ms", flush_us / 1e3, "ms");
    let mut wrong = 0usize;
    let hit_us = p.repeated("store", "DurableStore::get hit", count, |i| {
        let b = &blocks[i];
        match store.get(&b.key().as_bytes()) {
            Ok(Some(bytes)) if bytes == b.window.as_slice() => {}
            _ => wrong += 1,
        }
    });
    p.report("store.get_hit_us", hit_us, "us");
    let miss_us = p.repeated("store", "DurableStore::get miss", count, |i| {
        // Sequence ids this high are never generated.
        let absent = [0xff, 0xff, 0xff, 0x7f, i as u8, (i >> 8) as u8, 0, 0];
        if !matches!(store.get(&absent), Ok(None)) {
            wrong += 1;
        }
    });
    p.report("store.get_miss_us", miss_us, "us");
    if let Some(e) = failure {
        return Err(e);
    }
    if wrong > 0 {
        return Err(format!(
            "store probe: {wrong} reads returned the wrong bytes"
        ));
    }

    // What a SIGKILLed `mendel serve` left on disk: every acknowledged
    // block must come back.
    let recover: Arc<dyn Vfs> =
        Arc::new(RealVfs::new(&opts.recover_dir).map_err(|e| err("RealVfs::new", &e))?);
    let (recovered, recovery_us) = p.once("store", "DurableStore::open (recovery)", || {
        (0..NODES)
            .map(|n| {
                let (store, _report) = DurableStore::open(
                    recover.clone(),
                    &format!("node-{n}"),
                    StoreOptions::default(),
                    StoreMetrics::detached(),
                )?;
                Ok(store.scan()?.len())
            })
            .sum::<Result<usize, mendel::store::StoreError>>()
    });
    let recovered = recovered.map_err(|e| err("recovery", &e))?;
    p.report("store.recovery_ms", recovery_us / 1e3, "ms");
    p.report(
        "store.recovered_frac",
        recovered as f64 / opts.recover_blocks,
        "frac",
    );
    Ok(())
}
