//! Seeded chaos suite: drive deterministic fault schedules through the
//! whole inject → detect → route-around → repair → report loop.
//!
//! Faults (message drops, node crash/restart schedules) come from a
//! seeded `FaultPlan`, so every run is exactly reproducible; detection
//! runs over real heartbeat traffic on the lossy network; the cluster
//! routes around suspects, `repair()` restores the replication factor,
//! and `QueryReport::coverage` certifies when answers are complete.

use mendel_suite::core::{ClusterConfig, MendelCluster, QueryParams};
use mendel_suite::dht::NodeId;
use mendel_suite::net::fault::{crash_schedule, schedule_bytes, FaultConfig, FaultPlan};
use mendel_suite::net::heartbeat::beat_until_stopped;
use mendel_suite::net::{HeartbeatMonitor, Network, NodeAddr};
use mendel_suite::seq::gen::NrLikeSpec;
use mendel_suite::seq::{SeqId, SeqStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const NODES: usize = 8;
const BEAT_PERIOD: Duration = Duration::from_millis(10);
const SUSPECT_TIMEOUT: Duration = Duration::from_millis(80);

fn db(seed: u64) -> Arc<SeqStore> {
    Arc::new(
        NrLikeSpec {
            families: 14,
            members_per_family: 2,
            length_range: (150, 280),
            seed,
            ..Default::default()
        }
        .generate()
        .unwrap(),
    )
}

fn replicated_cluster(db: &Arc<SeqStore>) -> MendelCluster {
    let cfg = ClusterConfig {
        nodes: NODES,
        groups: 2,
        replication: 2,
        ..ClusterConfig::small_protein()
    };
    MendelCluster::build(cfg, db.clone()).unwrap()
}

/// Heartbeat infrastructure over a (possibly faulty) network: one beater
/// thread per storage node at address `NodeAddr(i) == NodeId(i)`, plus a
/// monitor endpoint joined last.
struct BeatNet {
    monitor_ep: mendel_suite::net::Endpoint,
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<usize>>,
}

impl BeatNet {
    fn start(net: &Network) -> Self {
        let node_eps = net.join_many(NODES);
        let monitor_ep = net.join();
        let monitor_addr = monitor_ep.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let handles = node_eps
            .into_iter()
            .map(|ep| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    beat_until_stopped(&ep, monitor_addr, BEAT_PERIOD, &stop)
                })
            })
            .collect();
        BeatNet {
            monitor_ep,
            stop,
            handles,
        }
    }

    fn shutdown(self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles {
            assert!(h.join().unwrap() > 0, "every beater actually beat");
        }
    }
}

/// Dumps the cluster's per-node flight recorders to stderr when the
/// enclosing chaos run panics, so a failed run leaves its causal traces
/// behind as a post-mortem artifact (DESIGN.md §12).
struct DumpOnPanic<'a>(&'a MendelCluster);

impl Drop for DumpOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "chaos run failed; post-mortem follows\n{}",
                self.0.flight_recorder_dump()
            );
        }
    }
}

/// One full chaos run for `seed`. Asserts the acceptance contract:
/// the schedule replays byte-identically, queries stay correct whenever
/// coverage is complete, and after every node restarts the cluster
/// converges back to full coverage with hits identical to the
/// fault-free baseline. Causal tracing stays on throughout, so any
/// failure dumps the flight recorders via [`DumpOnPanic`].
fn chaos_run(seed: u64) {
    let db = db(seed ^ 0xD8);
    let cluster = replicated_cluster(&db);
    cluster.set_tracing(true);
    let _postmortem = DumpOnPanic(&cluster);
    let params = QueryParams::protein();
    let queries: Vec<Vec<u8>> = (0..4)
        .map(|i| db.get(SeqId(i * 7)).unwrap().residues.clone())
        .collect();
    let baselines: Vec<_> = queries
        .iter()
        .map(|q| cluster.query(q, &params).unwrap().hits)
        .collect();

    // ≥ 3 crash/restart events over the storage nodes, deterministic and
    // byte-identical on replay.
    let addrs: Vec<NodeAddr> = (0..NODES as u16).map(NodeAddr).collect();
    let schedule = crash_schedule(seed, &addrs, 5, 100);
    assert!(schedule.len() >= 3, "need at least 3 fault events");
    assert_eq!(
        schedule_bytes(&schedule),
        schedule_bytes(&crash_schedule(seed, &addrs, 5, 100)),
        "same seed must replay the exact same fault schedule"
    );

    // Lossy network (drop probability ≥ 0.05) carrying real heartbeats.
    let net = Network::new();
    let plan = Arc::new(FaultPlan::new(FaultConfig::drops(seed, 0.08)));
    net.set_fault_plan(Some(plan.clone()));
    let beat = BeatNet::start(&net);
    let mut monitor = HeartbeatMonitor::new(SUSPECT_TIMEOUT);

    let observe = |monitor: &mut HeartbeatMonitor, rounds: usize| {
        for _ in 0..rounds {
            std::thread::sleep(Duration::from_millis(20));
            monitor.drain(&beat.monitor_ep);
        }
    };

    // Let every node establish a healthy baseline in the monitor.
    observe(&mut monitor, 4);
    cluster.sync_failure_detector(&monitor);

    for event in &schedule {
        plan.apply(event);
        // Give suspicion time to form (or clear) over the lossy network.
        observe(&mut monitor, 7);
        cluster.sync_failure_detector(&monitor);
        let repaired = cluster.repair();
        let _ = repaired.copies_added; // accounting exercised every round
                                       // Whenever no block lost every replica, answers must be exact.
        let entry = (0..NODES as u16)
            .map(NodeId)
            .find(|n| !cluster.failed_nodes().contains(n));
        if let Some(entry) = entry {
            let report = cluster.query_from(entry, &queries[0], &params).unwrap();
            if !report.coverage.degraded {
                assert_eq!(
                    report.hits, baselines[0],
                    "complete coverage must mean complete answers (seed {seed:#x})"
                );
            }
        }
    }

    // The schedule restarts every crashed node; once beats flow again the
    // detector must converge back to an empty failed set.
    assert!(
        plan.crashed_nodes().is_empty(),
        "schedule ends all-restarted"
    );
    let mut converged = false;
    for _ in 0..50 {
        observe(&mut monitor, 2);
        cluster.sync_failure_detector(&monitor);
        if cluster.failed_nodes().is_empty() {
            converged = true;
            break;
        }
    }
    beat.shutdown();
    assert!(converged, "all nodes beat again => failed set drains");

    // Final repair → full coverage, exact fault-free results.
    cluster.repair();
    for (q, baseline) in queries.iter().zip(&baselines) {
        let report = cluster.query(q, &params).unwrap();
        assert!(
            !report.coverage.degraded,
            "converged cluster is not degraded"
        );
        assert_eq!(report.coverage.fraction(), 1.0);
        assert_eq!(
            &report.hits, baseline,
            "post-chaos hits match fault-free run"
        );
    }
    assert!(
        plan.stats().dropped() + plan.stats().crash_blocked() > 0,
        "the plan actually injected faults"
    );
}

#[test]
fn seeded_chaos_converges_to_full_coverage() {
    chaos_run(0xC0FFEE);
}

#[test]
fn seeded_chaos_second_seed() {
    chaos_run(0x5EED5);
}

/// Longer multi-seed sweep; run with `cargo test -- --ignored`.
#[test]
#[ignore]
fn seeded_chaos_sweep() {
    for seed in [1u64, 2, 3, 0xBEEF, 0xFEED] {
        chaos_run(seed);
    }
}

#[test]
fn ingest_while_degraded_heals_to_full_replication() {
    let db = db(0xA1);
    let cluster = replicated_cluster(&db);
    let params = QueryParams::protein();

    // A node dies; new data arrives while it is down. Replicas that
    // would land on the dead node go to the next live member of its
    // group instead, so the fresh blocks are never under-replicated.
    cluster.fail_node(NodeId(2)).unwrap();
    let extra = NrLikeSpec {
        families: 2,
        members_per_family: 1,
        length_range: (160, 200),
        seed: 0xFE1D,
        ..Default::default()
    }
    .generate()
    .unwrap();
    let new_seqs: Vec<_> = extra.iter().cloned().collect();
    let ids = cluster.insert_sequences(new_seqs.clone()).unwrap();

    // The new data is findable right away (its replicas are live).
    let r = cluster.query(&new_seqs[0].residues, &params).unwrap();
    assert_eq!(r.best().unwrap().subject, ids[0]);
    assert!(!r.coverage.degraded, "live replicas carry the new blocks");
    assert_eq!(
        cluster.total_blocks(),
        2 * cluster.coverage().blocks_expected,
        "the ingest placed two copies of every new block"
    );

    // Node returns; every block is already at replication 2, so repair
    // has nothing to copy.
    cluster.recover_node(NodeId(2)).unwrap();
    assert_eq!(cluster.repair().copies_added, 0, "nothing under-replicated");
    assert!(!cluster.coverage().degraded);
}

#[test]
fn crashed_node_recovers_after_restart_under_plan() {
    // Crash semantics at the plan level: while crashed, a node's beats
    // are discarded and it gets suspected; after restart its beats flow
    // and the cluster auto-recovers it.
    let db = db(0xB2);
    let cluster = replicated_cluster(&db);
    let net = Network::new();
    let plan = Arc::new(FaultPlan::new(FaultConfig::passthrough(7)));
    net.set_fault_plan(Some(plan.clone()));
    let beat = BeatNet::start(&net);
    let mut monitor = HeartbeatMonitor::new(SUSPECT_TIMEOUT);

    // Healthy baseline.
    for _ in 0..4 {
        std::thread::sleep(Duration::from_millis(20));
        monitor.drain(&beat.monitor_ep);
    }
    cluster.sync_failure_detector(&monitor);
    assert!(cluster.failed_nodes().is_empty());

    plan.crash(NodeAddr(5));
    for _ in 0..7 {
        std::thread::sleep(Duration::from_millis(20));
        monitor.drain(&beat.monitor_ep);
    }
    let delta = cluster.sync_failure_detector(&monitor);
    assert!(
        delta.suspected.contains(&NodeId(5)),
        "crashed node suspected"
    );

    plan.restart(NodeAddr(5));
    let mut recovered = false;
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(20));
        monitor.drain(&beat.monitor_ep);
        let delta = cluster.sync_failure_detector(&monitor);
        if delta.recovered.contains(&NodeId(5)) {
            recovered = true;
            break;
        }
    }
    beat.shutdown();
    assert!(recovered, "restarted node beats again and auto-recovers");
    assert!(cluster.failed_nodes().is_empty());
}
