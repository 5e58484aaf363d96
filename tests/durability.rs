//! Cluster-level durability integration tests (DESIGN.md §14): nodes
//! backed by the `mendel-store` WAL/segment engine must survive
//! kill-and-recover chaos with bit-identical answers, and a torn-tail
//! machine crash must lose at most the un-synced suffix.

use mendel_suite::core::{ClusterConfig, MendelCluster, QueryParams, StorageBackend};
use mendel_suite::dht::NodeId;
use mendel_suite::obs::MonotonicClock;
use mendel_suite::seq::gen::NrLikeSpec;
use mendel_suite::seq::{Alphabet, SeqId, SeqStore};
use mendel_suite::store::{DiskFaultConfig, FsyncPolicy, MemVfs, StoreOptions, Vfs};
use std::sync::Arc;

fn db(seed: u64) -> Arc<SeqStore> {
    Arc::new(
        NrLikeSpec {
            families: 16,
            members_per_family: 2,
            length_range: (150, 300),
            seed,
            ..Default::default()
        }
        .generate()
        .unwrap(),
    )
}

fn durable_config(opts: StoreOptions) -> ClusterConfig {
    ClusterConfig {
        nodes: 8,
        groups: 2,
        replication: 2,
        storage: StorageBackend::Durable(opts),
        ..ClusterConfig::small_protein()
    }
}

fn queries(db: &SeqStore) -> Vec<Vec<u8>> {
    (0..6)
        .map(|i| db.get(SeqId(i * 5)).unwrap().residues.clone())
        .collect()
}

fn answers(
    cluster: &MendelCluster,
    queries: &[Vec<u8>],
) -> Vec<Vec<mendel_suite::core::MendelHit>> {
    let params = QueryParams::protein();
    queries
        .iter()
        .map(|q| cluster.query(q, &params).unwrap().hits)
        .collect()
}

/// The PR's acceptance criterion: ingest -> crash every node -> recover
/// from disk -> query, bit-identical to a cluster that never crashed.
#[test]
fn kill_and_recover_round_trip_is_bit_identical_to_uncrashed_run() {
    let db = db(41);
    let cfg = durable_config(StoreOptions::default());
    let pristine = MendelCluster::build(cfg.clone(), db.clone()).unwrap();
    let chaotic = MendelCluster::build(cfg, db.clone()).unwrap();
    let qs = queries(&db);

    // Crash + recover every node: RAM dies, the WAL replay rebuilds it.
    for n in 0..8 {
        chaotic.fail_node(NodeId(n)).unwrap();
        chaotic.recover_node(NodeId(n)).unwrap();
    }
    assert!(chaotic.failed_nodes().is_empty());
    assert_eq!(chaotic.total_blocks(), pristine.total_blocks());
    assert_eq!(answers(&chaotic, &qs), answers(&pristine, &qs));

    let snap = chaotic.metrics_snapshot();
    assert_eq!(snap.counter("mendel.store.recoveries"), 8);
    assert!(snap.counter("mendel.store.replayed_records") > 0);
    let hist = snap
        .histogram("mendel.store.recovery.seconds")
        .expect("recovery histogram registered");
    assert_eq!(hist.count(), 8);
}

/// Group-commit (EveryN) with an explicit `sync_storage` barrier before
/// a whole-disk machine crash: every record was made durable, so the
/// recovered cluster answers exactly like before the crash.
#[test]
fn machine_crash_after_sync_barrier_loses_nothing() {
    let db = db(42);
    let vfs = Arc::new(MemVfs::new(DiskFaultConfig::torn(0xD15C)));
    let opts = StoreOptions {
        fsync: FsyncPolicy::EveryN(8),
        ..StoreOptions::default()
    };
    let cluster = MendelCluster::build_with_storage(
        durable_config(opts),
        db.clone(),
        Arc::new(MonotonicClock::new()),
        Some(vfs.clone() as Arc<dyn Vfs>),
    )
    .unwrap();
    let qs = queries(&db);
    let baseline = answers(&cluster, &qs);

    // Make the group-committed tail durable, then tear every un-synced
    // tail on the simulated disk (there are none left) and kill every
    // node process.
    cluster.sync_storage().unwrap();
    vfs.crash("");
    for n in 0..8 {
        cluster.fail_node(NodeId(n)).unwrap();
        cluster.recover_node(NodeId(n)).unwrap();
    }
    assert_eq!(answers(&cluster, &qs), baseline);
}

/// The same machine crash *without* the sync barrier: with group commit
/// the torn tails may eat the last un-synced records, but recovery must
/// still succeed and hold a prefix — never more blocks than were
/// written, never an error, never a panic on queries.
#[test]
fn machine_crash_without_sync_recovers_a_committed_prefix() {
    let db = db(43);
    let vfs = Arc::new(MemVfs::new(DiskFaultConfig::torn(0x7E42)));
    let opts = StoreOptions {
        fsync: FsyncPolicy::OnFlush,
        memtable_max_entries: 64,
    };
    let cluster = MendelCluster::build_with_storage(
        durable_config(opts),
        db.clone(),
        Arc::new(MonotonicClock::new()),
        Some(vfs.clone() as Arc<dyn Vfs>),
    )
    .unwrap();
    let written = cluster.total_blocks();

    vfs.crash("");
    for n in 0..8 {
        cluster.fail_node(NodeId(n)).unwrap();
        cluster.recover_node(NodeId(n)).unwrap();
    }
    assert!(cluster.total_blocks() <= written);

    // Whatever survived must still answer queries without erroring.
    let params = QueryParams::protein();
    for q in queries(&db) {
        let report = cluster.query(&q, &params).unwrap();
        assert!(report.coverage.fraction() <= 1.0);
    }
}

/// Incremental growth (§VI-D) through the durable path: sequences
/// inserted after construction survive kill-and-recover too.
#[test]
fn inserted_sequences_survive_kill_and_recover() {
    let db = db(44);
    let cluster = MendelCluster::build(durable_config(StoreOptions::default()), db).unwrap();

    let extra = NrLikeSpec {
        families: 2,
        members_per_family: 2,
        length_range: (150, 300),
        seed: 440,
        ..Default::default()
    }
    .generate()
    .unwrap();
    let seqs: Vec<_> = (0..extra.len())
        .map(|i| extra.get(SeqId(i as u32)).unwrap().clone())
        .collect();
    let ids = cluster.insert_sequences(seqs.clone()).unwrap();

    let params = QueryParams::protein();
    let probe = seqs[0].residues.clone();
    let before = cluster.query(&probe, &params).unwrap().hits;
    assert!(before.iter().any(|h| h.subject == ids[0]));

    for n in 0..8 {
        cluster.fail_node(NodeId(n)).unwrap();
        cluster.recover_node(NodeId(n)).unwrap();
    }
    assert_eq!(cluster.query(&probe, &params).unwrap().hits, before);
}

/// Memory mode is the control group: no VFS exists and killing a node
/// is handled by replication, not by disk replay.
#[test]
fn memory_backend_exposes_no_vfs() {
    let db = db(45);
    let cfg = ClusterConfig {
        nodes: 4,
        groups: 2,
        alphabet: Alphabet::Protein,
        ..ClusterConfig::small_protein()
    };
    let cluster = MendelCluster::build(cfg, db).unwrap();
    assert!(cluster.storage_vfs().is_none());
    assert_eq!(
        cluster
            .metrics_snapshot()
            .counter("mendel.store.recoveries"),
        0
    );
}

/// `fail_node` on the durable backend drops the node's RAM, which is
/// where coverage and repair read the placed universe from. The dead
/// node's blocks must stay in `expected` all the same: unreplicated,
/// they are lost until it recovers, exactly as the memory backend (which
/// keeps a failed node's RAM) reports it.
#[test]
fn dead_durable_node_keeps_its_blocks_in_expected_coverage() {
    let db = db(45);
    let build = |storage: StorageBackend| {
        let cfg = ClusterConfig {
            replication: 1,
            storage,
            ..ClusterConfig::small_protein()
        };
        MendelCluster::build(cfg, db.clone()).unwrap()
    };
    let memory = build(StorageBackend::Memory);
    let durable = build(StorageBackend::Durable(StoreOptions::default()));
    let q = db.get(SeqId(3)).unwrap().residues.clone();
    let params = QueryParams::protein();
    let full = durable.coverage();
    assert!(!full.degraded);
    assert_eq!(full, memory.coverage());

    memory.fail_node(NodeId(1)).unwrap();
    durable.fail_node(NodeId(1)).unwrap();
    let degraded = memory.coverage();
    assert!(degraded.degraded && degraded.blocks_expected == full.blocks_expected);
    assert_eq!(durable.coverage(), degraded);
    assert_eq!(durable.query(&q, &params).unwrap().coverage, degraded);
    assert_eq!(memory.query(&q, &params).unwrap().coverage, degraded);
    let lost = full.blocks_expected - degraded.blocks_reachable;
    assert_eq!(memory.repair().unreachable, lost);
    assert_eq!(durable.repair().unreachable, lost);

    durable.recover_node(NodeId(1)).unwrap();
    assert_eq!(durable.coverage(), full);
    assert_eq!(durable.query(&q, &params).unwrap().coverage, full);
}

/// A `recover_node` whose disk cannot be read back must leave the node
/// where `fail_node` put it: still failed, its blocks still expected and
/// unreachable, queries routed around it. Dropping it from the failed
/// set with empty RAM would take its blocks out of `expected`, and lost
/// data would read as a healthy cluster.
#[test]
fn failed_recover_keeps_the_node_failed_and_its_blocks_expected() {
    let db = db(46);
    let vfs = Arc::new(MemVfs::plain(46));
    let cfg = ClusterConfig {
        replication: 1,
        storage: StorageBackend::Durable(StoreOptions::default()),
        ..ClusterConfig::small_protein()
    };
    let cluster = MendelCluster::build_with_storage(
        cfg,
        db.clone(),
        Arc::new(MonotonicClock::new()),
        Some(vfs.clone() as Arc<dyn Vfs>),
    )
    .unwrap();
    let q = db.get(SeqId(3)).unwrap().residues.clone();
    let params = QueryParams::protein();
    let full = cluster.coverage();
    cluster.fail_node(NodeId(1)).unwrap();
    let degraded = cluster.coverage();
    assert!(degraded.degraded && degraded.blocks_expected == full.blocks_expected);

    // The disk dies under the restart.
    vfs.set_crash_after(0);
    assert!(cluster.recover_node(NodeId(1)).is_err());
    assert_eq!(cluster.failed_nodes(), vec![NodeId(1)]);
    assert_eq!(cluster.coverage(), degraded);
    assert_eq!(cluster.query(&q, &params).unwrap().coverage, degraded);
    let lost = full.blocks_expected - degraded.blocks_reachable;
    assert_eq!(cluster.repair().unreachable, lost);

    // The disk comes back: a second recover returns the node to full.
    vfs.recover();
    cluster.recover_node(NodeId(1)).unwrap();
    assert!(cluster.failed_nodes().is_empty());
    assert_eq!(cluster.coverage(), full);
    assert_eq!(cluster.query(&q, &params).unwrap().coverage, full);
}
