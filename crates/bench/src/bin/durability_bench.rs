//! PR 7 durability bench — what does crash safety cost, and does it
//! hold?
//!
//! Four sections against the `mendel-store` engine on a seeded
//! in-memory disk ([`MemVfs`]), all deterministic:
//!
//! 1. **crash matrix** — kill the store after every VFS operation of an
//!    ingest run, recover, and check the committed-prefix invariant
//!    (the same sweep as `crates/store/tests/crash_matrix.rs`, sized
//!    for CI). Emits `bench_results/durability.json` (`--smoke`: in the
//!    system temp dir).
//! 2. **WAL replay throughput** — records/s and MB/s of a cold open
//!    replaying an unflushed log.
//! 3. **recovery time vs. log size** — cold-open latency as the WAL
//!    grows.
//! 4. **bloom negative rate** — fraction of absent-key lookups answered
//!    without touching a segment file (DESIGN.md §14.3 sets the
//!    10-bits/key design point; false positives cost one read each).
//!
//! ```sh
//! cargo run --release -p mendel-bench --bin durability_bench            # full, writes BENCH_pr7_recovery.json
//! cargo run --release -p mendel-bench --bin durability_bench -- --smoke # tiny sizes, invariant checks only
//! ```

// Benchmark reports go to stdout by design.
#![allow(clippy::print_stdout)]

use mendel_bench::figure_header;
use mendel_store::{
    DiskFaultConfig, DurableStore, FsyncPolicy, MemVfs, StoreMetrics, StoreOptions, Vfs,
};
use std::sync::Arc;
use std::time::Instant;

struct Scale {
    matrix_records: u64,
    replay_records: u64,
    log_sweep: &'static [u64],
    bloom_keys: u64,
    bloom_probes: u64,
}

const FULL: Scale = Scale {
    matrix_records: 24,
    replay_records: 50_000,
    log_sweep: &[1_000, 4_000, 16_000, 64_000],
    bloom_keys: 50_000,
    bloom_probes: 20_000,
};

const SMOKE: Scale = Scale {
    matrix_records: 12,
    replay_records: 2_000,
    log_sweep: &[250, 1_000, 4_000],
    bloom_keys: 4_000,
    bloom_probes: 2_000,
};

const VALUE_LEN: usize = 256;

fn value_for(i: u64, len: usize) -> Vec<u8> {
    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.extend_from_slice(&x.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes());
    }
    out.truncate(len);
    out
}

fn open(vfs: &Arc<MemVfs>, opts: StoreOptions) -> DurableStore {
    let dynvfs: Arc<dyn Vfs> = vfs.clone();
    DurableStore::open(dynvfs, "bench", opts, StoreMetrics::detached())
        // audit:allow(expect): bench binary on a fault-free MemVfs; failure means the harness is broken.
        .expect("open on a healthy disk")
        .0
}

/// Section 1: the crash-point matrix. Returns (crash points swept,
/// invariant violations).
fn crash_matrix(records: u64, policy: FsyncPolicy) -> (u64, u64) {
    let sizes = [1usize, 64, 257, 1024, 9];
    let opts = StoreOptions {
        fsync: policy,
        memtable_max_entries: 8,
    };
    let workload = |store: &mut DurableStore| -> (u64, u64, u64) {
        // (acked, committed, attempted)
        let mut acked = 0u64;
        let mut committed = 0u64;
        for i in 0..records {
            if store
                .put(
                    &i.to_be_bytes(),
                    &value_for(i, sizes[i as usize % sizes.len()]),
                )
                .is_err()
            {
                return (acked, committed, i + 1);
            }
            acked = i + 1;
            if policy == FsyncPolicy::Always {
                committed = acked;
            }
            if i % 5 == 4 {
                if store.flush().is_err() {
                    return (acked, committed, acked);
                }
                committed = acked;
            }
        }
        (acked, committed, acked)
    };

    // Fault-free run measures the op range to sweep.
    let vfs = Arc::new(MemVfs::new(DiskFaultConfig::none(7)));
    let mut store = open(&vfs, opts);
    let (acked, _, _) = workload(&mut store);
    assert_eq!(acked, records, "fault-free run must ack everything");
    let total = vfs.ops();
    drop(store);

    let mut violations = 0u64;
    for crash_at in 0..total {
        let vfs = Arc::new(MemVfs::new(DiskFaultConfig::none(7).crash_at(crash_at)));
        let dynvfs: Arc<dyn Vfs> = vfs.clone();
        let (_, committed, attempted) =
            match DurableStore::open(dynvfs, "bench", opts, StoreMetrics::detached()) {
                Ok((mut store, _)) => workload(&mut store),
                Err(_) => (0, 0, 0),
            };
        vfs.recover();
        let store = open(&vfs, opts);
        let scanned = match store.scan() {
            Ok(s) => s,
            Err(_) => {
                violations += 1;
                continue;
            }
        };
        let m = scanned.len() as u64;
        let prefix_ok = scanned.iter().enumerate().all(|(i, rec)| {
            let i = i as u64;
            rec.key == i.to_be_bytes()
                && rec.backing[rec.offset as usize..(rec.offset + rec.len) as usize]
                    == value_for(i, sizes[i as usize % sizes.len()])
        });
        if !(committed <= m && m <= attempted && prefix_ok) {
            violations += 1;
        }
    }
    (total, violations)
}

/// Sections 2–3: ingest `records` into a WAL-only store, then time a
/// cold open (replay). Returns (replay seconds, replayed bytes).
fn replay_time(records: u64, fsync: FsyncPolicy) -> (f64, u64) {
    let opts = StoreOptions {
        fsync,
        // Never flush: everything stays in the WAL so the open replays
        // the full log.
        memtable_max_entries: usize::MAX,
    };
    let vfs = Arc::new(MemVfs::new(DiskFaultConfig::none(11)));
    let mut store = open(&vfs, opts);
    for i in 0..records {
        store
            .put(&i.to_be_bytes(), &value_for(i, VALUE_LEN))
            // audit:allow(expect): bench binary on a fault-free MemVfs; failure means the harness is broken.
            .expect("healthy disk accepts writes");
    }
    // audit:allow(expect): bench binary on a fault-free MemVfs; failure means the harness is broken.
    store.sync().expect("healthy disk syncs");
    let wal_bytes = store.wal_bytes();
    drop(store);
    let t = Instant::now();
    let store = open(&vfs, opts);
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(store.memtable_len() as u64, records, "replay is lossless");
    (secs, wal_bytes)
}

/// Section 4: fill + flush into segments, then probe absent keys.
/// Returns (segments, probes, bloom short-circuits, segment reads).
fn bloom_negative_rate(keys: u64, probes: u64) -> (usize, u64, u64, u64) {
    let opts = StoreOptions {
        fsync: FsyncPolicy::OnFlush,
        memtable_max_entries: (keys / 4).max(1) as usize,
    };
    let vfs = Arc::new(MemVfs::new(DiskFaultConfig::none(13)));
    let metrics = StoreMetrics::detached();
    let dynvfs: Arc<dyn Vfs> = vfs.clone();
    let mut store = DurableStore::open(dynvfs, "bench", opts, metrics.clone())
        // audit:allow(expect): bench binary on a fault-free MemVfs; failure means the harness is broken.
        .expect("open on a healthy disk")
        .0;
    for i in 0..keys {
        store
            .put(&i.to_be_bytes(), &value_for(i, 32))
            // audit:allow(expect): bench binary on a fault-free MemVfs; failure means the harness is broken.
            .expect("healthy disk accepts writes");
    }
    // audit:allow(expect): bench binary on a fault-free MemVfs; failure means the harness is broken.
    store.flush().expect("healthy disk flushes");
    let segments = store.segment_count();
    let before_neg = metrics.bloom_negatives.get();
    let before_reads = metrics.segment_reads.get();
    for i in 0..probes {
        // Keys beyond the inserted range are guaranteed absent.
        let absent = (keys + 1 + i).to_be_bytes();
        // audit:allow(expect): bench binary on a fault-free MemVfs; failure means the harness is broken.
        let got = store.get(&absent).expect("healthy disk reads");
        assert!(got.is_none(), "absent key must miss");
    }
    (
        segments,
        probes,
        metrics.bloom_negatives.get() - before_neg,
        metrics.segment_reads.get() - before_reads,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { SMOKE } else { FULL };
    figure_header(
        "PR 7 durability",
        "crash-point matrix, WAL replay throughput, recovery vs. log size, bloom negative rate",
    );
    if smoke {
        println!("mode: --smoke (tiny sizes; invariant checks only)\n");
    }

    // 1. Crash matrix over three fsync policies.
    let mut matrix_rows = String::new();
    let mut matrix_points = 0u64;
    let mut matrix_violations = 0u64;
    for (name, policy) in [
        ("always", FsyncPolicy::Always),
        ("every_3", FsyncPolicy::EveryN(3)),
        ("on_flush", FsyncPolicy::OnFlush),
    ] {
        let (points, violations) = crash_matrix(scale.matrix_records, policy);
        println!("crash matrix [{name:>8}]: {points:5} crash points, {violations} violations");
        matrix_points += points;
        matrix_violations += violations;
        if !matrix_rows.is_empty() {
            matrix_rows.push_str(", ");
        }
        matrix_rows.push_str(&format!(
            "{{\"policy\": \"{name}\", \"crash_points\": {points}, \"violations\": {violations}}}"
        ));
    }
    assert_eq!(
        matrix_violations, 0,
        "kill-and-recover invariant must hold at every crash point"
    );

    // 2. WAL replay throughput.
    let (replay_secs, replay_bytes) = replay_time(scale.replay_records, FsyncPolicy::OnFlush);
    let rec_per_s = scale.replay_records as f64 / replay_secs;
    let mb_per_s = replay_bytes as f64 / 1e6 / replay_secs;
    println!(
        "\nWAL replay: {} records / {:.1} MB in {:.1} ms  ({:.0} records/s, {:.0} MB/s)",
        scale.replay_records,
        replay_bytes as f64 / 1e6,
        replay_secs * 1e3,
        rec_per_s,
        mb_per_s,
    );

    // 3. Recovery time vs. log size.
    println!("\nrecovery time vs. log size:");
    let mut sweep_rows = String::new();
    for &n in scale.log_sweep {
        let (secs, bytes) = replay_time(n, FsyncPolicy::OnFlush);
        println!(
            "  {n:7} records ({:6.2} MB): {:8.2} ms",
            bytes as f64 / 1e6,
            secs * 1e3
        );
        if !sweep_rows.is_empty() {
            sweep_rows.push_str(", ");
        }
        sweep_rows.push_str(&format!(
            "{{\"records\": {n}, \"wal_bytes\": {bytes}, \"recovery_ms\": {:.3}}}",
            secs * 1e3
        ));
    }

    // 4. Bloom negative-lookup rate.
    let (segments, probes, negatives, seg_reads) =
        bloom_negative_rate(scale.bloom_keys, scale.bloom_probes);
    let consults = probes * segments as u64;
    let rate = negatives as f64 / consults.max(1) as f64;
    println!(
        "\nbloom negatives: {probes} absent probes over {segments} segments — \
         {negatives}/{consults} consults short-circuited ({:.2}%), {seg_reads} segment reads",
        rate * 100.0
    );
    assert!(
        rate > 0.95,
        "10-bits/key bloom should short-circuit ≥95% of absent-key consults (got {rate:.4})"
    );

    let durability_json = format!(
        "{{\n  \"bench\": \"pr7_durability\",\n  \"mode\": \"{}\",\n  \"records_per_run\": {},\n  \"crash_matrix\": [{matrix_rows}],\n  \"total_crash_points\": {matrix_points},\n  \"total_violations\": {matrix_violations}\n}}\n",
        if smoke { "smoke" } else { "full" },
        scale.matrix_records,
    );
    // A smoke run (the CI gate) must not touch the working tree.
    let results_dir = if smoke {
        std::env::temp_dir()
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results")
    };
    // audit:allow(expect): bench binary; an unwritable report path should abort the run.
    std::fs::create_dir_all(&results_dir).expect("create report directory");
    let durability_path = results_dir.join("durability.json");
    // audit:allow(expect): bench binary; an unwritable report path should abort the run.
    std::fs::write(&durability_path, &durability_json).expect("write durability report");
    println!("\nreport: {}", durability_path.display());

    if !smoke {
        let json = format!(
            "{{\n  \"bench\": \"pr7_recovery\",\n  \"mode\": \"full\",\n  \"crash_matrix\": {{\"crash_points\": {matrix_points}, \"violations\": {matrix_violations}}},\n  \"wal_replay\": {{\n    \"records\": {}, \"value_len\": {VALUE_LEN}, \"wal_bytes\": {replay_bytes},\n    \"replay_ms\": {:.3}, \"records_per_s\": {rec_per_s:.0}, \"mb_per_s\": {mb_per_s:.1}\n  }},\n  \"recovery_vs_log_size\": [{sweep_rows}],\n  \"bloom\": {{\n    \"bits_per_key\": 10, \"probes\": 7, \"segments\": {segments},\n    \"absent_probes\": {probes}, \"consults\": {consults}, \"short_circuited\": {negatives},\n    \"negative_rate\": {rate:.4}, \"false_positive_segment_reads\": {seg_reads}\n  }}\n}}\n",
            scale.replay_records,
            replay_secs * 1e3,
        );
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pr7_recovery.json");
        // audit:allow(expect): bench binary; an unwritable report path should abort the run.
        std::fs::write(&path, &json).expect("write benchmark report");
        println!("report: {}", path.display());
    }
    if smoke {
        println!("smoke checks passed: zero invariant violations, lossless replay, bloom rate ok");
    }
}
