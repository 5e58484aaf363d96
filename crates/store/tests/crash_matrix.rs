//! Kill-and-recover chaos: crash the store after **every** VFS
//! operation of an ingest run and prove recovery returns exactly the
//! committed prefix — no lost acknowledged write, no resurrected torn
//! tail (ISSUE PR 7, DESIGN.md §14.5).
//!
//! The harness mirrors `mendel-net`'s `FaultPlan` crash-restart
//! schedules, but against the disk: a seeded [`MemVfs`] counts every
//! syscall-shaped operation and [`DiskFaultConfig::crash_at`] turns the
//! n-th one into a machine crash (unsynced tails torn to a random
//! prefix, with bit flips). The matrix sweeps n over the whole run.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test support code outside #[test] functions fails the calling test on a broken fixture"
)]

use mendel_store::{
    DiskFaultConfig, DurableStore, FsyncPolicy, MemVfs, StoreMetrics, StoreOptions, Vfs,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic value bytes for record `i` (xorshift64*).
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

/// Big-endian keys sort in insertion order, so a scan returns records
/// in the order the workload appended them.
fn key_for(i: u64) -> [u8; 8] {
    i.to_be_bytes()
}

/// What one workload run against a (possibly crashing) store observed.
struct RunOutcome {
    /// Records whose `put` returned `Ok`.
    acked: u64,
    /// Records known durable when the run ended: covered by a
    /// successful sync/flush, or individually acked under
    /// [`FsyncPolicy::Always`]. A lower bound — the engine may have
    /// synced more (group commit), never less.
    committed: u64,
    /// Records attempted (acked plus at most one in-flight failure).
    attempted: u64,
}

/// Drive `records` puts with periodic explicit syncs and flushes,
/// stopping at the first error (the store poisons itself on any I/O
/// failure). Returns what the writer was entitled to believe.
fn run_workload(
    store: &mut DurableStore,
    records: u64,
    sizes: &[usize],
    policy: FsyncPolicy,
) -> RunOutcome {
    let mut out = RunOutcome {
        acked: 0,
        committed: 0,
        attempted: 0,
    };
    for i in 0..records {
        let len = sizes[i as usize % sizes.len()];
        out.attempted = i + 1;
        if store.put(&key_for(i), &value_for(i, len)).is_err() {
            return out;
        }
        out.acked = i + 1;
        if policy == FsyncPolicy::Always {
            out.committed = out.acked;
        }
        if i % 7 == 6 {
            if store.flush().is_err() {
                return out;
            }
            out.committed = out.acked;
        } else if i % 3 == 2 {
            if store.sync().is_err() {
                return out;
            }
            out.committed = out.acked;
        }
    }
    out
}

/// After recovery, the store must hold **exactly** `appended[0..m]` for
/// one `m` with `committed <= m <= attempted`, byte-for-byte.
fn assert_committed_prefix(store: &DurableStore, outcome: &RunOutcome, sizes: &[usize], ctx: &str) {
    let scanned = store
        .scan()
        .unwrap_or_else(|e| panic!("{ctx}: scan failed: {e}"));
    let m = scanned.len() as u64;
    assert!(
        outcome.committed <= m && m <= outcome.attempted,
        "{ctx}: recovered {m} records, committed {} attempted {}",
        outcome.committed,
        outcome.attempted
    );
    for (i, rec) in scanned.iter().enumerate() {
        let i = i as u64;
        assert_eq!(rec.key, key_for(i), "{ctx}: record {i} key");
        let want = value_for(i, sizes[i as usize % sizes.len()]);
        let got = &rec.backing[rec.offset as usize..(rec.offset + rec.len) as usize];
        assert_eq!(got, want.as_slice(), "{ctx}: record {i} bytes");
    }
}

fn open(vfs: &Arc<MemVfs>, opts: StoreOptions) -> DurableStore {
    let dynvfs: Arc<dyn Vfs> = vfs.clone();
    DurableStore::open(dynvfs, "crash", opts, StoreMetrics::detached())
        .expect("open on a healthy disk")
        .0
}

/// Open + workload against a disk whose crash point may fire at any
/// moment — including during the open itself.
fn run_until_crash(
    vfs: &Arc<MemVfs>,
    opts: StoreOptions,
    records: u64,
    sizes: &[usize],
) -> RunOutcome {
    let dynvfs: Arc<dyn Vfs> = vfs.clone();
    match DurableStore::open(dynvfs, "crash", opts, StoreMetrics::detached()) {
        Ok((mut store, _)) => run_workload(&mut store, records, sizes, opts.fsync),
        Err(_) => RunOutcome {
            acked: 0,
            committed: 0,
            attempted: 0,
        },
    }
}

/// Count the VFS operations of a fault-free run, so the matrix knows
/// every crash point to seed.
fn count_ops(records: u64, sizes: &[usize], opts: StoreOptions) -> u64 {
    let vfs = Arc::new(MemVfs::new(DiskFaultConfig::none(0xC0)));
    let mut store = open(&vfs, opts);
    let outcome = run_workload(&mut store, records, sizes, opts.fsync);
    assert_eq!(outcome.acked, records, "fault-free run must ack everything");
    vfs.ops()
}

/// The exhaustive matrix for one fsync policy: crash after every single
/// VFS operation of the run, recover, verify the committed prefix.
fn crash_matrix(policy: FsyncPolicy, memtable_max: usize) {
    let records = 24u64;
    let sizes = [1usize, 9, 64, 257, 1024, 31, 2048, 5];
    let opts = StoreOptions {
        fsync: policy,
        memtable_max_entries: memtable_max,
    };
    let total = count_ops(records, &sizes, opts);
    assert!(total > 0);
    for crash_at in 0..total {
        let ctx = format!("policy {policy:?}, crash at op {crash_at}/{total}");
        let vfs = Arc::new(MemVfs::new(DiskFaultConfig::none(0xC0).crash_at(crash_at)));
        let outcome = run_until_crash(&vfs, opts, records, &sizes);
        assert!(
            vfs.is_crashed(),
            "{ctx}: the seeded crash point must fire mid-run"
        );
        // The process is gone; only the disk survives.
        vfs.recover();
        let store = open(&vfs, opts);
        assert_committed_prefix(&store, &outcome, &sizes, &ctx);
    }
}

#[test]
fn crash_after_every_op_fsync_always() {
    crash_matrix(FsyncPolicy::Always, 8);
}

#[test]
fn crash_after_every_op_fsync_every_n() {
    crash_matrix(FsyncPolicy::EveryN(3), 8);
}

#[test]
fn crash_after_every_op_fsync_on_flush() {
    crash_matrix(FsyncPolicy::OnFlush, 8);
}

#[test]
fn crash_after_every_op_without_flushes() {
    // A memtable cap above the record count keeps everything in the
    // WAL: the matrix then exercises pure replay + torn-tail paths.
    crash_matrix(FsyncPolicy::Always, 1_000_000);
}

#[test]
fn double_crash_during_recovery_still_converges() {
    // Crash once mid-ingest, then crash again during the *recovery*
    // (open) itself, at every op of that recovery. A store that
    // survives this converges from any on-disk state.
    let records = 16u64;
    let sizes = [33usize, 500, 7];
    let opts = StoreOptions {
        fsync: FsyncPolicy::EveryN(2),
        memtable_max_entries: 5,
    };
    let total = count_ops(records, &sizes, opts);
    for first in (0..total).step_by(7) {
        let vfs = Arc::new(MemVfs::new(DiskFaultConfig::none(0xD1).crash_at(first)));
        let outcome = run_until_crash(&vfs, opts, records, &sizes);
        vfs.recover();

        // Probe how many ops a clean recovery takes, on a throwaway
        // clone of the disk... MemVfs has no clone, so instead crash the
        // recovery at increasing points until one succeeds; every
        // failed attempt must leave a disk the next attempt can read.
        let mut reopened = None;
        for second in 0.. {
            let before = vfs.ops();
            vfs.set_crash_after(before + second);
            let dynvfs: Arc<dyn Vfs> = vfs.clone();
            match DurableStore::open(dynvfs, "crash", opts, StoreMetrics::detached()) {
                Ok((store, _)) => {
                    vfs.clear_crash_after();
                    reopened = Some(store);
                    break;
                }
                Err(_) => {
                    vfs.recover();
                }
            }
        }
        let store = reopened.expect("recovery eventually completes");
        assert_committed_prefix(
            &store,
            &outcome,
            &sizes,
            &format!("double crash, first {first}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized record sizes, fsync policy, memtable cap, and crash
    /// point: the committed-prefix invariant has no counterexample.
    #[test]
    fn committed_prefix_invariant_holds(
        sizes in proptest::collection::vec(1usize..3000, 1..6),
        policy_pick in 0u8..3,
        every_n in 1u32..6,
        memtable_max in 1usize..40,
        records in 4u64..40,
        crash_frac in 0.0f64..1.0,
        seed in 0u64..u64::MAX,
    ) {
        let policy = match policy_pick {
            0 => FsyncPolicy::Always,
            1 => FsyncPolicy::EveryN(every_n),
            _ => FsyncPolicy::OnFlush,
        };
        let opts = StoreOptions { fsync: policy, memtable_max_entries: memtable_max };
        let total = count_ops(records, &sizes, opts);
        let crash_at = ((total as f64) * crash_frac) as u64;
        let vfs = Arc::new(MemVfs::new(DiskFaultConfig::none(seed).crash_at(crash_at)));
        let outcome = run_until_crash(&vfs, opts, records, &sizes);
        vfs.recover();
        let store = open(&vfs, opts);
        assert_committed_prefix(&store, &outcome, &sizes, &format!("proptest crash at {crash_at}"));
    }
}
