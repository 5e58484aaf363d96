//! Deterministic two-thread interleaving stress for the scheduler's
//! work-stealing deques (the pattern `ci.sh` step 6 runs for
//! `mendel-obs`, extended here to `mendel-sched`).
//!
//! Two phases, mirroring the obs interleave suite:
//!
//! 1. **Lockstep**: an owner thread and a thief thread alternate
//!    strictly over a live scheduler's public surface (submit on even
//!    steps, result-draining on odd steps), so every pair of racing
//!    deque operations is driven through both orders — exactly what
//!    ThreadSanitizer and Miri want to see.
//! 2. **Free-running**: submitters race the pool with no coordination
//!    and only schedule-independent invariants are asserted: every job
//!    runs exactly once, counters balance, gauges return to zero.

use crossbeam::channel;
use mendel_obs::Registry;
use mendel_sched::{SchedConfig, Scheduler};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Run `op(step)` for `steps` steps on two threads in strict
/// alternation: thread 0 performs even steps, thread 1 odd steps, and
/// step `n + 1` never starts before step `n` finished.
fn lockstep(steps: usize, op: impl Fn(usize) + Send + Sync) {
    let turn = AtomicUsize::new(0);
    let op = &op;
    let turn = &turn;
    std::thread::scope(|scope| {
        for who in 0..2usize {
            scope.spawn(move || loop {
                // audit:ordering(Acquire): pairs with the Release store
                // below; seeing turn n implies seeing step n-1's writes.
                let now = turn.load(Ordering::Acquire);
                if now >= steps {
                    break;
                }
                if now % 2 != who {
                    std::hint::spin_loop();
                    std::thread::yield_now();
                    continue;
                }
                op(now);
                // audit:ordering(Release): publishes this step's effects
                // to the Acquire load above.
                turn.store(now + 1, Ordering::Release);
            });
        }
    });
}

#[test]
fn lockstep_submit_and_drain() {
    let reg = Registry::new();
    let sched = Scheduler::new(
        SchedConfig {
            workers: 2,
            max_in_flight: 64,
        },
        &reg,
    );
    const STEPS: usize = 64;
    let hits = Arc::new(AtomicU64::new(0));
    let (tx, rx) = channel::unbounded::<u64>();
    {
        let sched = &sched;
        let hits2 = Arc::clone(&hits);
        lockstep(STEPS, move |step| {
            if step % 2 == 0 {
                // Even steps: the "owner" side pushes work into the pool.
                let hits = Arc::clone(&hits2);
                let tx = tx.clone();
                sched.run(move || {
                    // audit:ordering(Relaxed): test tally.
                    hits.fetch_add(1, Ordering::Relaxed);
                    let _ = tx.send(step as u64);
                });
            } else {
                // Odd steps: the "thief" side races the workers for
                // results (and forces both orders of submit vs. pop).
                let _ = rx.try_recv();
            }
        });
    }
    // Drain whatever the odd steps didn't take; every submitted job must
    // have run exactly once.
    let submitted = STEPS.div_ceil(2);
    while hits.load(Ordering::Relaxed) < submitted as u64 {
        // audit:ordering(Relaxed): test tally (the loop load above).
        std::thread::yield_now();
    }
    drop(sched);
    assert_eq!(hits.load(Ordering::Relaxed), submitted as u64);
    let snap = reg.snapshot();
    assert_eq!(snap.counter("mendel.sched.submitted"), submitted as u64);
    assert_eq!(snap.counter("mendel.sched.completed"), submitted as u64);
    assert_eq!(snap.gauge("mendel.sched.queue_depth"), 0);
}

#[test]
fn free_running_submitters_lose_no_jobs() {
    let reg = Registry::new();
    let sched = Scheduler::new(
        SchedConfig {
            workers: 3,
            max_in_flight: 1024,
        },
        &reg,
    );
    const PER_THREAD: usize = 200;
    let sum = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let sched = &sched;
            let sum = Arc::clone(&sum);
            scope.spawn(move || {
                for i in 0..PER_THREAD as u64 {
                    let sum = Arc::clone(&sum);
                    sched.run(move || {
                        // audit:ordering(Relaxed): test tally.
                        sum.fetch_add(t * 1000 + i, Ordering::Relaxed);
                    });
                }
            });
        }
    });
    let expect: u64 = (0..2u64)
        .flat_map(|t| (0..PER_THREAD as u64).map(move |i| t * 1000 + i))
        .sum();
    while sum.load(Ordering::Relaxed) != expect {
        // audit:ordering(Relaxed): test tally (the loop load above).
        std::thread::yield_now();
    }
    drop(sched);
    let snap = reg.snapshot();
    assert_eq!(
        snap.counter("mendel.sched.completed"),
        2 * PER_THREAD as u64
    );
    assert_eq!(snap.gauge("mendel.sched.queue_depth"), 0);
    assert_eq!(sum.load(Ordering::Relaxed), expect);
}

#[test]
fn free_running_admission_is_exact_under_races() {
    let sched = Scheduler::detached(SchedConfig {
        workers: 2,
        max_in_flight: 8,
    });
    // Two threads race admit/drop; the bound must never be exceeded and
    // every permit must be returned.
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let sched = &sched;
            scope.spawn(move || {
                let mut held = Vec::new();
                for round in 0..100usize {
                    match sched.admit() {
                        Ok(p) => held.push(p),
                        Err(_) => {
                            held.clear();
                        }
                    }
                    assert!(sched.in_flight() <= 8 + 1, "bound breached at {round}");
                    if round % 3 == 0 {
                        held.pop();
                    }
                }
            });
        }
    });
    assert_eq!(sched.in_flight(), 0);
}
