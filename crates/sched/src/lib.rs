//! # mendel-sched — work-stealing query scheduler with admission control
//!
//! The throughput layer's execution substrate (DESIGN.md §15.3). A
//! [`Scheduler`] owns a small pool of worker threads, each with its own
//! deque of jobs:
//!
//! * **Submission** round-robins jobs across the per-worker deques and
//!   rings a wake channel.
//! * **Workers** pop their own deque LIFO (freshly pushed work is
//!   cache-hot) and, when empty, *steal* from other deques FIFO (the
//!   oldest job has waited longest and is least likely to be contended).
//!   Exactly one deque lock is ever held at a time, so the lock-order
//!   graph over the pool is trivially acyclic (see the audit fixture
//!   corpus's `worksteal` pattern).
//! * **Admission control** bounds the number of in-flight *queries*: a
//!   caller takes an [`AdmissionPermit`] per query and is shed with
//!   [`SchedError::Shed`] — never blocked or queued — once
//!   `max_in_flight` permits are out. Shedding at the door keeps tail
//!   latency bounded under overload instead of letting the queue grow
//!   without limit.
//!
//! Observability counters live under `mendel.sched.*` in the
//! [`mendel_obs::Registry`] the scheduler is built against: `submitted`,
//! `completed`, `steals`, `shed`, `job_panics` counters and
//! `queue_depth` / `in_flight` gauges.

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use mendel_obs::{Counter, Gauge, Registry};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A unit of work: boxed closure run once on a worker thread. What it
/// returns is run after the job is counted `completed`, so a caller woken
/// by the result it publishes never sees the counter lag behind.
type Job = Box<dyn FnOnce() -> Publish + Send + 'static>;
type Publish = Box<dyn FnOnce() + Send + 'static>;

/// Scheduler sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Worker threads (and deques). Clamped to at least 1.
    pub workers: usize,
    /// Admission bound: maximum simultaneously outstanding
    /// [`AdmissionPermit`]s before [`Scheduler::admit`] sheds.
    pub max_in_flight: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(2, 8);
        SchedConfig {
            workers,
            max_in_flight: 256,
        }
    }
}

/// Scheduler refusal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedError {
    /// The admission bound was hit: the query is shed, not queued. The
    /// caller should surface an overload error upstream.
    Shed {
        /// Permits outstanding when the request arrived.
        in_flight: usize,
        /// The configured bound.
        limit: usize,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Shed { in_flight, limit } => write!(
                f,
                "query shed by admission control: {in_flight} in flight ≥ limit {limit}"
            ),
        }
    }
}

impl std::error::Error for SchedError {}

/// RAII admission slot: holding one means a query is in flight; dropping
/// it releases the slot.
pub struct AdmissionPermit {
    inner: Arc<Inner>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        // audit:ordering(Relaxed): pure admission counter; the bound is enforced by the RMW itself and no other memory rides on it
        self.inner.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.inner.counters.in_flight.add(-1);
    }
}

/// Handle to one submitted job's result. `wait` blocks until the job ran
/// (or returns `None` if it panicked and was contained by the worker).
pub struct JobHandle<R> {
    rx: Receiver<R>,
}

impl<R> JobHandle<R> {
    /// Block until the job completes and take its result.
    pub fn wait(self) -> Option<R> {
        self.rx.recv().ok()
    }
}

struct SchedCounters {
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    steals: Arc<Counter>,
    shed: Arc<Counter>,
    job_panics: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    in_flight: Arc<Gauge>,
}

impl SchedCounters {
    fn registered(registry: &Registry) -> Self {
        let scope = registry.scoped("mendel.sched");
        SchedCounters {
            submitted: scope.counter("submitted"),
            completed: scope.counter("completed"),
            steals: scope.counter("steals"),
            shed: scope.counter("shed"),
            job_panics: scope.counter("job_panics"),
            queue_depth: scope.gauge("queue_depth"),
            in_flight: scope.gauge("in_flight"),
        }
    }
}

struct Inner {
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Round-robin submission cursor.
    next: AtomicUsize,
    /// Outstanding admission permits.
    in_flight: AtomicUsize,
    max_in_flight: usize,
    shutdown: AtomicBool,
    wake_tx: Sender<()>,
    wake_rx: Receiver<()>,
    counters: SchedCounters,
}

impl Inner {
    /// LIFO pop from the worker's own deque (freshest job is cache-hot).
    /// Exactly one lock held, and the guard dies before the job runs.
    fn pop_local(&self, me: usize) -> Option<Job> {
        self.deques[me].lock().pop_back()
    }

    /// FIFO steal sweep over the other deques (oldest job has waited
    /// longest), starting just past the thief so victims rotate. One
    /// lock at a time — no nesting.
    fn steal(&self, me: usize) -> Option<Job> {
        let n = self.deques.len();
        for k in 1..n {
            let victim = (me + k) % n;
            let job = self.deques[victim].lock().pop_front();
            if let Some(job) = job {
                self.counters.steals.inc();
                return Some(job);
            }
        }
        None
    }
}

/// Work-stealing job scheduler. Dropping it drains nothing: shutdown is
/// immediate, but every already-popped job finishes and `wait`ing
/// callers of unfinished jobs observe a disconnect (`None`), never a
/// hang.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    config: SchedConfig,
}

impl Scheduler {
    /// Build a scheduler, registering its `mendel.sched.*` metrics in
    /// `registry`.
    pub fn new(config: SchedConfig, registry: &Registry) -> Self {
        let workers = config.workers.max(1);
        let (wake_tx, wake_rx) = channel::unbounded();
        let inner = Arc::new(Inner {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            next: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            max_in_flight: config.max_in_flight,
            shutdown: AtomicBool::new(false),
            wake_tx,
            wake_rx,
            counters: SchedCounters::registered(registry),
        });
        #[expect(
            clippy::panic,
            reason = "a scheduler that cannot spawn its workers cannot run jobs at all; failing loudly at construction beats hanging every query later"
        )]
        let handles = (0..workers)
            .map(|me| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("mendel-sched-{me}"))
                    .spawn(move || worker_loop(inner, me))
                    .unwrap_or_else(|e| panic!("failed to spawn scheduler worker {me}: {e}"))
            })
            .collect();
        Scheduler {
            inner,
            workers: handles,
            config: SchedConfig { workers, ..config },
        }
    }

    /// Convenience constructor with a throwaway metrics registry.
    pub fn detached(config: SchedConfig) -> Self {
        Self::new(config, &Registry::new())
    }

    /// The configuration the pool was built with (workers clamped).
    pub fn config(&self) -> SchedConfig {
        self.config
    }

    /// Take an admission slot for one query, or shed. Never blocks.
    pub fn admit(&self) -> Result<AdmissionPermit, SchedError> {
        // audit:ordering(Relaxed): the RMW itself is atomic, which is all the bound needs; no memory is published via this counter
        let prev = self.inner.in_flight.fetch_add(1, Ordering::Relaxed);
        if prev >= self.inner.max_in_flight {
            // audit:ordering(Relaxed): undo of the optimistic increment.
            self.inner.in_flight.fetch_sub(1, Ordering::Relaxed);
            self.inner.counters.shed.inc();
            return Err(SchedError::Shed {
                in_flight: prev,
                limit: self.inner.max_in_flight,
            });
        }
        self.inner.counters.in_flight.add(1);
        Ok(AdmissionPermit {
            inner: Arc::clone(&self.inner),
        })
    }

    fn enqueue(&self, job: Job) {
        // audit:ordering(Relaxed): round-robin cursor; any interleaving of placements is correct (stealing rebalances anyway)
        let slot = self.inner.next.fetch_add(1, Ordering::Relaxed) % self.inner.deques.len();
        self.inner.deques[slot].lock().push_back(job);
        self.inner.counters.submitted.inc();
        self.inner.counters.queue_depth.add(1);
        let _ = self.inner.wake_tx.send(());
    }

    /// Enqueue a job on the next deque (round-robin), wake a worker, and
    /// hand back a handle to its result; dropping the handle makes it
    /// fire-and-forget. Jobs are not admission-bounded — bound *queries*
    /// with [`Self::admit`]; their fan-out tasks always run. The result is
    /// sent after `mendel.sched.completed` counts the job, so
    /// `submitted == completed` holds whenever every handle has been
    /// waited on (a panicked job disconnects its handle while unwinding,
    /// before it is counted).
    pub fn run<R: Send + 'static>(&self, f: impl FnOnce() -> R + Send + 'static) -> JobHandle<R> {
        let (tx, rx) = channel::unbounded();
        self.enqueue(Box::new(move || {
            let result = f();
            Box::new(move || {
                let _ = tx.send(result);
            })
        }));
        JobHandle { rx }
    }

    /// Outstanding admission permits.
    // audit:allow(unreached): crates/sched/tests/interleave.rs checks that every permit comes back with it
    pub fn in_flight(&self) -> usize {
        // audit:ordering(Relaxed): monitoring read of an independent counter; staleness is acceptable
        self.inner.in_flight.load(Ordering::Relaxed)
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        // audit:ordering(Release): pairs with the Acquire load in worker_loop so workers that observe the flag also observe every write made before shutdown was requested
        self.inner.shutdown.store(true, Ordering::Release);
        for _ in &self.workers {
            let _ = self.inner.wake_tx.send(());
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: Arc<Inner>, me: usize) {
    loop {
        // audit:ordering(Acquire): pairs with the Release store in `Scheduler::drop`; seeing shutdown implies seeing everything the dropping thread wrote first
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        let job = inner.pop_local(me).or_else(|| inner.steal(me));
        match job {
            Some(job) => {
                inner.counters.queue_depth.add(-1);
                // Contain job panics: a poisoned query must not take the
                // worker (and every queued job behind it) down with it.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                if outcome.is_err() {
                    inner.counters.job_panics.inc();
                }
                inner.counters.completed.inc();
                if let Ok(publish) = outcome {
                    publish();
                }
            }
            None => match inner.wake_rx.recv_timeout(Duration::from_millis(10)) {
                Ok(()) | Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn jobs_run_and_results_arrive() {
        let sched = Scheduler::detached(SchedConfig {
            workers: 2,
            max_in_flight: 8,
        });
        let handles: Vec<_> = (0..16u64).map(|i| sched.run(move || i * i)).collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, Some((i * i) as u64));
        }
    }

    #[test]
    fn completed_is_counted_before_the_result_arrives() {
        let reg = Registry::new();
        let sched = Scheduler::new(SchedConfig::default(), &reg);
        for done in 1..=500u64 {
            sched.run(|| ()).wait();
            let snap = reg.snapshot();
            assert_eq!(snap.counter("mendel.sched.completed"), done);
            assert_eq!(snap.counter("mendel.sched.submitted"), done);
        }
    }

    #[test]
    fn admission_sheds_past_bound_and_recovers() {
        let reg = Registry::new();
        let sched = Scheduler::new(
            SchedConfig {
                workers: 1,
                max_in_flight: 2,
            },
            &reg,
        );
        let p1 = sched.admit().unwrap();
        let p2 = sched.admit().unwrap();
        let shed = sched.admit();
        assert_eq!(
            shed.err(),
            Some(SchedError::Shed {
                in_flight: 2,
                limit: 2
            })
        );
        assert_eq!(sched.in_flight(), 2);
        drop(p1);
        let p3 = sched.admit().expect("slot freed by dropped permit");
        drop(p2);
        drop(p3);
        assert_eq!(sched.in_flight(), 0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("mendel.sched.shed"), 1);
        assert_eq!(snap.gauge("mendel.sched.in_flight"), 0);
    }

    #[test]
    fn blocked_worker_gets_its_queue_stolen() {
        let reg = Registry::new();
        let sched = Scheduler::new(
            SchedConfig {
                workers: 2,
                max_in_flight: 64,
            },
            &reg,
        );
        // Gate both workers so subsequent submissions pile up in the
        // deques deterministically. Each gate job announces entry before
        // blocking, so the test only proceeds once both workers really
        // are inside a gate.
        let (entered_tx, entered_rx) = channel::unbounded::<()>();
        let (gate_a_tx, gate_a_rx) = channel::unbounded::<()>();
        let (gate_b_tx, gate_b_rx) = channel::unbounded::<()>();
        let entered_a = entered_tx.clone();
        let ga = sched.run(move || {
            let _ = entered_a.send(());
            let _ = gate_a_rx.recv();
        });
        let gb = sched.run(move || {
            let _ = entered_tx.send(());
            let _ = gate_b_rx.recv();
        });
        entered_rx.recv().unwrap();
        entered_rx.recv().unwrap();
        // Both workers are now blocked inside a gate job; the 8 jobs
        // below land 4-and-4 on the two deques.
        let done = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let done = Arc::clone(&done);
                sched.run(move || {
                    // audit:ordering(Relaxed): test tally.
                    done.fetch_add(1, Ordering::Relaxed);
                    i
                })
            })
            .collect();
        // Free exactly one worker: it must drain its own deque *and*
        // steal the blocked worker's jobs for all 8 to complete.
        gate_a_tx.send(()).unwrap();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), Some(i as u64));
        }
        // audit:ordering(Relaxed): test tally.
        assert_eq!(done.load(Ordering::Relaxed), 8);
        let steals = reg.snapshot().counter("mendel.sched.steals");
        assert!(steals >= 1, "free worker must have stolen (saw {steals})");
        gate_b_tx.send(()).unwrap();
        ga.wait();
        gb.wait();
        drop(sched);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("mendel.sched.completed"), 10);
        assert_eq!(snap.gauge("mendel.sched.queue_depth"), 0);
    }

    #[test]
    fn panicking_job_is_contained() {
        let reg = Registry::new();
        let sched = Scheduler::new(
            SchedConfig {
                workers: 1,
                max_in_flight: 4,
            },
            &reg,
        );
        let bad = sched.run(|| {
            // A deliberately hostile job for the containment test.
            panic!("poisoned query");
        });
        assert_eq!(bad.wait(), None);
        // The worker survives and keeps serving.
        assert_eq!(sched.run(|| 7).wait(), Some(7));
        assert_eq!(reg.snapshot().counter("mendel.sched.job_panics"), 1);
    }

    #[test]
    fn drop_never_hangs_with_queued_jobs() {
        let sched = Scheduler::detached(SchedConfig {
            workers: 1,
            max_in_flight: 4,
        });
        let (gate_tx, gate_rx) = channel::unbounded::<()>();
        let _g = sched.run(move || {
            let _ = gate_rx.recv();
        });
        for _ in 0..4 {
            sched.run(|| {});
        }
        gate_tx.send(()).unwrap();
        drop(sched); // must join, not deadlock
    }
}
