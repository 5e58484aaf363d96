//! Deterministic fault injection.
//!
//! The paper's §VII-B names fault tolerance as key future work; testing a
//! fault-tolerance loop requires *injecting* faults, and debugging a
//! chaos run requires replaying it exactly. A seeded [`FaultPlan`] is
//! consulted once per envelope: it drops with a configured probability,
//! and always while either end is crashed. Every verdict comes from a
//! from-scratch xorshift generator, so the same seed always produces the
//! same faults — no external crates, no global state, no wall-clock
//! input. `mendel`'s in-process delivery asks an optional plan about
//! every query message it carries (`WireCluster::serve_with`), which is
//! how the seeded chaos suite (`tests/chaos.rs`) loses query messages.
//!
//! Determinism contract: the verdict for the *n*-th envelope on a given
//! `(from, to)` edge is a pure function of `(seed, from, to, n)` and of
//! which nodes are crashed. Per-edge counters make verdicts independent
//! of cross-edge interleaving: any run that asks about the same
//! envelopes per edge in the same per-edge order sees the same drops.

use crate::envelope::NodeAddr;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// A from-scratch xorshift64* generator — small, fast, and good enough
/// for fault scheduling (this is not cryptography).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seed the generator. A zero seed is remapped (xorshift has a zero
    /// fixed point) via a splitmix-style scramble.
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: splitmix64(seed).max(1),
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits of the raw output.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`; returns 0 when `n == 0`.
    pub fn next_range(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// SplitMix64 finalizer: decorrelates nearby seeds before they enter the
/// xorshift state. Public so sibling fault planes (the disk-fault vfs in
/// `mendel-store`) derive their streams the same way.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the plan may do to each envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed from which every per-envelope decision derives.
    pub seed: u64,
    /// Probability an envelope is silently lost in transit.
    pub drop_prob: f64,
}

impl FaultConfig {
    /// A plan that only drops messages with probability `drop_prob`.
    pub fn drops(seed: u64, drop_prob: f64) -> Self {
        FaultConfig { seed, drop_prob }
    }

    /// A plan that drops nothing; crashes still apply.
    pub fn passthrough(seed: u64) -> Self {
        Self::drops(seed, 0.0)
    }
}

/// The plan's decision for one envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Silently lose the envelope (the sender cannot tell).
    Drop,
    /// Deliver it.
    Deliver,
}

/// Counters of every fault the plan actually injected.
#[derive(Debug, Default)]
pub struct FaultStats {
    dropped: AtomicU64,
}

impl FaultStats {
    /// Envelopes lost to the drop probability.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed) // audit:ordering(Relaxed): statistics counter read; no data is guarded by this value
    }
}

/// A seeded, reproducible fault-injection plan, consulted once per
/// envelope through [`FaultPlan::decide`].
pub struct FaultPlan {
    config: FaultConfig,
    crashed: RwLock<HashSet<NodeAddr>>,
    /// Per-(from, to) envelope counters driving the decision stream.
    edge_seq: Mutex<HashMap<(u16, u16), u64>>,
    stats: FaultStats,
}

impl FaultPlan {
    /// Build a plan. Probabilities are clamped into `[0, 1]`.
    pub fn new(mut config: FaultConfig) -> Self {
        config.drop_prob = config.drop_prob.clamp(0.0, 1.0);
        FaultPlan {
            config,
            crashed: RwLock::new(HashSet::new()),
            edge_seq: Mutex::new(HashMap::new()),
            stats: FaultStats::default(),
        }
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Injection counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Crash `node`: every envelope to or from it is discarded until
    /// [`Self::restart`]. Idempotent.
    // audit:allow(unreached): tests/chaos.rs applies its crash schedule's crashes with it
    pub fn crash(&self, node: NodeAddr) {
        self.crashed.write().insert(node);
    }

    /// Restart a crashed node. Idempotent.
    // audit:allow(unreached): tests/chaos.rs applies its crash schedule's restarts with it
    pub fn restart(&self, node: NodeAddr) {
        self.crashed.write().remove(&node);
    }

    /// Is `node` currently crashed under this plan?
    pub fn is_crashed(&self, node: NodeAddr) -> bool {
        self.crashed.read().contains(&node)
    }

    /// Decide the fate of the next envelope on the `(from, to)` edge.
    /// Deterministic: the n-th call for an edge always returns the same
    /// verdict for the same seed.
    pub fn decide(&self, from: NodeAddr, to: NodeAddr) -> Verdict {
        if self.is_crashed(from) || self.is_crashed(to) {
            return Verdict::Drop;
        }
        let seq = {
            let mut edges = self.edge_seq.lock();
            let c = edges.entry((from.0, to.0)).or_insert(0);
            let s = *c;
            *c += 1;
            s
        };
        let mut rng = XorShift64::new(
            self.config.seed
                ^ splitmix64(((from.0 as u64) << 16 | to.0 as u64).wrapping_add(seq << 32)),
        );
        if rng.next_f64() < self.config.drop_prob {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed); // audit:ordering(Relaxed): statistics counter; no ordering with envelope delivery is required
            return Verdict::Drop;
        }
        Verdict::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_nonconstant() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        let mut c = XorShift64::new(43);
        assert_ne!(c.next_u64(), xs[0], "nearby seeds must decorrelate");
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn next_f64_is_unit_interval() {
        let mut r = XorShift64::new(7);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f), "{f}");
        }
    }

    #[test]
    fn drop_rate_approximates_probability() {
        let plan = FaultPlan::new(FaultConfig::drops(0xBEEF, 0.2));
        let n = 10_000;
        let mut dropped = 0;
        for _ in 0..n {
            if plan.decide(NodeAddr(0), NodeAddr(1)) == Verdict::Drop {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed drop rate {rate}");
        assert_eq!(plan.stats().dropped(), dropped);
    }

    #[test]
    fn verdict_stream_is_reproducible_per_edge() {
        let mk = || FaultPlan::new(FaultConfig::drops(99, 0.5));
        let a = mk();
        let b = mk();
        let va: Vec<Verdict> = (0..100)
            .map(|_| a.decide(NodeAddr(3), NodeAddr(4)))
            .collect();
        let vb: Vec<Verdict> = (0..100)
            .map(|_| b.decide(NodeAddr(3), NodeAddr(4)))
            .collect();
        assert_eq!(va, vb);
        // A different edge sees a different (but equally reproducible) stream.
        let vc: Vec<Verdict> = (0..100)
            .map(|_| a.decide(NodeAddr(4), NodeAddr(3)))
            .collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn edge_streams_are_interleaving_independent() {
        // Decisions on edge A must not shift when edge B traffic is
        // interleaved differently.
        let a = FaultPlan::new(FaultConfig::drops(5, 0.5));
        let b = FaultPlan::new(FaultConfig::drops(5, 0.5));
        let mut va = Vec::new();
        for _ in 0..50 {
            va.push(a.decide(NodeAddr(0), NodeAddr(1)));
            a.decide(NodeAddr(2), NodeAddr(3));
            a.decide(NodeAddr(2), NodeAddr(3));
        }
        let mut vb = Vec::new();
        for _ in 0..50 {
            b.decide(NodeAddr(2), NodeAddr(3));
            vb.push(b.decide(NodeAddr(0), NodeAddr(1)));
        }
        assert_eq!(va, vb);
    }

    #[test]
    fn crashed_nodes_block_traffic_both_ways() {
        let plan = FaultPlan::new(FaultConfig::passthrough(1));
        plan.crash(NodeAddr(2));
        assert_eq!(plan.decide(NodeAddr(2), NodeAddr(0)), Verdict::Drop);
        assert_eq!(plan.decide(NodeAddr(0), NodeAddr(2)), Verdict::Drop);
        assert_eq!(plan.decide(NodeAddr(0), NodeAddr(1)), Verdict::Deliver);
        assert_eq!(plan.stats().dropped(), 0, "a crash is not a drop");
        plan.restart(NodeAddr(2));
        assert_eq!(plan.decide(NodeAddr(0), NodeAddr(2)), Verdict::Deliver);
        assert!(!plan.is_crashed(NodeAddr(2)));
    }

    #[test]
    fn drop_stream_is_pinned() {
        // The first 64 verdicts on edge 3→4 (bit i set = envelope i
        // dropped), captured when each verdict still drew duplication and
        // delay after the drop draw. The drop draw comes first on every
        // per-edge generator, so no seed's drop stream moves when verdict
        // kinds come or go behind it.
        let plan = FaultPlan::new(FaultConfig::drops(99, 0.5));
        let mut bits = 0u64;
        for i in 0..64 {
            if plan.decide(NodeAddr(3), NodeAddr(4)) == Verdict::Drop {
                bits |= 1 << i;
            }
        }
        assert_eq!(bits, 0x3152_9d2a_df82_caee);
        assert_eq!(plan.stats().dropped(), 33);
    }
}
