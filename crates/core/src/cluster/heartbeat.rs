//! A timeout-based failure detector, keyed by storage node.
//!
//! The paper's §VII-B names fault tolerance as key future work; masking
//! a failure (replication, failover) first requires *detecting* it. This
//! is the classic building block: the monitor records when it last heard
//! from each node and suspects any node silent for longer than `timeout`.
//! Suspicion is unreliable by nature (a slow node looks dead) — callers
//! treat it as a hint to route around, never as ground truth, which is
//! how [`MendelCluster::sync_failure_detector`] folds it into the failed
//! set.
//!
//! Time comes from an injected [`Clock`]: [`MonotonicClock`] by default,
//! a `VirtualClock` in tests, so a seeded fault run replays exactly.
//!
//! [`MendelCluster::sync_failure_detector`]: super::MendelCluster::sync_failure_detector

use mendel_dht::NodeId;
use mendel_obs::{Clock, MonotonicClock};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Monitor-side state: who beat when, and the silence threshold.
#[derive(Debug)]
pub struct HeartbeatMonitor {
    clock: Arc<dyn Clock>,
    last_seen: BTreeMap<NodeId, Duration>,
    timeout: Duration,
}

impl HeartbeatMonitor {
    /// A monitor on the wall clock, suspecting nodes silent for `timeout`.
    pub fn new(timeout: Duration) -> Self {
        Self::with_clock(timeout, Arc::new(MonotonicClock::new()))
    }

    /// A monitor reading time from `clock`.
    pub fn with_clock(timeout: Duration, clock: Arc<dyn Clock>) -> Self {
        assert!(!timeout.is_zero(), "timeout must be positive");
        HeartbeatMonitor {
            clock,
            last_seen: BTreeMap::new(),
            timeout,
        }
    }

    /// Record a beat from `node` now.
    pub fn observe(&mut self, node: NodeId) {
        self.last_seen.insert(node, self.clock.now());
    }

    /// Nodes the monitor has ever seen that have been silent past the
    /// threshold, ascending.
    pub fn suspects(&self) -> Vec<NodeId> {
        self.by_silence(true)
    }

    /// Nodes seen within the threshold, ascending.
    pub fn alive(&self) -> Vec<NodeId> {
        self.by_silence(false)
    }

    fn by_silence(&self, silent: bool) -> Vec<NodeId> {
        let now = self.clock.now();
        self.last_seen
            .iter()
            .filter(|(_, &seen)| (now.saturating_sub(seen) > self.timeout) == silent)
            .map(|(&node, _)| node)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mendel_obs::VirtualClock;

    fn monitor(timeout_ms: u64) -> (HeartbeatMonitor, Arc<VirtualClock>) {
        let clock = Arc::new(VirtualClock::new());
        let m = HeartbeatMonitor::with_clock(Duration::from_millis(timeout_ms), clock.clone());
        (m, clock)
    }

    #[test]
    fn fresh_beats_are_alive_stale_are_suspect() {
        let (mut m, clock) = monitor(100);
        m.observe(NodeId(1));
        m.observe(NodeId(2));
        clock.advance(Duration::from_millis(50));
        assert!(m.suspects().is_empty());
        clock.advance(Duration::from_millis(70));
        m.observe(NodeId(2));
        clock.advance(Duration::from_millis(30));
        assert_eq!(m.suspects(), vec![NodeId(1)], "only the silent node");
        assert_eq!(m.alive(), vec![NodeId(2)]);
    }

    #[test]
    fn silence_of_exactly_the_timeout_is_not_suspect() {
        let (mut m, clock) = monitor(100);
        m.observe(NodeId(4));
        clock.advance(Duration::from_millis(100));
        assert!(m.suspects().is_empty());
        clock.advance(Duration::from_nanos(1));
        assert_eq!(m.suspects(), vec![NodeId(4)]);
    }

    #[test]
    fn revival_clears_suspicion() {
        let (mut m, clock) = monitor(50);
        m.observe(NodeId(7));
        clock.advance(Duration::from_millis(100));
        assert_eq!(m.suspects(), vec![NodeId(7)]);
        m.observe(NodeId(7));
        clock.advance(Duration::from_millis(20));
        assert!(m.suspects().is_empty());
        assert_eq!(m.alive(), vec![NodeId(7)]);
    }

    #[test]
    fn unknown_nodes_are_never_suspected() {
        let m = HeartbeatMonitor::new(Duration::from_millis(10));
        assert!(m.suspects().is_empty());
        assert!(m.alive().is_empty());
    }

    #[test]
    #[should_panic(expected = "timeout must be positive")]
    fn zero_timeout_rejected() {
        HeartbeatMonitor::new(Duration::ZERO);
    }
}
