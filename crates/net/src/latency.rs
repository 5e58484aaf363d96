//! The simulated LAN cost model (DESIGN.md §3).
//!
//! The paper's turnaround numbers come from a 50-node LAN cluster this
//! repository does not have. Instead, node-local compute is *measured*
//! for real and combined with an explicit network model into a simulated
//! cluster clock: a message of `b` bytes costs `base + per_byte·b`;
//! parallel branches cost their maximum; serial stages add. Per-node
//! speed factors reproduce the paper's heterogeneous hardware (25 Xeon
//! E5620 boxes + 25 older Opteron 254 boxes).

use std::time::Duration;

/// Per-message network cost: fixed latency plus linear bandwidth term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed per-message cost (propagation + protocol overhead).
    pub base: Duration,
    /// Transfer cost per payload byte.
    pub per_byte: Duration,
}

impl LatencyModel {
    /// A 2010s-era datacenter LAN: ~200 µs per message, 1 Gb/s links
    /// (8 ns per byte).
    pub fn lan() -> Self {
        LatencyModel {
            base: Duration::from_micros(200),
            per_byte: Duration::from_nanos(8),
        }
    }

    /// Simulated wall time to move `bytes` across one hop.
    pub fn transfer(&self, bytes: usize) -> Duration {
        self.base + self.per_byte * bytes as u32
    }

    /// Cost of fanning one `bytes`-sized message out to `n` peers. A
    /// zero-hop DHT sends these point-to-point; the sender serializes on
    /// its own uplink, so the bandwidth term stacks while the base
    /// latency overlaps.
    pub fn fanout(&self, bytes: usize, n: usize) -> Duration {
        if n == 0 {
            return Duration::ZERO;
        }
        self.base + self.per_byte * (bytes * n) as u32
    }
}

/// Relative compute speed of a node; simulated service time is real
/// measured time multiplied by this factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpeed(pub f64);

impl NodeSpeed {
    /// The paper's newer half: HP DL160 (Xeon E5620) — the reference speed.
    pub const HP_DL160: NodeSpeed = NodeSpeed(1.0);
    /// The paper's older half: Sun SunFire X4100 (Opteron 254), roughly
    /// 1.8× slower per core than the Xeons.
    pub const SUNFIRE_X4100: NodeSpeed = NodeSpeed(1.8);

    /// Scale a measured duration by this node's slowness factor.
    pub fn scale(&self, measured: Duration) -> Duration {
        debug_assert!(self.0 > 0.0, "speed factor must be positive");
        measured.mul_f64(self.0)
    }

    /// The heterogeneous 50/50 mix of the paper's testbed: even node
    /// indices are HP DL160s, odd are SunFires.
    pub fn paper_mix(node_index: usize) -> NodeSpeed {
        if node_index.is_multiple_of(2) {
            NodeSpeed::HP_DL160
        } else {
            NodeSpeed::SUNFIRE_X4100
        }
    }
}

/// Maximum over a set of parallel branch durations (zero when empty).
pub fn parallel_max(branches: impl IntoIterator<Item = Duration>) -> Duration {
    branches.into_iter().max().unwrap_or(Duration::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_is_affine_in_bytes() {
        let m = LatencyModel {
            base: Duration::from_micros(100),
            per_byte: Duration::from_nanos(10),
        };
        assert_eq!(m.transfer(0), Duration::from_micros(100));
        assert_eq!(m.transfer(1000), Duration::from_micros(110));
    }

    #[test]
    fn lan_model_is_reasonable() {
        let m = LatencyModel::lan();
        // A 1 MiB payload at 1 Gb/s ≈ 8.4 ms + base.
        let t = m.transfer(1 << 20);
        assert!(
            t > Duration::from_millis(8) && t < Duration::from_millis(10),
            "{t:?}"
        );
    }

    #[test]
    fn fanout_overlaps_latency_but_stacks_bandwidth() {
        let m = LatencyModel {
            base: Duration::from_micros(200),
            per_byte: Duration::from_nanos(8),
        };
        let one = m.fanout(1000, 1);
        let ten = m.fanout(1000, 10);
        assert_eq!(one, m.transfer(1000));
        assert_eq!(ten - one, Duration::from_nanos(8 * 9000));
        assert_eq!(m.fanout(1000, 0), Duration::ZERO);
    }

    #[test]
    fn node_speed_scales_time() {
        let d = Duration::from_millis(100);
        assert_eq!(NodeSpeed::HP_DL160.scale(d), d);
        assert_eq!(
            NodeSpeed::SUNFIRE_X4100.scale(d),
            Duration::from_millis(180)
        );
    }

    #[test]
    fn paper_mix_alternates() {
        assert_eq!(NodeSpeed::paper_mix(0), NodeSpeed::HP_DL160);
        assert_eq!(NodeSpeed::paper_mix(1), NodeSpeed::SUNFIRE_X4100);
        assert_eq!(NodeSpeed::paper_mix(48), NodeSpeed::HP_DL160);
        let fast = (0..50)
            .filter(|&i| NodeSpeed::paper_mix(i) == NodeSpeed::HP_DL160)
            .count();
        assert_eq!(fast, 25, "the testbed is a 25/25 split");
    }

    #[test]
    fn parallel_max_of_branches() {
        let branches = [
            Duration::from_millis(3),
            Duration::from_millis(9),
            Duration::from_millis(1),
        ];
        assert_eq!(parallel_max(branches), Duration::from_millis(9));
        assert_eq!(parallel_max(std::iter::empty()), Duration::ZERO);
    }
}
