//! The estimators behind every reported number.
//!
//! A small shared VM flips between a fast and one or more slow states
//! every few seconds (README, "Noise"): the same query takes 27 or 36 ms
//! depending on what the host's other guests do. The disturbance only
//! ever adds time, so read workloads replay one fixed query list several
//! times and keep, for each query and for each short segment of the list,
//! the **fastest** of its repeats *before* any percentile or sum: what
//! the program costs when the machine is given to it. A query that is
//! slow every time stays slow; a stall that comes and goes is dropped
//! (and shows in `harness.p99_pooled_ms` instead).

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample by
/// construction.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile (`0..=100`) by linear interpolation between the
/// two closest ranks — the same rule as numpy's default — so the result
/// does not jump when one sample is added.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The least of `values`; infinite for none.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `passes[p][i]` is item `i`'s time in pass `p` (a query's latency, a
/// segment's wall or CPU time); the result is each item's fastest pass.
pub fn fastest_per_item(passes: &[Vec<f64>]) -> Vec<f64> {
    let items = passes.first().map_or(0, Vec::len);
    (0..items)
        .map(|i| fastest(&passes.iter().map(|pass| pass[i]).collect::<Vec<_>>()))
        .collect()
}

/// Each query's fastest latency over its repeats.
pub struct Fastest {
    best_ms: Vec<f64>,
    samples: Vec<usize>,
}

impl Fastest {
    pub fn new(queries: usize) -> Fastest {
        Fastest {
            best_ms: vec![f64::INFINITY; queries],
            samples: vec![0; queries],
        }
    }

    pub fn record(&mut self, query: usize, ms: f64) {
        self.best_ms[query] = self.best_ms[query].min(ms);
        self.samples[query] += 1;
    }

    /// Indexed by query; infinite for a query never recorded.
    pub fn best_ms(&self) -> &[f64] {
        &self.best_ms
    }

    /// How many times the least and the most often sent query was sent.
    pub fn samples_range(&self) -> (usize, usize) {
        let least = self.samples.iter().copied().min().unwrap_or(0);
        let most = self.samples.iter().copied().max().unwrap_or(0);
        (least, most)
    }

    /// The `count` queries whose fastest latency so far is highest, in
    /// list order. A tail percentile rests on these, and a query all of
    /// whose repeats met a slow spell is among them, so they are the
    /// ones worth sending again.
    pub fn slowest(&self, count: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.best_ms.len()).collect();
        order.sort_by(|&a, &b| self.best_ms[b].total_cmp(&self.best_ms[a]));
        order.truncate(count);
        order.sort_unstable();
        order
    }

    /// Little's law for a closed loop without think time: clients ÷ mean
    /// latency, here of each query's fastest repeat.
    pub fn ops_per_s(&self, clients: usize) -> f64 {
        let mean_ms = self.best_ms.iter().sum::<f64>() / self.best_ms.len() as f64;
        clients as f64 * 1e3 / mean_ms
    }
}

/// How many of `n` sorted samples have an index above the `p`-th
/// percentile's (fractional) rank; printed next to every percentile so a reader can tell whether
/// the sample supports it (ten or more does).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = p / 100.0 * (n - 1) as f64;
    n - 1 - rank.floor() as usize
}

/// `(max − min) / median`; the harness's own pass-to-pass spread.
pub fn relative_range(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_hand_computed_inputs() {
        let v = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(median(&v), 25.0);
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 40.0);
        // rank = 0.9 * 3 = 2.7 → 30 + 0.7 * (40 − 30)
        assert!((percentile(&v, 90.0) - 37.0).abs() < 1e-9);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[7.0]), 7.0);
        // 1..=11: p90 rank = 9 → the tenth value, exactly.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&eleven, 90.0), 10.0);
    }

    #[test]
    fn fastest_per_item_drops_a_slow_spell_and_keeps_a_slow_query() {
        // Pass 1 ran in a slow spell; query 1 also stalls in pass 2;
        // query 2 is slow every time.
        let passes = vec![
            vec![1.0, 2.0, 9.0],
            vec![1.4, 2.8, 12.5],
            vec![0.9, 50.0, 9.2],
        ];
        assert_eq!(fastest_per_item(&passes), vec![0.9, 2.0, 9.0]);
        assert!(fastest_per_item(&[]).is_empty());
    }

    #[test]
    fn fastest_keeps_the_best_repeat_and_names_the_tail() {
        let mut f = Fastest::new(4);
        for (query, ms) in [(0, 40.0), (1, 52.0), (2, 30.0), (3, 45.0), (1, 41.0)] {
            f.record(query, ms);
        }
        assert_eq!(f.best_ms(), [40.0, 41.0, 30.0, 45.0]);
        assert_eq!(f.samples_range(), (1, 2));
        assert_eq!(f.slowest(2), vec![1, 3]);
        assert_eq!(f.slowest(0), Vec::<usize>::new());
        // Query 3 met a slow spell the first time; its repeat puts it back.
        f.record(3, 35.0);
        assert_eq!(f.slowest(2), vec![0, 1]);
        // Two clients, mean best latency (40 + 41 + 30 + 35) / 4 = 36.5 ms.
        assert!((f.ops_per_s(2) - 2000.0 / 36.5).abs() < 1e-9);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(100, 90.0), 10); // rank 89.1 → indices 90..=99
        assert_eq!(samples_beyond(11, 90.0), 1); // rank 9 exactly → index 10
        assert_eq!(samples_beyond(240, 90.0), 24);
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn relative_range_of_passes() {
        assert!((relative_range(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
