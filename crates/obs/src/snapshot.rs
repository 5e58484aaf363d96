//! Point-in-time metric snapshots and their exposition formats.
//!
//! A [`MetricsSnapshot`] is plain data (`BTreeMap`s, so rendering is
//! deterministic) with two render targets — Prometheus text and JSON —
//! and counter-delta arithmetic so a caller can attribute counts to one
//! query: snapshot before, snapshot after, subtract.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Frozen histogram cells (see [`crate::Histogram::snapshot`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// The boundary vector.
    pub bounds: Vec<f64>,
    /// `bounds.len() + 1` bucket counts (last = overflow).
    pub counts: Vec<u64>,
    /// Sum of recorded samples.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean of recorded samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum / n as f64)
    }
}

/// A point-in-time view of every registered metric.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram cells by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name; 0 when absent (a counter that never
    /// fired and one that was never created read the same).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name; 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram cells by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// The change since `earlier`: counters and histogram cells are
    /// subtracted (saturating, so a restarted registry reads as zero
    /// rather than wrapping); gauges keep their current value, deltas
    /// being meaningless for level metrics.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, &v)| (name.clone(), v.saturating_sub(earlier.counter(name))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let mut out = h.clone();
                if let Some(prev) = earlier.histograms.get(name) {
                    if prev.bounds == out.bounds && prev.counts.len() == out.counts.len() {
                        for (c, p) in out.counts.iter_mut().zip(&prev.counts) {
                            *c = c.saturating_sub(*p);
                        }
                        out.sum -= prev.sum;
                    }
                }
                (name.clone(), out)
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Prometheus text exposition: one `# TYPE` line per metric, dots in
    /// names mapped to underscores, histogram buckets as cumulative
    /// `_bucket{le="…"}` series with `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} counter\n{n} {value}");
        }
        for (name, value) in &self.gauges {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge\n{n} {value}");
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0u64;
            for (i, &count) in h.counts.iter().enumerate() {
                cumulative += count;
                let le = match h.bounds.get(i) {
                    Some(b) => format_f64(*b),
                    None => "+Inf".to_string(),
                };
                let le = prom_label_value(&le);
                let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{n}_sum {}", format_f64(h.sum));
            let _ = writeln!(out, "{n}_count {cumulative}");
        }
        out
    }

    /// JSON exposition (hand-rendered; the workspace has no JSON
    /// serializer): `{"counters": {...}, "gauges": {...},
    /// "histograms": {name: {bounds, counts, sum}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        render_map(&mut out, self.counters.iter(), |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str("},\n  \"gauges\": {");
        render_map(&mut out, self.gauges.iter(), |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str("},\n  \"histograms\": {");
        render_map(&mut out, self.histograms.iter(), |out, h| {
            out.push_str("{\"bounds\": [");
            for (i, b) in h.bounds.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}", format_f64(*b));
            }
            out.push_str("], \"counts\": [");
            for (i, c) in h.counts.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{c}");
            }
            let _ = write!(out, "], \"sum\": {}}}", format_f64(h.sum));
        });
        out.push_str("}\n}\n");
        out
    }
}

fn render_map<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, V)>,
    mut render: impl FnMut(&mut String, V),
) {
    let mut first = true;
    for (name, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    \"");
        out.push_str(&escape_json(name));
        out.push_str("\": ");
        render(out, v);
    }
    if !first {
        out.push_str("\n  ");
    }
}

pub fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Prometheus metric names must match `[a-zA-Z_:][a-zA-Z0-9_:]*`:
/// disallowed characters map to `_`, and a leading digit (or an empty
/// name) gets a `_` prefix so the result is always grammar-valid.
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Prometheus label values allow any UTF-8 but require `\`, `"`, and
/// newline to be escaped in the text format.
fn prom_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a float so it round-trips as JSON (no `inf`/`NaN` in
/// snapshots: bounds are finite by construction and sums of finite
/// samples stay finite in practice).
fn format_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("mendel.vptree.dist_calls".into(), 42);
        s.gauges.insert("mendel.net.live_nodes".into(), 5);
        s.histograms.insert(
            "mendel.query.stage.hash.seconds".into(),
            HistogramSnapshot {
                bounds: vec![0.001, 0.01],
                counts: vec![2, 1, 0],
                sum: 0.0052,
            },
        );
        s
    }

    #[test]
    fn counter_lookup_defaults_to_zero() {
        let s = sample();
        assert_eq!(s.counter("mendel.vptree.dist_calls"), 42);
        assert_eq!(s.counter("absent"), 0);
        assert_eq!(s.gauge("absent"), 0);
    }

    #[test]
    fn histogram_snapshot_mean() {
        let s = sample();
        let h = s.histogram("mendel.query.stage.hash.seconds").unwrap();
        assert_eq!(h.count(), 3);
        assert!((h.mean().unwrap() - 0.0052 / 3.0).abs() < 1e-12);
        assert_eq!(HistogramSnapshot::default().mean(), None);
    }

    #[test]
    fn since_subtracts_counters_and_cells() {
        let earlier = sample();
        let mut later = sample();
        *later.counters.get_mut("mendel.vptree.dist_calls").unwrap() += 8;
        later
            .histograms
            .get_mut("mendel.query.stage.hash.seconds")
            .unwrap()
            .counts[1] += 3;
        let delta = later.since(&earlier);
        assert_eq!(delta.counter("mendel.vptree.dist_calls"), 8);
        assert_eq!(
            delta
                .histogram("mendel.query.stage.hash.seconds")
                .unwrap()
                .counts,
            vec![0, 3, 0]
        );
        // Gauges pass through as levels.
        assert_eq!(delta.gauge("mendel.net.live_nodes"), 5);
    }

    #[test]
    fn prometheus_text_is_cumulative_and_sanitized() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE mendel_vptree_dist_calls counter"));
        assert!(text.contains("mendel_vptree_dist_calls 42"));
        assert!(text.contains("mendel_net_live_nodes 5"));
        assert!(text.contains("mendel_query_stage_hash_seconds_bucket{le=\"0.001\"} 2"));
        assert!(text.contains("mendel_query_stage_hash_seconds_bucket{le=\"0.01\"} 3"));
        assert!(text.contains("mendel_query_stage_hash_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("mendel_query_stage_hash_seconds_count 3"));
    }

    #[test]
    fn json_is_structurally_balanced() {
        let json = sample().to_json();
        assert!(json.contains("\"mendel.vptree.dist_calls\": 42"));
        assert!(json.contains("\"counts\": [2, 1, 0]"));
        let depth = json.chars().fold(0i32, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn prom_name_is_always_grammar_valid() {
        assert_eq!(prom_name("mendel.query.hits"), "mendel_query_hits");
        assert_eq!(prom_name("9lives"), "_9lives");
        assert_eq!(prom_name(""), "_");
        assert_eq!(prom_name("héllo wörld"), "h_llo_w_rld");
        for hostile in ["0", "{}", "a{b=\"c\"}", "\n", "1.5e3"] {
            let n = prom_name(hostile);
            let mut chars = n.chars();
            let first = chars.next().expect("non-empty");
            assert!(
                first.is_ascii_alphabetic() || first == '_' || first == ':',
                "{n}"
            );
            assert!(
                chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "{n}"
            );
        }
    }

    #[test]
    fn prom_label_value_escapes_specials() {
        assert_eq!(prom_label_value("plain"), "plain");
        assert_eq!(prom_label_value("a\"b"), "a\\\"b");
        assert_eq!(prom_label_value("a\\b"), "a\\\\b");
        assert_eq!(prom_label_value("a\nb"), "a\\nb");
    }

    #[test]
    fn empty_snapshot_renders() {
        let s = MetricsSnapshot::default();
        assert_eq!(s.to_prometheus(), "");
        assert!(s.to_json().contains("\"counters\": {}"));
    }
}
