//! Readers for what the program prints: `/metrics` expositions, `/query`
//! answers, `/healthz?verbose=1` and `/ingest` replies.

use crate::json::Json;
use crate::workload::RECALL_TOP;
use std::collections::BTreeMap;

/// Every sample line of a Prometheus text exposition, keyed by the full
/// series name (labels included, as printed). Comment lines are skipped.
pub fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.trim().to_string(), value.parse::<f64>().ok()?))
        })
        .collect()
}

/// `after − before` for every series in `after`, summed into `into`
/// (the per-node expositions are added up this way).
pub fn add_delta(
    into: &mut BTreeMap<String, f64>,
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) {
    for (name, value) in after {
        *into.entry(name.clone()).or_insert(0.0) +=
            value - before.get(name).copied().unwrap_or(0.0);
    }
}

/// What the benchmark needs from one `/query` answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Hit names, best first.
    pub names: Vec<String>,
    /// `coverage.degraded`: part of the index was unreachable.
    pub degraded: bool,
}

impl Answer {
    /// Parse a `/query` body; `Err` for anything that is not a complete
    /// answer (an `{"error":…}` body included).
    pub fn parse(body: &[u8]) -> Result<Answer, String> {
        let text = std::str::from_utf8(body).map_err(|_| "answer is not UTF-8".to_string())?;
        let json = Json::parse(text)?;
        let hits = json
            .get("hits")
            .and_then(Json::as_array)
            .ok_or("answer has no hits array")?;
        let names = hits
            .iter()
            .map(|h| h.get("name").and_then(Json::as_str).map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .ok_or("a hit has no name")?;
        let degraded = json
            .get("coverage")
            .and_then(|c| c.get("degraded"))
            .and_then(Json::as_bool)
            .ok_or("answer has no coverage.degraded")?;
        Ok(Answer { names, degraded })
    }

    /// Is `source` among the first [`RECALL_TOP`] hits?
    pub fn recalls(&self, source: &str) -> bool {
        self.names.iter().take(RECALL_TOP).any(|n| n == source)
    }
}

/// Did this `/query` exchange count as a good op? Non-200, unparsable and
/// degraded answers all fail.
pub fn classify(status: u16, body: &[u8]) -> Result<Answer, String> {
    if status != 200 {
        return Err(format!("HTTP {status}: {}", String::from_utf8_lossy(body)));
    }
    let answer = Answer::parse(body)?;
    if answer.degraded {
        return Err("coverage.degraded is set".into());
    }
    Ok(answer)
}

/// A string field of a flat JSON reply (`kernel`, `git_sha`, …).
pub fn json_str_field(body: &[u8], key: &str) -> Option<String> {
    let json = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    Some(json.get(key)?.as_str()?.to_string())
}

/// A numeric field of a flat JSON reply (`blocks`, `sequences`, …).
pub fn json_num_field(body: &[u8], key: &str) -> Option<f64> {
    let json = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    json.get(key)?.as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from a live 3-node cluster at the commit that added the
    // benchmark (bodies shortened to two hits).
    const ANSWER: &str = r#"{"hits":[{"subject":0,"name":"fam0_m0","score":1827,"bits":708.3678574810484,"evalue":0.000000000000000000000000000000000000000003862251719785031,"identity":1,"query_start":0,"query_end":360,"subject_start":0,"subject_end":360},{"subject":2,"name":"fam0_m2","score":1621,"bits":629.0167448420736,"evalue":0.00000000000000029778695496959566,"identity":0.7586207,"query_start":0,"query_end":360,"subject_start":0,"subject_end":360}],"coverage":{"blocks_expected":186428,"blocks_reachable":186428,"degraded":false,"unreachable":[]}}"#;
    const DEGRADED: &str = r#"{"hits":[{"subject":0,"name":"fam0_m0","score":1827,"bits":708.3,"evalue":0,"identity":1,"query_start":0,"query_end":360,"subject_start":0,"subject_end":360}],"coverage":{"blocks_expected":186428,"blocks_reachable":124000,"degraded":true,"unreachable":[2]}}"#;
    const METRICS: &str = "# TYPE mendel_net_transport_bytes_sent counter\nmendel_net_transport_bytes_sent 9466\n\
        # TYPE mendel_vptree_dist_calls counter\nmendel_vptree_dist_calls 1081344\n\
        # TYPE mendel_query_turnaround_seconds histogram\n\
        mendel_query_turnaround_seconds_bucket{le=\"0.05\"} 6\n\
        mendel_query_turnaround_seconds_sum 0.243246762\nmendel_query_turnaround_seconds_count 6\n\n";

    #[test]
    fn answer_names_and_coverage() {
        let a = Answer::parse(ANSWER.as_bytes()).unwrap();
        assert_eq!(a.names, ["fam0_m0", "fam0_m2"]);
        assert!(!a.degraded);
        assert!(a.recalls("fam0_m2"));
        assert!(!a.recalls("fam9_m9"));
        assert!(classify(200, ANSWER.as_bytes()).is_ok());
    }

    #[test]
    fn degraded_error_and_garbage_answers_count_as_failed() {
        assert!(Answer::parse(DEGRADED.as_bytes()).unwrap().degraded);
        assert!(classify(200, DEGRADED.as_bytes())
            .unwrap_err()
            .contains("degraded"));
        assert!(classify(503, br#"{"error":"no corpus ingested yet"}"#).is_err());
        assert!(classify(200, br#"{"error":"invalid residue"}"#).is_err());
        assert!(classify(200, b"{\"hits\":[").is_err());
        assert!(classify(200, &[0xff, 0xfe]).is_err());
    }

    #[test]
    fn recall_looks_at_the_top_ten_only() {
        let names = (0..12).map(|i| format!("s{i}")).collect();
        let a = Answer {
            names,
            degraded: false,
        };
        assert!(a.recalls("s9"));
        assert!(!a.recalls("s10"));
    }

    #[test]
    fn metrics_samples_and_deltas() {
        let m = parse_metrics(METRICS);
        assert_eq!(m["mendel_net_transport_bytes_sent"], 9466.0);
        assert_eq!(m["mendel_vptree_dist_calls"], 1081344.0);
        assert_eq!(
            m["mendel_query_turnaround_seconds_bucket{le=\"0.05\"}"],
            6.0
        );
        assert_eq!(m.len(), 5);
        let later = parse_metrics("mendel_vptree_dist_calls 1081400\nmendel_new 3\n");
        let mut sum = BTreeMap::new();
        add_delta(&mut sum, &m, &later);
        add_delta(&mut sum, &m, &later);
        assert_eq!(sum["mendel_vptree_dist_calls"], 112.0);
        assert_eq!(sum["mendel_new"], 6.0);
    }

    #[test]
    fn flat_reply_fields() {
        let health =
            br#"{"status":"ok","node":0,"serving":true,"git_sha":"1c5509391f1b","kernel":"avx2"}"#;
        assert_eq!(json_str_field(health, "kernel").as_deref(), Some("avx2"));
        assert_eq!(json_str_field(health, "nope"), None);
        let ingest = br#"{"ingested":true,"sequences":120,"blocks":47940}"#;
        assert_eq!(json_num_field(ingest, "blocks"), Some(47940.0));
    }
}
