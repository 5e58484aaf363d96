//! In-memory spans for the traced run: one per probe or black-box call,
//! with the span that caused it and the query index as the identifier
//! shared by everything done for one query. Written out when the run
//! ends (`trace-<workload>.json`).

use crate::json::{num, obj, string, Json};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Which process recorded it (`e2e` or `layers`); start and end are
    /// relative to that process's recorder.
    pub process: String,
    /// The crate the time belongs to (`cli`, `core`, `vptree`, …) or
    /// `harness` for spans that only group others.
    pub layer: String,
    pub name: String,
    /// Index into the workload's query list, when the span is for one query.
    pub query: Option<usize>,
    /// Index of the causing span in the same file.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

#[derive(Debug)]
pub struct Recorder {
    process: &'static str,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(process: &'static str) -> Recorder {
        Recorder {
            process,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a span from instants taken elsewhere (a client thread).
    pub fn push(
        &mut self,
        layer: &str,
        name: &str,
        query: Option<usize>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            process: self.process.to_string(),
            layer: layer.to_string(),
            name: name.to_string(),
            query,
            parent,
            start_us: start.saturating_duration_since(self.origin).as_secs_f64() * 1e6,
            end_us: end.saturating_duration_since(self.origin).as_secs_f64() * 1e6,
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Recorder::close`].
    pub fn open(
        &mut self,
        layer: &str,
        name: &str,
        query: Option<usize>,
        parent: Option<usize>,
    ) -> usize {
        let now = Instant::now();
        self.push(layer, name, query, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
    }

    /// Time `f` as a span and hand back its result with the duration in µs.
    pub fn time<T>(
        &mut self,
        layer: &str,
        name: &str,
        query: Option<usize>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(layer, name, query, parent);
        let out = f();
        self.close(id);
        (out, self.spans[id].duration_us())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append spans recorded by another process, keeping their parent links.
    pub fn absorb(&mut self, other: Vec<Span>) {
        let offset = self.spans.len();
        self.spans.extend(other.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are not counted twice).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let parent = &spans[p];
            let start = s.start_us.max(parent.start_us);
            let end = s.end_us.min(parent.end_us);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::MIN;
            for (start, end) in kids {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

/// Σ self time per layer, in µs.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_us(spans)) {
        *out.entry(s.layer.clone()).or_insert(0.0) += own;
    }
    out
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj([
                    ("id", num(id as f64)),
                    ("process", string(&*s.process)),
                    ("layer", string(&*s.layer)),
                    ("name", string(&*s.name)),
                    ("query", s.query.map_or(Json::Null, |q| num(q as f64))),
                    ("parent", s.parent.map_or(Json::Null, |p| num(p as f64))),
                    ("start_us", num(s.start_us)),
                    ("end_us", num(s.end_us)),
                ])
            })
            .collect(),
    )
}

pub fn spans_from_json(json: &Json) -> Result<Vec<Span>, String> {
    let index = |v: Option<&Json>| match v {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) if *n >= 0.0 => Ok(Some(*n as usize)),
        Some(other) => Err(format!("bad span index {other:?}")),
    };
    json.as_array()
        .ok_or("spans are not an array")?
        .iter()
        .map(|s| {
            let text = |key: &str| {
                s.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("span has no {key}"))
            };
            let time = |key: &str| {
                s.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("span has no {key}"))
            };
            Ok(Span {
                process: text("process")?,
                layer: text("layer")?,
                name: text("name")?,
                query: index(s.get("query"))?,
                parent: index(s.get("parent"))?,
                start_us: time("start_us")?,
                end_us: time("end_us")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &str, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span {
            process: "t".into(),
            layer: layer.into(),
            name: "n".into(),
            query: Some(3),
            parent,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("harness", None, 0.0, 100.0),
            span("vptree", Some(0), 10.0, 40.0),
            span("align", Some(0), 30.0, 60.0), // overlaps the vptree span by 10
            span("align", Some(2), 35.0, 45.0),
            span("net", Some(0), 90.0, 120.0), // sticks out of the parent by 20
        ];
        let own = self_times_us(&spans);
        assert_eq!(own, vec![40.0, 30.0, 20.0, 10.0, 30.0]);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["align"], 30.0);
        assert_eq!(by_layer["harness"], 40.0);
    }

    #[test]
    fn spans_round_trip_and_absorb_shifts_parents() {
        let theirs = vec![span("core", None, 0.0, 5.0), span("seq", Some(0), 1.0, 2.0)];
        let parsed =
            spans_from_json(&Json::parse(&spans_to_json(&theirs).render()).unwrap()).unwrap();
        assert_eq!(parsed, theirs);
        let mut rec = Recorder::new("e2e");
        let (value, us) = rec.time("cli", "call", Some(0), None, || 7);
        assert_eq!(value, 7);
        assert!(us >= 0.0);
        rec.absorb(parsed);
        assert_eq!(rec.spans().len(), 3);
        assert_eq!(rec.spans()[2].parent, Some(1));
        assert!(spans_from_json(&Json::parse("[{\"layer\":\"x\"}]").unwrap()).is_err());
    }
}
