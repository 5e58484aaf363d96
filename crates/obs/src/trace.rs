//! Causal tracing: per-query span trees over the injectable clock.
//!
//! Aggregate metrics (PR 4) answer "how much"; traces answer "why was
//! *this* query slow". A [`Tracer`] mints [`TraceId`]/[`SpanId`]s from a
//! deterministic shared counter and stamps [`SpanRecord`]s with the
//! registry's injectable [`Clock`] — never `Instant::now()` — so a
//! seeded run under a `VirtualClock` produces byte-identical trace
//! exports. Records land in a bounded per-node
//! [`crate::recorder::FlightRecorder`]; a [`TraceCollector`] reassembles
//! them into a [`TraceTree`] with critical-path extraction over the
//! scatter-gather DAG and Chrome trace-event JSON export (loadable in
//! Perfetto / `chrome://tracing`). See DESIGN.md §12.

use crate::clock::Clock;
use crate::recorder::FlightRecorder;
use crate::snapshot::escape_json;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Identity of one end-to-end request across the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace{}", self.0)
    }
}

/// Identity of one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "span{}", self.0)
    }
}

/// The causal context a message carries across node boundaries: which
/// trace it belongs to, which span caused it, and whether the receiver
/// should spend memory recording spans for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// The request this work belongs to.
    pub trace: TraceId,
    /// The span that caused this work (parent for any child spans).
    pub parent: SpanId,
    /// Dapper-style sampling decision, made once at the trace root and
    /// propagated verbatim: when `false` the ids still flow (so log
    /// lines can be correlated) but downstream nodes record no spans.
    pub sampled: bool,
}

impl TraceContext {
    /// A sampled context (the common case: record everything).
    pub fn new(trace: TraceId, parent: SpanId) -> Self {
        TraceContext {
            trace,
            parent,
            sampled: true,
        }
    }
}

/// One finished span: a named, tagged `[start, end)` interval on a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Owning trace.
    pub trace: TraceId,
    /// This span.
    pub span: SpanId,
    /// Causal parent; `None` for a trace root.
    pub parent: Option<SpanId>,
    /// Node the work ran on.
    pub node: u32,
    /// Span name (e.g. `query`, `group/2`, `group_rpc/2`).
    pub name: String,
    /// Start offset on the trace's clock.
    pub start: Duration,
    /// End offset on the trace's clock (`>= start`).
    pub end: Duration,
    /// Annotations, in insertion order.
    pub tags: Vec<(String, String)>,
}

impl SpanRecord {
    /// The span's own duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Mints span ids, stamps time, and writes records into one node's
/// flight recorder. Cheap to clone; clones share the id counter (so ids
/// stay unique and deterministic) and the recorder.
#[derive(Debug, Clone)]
pub struct Tracer {
    clock: Arc<dyn Clock>,
    ids: Arc<AtomicU64>,
    recorder: Arc<FlightRecorder>,
    node: u32,
}

impl Tracer {
    /// A tracer over an explicit clock, id counter, and recorder.
    /// Production code gets one from `Registry::tracer`.
    pub fn new(
        clock: Arc<dyn Clock>,
        ids: Arc<AtomicU64>,
        recorder: Arc<FlightRecorder>,
        node: u32,
    ) -> Self {
        Tracer {
            clock,
            ids,
            recorder,
            node,
        }
    }

    /// The recorder this tracer writes into.
    // audit:allow(unreached): this file's and registry.rs's tests read recorded spans back with it
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The tracer's time source.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Mint the next id from the shared deterministic counter. Trace and
    /// span ids draw from the same sequence, so a fixed call order yields
    /// a fixed id assignment.
    pub fn next_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed) // audit:ordering(Relaxed): unique id generation; fetch_add atomicity alone guarantees distinct ids
    }

    /// Start a new trace: mints a fresh [`TraceId`] and opens its root
    /// span (sampled: the caller decided to trace by calling this).
    pub fn start_trace(&self, name: &str) -> ActiveSpan {
        let trace = TraceId(self.next_id());
        self.span_inner(name, trace, None, true)
    }

    /// Open a child span of `ctx`, starting now. The child inherits the
    /// context's sampling decision.
    pub fn child(&self, name: &str, ctx: TraceContext) -> ActiveSpan {
        self.span_inner(name, ctx.trace, Some(ctx.parent), ctx.sampled)
    }

    fn span_inner(
        &self,
        name: &str,
        trace: TraceId,
        parent: Option<SpanId>,
        sampled: bool,
    ) -> ActiveSpan {
        ActiveSpan {
            tracer: self.clone(),
            trace,
            span: SpanId(self.next_id()),
            parent,
            sampled,
            name: name.to_string(),
            start: self.clock.now(),
            tags: Vec::new(),
        }
    }

    /// Write a hand-built record (e.g. one positioned on a simulated
    /// timeline rather than the wall clock) into the flight recorder.
    pub fn record(&self, record: SpanRecord) {
        self.recorder.push(record);
    }
}

/// An open span. Records nothing until [`ActiveSpan::finish`] — dropping
/// it silently loses the measurement, hence the `must_use`.
#[must_use = "an unfinished span records nothing; call finish()"]
#[derive(Debug)]
pub struct ActiveSpan {
    tracer: Tracer,
    trace: TraceId,
    span: SpanId,
    parent: Option<SpanId>,
    sampled: bool,
    name: String,
    start: Duration,
    tags: Vec<(String, String)>,
}

impl ActiveSpan {
    /// This span's id.
    pub fn id(&self) -> SpanId {
        self.span
    }

    /// The owning trace.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// The context to propagate to work this span causes: same trace,
    /// this span as parent, same sampling decision.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace: self.trace,
            parent: self.span,
            sampled: self.sampled,
        }
    }

    /// Backdate the span to `start`, for work that had to run before the
    /// decision to trace it (e.g. validating the request).
    pub fn started_at(mut self, start: Duration) -> Self {
        self.start = start;
        self
    }

    /// Attach a tag (kept in insertion order).
    pub fn tag(&mut self, key: &str, value: impl std::fmt::Display) {
        self.tags.push((key.to_string(), value.to_string()));
    }

    /// Close the span at the current clock reading, push its record into
    /// the flight recorder, and return that record — `None`, and nothing
    /// recorded, when the trace is unsampled.
    pub fn finish(self) -> Option<SpanRecord> {
        if !self.sampled {
            return None;
        }
        let end = self.tracer.clock.now();
        let record = SpanRecord {
            trace: self.trace,
            span: self.span,
            parent: self.parent,
            node: self.tracer.node,
            name: self.name,
            start: self.start,
            end: end.max(self.start),
            tags: self.tags,
        };
        self.tracer.record(record.clone());
        Some(record)
    }
}

/// One hop on a trace's critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalHop {
    /// Span name.
    pub name: String,
    /// Node the span ran on.
    pub node: u32,
    /// The span's own duration.
    pub duration: Duration,
}

/// A span and its causal children, children ordered by `(start, span)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceNode {
    /// The span itself.
    pub record: SpanRecord,
    /// Child spans in deterministic order.
    pub children: Vec<TraceNode>,
}

/// A reassembled trace: the root span and everything under it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTree {
    /// The trace this tree renders.
    pub trace: TraceId,
    /// The root span (no parent, or parent missing from the record set).
    pub root: TraceNode,
}

impl TraceTree {
    /// The critical path through the scatter-gather DAG: starting at the
    /// root, repeatedly descend into the child that finishes *last*
    /// (ties broken toward the smaller span id, so extraction is
    /// deterministic). The returned hops are ordered root → leaf.
    pub fn critical_path(&self) -> Vec<CriticalHop> {
        let mut path = Vec::new();
        let mut node = &self.root;
        loop {
            path.push(CriticalHop {
                name: node.record.name.clone(),
                node: node.record.node,
                duration: node.record.duration(),
            });
            let Some(next) = node.children.iter().max_by(|a, b| {
                a.record
                    .end
                    .cmp(&b.record.end)
                    // max_by keeps the *last* maximal element, so to
                    // prefer the smaller span id we order larger ids
                    // as "less".
                    .then(b.record.span.cmp(&a.record.span))
            }) else {
                return path;
            };
            node = next;
        }
    }

    /// Plain-text rendering, one line per span, children indented.
    pub fn render(&self) -> String {
        fn walk(out: &mut String, node: &TraceNode, depth: usize) {
            let r = &node.record;
            let _ = write!(
                out,
                "{}{} [node{}] {:?}",
                "  ".repeat(depth),
                r.name,
                r.node,
                r.duration()
            );
            for (k, v) in &r.tags {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
            for c in &node.children {
                walk(out, c, depth + 1);
            }
        }
        let mut out = format!("{} ({:?} total)\n", self.trace, self.root.record.duration());
        walk(&mut out, &self.root, 0);
        out
    }
}

/// Reassembles [`SpanRecord`]s (from any number of flight recorders)
/// into per-trace trees.
#[derive(Debug, Clone, Default)]
pub struct TraceCollector {
    records: Vec<SpanRecord>,
}

impl TraceCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one record.
    pub fn add(&mut self, record: SpanRecord) {
        self.records.push(record);
    }

    /// Add many records.
    pub fn ingest(&mut self, records: impl IntoIterator<Item = SpanRecord>) {
        self.records.extend(records);
    }

    /// All ingested records.
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Drop duplicate records (same `(node, span)` identity), keeping
    /// the first occurrence. Cross-process stitching can legitimately
    /// see a span twice — once riding home in a reply tail and once
    /// scraped over HTTP — so ingest the authoritative copy first and
    /// dedup before building trees.
    pub fn dedup(&mut self) {
        let mut seen = std::collections::HashSet::new();
        self.records.retain(|r| seen.insert((r.node, r.span)));
    }

    /// Distinct trace ids seen, ascending.
    pub fn trace_ids(&self) -> Vec<TraceId> {
        let mut ids: Vec<TraceId> = self.records.iter().map(|r| r.trace).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Reassemble `trace` into a tree. The root is the record with no
    /// parent (or whose parent never arrived — a truncated ring buffer
    /// still yields the latest subtree); with several candidates the
    /// earliest-starting, smallest-id one wins. `None` when the trace has
    /// no records.
    pub fn tree(&self, trace: TraceId) -> Option<TraceTree> {
        let mut of_trace: Vec<&SpanRecord> =
            self.records.iter().filter(|r| r.trace == trace).collect();
        if of_trace.is_empty() {
            return None;
        }
        of_trace.sort_by_key(|r| (r.start, r.span));
        let present: std::collections::HashSet<SpanId> = of_trace.iter().map(|r| r.span).collect();
        let root = of_trace
            .iter()
            .find(|r| !r.parent.is_some_and(|p| present.contains(&p)))
            .copied()?;
        fn build(record: &SpanRecord, all: &[&SpanRecord]) -> TraceNode {
            let children = all
                .iter()
                .filter(|r| r.parent == Some(record.span))
                .map(|r| build(r, all))
                .collect();
            TraceNode {
                record: record.clone(),
                children,
            }
        }
        Some(TraceTree {
            trace,
            root: build(root, &of_trace),
        })
    }
}

fn escape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '=' => out.push_str("\\e"),
            c => out.push(c),
        }
    }
    out
}

fn unescape_field(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('e') => out.push('='),
            other => return Err(format!("bad escape \\{other:?}")),
        }
    }
    Ok(out)
}

/// Render span records as the line-oriented interchange format nodes
/// serve at `/trace/{id}?format=records`: one record per line,
/// tab-separated `trace span parent node start_ns end_ns name tag=value...`
/// with `-` for a missing parent and backslash escapes in names/tags.
/// The workspace has no JSON parser, so cross-process trace stitching
/// federates through this format instead; [`parse_records_text`] is the
/// exact inverse.
pub fn render_records_text(records: &[SpanRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let _ = write!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.trace.0,
            r.span.0,
            r.parent
                .map_or_else(|| "-".to_string(), |p| p.0.to_string()),
            r.node,
            r.start.as_nanos(),
            r.end.as_nanos(),
            escape_field(&r.name),
        );
        for (k, v) in &r.tags {
            let _ = write!(out, "\t{}={}", escape_field(k), escape_field(v));
        }
        out.push('\n');
    }
    out
}

/// Parse [`render_records_text`] output. Hostile-input posture: any
/// malformed line is an error naming the line, never a panic.
pub fn parse_records_text(text: &str) -> Result<Vec<SpanRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}", lineno + 1);
        let mut fields = line.split('\t');
        let mut next = |what: &'static str| fields.next().ok_or_else(|| err(what));
        let trace: u64 = next("missing trace id")?
            .parse()
            .map_err(|_| err("bad trace id"))?;
        let span: u64 = next("missing span id")?
            .parse()
            .map_err(|_| err("bad span id"))?;
        let parent = match next("missing parent")? {
            "-" => None,
            raw => Some(SpanId(raw.parse().map_err(|_| err("bad parent id"))?)),
        };
        let node: u32 = next("missing node")?.parse().map_err(|_| err("bad node"))?;
        let start: u64 = next("missing start")?
            .parse()
            .map_err(|_| err("bad start"))?;
        let end: u64 = next("missing end")?.parse().map_err(|_| err("bad end"))?;
        let name = unescape_field(next("missing name")?).map_err(|e| err(&e))?;
        let mut tags = Vec::new();
        for field in fields {
            let Some((k, v)) = field.split_once('=') else {
                return Err(err("tag without `=`"));
            };
            tags.push((
                unescape_field(k).map_err(|e| err(&e))?,
                unescape_field(v).map_err(|e| err(&e))?,
            ));
        }
        out.push(SpanRecord {
            trace: TraceId(trace),
            span: SpanId(span),
            parent,
            node,
            name,
            start: Duration::from_nanos(start),
            end: Duration::from_nanos(end.max(start)),
            tags,
        });
    }
    Ok(out)
}

/// Duration as fractional microseconds (`ts`/`dur` units of the Chrome
/// trace-event format), rendered from integers so output is
/// byte-deterministic.
fn fmt_us(d: Duration) -> String {
    let nanos = d.as_nanos();
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

/// Render records as Chrome trace-event JSON (`ph: "X"` complete
/// events; `pid`/`tid` carry the node id). Events are sorted by
/// `(start, trace, span)` and all numbers derive from integers, so the
/// same records always produce the same bytes.
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let mut sorted: Vec<&SpanRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.start, r.trace, r.span));
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, r) in sorted.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"mendel\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"trace\":{},\"span\":{}",
            escape_json(&r.name),
            r.node,
            r.node,
            fmt_us(r.start),
            fmt_us(r.duration()),
            r.trace.0,
            r.span.0,
        );
        if let Some(p) = r.parent {
            let _ = write!(out, ",\"parent\":{}", p.0);
        }
        for (k, v) in &r.tags {
            let _ = write!(out, ",\"{}\":\"{}\"", escape_json(k), escape_json(v));
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    fn tracer() -> (Arc<VirtualClock>, Tracer) {
        let clock = Arc::new(VirtualClock::new());
        let t = Tracer::new(
            clock.clone(),
            Arc::new(AtomicU64::new(1)),
            Arc::new(FlightRecorder::new(128)),
            0,
        );
        (clock, t)
    }

    #[test]
    fn ids_are_unique_and_sequential() {
        let (_clock, t) = tracer();
        assert_eq!(t.next_id(), 1);
        assert_eq!(t.next_id(), 2);
        let t2 = t.clone();
        assert_eq!(t2.next_id(), 3, "clones share the counter");
    }

    #[test]
    fn span_lifecycle_records_into_the_recorder() {
        let (clock, t) = tracer();
        let mut root = t.start_trace("query");
        root.tag("groups", 2);
        clock.advance(Duration::from_micros(500));
        let ctx = root.context();
        let child = t.child("scatter", ctx);
        clock.advance(Duration::from_micros(100));
        let scatter = child.finish().expect("sampled");
        assert_eq!(scatter.duration(), Duration::from_micros(100));
        assert_eq!(
            root.finish().map(|r| r.duration()),
            Some(Duration::from_micros(600))
        );
        let records = t.recorder().records();
        assert_eq!(records[0], scatter, "finish returns the record it wrote");
        assert_eq!(records.len(), 2);
        let scatter = &records[0];
        assert_eq!(scatter.name, "scatter");
        assert_eq!(scatter.parent, Some(ctx.parent));
        assert_eq!(scatter.start, Duration::from_micros(500));
        let query = &records[1];
        assert_eq!(query.parent, None);
        assert_eq!(query.tags, vec![("groups".to_string(), "2".to_string())]);
    }

    /// The acceptance-criteria scenario: a hand-built scatter-gather
    /// trace under `VirtualClock` whose critical path must equal the
    /// hand-computed hop sequence and durations.
    #[test]
    fn critical_path_matches_hand_computed_dag() {
        let (_clock, t) = tracer();
        let trace = TraceId(t.next_id());
        let us = Duration::from_micros;
        let mk =
            |span: u64, parent: Option<u64>, node: u32, name: &str, s: u64, e: u64| SpanRecord {
                trace,
                span: SpanId(span),
                parent: parent.map(SpanId),
                node,
                name: name.into(),
                start: us(s),
                end: us(e),
                tags: Vec::new(),
            };
        // query[0,100] -> {group/0[10,40], group/1[10,90] -> {node/3[15,85], node/4[15,30]}}
        t.record(mk(2, None, 0, "query", 0, 100));
        t.record(mk(3, Some(2), 1, "group/0", 10, 40));
        t.record(mk(4, Some(2), 3, "group/1", 10, 90));
        t.record(mk(5, Some(4), 3, "node/3", 15, 85));
        t.record(mk(6, Some(4), 4, "node/4", 15, 30));
        let mut collector = TraceCollector::new();
        collector.ingest(t.recorder().records());
        let tree = collector.tree(trace).unwrap();
        let path = tree.critical_path();
        let got: Vec<(&str, u32, Duration)> = path
            .iter()
            .map(|h| (h.name.as_str(), h.node, h.duration))
            .collect();
        assert_eq!(
            got,
            vec![
                ("query", 0, us(100)),
                ("group/1", 3, us(80)),
                ("node/3", 3, us(70)),
            ]
        );
    }

    #[test]
    fn critical_path_tie_breaks_toward_smaller_span_id() {
        let trace = TraceId(1);
        let us = Duration::from_micros;
        let mk = |span: u64, parent: Option<u64>, s: u64, e: u64| SpanRecord {
            trace,
            span: SpanId(span),
            parent: parent.map(SpanId),
            node: 0,
            name: format!("s{span}"),
            start: us(s),
            end: us(e),
            tags: Vec::new(),
        };
        let mut c = TraceCollector::new();
        c.add(mk(2, None, 0, 50));
        c.add(mk(4, Some(2), 0, 50)); // same end as span 3
        c.add(mk(3, Some(2), 0, 50));
        let path = c.tree(trace).unwrap().critical_path();
        assert_eq!(path[1].name, "s3", "ties resolve to the smaller span id");
    }

    #[test]
    fn truncated_trace_still_yields_a_tree() {
        let trace = TraceId(9);
        let mut c = TraceCollector::new();
        c.add(SpanRecord {
            trace,
            span: SpanId(20),
            parent: Some(SpanId(10)), // parent evicted from the ring
            node: 2,
            name: "orphan".into(),
            start: Duration::from_micros(5),
            end: Duration::from_micros(8),
            tags: Vec::new(),
        });
        let tree = c.tree(trace).unwrap();
        assert_eq!(tree.root.record.name, "orphan");
        assert!(c.tree(TraceId(999)).is_none());
    }

    #[test]
    fn chrome_export_is_sorted_escaped_and_balanced() {
        let trace = TraceId(1);
        let us = Duration::from_micros;
        let mut c = TraceCollector::new();
        c.add(SpanRecord {
            trace,
            span: SpanId(3),
            parent: Some(SpanId(2)),
            node: 1,
            name: "weird\"name\n".into(),
            start: us(10),
            end: us(25),
            tags: vec![("peer".into(), "node1".into())],
        });
        c.add(SpanRecord {
            trace,
            span: SpanId(2),
            parent: None,
            node: 0,
            name: "query".into(),
            start: us(0),
            end: us(100),
            tags: Vec::new(),
        });
        let json = chrome_trace_json(c.records());
        // Events sorted by start: query first despite insertion order.
        assert!(json.find("\"name\":\"query\"").unwrap() < json.find("weird").unwrap());
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":10.000"));
        assert!(json.contains("\"dur\":15.000"));
        assert!(json.contains("weird\\\"name\\u000a"));
        let depth = json.chars().fold(0i32, |d, ch| match ch {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
        // Unescaped quotes must pair up (escaped ones live inside strings).
        let mut quotes = 0usize;
        let mut prev_backslash = false;
        for ch in json.chars() {
            if ch == '"' && !prev_backslash {
                quotes += 1;
            }
            prev_backslash = ch == '\\' && !prev_backslash;
        }
        assert_eq!(quotes % 2, 0);
    }

    #[test]
    fn records_text_roundtrips_hostile_names_and_tags() {
        let records = vec![
            SpanRecord {
                trace: TraceId(7),
                span: SpanId(8),
                parent: None,
                node: 2,
                name: "que\try\n\\weird=name".into(),
                start: Duration::from_nanos(1_234),
                end: Duration::from_nanos(9_999),
                tags: vec![("k=ey\t".into(), "v\\al\nue".into())],
            },
            SpanRecord {
                trace: TraceId(7),
                span: SpanId(9),
                parent: Some(SpanId(8)),
                node: 3,
                name: "node/3".into(),
                start: Duration::ZERO,
                end: Duration::from_secs(2),
                tags: Vec::new(),
            },
        ];
        let text = render_records_text(&records);
        assert_eq!(parse_records_text(&text).unwrap(), records);
        // Round-trip is a fixed point.
        assert_eq!(
            render_records_text(&parse_records_text(&text).unwrap()),
            text
        );
    }

    #[test]
    fn records_text_rejects_garbage_without_panicking() {
        assert!(parse_records_text("not\ta\trecord\n").is_err());
        assert!(parse_records_text("1\t2\t-\t0\t5\t9\tname\tno-equals\n").is_err());
        assert!(parse_records_text("1\t2\t-\t0\t5\t9\tbad\\escape\\q\n").is_err());
        assert!(parse_records_text("1\t2\t-\t0\t5\n").is_err(), "short line");
        assert!(parse_records_text("").unwrap().is_empty());
        // An end before its start is clamped, not trusted.
        let r = parse_records_text("1\t2\t-\t0\t50\t10\tclamped\n").unwrap();
        assert_eq!(r[0].start, r[0].end);
    }

    #[test]
    fn collector_dedup_keeps_first_copy_per_node_span() {
        let mut c = TraceCollector::new();
        let mk = |span: u64, node: u32, end_us: u64| SpanRecord {
            trace: TraceId(1),
            span: SpanId(span),
            parent: None,
            node,
            name: "x".into(),
            start: Duration::ZERO,
            end: Duration::from_micros(end_us),
            tags: Vec::new(),
        };
        c.add(mk(5, 1, 10)); // authoritative copy
        c.add(mk(5, 1, 99)); // federated duplicate
        c.add(mk(5, 2, 10)); // same span id, different node: kept
        c.dedup();
        assert_eq!(c.records().len(), 2);
        assert_eq!(c.records()[0].end, Duration::from_micros(10));
    }

    #[test]
    fn context_propagates_sampling_flag() {
        let (_clock, t) = tracer();
        let root = t.start_trace("query");
        assert!(root.context().sampled, "explicit traces are sampled");
        let mut unsampled = root.context();
        unsampled.sampled = false;
        let child = t.child("hop", unsampled);
        assert!(!child.context().sampled, "children inherit the decision");
        assert_eq!(child.finish(), None, "an unsampled span writes nothing");
        root.finish();
        let names: Vec<String> = t
            .recorder()
            .records()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert_eq!(names, vec!["query"], "unsampled work records nothing");
        assert!(TraceContext::new(TraceId(1), SpanId(2)).sampled);
    }

    #[test]
    fn render_shows_hierarchy_and_tags() {
        let trace = TraceId(1);
        let mut c = TraceCollector::new();
        c.add(SpanRecord {
            trace,
            span: SpanId(2),
            parent: None,
            node: 0,
            name: "query".into(),
            start: Duration::ZERO,
            end: Duration::from_micros(100),
            tags: vec![("hits".into(), "3".into())],
        });
        c.add(SpanRecord {
            trace,
            span: SpanId(3),
            parent: Some(SpanId(2)),
            node: 1,
            name: "scatter".into(),
            start: Duration::from_micros(1),
            end: Duration::from_micros(2),
            tags: Vec::new(),
        });
        let text = c.tree(trace).unwrap().render();
        assert!(text.contains("query [node0]"));
        assert!(text.contains("\n  scatter [node1]"), "{text}");
        assert!(text.contains("hits=3"));
    }
}
