//! Wire-mode query execution: the §V-B pipeline over real message
//! passing.
//!
//! [`crate::MendelCluster::query`] evaluates a query in-process (with a
//! simulated cluster clock). This module is the other evaluator behind
//! the one pipeline (DESIGN.md "The query pipeline"): the same `plan`
//! and the same `finish`, with the middle run the way a deployment
//! would — every node owning only its transport endpoint, and every
//! subquery and anchor crossing node boundaries as encoded bytes:
//!
//! ```text
//! client ──GroupQuery──▶ group entry point ──NodeQuery──▶ members
//!        ◀──group reply──            ◀──anchor sets──
//! ```
//!
//! The client (system entry point) performs decomposition/routing and
//! the final §V-B aggregation + gapped extension through the shared
//! plan and epilogue; the node-local search is the in-process
//! evaluator's (`StorageNode::local_search_many`), so the two must return
//! identical hits, which the tests assert.
//!
//! Everything here is generic over [`Transport`]: [`WireCluster`] runs
//! the node loops as threads over the simulated network, and
//! [`crate::serve`] runs the *same* [`node_serve_loop`] /
//! [`query_via`] over [`mendel_net::TcpTransport`] so a cluster of real
//! OS processes executes byte-identical traffic.
//!
//! Both tiers issue their requests and await the replies through one
//! private request/reply layer (`request` / `gather`, DESIGN.md §16.3):
//! request ids are never reused and carry the issuer's address, and a
//! reply counts only under a pending id from the peer that was asked —
//! so a late reply can neither answer a later query nor be mistaken for
//! a request.
//!
//! Failure semantics (mirroring the in-process failover of
//! `fail_node`): a group entry point that cannot hear a member within
//! [`WireTimeouts::member`] answers with whoever responded; the client
//! retries a silent entry point through the group's remaining members,
//! and folds every node observed unreachable into a
//! [`CoverageReport`] via [`MendelCluster::coverage_with_down`] — the
//! same degraded-coverage shape the simulated path reports.

use crate::cluster::MendelCluster;
use crate::error::MendelError;
use crate::params::QueryParams;
use crate::pipeline::{self, Epilogue, Finished};
use crate::report::{CoverageReport, MendelHit};
use bytes::{Bytes, BytesMut};
use mendel_align::Hsp;
use mendel_dht::{GroupId, NodeId, Topology};
use mendel_net::codec::{Decode, DecodeError, Encode};
use mendel_net::heartbeat::HEARTBEAT_CORRELATION;
use mendel_net::mailbox::{Endpoint, Envelope, Network, NodeAddr, RecvError};
use mendel_net::transport::Transport;
use mendel_obs::{ActiveSpan, CriticalHop, SpanId, SpanRecord, TraceContext, TraceId, Tracer};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub(crate) const TAG_NODE_QUERY: u8 = 1;
pub(crate) const TAG_GROUP_QUERY: u8 = 2;
pub(crate) const TAG_SHUTDOWN: u8 = 3;

/// Poll interval for serving loops checking their stop flag.
const SERVE_POLL: Duration = Duration::from_millis(100);

/// Wire-path deadlines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTimeouts {
    /// Client-side deadline for one group entry point's reply. Must
    /// exceed [`Self::member`] (the entry point waits that long for its
    /// slowest member before answering), or live entry points get
    /// misclassified as dead.
    pub rpc: Duration,
    /// Entry-point-side deadline for member anchor sets; members silent
    /// past it are reported unresponsive instead of stalling the query.
    pub member: Duration,
}

impl Default for WireTimeouts {
    fn default() -> Self {
        WireTimeouts {
            rpc: Duration::from_secs(30),
            member: Duration::from_secs(15),
        }
    }
}

/// Transport address of a storage node: `NodeId + 1` (address 0 is the
/// conventional simulated client; real front-ends pick high addresses).
pub fn node_addr(node: NodeId) -> NodeAddr {
    NodeAddr(node.0 + 1)
}

// ---- The request/reply layer (DESIGN.md §16.3) ------------------------
//
// Both tiers of the §V-B scatter/gather — front-end → group entry
// points, entry point → members — issue requests with `request` and
// await them with `gather`; nothing else in this module matches a reply
// to a request.

/// Low 48 bits of a request id: the per-process sequence number.
const REQUEST_SEQ_MASK: u64 = (1 << 48) - 1;

/// Source of request sequence numbers, shared by every issuer in the
/// process so an id is never handed out twice while the process lives.
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

/// A correlation id for a request issued by `me`: the issuer's address
/// in the top 16 bits (its *id plane*, as `seed_trace_ids` does for
/// span ids) over a sequence number that is never reused. A reply echoes
/// the id, so an envelope in the receiver's own plane is by construction
/// a reply to something it sent — never a request.
fn fresh_request_id(me: NodeAddr) -> u64 {
    // audit:ordering(Relaxed): unique-id allocation; RMW atomicity is all that is needed, no data is published through the value
    let seq = NEXT_REQUEST.fetch_add(1, Ordering::Relaxed);
    (u64::from(me.0) << 48) | (seq & REQUEST_SEQ_MASK)
}

/// Whether `correlation` lies in `me`'s id plane (see
/// [`fresh_request_id`]).
fn is_reply_to(me: NodeAddr, correlation: u64) -> bool {
    correlation >> 48 == u64::from(me.0)
}

/// Requests awaiting their reply: id → the one peer allowed to answer
/// it, and whatever the issuer needs back when it resolves.
type Pending<K> = HashMap<u64, (NodeAddr, K)>;

/// Send `payload` to `to` under a fresh id and park `key` in `pending`
/// until [`gather`] sees the reply. A dead-letter send parks nothing and
/// hands `key` back.
fn request<T: Transport, K>(
    transport: &T,
    pending: &mut Pending<K>,
    to: NodeAddr,
    payload: Bytes,
    trace: Option<TraceContext>,
    key: K,
) -> Option<K> {
    let id = fresh_request_id(transport.addr());
    if transport.send_traced(to, id, payload, trace) {
        pending.insert(id, (to, key));
        None
    } else {
        Some(key)
    }
}

/// Await the replies to `pending` for up to `timeout`, handing each to
/// `on_reply` with its parked key the moment it lands (span
/// re-anchoring needs the receive instant). Requests still parked on
/// return timed out.
///
/// A reply is accepted only under a pending id *and* from the peer that
/// id was sent to. Any other envelope in this endpoint's own id plane
/// is a reply nobody waits for any more — late, duplicated or forged —
/// and is dropped here, so it can neither answer a later request nor
/// reach the serving loop's tag dispatch. Envelopes in foreign planes
/// are other issuers' requests and go to `on_foreign`.
fn gather<T: Transport, K>(
    transport: &T,
    pending: &mut Pending<K>,
    timeout: Duration,
    mut on_reply: impl FnMut(K, Envelope),
    mut on_foreign: impl FnMut(Envelope),
) -> Result<(), RecvError> {
    let me = transport.addr();
    let start = Instant::now(); // audit:allow(instant-now): the gather deadline bounds a real recv_timeout; virtual time cannot wake it
    while !pending.is_empty() {
        let waited = start.elapsed();
        if waited >= timeout {
            break;
        }
        match transport.recv_timeout(timeout - waited) {
            Ok(env) if is_reply_to(me, env.correlation) => {
                if let Entry::Occupied(slot) = pending.entry(env.correlation) {
                    if slot.get().0 == env.from {
                        on_reply(slot.remove().1, env);
                    }
                }
            }
            Ok(env) => on_foreign(env),
            Err(RecvError::Timeout) => break,
            Err(RecvError::Disconnected) => return Err(RecvError::Disconnected),
        }
    }
    Ok(())
}

/// The subset of [`QueryParams`] a storage node needs, in wire form.
#[derive(Debug, Clone, PartialEq)]
struct WireParams {
    n: usize,
    i: f32,
    c: f32,
    m: String,
    x_drop_ungapped: i32,
    min_anchor_score: i32,
    search_budget: usize,
}

impl WireParams {
    fn of(p: &QueryParams) -> Self {
        WireParams {
            n: p.n,
            i: p.i,
            c: p.c,
            m: p.m.clone(),
            x_drop_ungapped: p.x_drop_ungapped,
            min_anchor_score: p.min_anchor_score,
            search_budget: p.search_budget,
        }
    }

    fn to_query_params(&self) -> QueryParams {
        QueryParams {
            n: self.n,
            i: self.i,
            c: self.c,
            m: self.m.clone(),
            x_drop_ungapped: self.x_drop_ungapped,
            min_anchor_score: self.min_anchor_score,
            search_budget: self.search_budget,
            ..QueryParams::protein()
        }
    }
}

impl Encode for WireParams {
    fn encode(&self, buf: &mut BytesMut) {
        self.n.encode(buf);
        self.i.encode(buf);
        self.c.encode(buf);
        self.m.encode(buf);
        self.x_drop_ungapped.encode(buf);
        self.min_anchor_score.encode(buf);
        self.search_budget.encode(buf);
    }
}

impl Decode for WireParams {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(WireParams {
            n: usize::decode(buf)?,
            i: f32::decode(buf)?,
            c: f32::decode(buf)?,
            m: String::decode(buf)?,
            x_drop_ungapped: i32::decode(buf)?,
            min_anchor_score: i32::decode(buf)?,
            search_budget: usize::decode(buf)?,
        })
    }
}

/// A subquery batch request (either tier).
#[derive(Debug, Clone, PartialEq)]
struct QueryMsg {
    tag: u8,
    query: Vec<u8>,
    offsets: Vec<usize>,
    params: WireParams,
}

impl Encode for QueryMsg {
    fn encode(&self, buf: &mut BytesMut) {
        self.tag.encode(buf);
        self.query.encode(buf);
        self.offsets.encode(buf);
        self.params.encode(buf);
    }
}

impl Decode for QueryMsg {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(QueryMsg {
            tag: u8::decode(buf)?,
            query: Vec::decode(buf)?,
            offsets: Vec::decode(buf)?,
            params: WireParams::decode(buf)?,
        })
    }
}

fn encode_hsps(hsps: &[Hsp]) -> Bytes {
    let mut buf = BytesMut::new();
    encode_hsps_into(hsps, &mut buf);
    buf.freeze()
}

fn encode_hsps_into(hsps: &[Hsp], buf: &mut BytesMut) {
    (hsps.len() as u32).encode(buf);
    for h in hsps {
        h.subject_id.encode(buf);
        h.query_start.encode(buf);
        h.query_end.encode(buf);
        h.subject_start.encode(buf);
        h.score.encode(buf);
    }
}

fn decode_hsps_from(buf: &mut Bytes) -> Result<Vec<Hsp>, DecodeError> {
    let n = u32::decode(buf)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(Hsp {
            subject_id: u32::decode(buf)?,
            query_start: usize::decode(buf)?,
            query_end: usize::decode(buf)?,
            subject_start: usize::decode(buf)?,
            score: i32::decode(buf)?,
        });
    }
    Ok(out)
}

/// Span records in wire form (DESIGN.md §17): count-prefixed, each
/// `trace:u64 · span:u64 · parent:Option<u64> · node:u32 · start_ns:u64
/// · end_ns:u64 · name · tags`. Only ever appended as an *optional*
/// tail — untraced messages never carry it, keeping their bytes
/// identical to the pre-tracing encodings.
fn encode_spans_into(spans: &[SpanRecord], buf: &mut BytesMut) {
    (spans.len() as u32).encode(buf);
    for s in spans {
        s.trace.0.encode(buf);
        s.span.0.encode(buf);
        s.parent.map(|p| p.0).encode(buf);
        s.node.encode(buf);
        (s.start.as_nanos() as u64).encode(buf);
        (s.end.as_nanos() as u64).encode(buf);
        s.name.encode(buf);
        (s.tags.len() as u32).encode(buf);
        for (k, v) in &s.tags {
            k.encode(buf);
            v.encode(buf);
        }
    }
}

fn decode_spans_from(buf: &mut Bytes) -> Result<Vec<SpanRecord>, DecodeError> {
    let n = u32::decode(buf)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let trace = TraceId(u64::decode(buf)?);
        let span = SpanId(u64::decode(buf)?);
        let parent = Option::<u64>::decode(buf)?.map(SpanId);
        let node = u32::decode(buf)?;
        let start = Duration::from_nanos(u64::decode(buf)?);
        let end = Duration::from_nanos(u64::decode(buf)?);
        let name = String::decode(buf)?;
        let tag_count = u32::decode(buf)? as usize;
        let mut tags = Vec::with_capacity(tag_count.min(64));
        for _ in 0..tag_count {
            tags.push((String::decode(buf)?, String::decode(buf)?));
        }
        out.push(SpanRecord {
            trace,
            span,
            parent,
            node,
            name,
            start,
            end: end.max(start),
            tags,
        });
    }
    Ok(out)
}

/// Decode a member's anchor-set reply: the hsps, plus the optional
/// span-record tail a traced member appends. An exhausted buffer after
/// the hsps means "untraced" — the tail's absence *is* the encoding, so
/// untraced replies stay byte-identical to the pre-tracing format.
fn decode_hsps_and_spans(bytes: &Bytes) -> Result<(Vec<Hsp>, Vec<SpanRecord>), DecodeError> {
    let mut buf = bytes.clone();
    let hsps = decode_hsps_from(&mut buf)?;
    let spans = if buf.is_empty() {
        Vec::new()
    } else {
        decode_spans_from(&mut buf)?
    };
    Ok((hsps, spans))
}

/// Shift a remote hop's span records onto the local timeline.
///
/// Nodes stamp spans with their own process clock; there is no clock
/// synchronisation. What the caller *does* know is its own send and
/// receive instants for the hop. The remote root span (the
/// earliest-starting record, smallest id on ties) is re-anchored so its
/// midpoint sits at the midpoint of the observed `[sent, received]`
/// window — splitting the network round trip evenly around the remote
/// work — and every other record moves by the same shift, preserving
/// all intra-hop structure. Parent links are by span id, so tree shape
/// and critical-path extraction are exact; only absolute placement is
/// an estimate bounded by the one-way latency asymmetry (DESIGN.md §17).
fn reanchor_spans(spans: &mut [SpanRecord], sent: Duration, received: Duration) {
    let Some((root_start, _, root_dur)) = spans
        .iter()
        .map(|r| (r.start, r.span.0, r.duration()))
        .min()
    else {
        return;
    };
    let window = received.saturating_sub(sent);
    let target = sent + window.saturating_sub(root_dur) / 2;
    for r in spans.iter_mut() {
        let offset = r.start.saturating_sub(root_start);
        let dur = r.duration();
        r.start = target + offset;
        r.end = r.start + dur;
    }
}

/// A group entry point's reply: which members contributed anchor sets
/// (entry point included), the group-merged anchors, and — for traced
/// queries only — the node-side span tree riding home as an optional
/// tail (same trick as the envelope trace tail: absence is the
/// untraced encoding, so untraced replies are byte-identical to the
/// pre-tracing format).
#[derive(Debug, Clone, PartialEq)]
struct GroupReply {
    responded: Vec<u16>,
    hsps: Vec<Hsp>,
    spans: Vec<SpanRecord>,
}

impl Encode for GroupReply {
    fn encode(&self, buf: &mut BytesMut) {
        self.responded.encode(buf);
        encode_hsps_into(&self.hsps, buf);
        if !self.spans.is_empty() {
            encode_spans_into(&self.spans, buf);
        }
    }
}

impl Decode for GroupReply {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        let responded = Vec::decode(buf)?;
        let hsps = decode_hsps_from(buf)?;
        let spans = if buf.is_empty() {
            Vec::new()
        } else {
            decode_spans_from(buf)?
        };
        Ok(GroupReply {
            responded,
            hsps,
            spans,
        })
    }
}

/// What a wire query learned beyond the hits themselves.
#[derive(Debug, Clone, Default)]
pub struct WireQueryOutcome {
    /// Ranked alignments, identical to the in-process path over the
    /// same reachable nodes.
    pub hits: Vec<MendelHit>,
    /// Members that contributed per queried group.
    pub responded: BTreeMap<GroupId, Vec<NodeId>>,
    /// Nodes observed unreachable during this query (silent entry
    /// points and members missing from group replies), ascending.
    pub unreachable: Vec<NodeId>,
    /// Cluster-wide block availability treating [`Self::unreachable`]
    /// (plus anything already failed in the control plane) as down —
    /// the same shape the in-process failover path reports.
    pub coverage: CoverageReport,
    /// Trace id when this query drew a sampled trace (DESIGN.md §17).
    pub trace: Option<TraceId>,
    /// Critical path through the stitched cross-process span tree;
    /// empty when untraced.
    pub critical_path: Vec<CriticalHop>,
}

/// A cluster whose storage nodes run as threads and communicate only
/// through encoded messages over the simulated network. Wraps an
/// indexed [`MendelCluster`] (the control plane: routing tables and
/// node-local state); all data-plane traffic is real bytes on the
/// [`Network`].
///
/// This is the [`mendel_net::SimTransport`] instantiation of the
/// generic wire machinery; `mendel serve` is the TCP one. Scope: one
/// query in flight per `WireCluster` client handle.
pub struct WireCluster {
    cluster: Arc<MendelCluster>,
    network: Network,
    client: Endpoint,
    timeouts: WireTimeouts,
    stop: Arc<AtomicBool>,
    /// Node address = NodeId.0 + 1 (the client takes address 0).
    handles: Vec<JoinHandle<()>>,
}

impl WireCluster {
    /// Spawn one serving thread per live node of `cluster`.
    pub fn serve(cluster: Arc<MendelCluster>) -> Self {
        Self::serve_with(cluster, &[], WireTimeouts::default())
    }

    /// [`Self::serve`] with explicit deadlines (client and node side),
    /// and with the nodes in `dead` never starting to serve — their
    /// mailboxes exist and silently swallow traffic, which is how a
    /// crashed process looks to its peers. For failover tests.
    pub fn serve_with(
        cluster: Arc<MendelCluster>,
        dead: &[NodeId],
        timeouts: WireTimeouts,
    ) -> Self {
        let network = Network::new();
        let client = network.join();
        debug_assert_eq!(client.addr().0, 0);
        let topo = cluster.topology();
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for node in topo.nodes() {
            let endpoint = network.join();
            debug_assert_eq!(endpoint.addr(), node_addr(node));
            if dead.contains(&node) {
                continue;
            }
            let cluster = cluster.clone();
            let topo = topo.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                node_serve_loop(&cluster, &topo, node, &endpoint, &timeouts, &stop);
            }));
        }
        WireCluster {
            cluster,
            network,
            client,
            timeouts,
            stop,
            handles,
        }
    }

    /// Total messages sent on the wire so far.
    pub fn messages_sent(&self) -> u64 {
        self.network.stats().messages()
    }

    /// Total payload bytes sent on the wire so far.
    pub fn bytes_sent(&self) -> u64 {
        self.network.stats().bytes()
    }

    /// Evaluate a query over the wire. Routing happens at the client
    /// (the system entry point), per-group evaluation at the group entry
    /// points, node-local search on each member's thread. Returns the
    /// same ranked hits as [`MendelCluster::query`].
    pub fn query(&self, query: &[u8], params: &QueryParams) -> Result<Vec<MendelHit>, MendelError> {
        Ok(self.query_outcome(query, params)?.hits)
    }

    /// [`Self::query`] plus the responded/unreachable/coverage detail.
    pub fn query_outcome(
        &self,
        query: &[u8],
        params: &QueryParams,
    ) -> Result<WireQueryOutcome, MendelError> {
        query_via(&self.cluster, &self.client, query, params, &self.timeouts)
    }
}

impl Drop for WireCluster {
    fn drop(&mut self) {
        // Broadcast shutdown and join every node thread.
        self.stop.store(true, Ordering::Relaxed); // audit:ordering(Relaxed): best-effort stop flag; node loops re-check it on their poll tick
        let mut buf = BytesMut::new();
        TAG_SHUTDOWN.encode(&mut buf);
        let payload = buf.freeze();
        for h in 1..=self.network.len().saturating_sub(1) as u16 {
            self.client.send(NodeAddr(h), 0, payload.clone());
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// What [`query_via`] parks per group request: the group, the index of
/// the entry-point candidate asked, and — when traced — the open
/// `group_rpc` span with its send instant. The span is finished when the
/// reply (or the timeout) resolves the request, with the remote span
/// tree re-anchored into the client's timeline on receipt.
type GroupRequest = (GroupId, usize, Option<(ActiveSpan, Duration)>);

/// Evaluate one query through `client` against a cluster of serving
/// nodes reachable over any [`Transport`].
///
/// The control-plane `cluster` supplies routing (vp-prefix → groups)
/// and the final aggregation; all anchor traffic crosses the transport.
/// Group entry points are tried in member order: a silent candidate is
/// recorded unreachable and the next member gets the group query, so a
/// dead entry point degrades the answer exactly like the in-process
/// failover path (anchors from live members only) instead of losing the
/// whole group.
pub fn query_via<T: Transport>(
    cluster: &MendelCluster,
    client: &T,
    query: &[u8],
    params: &QueryParams,
    timeouts: &WireTimeouts,
) -> Result<WireQueryOutcome, MendelError> {
    let topo = cluster.topology();
    let clock = cluster.metrics_registry().clock();
    let q_start = clock.now();

    // Stage 1: validate + decompose + route (system entry point). A bad
    // request fails here, before any traffic, span or sampling tick.
    let plan = pipeline::plan(cluster, query, params)?;

    // Distributed tracing (DESIGN.md §17): the sampling decision is
    // made once here at the system entry point and rides in every
    // envelope's trace tail; remote span trees come home in reply tails.
    // The root and its decompose child are backdated over stage 1.
    let tracer: Option<Tracer> = cluster
        .trace_query_sampled()
        .then(|| cluster.metrics_registry().tracer(client.addr().0 as u32));
    let mut root: Option<ActiveSpan> = tracer
        .as_ref()
        .map(|t| t.start_trace("query").started_at(q_start));
    if let Some((t, r)) = tracer.as_ref().zip(root.as_ref()) {
        let mut s = t.child("decompose", r.context()).started_at(q_start);
        s.tag("subqueries", plan.subqueries);
        s.tag("groups", plan.groups.len());
        s.finish();
    }

    // Stage 2–4: scatter GroupQuery to each group's entry point and
    // gather replies, retrying silent entry points through the group's
    // remaining members.
    let wire_params = WireParams::of(params);
    let mut anchors: Vec<Hsp> = Vec::new();
    let mut responded: BTreeMap<GroupId, Vec<NodeId>> = BTreeMap::new();
    let mut down: BTreeSet<NodeId> = BTreeSet::new();
    // (group, candidate entry-point index) still needing an answer, in
    // group order.
    let mut round: Vec<(GroupId, usize)> = plan.groups.keys().map(|&g| (g, 0)).collect();
    while !round.is_empty() {
        let mut pending: Pending<GroupRequest> = HashMap::new();
        for (g, mut idx) in std::mem::take(&mut round) {
            let members = topo.group_members(g);
            // Skip candidates another group's gather already proved dead.
            while members.get(idx).is_some_and(|m| down.contains(m)) {
                idx += 1;
            }
            let Some(&gep) = members.get(idx) else {
                // Every member tried and silent: the group contributes
                // nothing; coverage already records its members down.
                continue;
            };
            let msg = QueryMsg {
                tag: TAG_GROUP_QUERY,
                query: query.to_vec(),
                offsets: plan.groups.get(&g).cloned().unwrap_or_default(),
                params: wire_params.clone(),
            };
            let span_entry = tracer.as_ref().zip(root.as_ref()).map(|(t, r)| {
                let mut span = t.child(&format!("group_rpc/{}", g.0), r.context());
                span.tag("entry", gep.0);
                (span, t.clock().now())
            });
            let ctx = span_entry.as_ref().map(|(span, _)| span.context());
            let key = (g, idx, span_entry);
            if let Some((_, _, span_entry)) = request(
                client,
                &mut pending,
                node_addr(gep),
                msg.to_bytes(),
                ctx,
                key,
            ) {
                // Dead letter: the entry point is unreachable right now.
                down.insert(gep);
                round.push((g, idx + 1));
                if let Some((mut span, _)) = span_entry {
                    span.tag("error", "dead-letter");
                    span.finish();
                }
            }
        }
        // A front-end serves no requests: foreign envelopes are strays.
        let on_foreign = |_| {};
        let on_reply = |(g, _idx, span_entry): GroupRequest, env: Envelope| {
            let Ok(reply) = GroupReply::from_bytes(&env.payload) else {
                return;
            };
            let answered: Vec<NodeId> = reply.responded.iter().map(|&r| NodeId(r)).collect();
            for &m in topo.group_members(g) {
                if !answered.contains(&m) {
                    down.insert(m);
                }
            }
            if let Some((mut span, sent)) = span_entry {
                if let Some(t) = tracer.as_ref() {
                    let received = t.clock().now();
                    let mut remote = reply.spans;
                    reanchor_spans(&mut remote, sent, received);
                    for r in remote {
                        cluster.metrics_registry().tracer(r.node).record(r);
                    }
                }
                span.tag("members", answered.len());
                span.tag("anchors", reply.hsps.len());
                span.finish();
            }
            anchors.extend(reply.hsps);
            responded.insert(g, answered);
        };
        gather(client, &mut pending, timeouts.rpc, on_reply, on_foreign)
            .map_err(|_| MendelError::Query("wire gather failed: disconnected".into()))?;
        // Whatever is still pending timed out: mark the candidate entry
        // point down and move each group to its next member.
        for (_, (_, (g, idx, span_entry))) in pending.drain() {
            if let Some(&gep) = topo.group_members(g).get(idx) {
                down.insert(gep);
            }
            round.push((g, idx + 1));
            if let Some((mut span, _)) = span_entry {
                span.tag("error", "timeout");
                span.finish();
            }
        }
        round.sort_unstable_by_key(|&(g, _)| g);
    }

    // Stage 5: the shared epilogue — system-level merge, gapped
    // extension, ranking, coverage over the nodes seen unreachable, and
    // the per-query counters and slow-query log on the real clock.
    let finalize_span = tracer
        .as_ref()
        .zip(root.as_ref())
        .map(|(t, r)| t.child("finalize", r.context()));
    let unreachable: Vec<NodeId> = down.iter().copied().collect();
    let epilogue = Epilogue::new(cluster, params, &unreachable);
    let trace = root.as_ref().map(ActiveSpan::trace);
    let Finished { hits, .. } = epilogue.finish(query, &plan, anchors, trace, |_| {
        clock.now().saturating_sub(q_start)
    });
    let coverage = epilogue.coverage;
    if let Some(s) = finalize_span {
        s.finish();
    }

    // Close the root span, then stitch every record this trace produced
    // (local spans + re-anchored remote trees) into the critical path.
    let critical_path = root.take().map_or_else(Vec::new, |mut span| {
        let trace = span.trace();
        span.tag("groups", responded.len());
        span.tag("hits", hits.len());
        if coverage.degraded {
            span.tag("degraded", true);
        }
        span.finish();
        let records = cluster.metrics_registry().trace_records();
        pipeline::critical_path(records.into_iter().filter(|r| r.trace == trace), trace)
    });
    Ok(WireQueryOutcome {
        hits,
        responded,
        unreachable,
        coverage,
        trace,
        critical_path,
    })
}

/// The per-node serving loop, generic over the transport carrying it.
///
/// Serves until `stop` is set, the transport disconnects, or a
/// [`TAG_SHUTDOWN`] request arrives. Requests that arrive while the
/// node is mid-gather as a group entry point are backlogged and served
/// afterwards, so interleaved queries from multiple front-ends are
/// reordered rather than dropped. Replies never get this far: an
/// envelope in the node's own id plane is consumed or dropped by
/// [`gather`], or dropped by the idle poll here.
pub fn node_serve_loop<T: Transport>(
    cluster: &Arc<MendelCluster>,
    topo: &Topology,
    me: NodeId,
    transport: &T,
    timeouts: &WireTimeouts,
    stop: &AtomicBool,
) {
    let mut backlog: VecDeque<Envelope> = VecDeque::new();
    loop {
        // audit:ordering(Relaxed): best-effort stop flag; the loop body only touches channel/socket state, which has its own happens-before
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let env = match backlog.pop_front() {
            Some(env) => env,
            None => match transport.recv_timeout(SERVE_POLL) {
                // A reply to a gather that has ended: only requests are
                // dispatched on their tag.
                Ok(env) if is_reply_to(transport.addr(), env.correlation) => continue,
                Ok(env) => env,
                Err(RecvError::Timeout) => continue,
                Err(RecvError::Disconnected) => return,
            },
        };
        if env.correlation == HEARTBEAT_CORRELATION {
            continue; // liveness traffic is the monitor's business
        }
        let Some(&tag) = env.payload.first() else {
            continue;
        };
        match tag {
            TAG_SHUTDOWN => return,
            TAG_NODE_QUERY => {
                let Ok(msg) = QueryMsg::from_bytes(&env.payload) else {
                    continue;
                };
                if !admissible(cluster, &msg) {
                    transport.send(env.from, env.correlation, encode_hsps(&[]));
                    continue;
                }
                // Sampled trace context on the envelope: time the local
                // search and ship the span home as a reply tail.
                match env.trace.filter(|c| c.sampled) {
                    Some(ctx) => {
                        let tracer = cluster.metrics_registry().tracer(me.0 as u32);
                        let t0 = tracer.clock().now();
                        let anchors = eval_local(cluster, me, &msg);
                        let t1 = tracer.clock().now();
                        let rec = SpanRecord {
                            trace: ctx.trace,
                            span: SpanId(tracer.next_id()),
                            parent: Some(ctx.parent),
                            node: me.0 as u32,
                            name: format!("node/{}", me.0),
                            start: t0,
                            end: t1.max(t0),
                            tags: vec![("anchors".into(), anchors.len().to_string())],
                        };
                        tracer.record(rec.clone());
                        let mut buf = BytesMut::new();
                        encode_hsps_into(&anchors, &mut buf);
                        encode_spans_into(&[rec], &mut buf);
                        transport.send(env.from, env.correlation, buf.freeze());
                    }
                    None => {
                        let anchors = eval_local(cluster, me, &msg);
                        transport.send(env.from, env.correlation, encode_hsps(&anchors));
                    }
                }
            }
            TAG_GROUP_QUERY => {
                let Ok(msg) = QueryMsg::from_bytes(&env.payload) else {
                    continue;
                };
                if !admissible(cluster, &msg) {
                    // Nobody searched, so nobody is listed as having
                    // contributed: the caller sees a degraded answer now
                    // instead of a member timeout later.
                    let nothing = GroupReply {
                        responded: Vec::new(),
                        hsps: Vec::new(),
                        spans: Vec::new(),
                    };
                    transport.send(env.from, env.correlation, nothing.to_bytes());
                    continue;
                }
                serve_group_query(
                    cluster,
                    topo,
                    me,
                    transport,
                    timeouts,
                    &env,
                    &msg,
                    &mut backlog,
                );
            }
            _ => {}
        }
    }
}

/// The trust boundary of a serving node: a decoded request is searched
/// only if every residue code indexes the cluster's alphabet (the
/// distance kernels panic on a code outside their table) and every
/// subquery window lies inside the query. A front-end's own plan never
/// produces anything else, so a request failing this is malformed or
/// forged; it is counted in `mendel.wire.rejected_requests` and answered
/// with an empty anchor set instead of a panic that would stop this
/// node's serving thread for good.
fn admissible(cluster: &MendelCluster, msg: &QueryMsg) -> bool {
    let block_len = cluster.config().block_len;
    let ok = pipeline::foreign_code(cluster, &msg.query).is_none()
        && msg.offsets.iter().all(|&offset| {
            offset
                .checked_add(block_len)
                .is_some_and(|end| end <= msg.query.len())
        });
    if !ok {
        cluster
            .metrics_registry()
            .counter("mendel.wire.rejected_requests")
            .inc();
    }
    ok
}

/// Entry-point duty: replicate the subqueries to the other members,
/// evaluate the local share, gather member anchor sets under the member
/// deadline, merge, and reply with who contributed.
#[allow(clippy::too_many_arguments)] // audit:allow(too-many-arguments): serving-context plumbing; bundling into a struct would be pure ceremony
fn serve_group_query<T: Transport>(
    cluster: &Arc<MendelCluster>,
    topo: &Topology,
    me: NodeId,
    transport: &T,
    timeouts: &WireTimeouts,
    env: &Envelope,
    msg: &QueryMsg,
    backlog: &mut VecDeque<Envelope>,
) {
    let Some(g) = topo.node_group(me) else {
        return; // not a member of any group: nothing to serve
    };
    // Sampled trace context: open a group span now (its id parents all
    // member subqueries and the local eval), collect every member's
    // span tree from the reply tails, and ship the lot home.
    let trace_ctx = env.trace.filter(|c| c.sampled);
    let tracer = trace_ctx.map(|_| cluster.metrics_registry().tracer(me.0 as u32));
    let group_span = trace_ctx
        .as_ref()
        .zip(tracer.as_ref())
        .map(|(ctx, t)| (SpanId(t.next_id()), t.clock().now(), *ctx));
    let member_ctx = group_span.map(|(span, _, ctx)| TraceContext {
        trace: ctx.trace,
        parent: span,
        sampled: true,
    });
    let mut shipped: Vec<SpanRecord> = Vec::new();

    // The member request is the group request with its leading tag byte
    // flipped (`from_bytes` consumed the payload exactly, so it *is*
    // `msg`'s encoding): patch a copy instead of cloning and re-encoding
    // the query and offsets.
    let mut sub = env.payload.to_vec();
    if let Some(tag) = sub.first_mut() {
        *tag = TAG_NODE_QUERY;
    }
    let sub_bytes = Bytes::from(sub);
    // Each request parks the member asked and, when traced, the send
    // instant its span tree is re-anchored against.
    let mut pending: Pending<(NodeId, Option<Duration>)> = HashMap::new();
    for &peer in topo.group_members(g).iter().filter(|&&n| n != me) {
        let sent = tracer.as_ref().map(|t| t.clock().now());
        // A dead-letter send is simply a member that will not respond.
        request(
            transport,
            &mut pending,
            node_addr(peer),
            sub_bytes.clone(),
            member_ctx,
            (peer, sent),
        );
    }
    let eval_start = tracer.as_ref().map(|t| t.clock().now());
    let mut anchors = eval_local(cluster, me, msg);
    if let (Some(t), Some(t0), Some((gspan, _, ctx))) = (&tracer, eval_start, group_span) {
        let rec = SpanRecord {
            trace: ctx.trace,
            span: SpanId(t.next_id()),
            parent: Some(gspan),
            node: me.0 as u32,
            name: format!("node/{}", me.0),
            start: t0,
            end: t.clock().now().max(t0),
            tags: vec![("anchors".into(), anchors.len().to_string())],
        };
        t.record(rec.clone());
        shipped.push(rec);
    }
    let mut answered = vec![me];
    let on_reply = |(peer, sent): (NodeId, Option<Duration>), resp: Envelope| {
        let Ok((more, mut remote)) = decode_hsps_and_spans(&resp.payload) else {
            return;
        };
        anchors.extend(more);
        answered.push(peer);
        if let (Some(t), Some(sent)) = (&tracer, sent) {
            reanchor_spans(&mut remote, sent, t.clock().now());
            for r in &remote {
                cluster.metrics_registry().tracer(r.node).record(r.clone());
            }
            shipped.extend(remote);
        }
    };
    // Other issuers' requests wait in the backlog until this one is
    // answered. A disconnect ends the wait like the deadline does; the
    // serving loop's next poll sees it too and stops.
    let on_foreign = |env| backlog.push_back(env);
    let _ = gather(
        transport,
        &mut pending,
        timeouts.member,
        on_reply,
        on_foreign,
    );
    answered.sort_unstable();
    // First aggregation stage (§V-B): merge overlapping anchors on the
    // same diagonal at the group entry point.
    let merge_start = tracer.as_ref().map(|t| t.clock().now());
    let merged = mendel_align::hsp::merge_overlapping(anchors);
    if let (Some(t), Some(t0), Some((gspan, _, ctx))) = (&tracer, merge_start, group_span) {
        let rec = SpanRecord {
            trace: ctx.trace,
            span: SpanId(t.next_id()),
            parent: Some(gspan),
            node: me.0 as u32,
            name: "merge".into(),
            start: t0,
            end: t.clock().now().max(t0),
            tags: Vec::new(),
        };
        t.record(rec.clone());
        shipped.push(rec);
    }
    // Close the group span last so it brackets everything above, then
    // put it first in the tail: the re-anchoring at the receiving side
    // keys off the earliest-starting record as the hop's root.
    if let (Some(t), Some((gspan, t0, ctx))) = (&tracer, group_span) {
        let rec = SpanRecord {
            trace: ctx.trace,
            span: gspan,
            parent: Some(ctx.parent),
            node: me.0 as u32,
            name: format!("group/{}", g.0),
            start: t0,
            end: t.clock().now().max(t0),
            tags: vec![("members".into(), answered.len().to_string())],
        };
        t.record(rec.clone());
        shipped.insert(0, rec);
    }
    let reply = GroupReply {
        responded: answered.iter().map(|n| n.0).collect(),
        hsps: merged,
        spans: shipped,
    };
    transport.send(env.from, env.correlation, reply.to_bytes());
}

fn eval_local(cluster: &MendelCluster, me: NodeId, msg: &QueryMsg) -> Vec<Hsp> {
    let params = msg.params.to_query_params();
    let Ok(matrix) = cluster.resolve_matrix(&params.m) else {
        return Vec::new();
    };
    cluster.node_local_search(me, &msg.query, &msg.offsets, &params, &matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use mendel_seq::gen::{NrLikeSpec, QuerySetSpec};
    use mendel_seq::SeqId;

    fn cluster() -> Arc<MendelCluster> {
        let db = Arc::new(
            NrLikeSpec {
                families: 10,
                members_per_family: 2,
                length_range: (120, 220),
                seed: 0x31,
                ..Default::default()
            }
            .generate()
            .unwrap(),
        );
        Arc::new(MendelCluster::build(ClusterConfig::small_protein(), db).unwrap())
    }

    #[test]
    fn wire_results_match_in_process() {
        let cluster = cluster();
        let wire = WireCluster::serve(cluster.clone());
        let params = QueryParams::protein();
        for id in [0u32, 5, 13] {
            let q = cluster.db().get(SeqId(id)).unwrap().residues.clone();
            let in_process = cluster.query(&q, &params).unwrap().hits;
            let over_wire = wire.query(&q, &params).unwrap();
            assert_eq!(
                over_wire, in_process,
                "wire and in-process must agree on seq {id}"
            );
        }
    }

    #[test]
    fn wire_traffic_is_accounted() {
        let cluster = cluster();
        let wire = WireCluster::serve(cluster.clone());
        let q = cluster.db().get(SeqId(2)).unwrap().residues.clone();
        let _ = wire.query(&q, &QueryParams::protein()).unwrap();
        assert!(wire.messages_sent() > 0, "a query must send messages");
        assert!(
            wire.bytes_sent() > q.len() as u64,
            "payloads include the query"
        );
    }

    #[test]
    fn wire_finds_mutated_sources() {
        let cluster = cluster();
        let wire = WireCluster::serve(cluster.clone());
        let queries = QuerySetSpec {
            count: 4,
            length: 100,
            identity: 0.85,
            seed: 3,
        }
        .generate(&cluster.db())
        .unwrap();
        for q in &queries {
            let hits = wire
                .query(&q.query.residues, &QueryParams::protein())
                .unwrap();
            assert!(hits.iter().any(|h| h.subject == q.source));
        }
    }

    #[test]
    fn untraced_group_reply_is_byte_identical_to_pre_tracing_encoding() {
        let reply = GroupReply {
            responded: vec![0, 3, 7],
            hsps: vec![Hsp {
                subject_id: 9,
                query_start: 4,
                query_end: 40,
                subject_start: 11,
                score: 55,
            }],
            spans: Vec::new(),
        };
        // Hand-build the PR 9 encoding: responded vec + hsps, no tail.
        let mut legacy = BytesMut::new();
        reply.responded.encode(&mut legacy);
        encode_hsps_into(&reply.hsps, &mut legacy);
        assert_eq!(reply.to_bytes(), legacy.freeze());
        // And it round-trips to an empty span set.
        let back = GroupReply::from_bytes(&reply.to_bytes()).unwrap();
        assert_eq!(back, reply);
    }

    #[test]
    fn traced_group_reply_roundtrips_span_tail() {
        let reply = GroupReply {
            responded: vec![1],
            hsps: Vec::new(),
            spans: vec![SpanRecord {
                trace: TraceId(500),
                span: SpanId(501),
                parent: Some(SpanId(7)),
                node: 1,
                name: "group/0".into(),
                start: Duration::from_nanos(100),
                end: Duration::from_nanos(900),
                tags: vec![("members".into(), "2".into())],
            }],
        };
        assert_eq!(GroupReply::from_bytes(&reply.to_bytes()).unwrap(), reply);
        let (hsps, spans) = {
            let mut buf = BytesMut::new();
            encode_hsps_into(&reply.hsps, &mut buf);
            encode_spans_into(&reply.spans, &mut buf);
            decode_hsps_and_spans(&buf.freeze()).unwrap()
        };
        assert_eq!(hsps, reply.hsps);
        assert_eq!(spans, reply.spans);
    }

    #[test]
    fn reanchoring_centers_the_remote_root_in_the_rpc_window() {
        let us = Duration::from_micros;
        let mut spans = vec![
            SpanRecord {
                trace: TraceId(1),
                span: SpanId(10),
                parent: None,
                node: 2,
                name: "group/0".into(),
                start: us(5_000), // remote clock origin is unrelated
                end: us(5_400),
                tags: Vec::new(),
            },
            SpanRecord {
                trace: TraceId(1),
                span: SpanId(11),
                parent: Some(SpanId(10)),
                node: 2,
                name: "node/2".into(),
                start: us(5_100),
                end: us(5_300),
                tags: Vec::new(),
            },
        ];
        // Local window [1000us, 2000us]: 1000us round trip around a
        // 400us remote root → anchored at 1000 + (1000-400)/2 = 1300.
        reanchor_spans(&mut spans, us(1_000), us(2_000));
        assert_eq!(spans[0].start, us(1_300));
        assert_eq!(spans[0].end, us(1_700));
        // The child keeps its offset and duration relative to the root.
        assert_eq!(spans[1].start, us(1_400));
        assert_eq!(spans[1].end, us(1_600));
    }

    /// The tentpole acceptance scenario at sim scale: a traced query
    /// over the wire produces one stitched span tree whose parent links
    /// cross node boundaries, and critical-path extraction works on it.
    #[test]
    fn traced_wire_query_stitches_cross_node_span_tree() {
        let cluster = cluster();
        cluster.set_tracing(true);
        let wire = WireCluster::serve(cluster.clone());
        let q = cluster.db().get(SeqId(3)).unwrap().residues.clone();
        let outcome = wire.query_outcome(&q, &QueryParams::protein()).unwrap();
        let trace = outcome.trace.expect("sampled trace id");
        assert!(
            !outcome.critical_path.is_empty(),
            "critical path extracted from the stitched tree"
        );
        assert_eq!(outcome.critical_path[0].name, "query");

        let records: Vec<SpanRecord> = cluster
            .trace_records()
            .into_iter()
            .filter(|r| r.trace == trace)
            .collect();
        let by_name = |n: &str| records.iter().filter(|r| r.name.starts_with(n)).count();
        assert!(by_name("query") >= 1);
        assert!(by_name("decompose") >= 1);
        assert!(by_name("group_rpc/") >= 1, "client-side rpc spans");
        assert!(by_name("group/") >= 1, "entry-point spans rode home");
        assert!(by_name("node/") >= 1, "member spans rode home");
        // Every parent link resolves within the trace, and remote spans
        // hang off client spans (cross-process stitching).
        let ids: std::collections::HashSet<SpanId> = records.iter().map(|r| r.span).collect();
        for r in &records {
            if let Some(p) = r.parent {
                assert!(ids.contains(&p), "dangling parent {p} on {}", r.name);
            }
        }
        let group_rec = records
            .iter()
            .find(|r| r.name.starts_with("group/"))
            .unwrap();
        let parent = records
            .iter()
            .find(|r| Some(r.span) == group_rec.parent)
            .unwrap();
        assert!(parent.name.starts_with("group_rpc/"), "{}", parent.name);
        // The tree reassembles and its chrome export is loadable.
        let mut c = mendel_obs::TraceCollector::new();
        c.ingest(records.clone());
        c.dedup();
        let tree = c.tree(trace).expect("tree");
        assert_eq!(tree.root.record.name, "query");
        let json = mendel_obs::chrome_trace_json(&records);
        assert!(json.contains("\"ph\":\"X\""));

        // Hits are unaffected by tracing.
        let untraced = self::cluster();
        let wire2 = WireCluster::serve(untraced.clone());
        assert_eq!(
            wire2.query(&q, &QueryParams::protein()).unwrap(),
            outcome.hits
        );
    }

    #[test]
    fn wire_trace_sampling_is_deterministic_one_in_n() {
        let cluster = cluster();
        cluster.set_tracing(true);
        cluster.set_trace_sampling(3);
        let wire = WireCluster::serve(cluster.clone());
        let q = cluster.db().get(SeqId(1)).unwrap().residues.clone();
        let sampled: Vec<bool> = (0..6)
            .map(|_| {
                wire.query_outcome(&q, &QueryParams::protein())
                    .unwrap()
                    .trace
                    .is_some()
            })
            .collect();
        assert_eq!(sampled, vec![true, false, false, true, false, false]);
    }

    #[test]
    fn wire_queries_feed_the_slow_query_log() {
        let cluster = cluster();
        cluster.set_slowlog_config(mendel_obs::SlowLogConfig {
            threshold: Duration::ZERO, // log everything
            sample_every: 0,
            capacity: 16,
        });
        let wire = WireCluster::serve(cluster.clone());
        let q = cluster.db().get(SeqId(2)).unwrap().residues.clone();
        let _ = wire.query(&q, &QueryParams::protein()).unwrap();
        let entries = cluster.slowlog().entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].query.query_len, q.len());
        assert!(entries[0].query.groups > 0);
    }

    #[test]
    fn wire_rejects_bad_queries() {
        let cluster = cluster();
        let wire = WireCluster::serve(cluster.clone());
        assert!(wire.query(&[0u8; 3], &QueryParams::protein()).is_err());
        let mut bad = QueryParams::protein();
        bad.n = 0;
        let q = cluster.db().get(SeqId(0)).unwrap().residues.clone();
        assert!(wire.query(&q, &bad).is_err());
        // Unencoded residues (ASCII, not codes) fail in `plan`, on both
        // evaluators, instead of panicking in a distance kernel.
        let ascii = b"MKVLAAGIVGLLLAQWERTYHHH".to_vec();
        assert!(wire.query(&ascii, &QueryParams::protein()).is_err());
        assert!(cluster.query(&ascii, &QueryParams::protein()).is_err());
    }

    #[test]
    fn shutdown_joins_all_threads() {
        let cluster = cluster();
        let wire = WireCluster::serve(cluster.clone());
        drop(wire); // must not hang
    }

    #[test]
    fn full_coverage_when_everyone_answers() {
        let cluster = cluster();
        let wire = WireCluster::serve(cluster.clone());
        let q = cluster.db().get(SeqId(1)).unwrap().residues.clone();
        let outcome = wire.query_outcome(&q, &QueryParams::protein()).unwrap();
        assert!(outcome.unreachable.is_empty());
        assert!(!outcome.coverage.degraded);
        assert_eq!(
            outcome.coverage.blocks_expected,
            outcome.coverage.blocks_reachable
        );
        for (g, answered) in &outcome.responded {
            assert_eq!(
                answered.len(),
                cluster.topology().group_members(*g).len(),
                "every member of group {g:?} contributed"
            );
        }
    }

    /// A never-started node (a crashed process, as seen by peers) must
    /// degrade the wire answer exactly like the in-process failover
    /// path: hits from live members only, and the same coverage report
    /// `fail_node` produces on a twin cluster.
    #[test]
    fn dead_member_degrades_like_in_process_failover() {
        let cluster = cluster();
        let topo = cluster.topology();
        // Kill a non-entry-point member of the group serving seq 0's
        // windows, so the entry point must time the member out.
        let q = cluster.db().get(SeqId(0)).unwrap().residues.clone();
        let victim = topo
            .group_ids()
            .filter_map(|g| topo.group_members(g).get(1).copied())
            .next()
            .expect("a group with two members");
        let fast = WireTimeouts {
            rpc: Duration::from_secs(5),
            member: Duration::from_millis(400),
        };
        let wire = WireCluster::serve_with(cluster.clone(), &[victim], fast);
        let outcome = wire.query_outcome(&q, &QueryParams::protein()).unwrap();

        // Twin: same build, in-process failover of the same node.
        let twin = self::cluster();
        twin.fail_node(victim).unwrap();
        let expected_hits = twin.query(&q, &QueryParams::protein()).unwrap().hits;
        assert_eq!(outcome.hits, expected_hits, "hits match simulated failover");
        let twin_cov = twin.coverage();
        let wire_cov = &outcome.coverage;
        // The victim served no query traffic, so if its group was
        // queried it must be reported unreachable with twin-identical
        // coverage.
        if outcome
            .responded
            .keys()
            .any(|&g| topo.group_members(g).contains(&victim))
        {
            assert!(outcome.unreachable.contains(&victim));
            assert_eq!(wire_cov.blocks_expected, twin_cov.blocks_expected);
            assert_eq!(wire_cov.blocks_reachable, twin_cov.blocks_reachable);
            assert_eq!(wire_cov.degraded, twin_cov.degraded);
            assert_eq!(wire_cov.per_group, twin_cov.per_group);
        }
    }

    /// A dead group entry point: the client retries through the next
    /// member, so the group still answers (minus the dead node's
    /// anchors), matching in-process failover on a twin.
    #[test]
    fn dead_entry_point_fails_over_to_next_member() {
        let cluster = cluster();
        let topo = cluster.topology();
        let q = cluster.db().get(SeqId(4)).unwrap().residues.clone();
        let victim = topo
            .group_ids()
            .filter_map(|g| {
                let m = topo.group_members(g);
                (m.len() >= 2).then(|| m[0])
            })
            .next()
            .expect("a group with two members");
        let fast = WireTimeouts {
            rpc: Duration::from_millis(900),
            member: Duration::from_millis(300),
        };
        let wire = WireCluster::serve_with(cluster.clone(), &[victim], fast);
        let outcome = wire.query_outcome(&q, &QueryParams::protein()).unwrap();
        let twin = self::cluster();
        twin.fail_node(victim).unwrap();
        // The failed node cannot be the twin's entry point; any live
        // node yields identical results (§V-B).
        let entry = topo.nodes().find(|&n| n != victim).expect("a live node");
        let expected_hits = twin
            .query_from(entry, &q, &QueryParams::protein())
            .unwrap()
            .hits;
        assert_eq!(outcome.hits, expected_hits, "failover hits match");
        if outcome
            .responded
            .keys()
            .any(|&g| topo.group_members(g).first() == Some(&victim))
        {
            assert!(outcome.unreachable.contains(&victim));
            assert_eq!(outcome.coverage.degraded, twin.coverage().degraded);
        }
    }

    // ---- Malformed requests -------------------------------------------

    /// Requests that decode but that no front-end's plan would produce — a
    /// residue code outside the alphabet (it used to index past the
    /// distance table), a subquery window past the end of the query —
    /// are answered with nothing and counted, under either tag, and the
    /// node serves the next honest query as if nothing had happened.
    #[test]
    fn forged_queries_are_rejected_and_the_node_keeps_serving() {
        let cluster = cluster();
        let topo = cluster.topology();
        let fast = WireTimeouts {
            rpc: Duration::from_secs(5),
            member: Duration::from_millis(400),
        };
        let wire = WireCluster::serve_with(cluster.clone(), &[], fast);
        let q = cluster.db().get(SeqId(2)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let clean = wire.query_outcome(&q, &params).unwrap();
        assert!(!clean.hits.is_empty() && clean.unreachable.is_empty());

        let forged = [
            (
                "residue code outside the alphabet",
                vec![200u8; 40],
                vec![0usize],
            ),
            ("window past the end", q[..40].to_vec(), vec![1000]),
            (
                "window offset overflows",
                q[..40].to_vec(),
                vec![usize::MAX],
            ),
        ];
        let mut sent = 0;
        for tag in [TAG_NODE_QUERY, TAG_GROUP_QUERY] {
            for (what, query, offsets) in &forged {
                let msg = QueryMsg {
                    tag,
                    query: query.clone(),
                    offsets: offsets.clone(),
                    params: WireParams::of(&params),
                };
                for node in topo.nodes() {
                    // Correlation 0 is in the client's own id plane, so
                    // the (empty) answers are dropped by its next gather.
                    assert!(wire.client.send(node_addr(node), 0, msg.to_bytes()));
                    sent += 1;
                }
                let next = wire.query_outcome(&q, &params).unwrap();
                assert_eq!(next.unreachable, Vec::<NodeId>::new(), "tag {tag}: {what}");
                assert_eq!(next.hits, clean.hits, "tag {tag}: {what}");
                assert_eq!(next.coverage, clean.coverage, "tag {tag}: {what}");
            }
        }
        let rejected = cluster
            .metrics_registry()
            .snapshot()
            .counter("mendel.wire.rejected_requests");
        assert_eq!(
            rejected, sent,
            "every forged request is counted, no honest one"
        );
    }

    /// Parameters that decode but would have panicked below the trust
    /// boundary: a neighbour count no heap can preallocate, and a DNA
    /// matrix name whose scores `ScoringMatrix::dna` asserts against.
    #[test]
    fn hostile_wire_params_do_not_stop_a_node() {
        let cluster = cluster();
        let topo = cluster.topology();
        let fast = WireTimeouts {
            rpc: Duration::from_secs(5),
            member: Duration::from_millis(400),
        };
        let wire = WireCluster::serve_with(cluster.clone(), &[], fast);
        let q = cluster.db().get(SeqId(2)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let clean = wire.query_outcome(&q, &params).unwrap();
        let hostile = [
            WireParams {
                n: usize::MAX,
                ..WireParams::of(&params)
            },
            WireParams {
                m: "DNA(0/0)".into(),
                ..WireParams::of(&params)
            },
        ];
        for params in hostile {
            let msg = QueryMsg {
                tag: TAG_NODE_QUERY,
                query: q[..40].to_vec(),
                offsets: vec![0],
                params,
            };
            for node in topo.nodes() {
                assert!(wire.client.send(node_addr(node), 0, msg.to_bytes()));
            }
        }
        let next = wire.query_outcome(&q, &QueryParams::protein()).unwrap();
        assert_eq!(next.unreachable, Vec::<NodeId>::new());
        assert_eq!(next.hits, clean.hits);
    }

    // ---- Late replies (DESIGN.md §16.3) -------------------------------

    /// Deliver `payload` from `from` to `to` once under every request
    /// sequence number in `issued`, placed in `to`'s id plane: what a
    /// late reply to each request `to` issued in that span looks like.
    fn deliver_late(
        wire: &WireCluster,
        from: NodeAddr,
        to: NodeAddr,
        issued: std::ops::Range<u64>,
        payload: &Bytes,
    ) {
        for seq in issued {
            assert!(wire.network.send(Envelope {
                from,
                to,
                correlation: (u64::from(to.0) << 48) | seq,
                payload: payload.clone(),
                trace: None,
            }));
        }
    }

    fn issued_so_far() -> u64 {
        NEXT_REQUEST.load(Ordering::Relaxed)
    }

    fn bogus_anchors(n: u32) -> Vec<Hsp> {
        (0..n)
            .map(|i| Hsp {
                subject_id: 900_000 + i,
                query_start: 0,
                query_end: 30,
                subject_start: 0,
                score: 99,
            })
            .collect()
    }

    /// A `GroupReply` to an earlier query that lands late — an id that
    /// was really issued, from the entry point that was really asked —
    /// is not the next query's answer.
    #[test]
    fn late_group_reply_does_not_answer_the_next_query() {
        let cluster = cluster();
        let topo = cluster.topology();
        let wire = WireCluster::serve(cluster.clone());
        let q = cluster.db().get(SeqId(2)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let before = issued_so_far();
        let clean = wire.query_outcome(&q, &params).unwrap();
        let issued = before..issued_so_far();
        assert!(!clean.hits.is_empty() && !issued.is_empty());

        for &g in clean.responded.keys() {
            let members = topo.group_members(g);
            let empty = GroupReply {
                responded: members.iter().map(|n| n.0).collect(),
                hsps: Vec::new(),
                spans: Vec::new(),
            };
            let entry = node_addr(members[0]);
            deliver_late(
                &wire,
                entry,
                wire.client.addr(),
                issued.clone(),
                &empty.to_bytes(),
            );
        }
        let next = wire.query_outcome(&q, &params).unwrap();
        assert_eq!(next.hits, clean.hits);
        assert_eq!(next.coverage, clean.coverage);
        assert_eq!(next.responded, clean.responded);
    }

    /// One level down: a member anchor set that answers an earlier group
    /// query, arriving while the entry point gathers the next one, is
    /// not merged into it.
    #[test]
    fn late_member_reply_is_not_merged_into_the_next_group_query() {
        let cluster = cluster();
        let topo = cluster.topology();
        let wire = WireCluster::serve(cluster.clone());
        let q = cluster.db().get(SeqId(2)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let plan = pipeline::plan(&cluster, &q, &params).unwrap();
        let (&g, offsets) = plan
            .groups
            .iter()
            .find(|(&g, _)| topo.group_members(g).len() >= 2)
            .expect("a queried group with two members");
        let (entry, member) = (topo.group_members(g)[0], topo.group_members(g)[1]);
        let group_query = QueryMsg {
            tag: TAG_GROUP_QUERY,
            query: q.clone(),
            offsets: offsets.clone(),
            params: WireParams::of(&params),
        };
        let node_query = QueryMsg {
            tag: TAG_NODE_QUERY,
            ..group_query.clone()
        };
        let stale = encode_hsps(&bogus_anchors(1));
        // Play the front-end by hand, so the late replies can be queued
        // right behind the group query. The entry point is first kept
        // busy with node-local searches (answered under id 0, skipped
        // below): everything queued here is in its inbox before it asks
        // its members anything.
        let ask = |id: u64, late: std::ops::Range<u64>| {
            let to = node_addr(entry);
            for _ in 0..8 {
                assert!(wire.client.send(to, 0, node_query.to_bytes()));
            }
            assert!(wire.client.send(to, id, group_query.to_bytes()));
            deliver_late(&wire, node_addr(member), to, late, &stale);
            loop {
                let env = wire.client.recv_timeout(Duration::from_secs(20)).unwrap();
                if env.correlation == id {
                    break GroupReply::from_bytes(&env.payload).unwrap();
                }
            }
        };
        let before = issued_so_far();
        let clean = ask(1, 0..0);
        let issued = before..issued_so_far();
        assert!(!clean.hsps.is_empty() && !issued.is_empty());
        let next = ask(2, issued);
        assert_eq!(next, clean);
    }

    /// A member reply starts with its `u32` anchor count, so one with
    /// exactly three anchors starts with the `TAG_SHUTDOWN` byte. Landing
    /// at an idle node it is still a reply, and the node keeps serving.
    #[test]
    fn late_three_anchor_reply_does_not_stop_an_idle_node() {
        let cluster = cluster();
        let topo = cluster.topology();
        let fast = WireTimeouts {
            rpc: Duration::from_secs(5),
            member: Duration::from_millis(400),
        };
        let wire = WireCluster::serve_with(cluster.clone(), &[], fast);
        let q = cluster.db().get(SeqId(2)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let before = issued_so_far();
        let clean = wire.query_outcome(&q, &params).unwrap();
        let issued = before..issued_so_far();
        assert!(clean.unreachable.is_empty() && !issued.is_empty());

        let three = encode_hsps(&bogus_anchors(3));
        assert_eq!(three.first(), Some(&TAG_SHUTDOWN));
        for g in topo.group_ids() {
            let members = topo.group_members(g);
            for (i, &node) in members.iter().enumerate() {
                let peer = members[(i + 1) % members.len()];
                deliver_late(
                    &wire,
                    node_addr(peer),
                    node_addr(node),
                    issued.clone(),
                    &three,
                );
            }
        }
        let next = wire.query_outcome(&q, &params).unwrap();
        assert_eq!(next.unreachable, Vec::<NodeId>::new());
        assert_eq!(next.hits, clean.hits);
        assert_eq!(next.coverage, clean.coverage);
    }
}
