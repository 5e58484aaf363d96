//! The §V-B pipeline over message passing: the one evaluator behind
//! every query (DESIGN.md §18).
//!
//! `query_via` runs between the shared `plan` and `finish` the way a
//! deployment would — every node owning only its transport endpoint,
//! and every subquery and anchor crossing node boundaries as encoded
//! bytes:
//!
//! ```text
//! client ──GroupQuery──▶ group entry point ──NodeQuery──▶ members
//!        ◀──group reply──            ◀──anchor sets──
//! ```
//!
//! The client (system entry point) performs decomposition/routing and
//! the final §V-B aggregation + gapped extension through the shared
//! plan and epilogue. The node side is one function, `serve_request`,
//! whose node search (`StorageNode::local_search_many`) reports a
//! receipt — compute time and candidates — with its anchors. Two
//! carriers run the pair: in process, inline delivery (`inline.rs`) calls
//! the recipient's `serve_request` on the sender's thread (behind
//! [`MendelCluster::query`] and [`WireCluster`]); over
//! [`mendel_net::TcpTransport`], `node_serve_loop` receives for a
//! [`crate::NodeServer`] and a [`crate::FrontEnd`] sends, so a cluster of
//! real OS processes executes byte-identical traffic.
//!
//! Both tiers issue their requests and await the replies through one
//! private request/reply layer (`request` / `gather`, DESIGN.md §16.3):
//! request ids are never reused and carry the issuer's address, and a
//! reply counts only under a pending id from the peer that was asked —
//! so a late reply can neither answer a later query nor be mistaken for
//! a request.
//!
//! Failure semantics: a node the control plane has failed
//! (`fail_node`), or whose one dial the carrier was refused, is a dead
//! letter; a group entry point that cannot hear a member within
//! [`WireTimeouts::member`] answers with whoever responded; the client
//! retries a silent entry point through the group's remaining members,
//! and folds every node observed unreachable into a [`CoverageReport`]
//! via [`MendelCluster::coverage_with_down`]. A peer that missed an
//! endpoint's deadline is a suspect there (`Deadlines`): still asked,
//! but not waited on until heard from again, so a hung peer costs one
//! deadline, not one per query, and while it stays silent the answer is
//! the one waiting would have given. A peer that recovers is not waited
//! on until an envelope from it arrives: a query served before then can
//! drop its reply as late and come back degraded.

use crate::cluster::MendelCluster;
use crate::error::MendelError;
use crate::inline::InlineNet;
use crate::params::QueryParams;
use crate::pipeline::{self, Epilogue, Finished};
use crate::report::{CoverageReport, MendelHit};
use bytes::{Bytes, BytesMut};
use mendel_align::Hsp;
use mendel_dht::{GroupId, NodeId, Topology};
use mendel_net::codec::{Decode, DecodeError, Encode};
use mendel_net::envelope::{Envelope, NodeAddr, RecvError};
use mendel_net::fault::{FaultConfig, FaultPlan};
use mendel_net::tcp::TcpTransport;
use mendel_net::transport::Transport;
use mendel_obs::{
    ActiveSpan, Counter, CriticalHop, SpanId, SpanRecord, TraceContext, TraceId, Tracer,
};
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub(crate) const TAG_NODE_QUERY: u8 = 1;
pub(crate) const TAG_GROUP_QUERY: u8 = 2;

/// Poll interval for serving loops checking their stop flag.
const SERVE_POLL: Duration = Duration::from_millis(100);

/// Wire-path deadlines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTimeouts {
    /// Client-side deadline for one group entry point's reply. The
    /// entry point's own deadline for its members, [`Self::member`], is
    /// derived from it.
    pub rpc: Duration,
}

impl WireTimeouts {
    /// Entry-point-side deadline for member anchor sets; members silent
    /// past it are reported unresponsive instead of stalling the query.
    /// Half of [`Self::rpc`], so an entry point that waits it out for
    /// its slowest member still answers inside the client's deadline
    /// and is not misclassified as dead.
    pub fn member(&self) -> Duration {
        self.rpc / 2
    }
}

impl Default for WireTimeouts {
    fn default() -> Self {
        WireTimeouts {
            rpc: Duration::from_secs(30),
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
pub(crate) fn is_reply_to(me: NodeAddr, correlation: u64) -> bool {
    correlation >> 48 == u64::from(me.0)
}

/// Requests awaiting their reply: id → the one peer allowed to answer
/// it, and whatever the issuer needs back when it resolves.
type Pending<K> = HashMap<u64, (NodeAddr, K)>;

/// How issuing endpoints wait (DESIGN.md §9): their deadlines, and their
/// failure detector, the `(issuer, peer)` pairs whose peer missed the
/// issuer's last deadline. Any envelope from the peer, a late reply
/// included, or its receipt in a group reply clears the pair. A suspect
/// still gets every request, so the request is the probe, but [`gather`]
/// does not wait for it, and [`query_via`] passes it by as entry point
/// while a trusted member can take its place. A `FrontEnd` and a
/// `NodeServer`'s serving loop keep one each, a [`WireCluster`] one for
/// all its addresses.
pub(crate) struct Deadlines {
    timeouts: WireTimeouts,
    suspects: Mutex<BTreeSet<(NodeAddr, NodeAddr)>>,
    /// `mendel.wire.suspect_skips`: suspects not waited for or passed by.
    skips: Arc<Counter>,
}

impl Deadlines {
    pub(crate) fn new(cluster: &MendelCluster, timeouts: WireTimeouts) -> Self {
        let skips = cluster.metrics_registry();
        let skips = skips.counter("mendel.wire.suspect_skips");
        let suspects = Mutex::default();
        Deadlines {
            timeouts,
            suspects,
            skips,
        }
    }

    fn suspects(&self, me: NodeAddr, peer: NodeAddr) -> bool {
        self.suspects.lock().contains(&(me, peer))
    }

    /// `me` heard from `peer`.
    fn clear(&self, me: NodeAddr, peer: NodeAddr) {
        self.suspects.lock().remove(&(me, peer));
    }

    /// `peer` missed a deadline of `me`'s.
    fn suspect(&self, me: NodeAddr, peer: NodeAddr) {
        self.suspects.lock().insert((me, peer));
    }
}

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

/// Await the replies to `pending` for up to `timeout` on the
/// transport's own clock, handing each to `on_reply` with its parked
/// key the moment it lands (span re-anchoring needs the receive
/// instant). Requests still parked on return went unanswered.
///
/// Only peers not suspected are waited for: once they have answered,
/// what has already landed is taken and the wait ends. A peer still
/// parked then becomes a suspect if the deadline passed, or else counts
/// as a skip. Every envelope clears its sender's suspicion.
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
    deadlines: &Deadlines,
    mut on_reply: impl FnMut(K, Envelope),
    mut on_foreign: impl FnMut(Envelope),
) -> Result<(), RecvError> {
    let me = transport.addr();
    let clock = transport.clock();
    let deadline = clock.now().saturating_add(timeout);
    let mut expired = false;
    while !pending.is_empty() {
        let now = clock.now();
        expired = now >= deadline;
        if expired {
            break;
        }
        let awaited = pending.values().any(|&(to, _)| !deadlines.suspects(me, to));
        let wait = if awaited {
            deadline - now
        } else {
            Duration::ZERO
        };
        let env = match transport.recv_timeout(wait) {
            Ok(env) => env,
            Err(RecvError::Timeout) => {
                expired = awaited;
                break;
            }
            Err(RecvError::Disconnected) => return Err(RecvError::Disconnected),
        };
        deadlines.clear(me, env.from);
        if !is_reply_to(me, env.correlation) {
            on_foreign(env);
        } else if let Entry::Occupied(slot) = pending.entry(env.correlation) {
            if slot.get().0 == env.from {
                on_reply(slot.remove().1, env);
            }
        }
    }
    for &(to, _) in pending.values() {
        if expired {
            deadlines.suspect(me, to);
        } else {
            deadlines.skips.inc();
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

/// Encoded size of one anchor (`u32 + 3 × u64 + i32`), which is also
/// what the cost model charges per anchor.
pub(crate) const HSP_WIRE_BYTES: usize = 32;
/// Smallest encodings of a span record (no parent, empty name, no tags;
/// layout at [`encode_spans_into`]) and of a tag. The decoders reserve
/// for no more records than the bytes left could hold at these sizes,
/// so a forged count allocates nothing it does not carry.
const SPAN_MIN_WIRE_BYTES: usize = 8 + 8 + 1 + 4 + 8 + 8 + 4 + 4;
const TAG_MIN_WIRE_BYTES: usize = 4 + 4;

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
    let mut out = Vec::with_capacity(n.min(buf.len() / HSP_WIRE_BYTES));
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
/// tail — untraced replies never carry it, and an exhausted buffer after
/// the anchors decodes as "untraced" ([`decode_span_tail`]).
fn encode_spans_into(spans: &[SpanRecord], buf: &mut BytesMut) {
    if spans.is_empty() {
        return;
    }
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

fn decode_span_tail(buf: &mut Bytes) -> Result<Vec<SpanRecord>, DecodeError> {
    if buf.is_empty() {
        return Ok(Vec::new());
    }
    let n = u32::decode(buf)? as usize;
    let mut out = Vec::with_capacity(n.min(buf.len() / SPAN_MIN_WIRE_BYTES));
    for _ in 0..n {
        let trace = TraceId(u64::decode(buf)?);
        let span = SpanId(u64::decode(buf)?);
        let parent = Option::<u64>::decode(buf)?.map(SpanId);
        let node = u32::decode(buf)?;
        let start = Duration::from_nanos(u64::decode(buf)?);
        let end = Duration::from_nanos(u64::decode(buf)?);
        let name = String::decode(buf)?;
        let tag_count = u32::decode(buf)? as usize;
        let mut tags = Vec::with_capacity(tag_count.min(buf.len() / TAG_MIN_WIRE_BYTES));
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

/// One member's share of a group query, as its entry point reports it:
/// `node:u16 · compute_ns:u64 · candidates:u64 · anchors:u32`. The
/// §3 cost model reads nothing else from a node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Receipt {
    pub(crate) node: NodeId,
    /// Registry-clock time of the member's node search.
    pub(crate) compute: Duration,
    /// k-NN candidates the search inspected before filtering.
    pub(crate) candidates: usize,
    /// Anchors the member returned, before the group merge.
    pub(crate) anchors: u32,
}

impl Encode for Receipt {
    fn encode(&self, buf: &mut BytesMut) {
        self.node.0.encode(buf);
        (self.compute.as_nanos() as u64).encode(buf);
        self.candidates.encode(buf);
        self.anchors.encode(buf);
    }
}

impl Decode for Receipt {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(Receipt {
            node: NodeId(u16::decode(buf)?),
            compute: Duration::from_nanos(u64::decode(buf)?),
            candidates: usize::decode(buf)?,
            anchors: u32::decode(buf)?,
        })
    }
}

/// A member's reply to a node query: `compute_ns:u64 · candidates:u64`
/// (its receipt, less what the entry point knows), the anchors, and —
/// for traced queries only — the member's span as an optional tail.
#[derive(Debug, Clone, Default, PartialEq)]
struct NodeReply {
    compute: Duration,
    candidates: usize,
    hsps: Vec<Hsp>,
    spans: Vec<SpanRecord>,
}

impl Encode for NodeReply {
    fn encode(&self, buf: &mut BytesMut) {
        (self.compute.as_nanos() as u64).encode(buf);
        self.candidates.encode(buf);
        encode_hsps_into(&self.hsps, buf);
        encode_spans_into(&self.spans, buf);
    }
}

impl Decode for NodeReply {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(NodeReply {
            compute: Duration::from_nanos(u64::decode(buf)?),
            candidates: usize::decode(buf)?,
            hsps: decode_hsps_from(buf)?,
            spans: decode_span_tail(buf)?,
        })
    }
}

/// A group entry point's reply: one receipt per member that contributed
/// (entry point included, ascending), the entry point's merge time, the
/// group-merged anchors, and — for traced queries only — the node-side
/// span tree riding home as an optional tail (same trick as the
/// envelope trace tail: absence is the untraced encoding).
#[derive(Debug, Clone, Default, PartialEq)]
struct GroupReply {
    receipts: Vec<Receipt>,
    merge: Duration,
    hsps: Vec<Hsp>,
    spans: Vec<SpanRecord>,
}

impl Encode for GroupReply {
    fn encode(&self, buf: &mut BytesMut) {
        self.receipts.encode(buf);
        (self.merge.as_nanos() as u64).encode(buf);
        encode_hsps_into(&self.hsps, buf);
        encode_spans_into(&self.spans, buf);
    }
}

impl Decode for GroupReply {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(GroupReply {
            receipts: Vec::decode(buf)?,
            merge: Duration::from_nanos(u64::decode(buf)?),
            hsps: decode_hsps_from(buf)?,
            spans: decode_span_tail(buf)?,
        })
    }
}

/// What a wire query learned beyond the hits themselves.
#[derive(Debug, Clone, Default)]
pub struct WireQueryOutcome {
    /// Ranked alignments, identical from every entry point over the
    /// same reachable nodes.
    pub hits: Vec<MendelHit>,
    /// Members that contributed per queried group.
    pub responded: BTreeMap<GroupId, Vec<NodeId>>,
    /// Nodes observed unreachable during this query (silent entry
    /// points and members missing from group replies) that no group
    /// reply lists in [`Self::responded`], ascending.
    pub unreachable: Vec<NodeId>,
    /// Cluster-wide block availability treating [`Self::unreachable`]
    /// (plus anything already failed in the control plane) as down.
    pub coverage: CoverageReport,
    /// Trace id when this query drew a sampled trace (DESIGN.md §17).
    pub trace: Option<TraceId>,
    /// Critical path through the stitched cross-process span tree;
    /// empty when untraced.
    pub critical_path: Vec<CriticalHop>,
}

/// Everything [`query_via`] learned: the outcome, and what the §3 cost
/// model (`pipeline::charge`) charges for.
pub(crate) struct Evaluated {
    pub(crate) outcome: WireQueryOutcome,
    /// Subqueries the plan produced and groups it routed to.
    pub(crate) subqueries: usize,
    pub(crate) fanout: usize,
    /// Anchors the groups sent up, and those the system merge left.
    pub(crate) gathered: usize,
    pub(crate) anchors: usize,
    /// Registry-clock time of the plan and of the epilogue's finalize.
    pub(crate) decompose: Duration,
    pub(crate) finalize: Duration,
    /// Per answering group: its entry point, receipts and merge time.
    pub(crate) groups: Vec<(NodeId, Vec<Receipt>, Duration)>,
}

/// `query_via` over inline delivery: every subquery and anchor crosses a
/// node boundary as the bytes `mendel serve` puts on TCP, on the
/// caller's thread. Beyond [`MendelCluster::query`] it can lose
/// messages by a seeded [`FaultPlan`] ([`Self::serve_with`]), takes
/// explicit deadlines and counts its traffic.
pub struct WireCluster {
    cluster: Arc<MendelCluster>,
    faults: Arc<FaultPlan>,
    /// Every address's suspects, kept from one query to the next.
    deadlines: Deadlines,
    bytes: Counter,
}

impl WireCluster {
    /// Serve every node of `cluster`, losing nothing.
    pub fn serve(cluster: Arc<MendelCluster>) -> Self {
        let lossless = FaultPlan::new(FaultConfig::passthrough(0));
        Self::serve_with(cluster, Arc::new(lossless), WireTimeouts::default())
    }

    /// [`Self::serve`] with explicit deadlines (client and node side),
    /// and with `faults` deciding every envelope's fate: one it drops is
    /// accepted and never arrives, and a node it crashes hears nothing
    /// and says nothing — which is how a hung process looks to its
    /// peers. Waits are on logical time, so a lost message costs no
    /// wall time. Each address keeps its suspects across queries, as a
    /// `serve` process does.
    pub fn serve_with(
        cluster: Arc<MendelCluster>,
        faults: Arc<FaultPlan>,
        timeouts: WireTimeouts,
    ) -> Self {
        WireCluster {
            deadlines: Deadlines::new(&cluster, timeouts),
            cluster,
            faults,
            bytes: Counter::new(),
        }
    }

    /// Total payload bytes sent on the wire so far.
    // audit:allow(unreached): tests/end_to_end.rs and this file's tests check that a query sends bytes
    pub fn bytes_sent(&self) -> u64 {
        self.bytes.get()
    }

    /// Evaluate a query over the wire. Routing happens at the client
    /// (the system entry point, address 0), per-group evaluation at the
    /// group entry points, node-local search at each member. Returns the
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
        self.cluster.require_every_node("an in-process query")?;
        let client = NodeAddr(0);
        let (faults, deadlines) = (Some(&*self.faults), &self.deadlines);
        let net = InlineNet::new(&self.cluster, client, faults, deadlines);
        let answer = query_via(&self.cluster, &net.port(client), query, params, deadlines);
        self.bytes.add(net.traffic());
        Ok(answer?.outcome)
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
/// Group entry points are tried in member order: a dead or silent
/// candidate is recorded unreachable and the next member gets the group
/// query, so a dead entry point degrades the answer (anchors from live
/// members only) instead of losing the whole group. A candidate the
/// client suspects is passed over while a later one is trusted; it is
/// still asked, as a member, by the entry point that takes its place,
/// and as entry point itself if every member after it fails.
pub(crate) fn query_via<T: Transport>(
    cluster: &MendelCluster,
    client: &T,
    query: &[u8],
    params: &QueryParams,
    deadlines: &Deadlines,
) -> Result<Evaluated, MendelError> {
    let topo = cluster.topology();
    let clock = cluster.metrics_registry().clock();
    let q_start = clock.now();

    // Stage 1: validate + decompose + route (system entry point). A bad
    // request fails here, before any traffic, span or sampling tick.
    let plan = pipeline::plan(cluster, query, params)?;
    let decompose = clock.now().saturating_sub(q_start);

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
    let mut groups: Vec<(NodeId, Vec<Receipt>, Duration)> = Vec::new();
    let mut responded: BTreeMap<GroupId, Vec<NodeId>> = BTreeMap::new();
    let mut down: BTreeSet<NodeId> = BTreeSet::new();
    // (group, candidate entry-point index) still needing an answer, in
    // group order.
    let me = client.addr();
    let mut round: Vec<(GroupId, usize)> = plan.groups.keys().map(|&g| (g, 0)).collect();
    while !round.is_empty() {
        let mut pending: Pending<GroupRequest> = HashMap::new();
        for (g, from) in std::mem::take(&mut round) {
            let members = topo.group_members(g);
            let live = |n: &NodeId| !down.contains(n);
            let trusted = |n: &NodeId| live(n) && !deadlines.suspects(me, node_addr(*n));
            // The first trusted candidate from `from` on, passing by the
            // live suspects before it; failing that, the first live
            // member, a suspect passed by before included.
            let next = (from..members.len()).find(|&i| trusted(&members[i]));
            if let Some(i) = next {
                let passed = members[from..i].iter().filter(|m| live(m)).count();
                deadlines.skips.add(passed as u64);
            }
            let Some(idx) = next.or_else(|| members.iter().position(live)) else {
                // Every member tried: the group contributes nothing, and
                // none of its members answered.
                down.extend(members);
                continue;
            };
            let gep = members[idx];
            // The candidate asked is waited for, even a suspect: one is
            // asked only when no trusted member remains.
            deadlines.clear(me, node_addr(gep));
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
        let on_reply = |(g, idx, span_entry): GroupRequest, env: Envelope| {
            let Ok(reply) = GroupReply::from_bytes(&env.payload) else {
                return;
            };
            let members = topo.group_members(g);
            let answered: Vec<NodeId> = reply.receipts.iter().map(|r| r.node).collect();
            for &m in &answered {
                deadlines.clear(me, node_addr(m));
            }
            for &m in members {
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
            let entry = members.get(idx).copied().unwrap_or_default();
            groups.push((entry, reply.receipts, reply.merge));
            anchors.extend(reply.hsps);
            responded.insert(g, answered);
        };
        let rpc = deadlines.timeouts.rpc;
        gather(client, &mut pending, rpc, deadlines, on_reply, on_foreign)
            .map_err(|_| MendelError::Query("wire gather failed: disconnected".into()))?;
        // Whatever is still pending went unanswered: mark the candidate
        // entry point down and move each group to its next member.
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
    // the per-query counters and slow-query log.
    let finalize_span = tracer
        .as_ref()
        .zip(root.as_ref())
        .map(|(t, r)| t.child("finalize", r.context()));
    // An entry point whose reply was lost still answers the member that
    // took its place: whoever a reply lists responded, and is not down.
    let answered: BTreeSet<NodeId> = responded.values().flatten().copied().collect();
    let unreachable: Vec<NodeId> = down.difference(&answered).copied().collect();
    let gathered = anchors.len();
    let epilogue = Epilogue::new(cluster, params, &unreachable);
    let trace = root.as_ref().map(ActiveSpan::trace);
    let Finished {
        hits,
        anchors: merged,
        finalize,
    } = epilogue.finish(query, &plan, anchors, trace, q_start);
    let coverage = epilogue.coverage;
    if let Some(s) = finalize_span {
        s.finish();
    }

    // Close the root span, then read the critical path off the stitched
    // tree (local spans + re-anchored remote trees).
    let critical_path = root.take().map_or_else(Vec::new, |mut span| {
        let trace = span.trace();
        span.tag("groups", responded.len());
        span.tag("hits", hits.len());
        if coverage.degraded {
            span.tag("degraded", true);
        }
        span.finish();
        cluster
            .trace_tree(trace)
            .map(|t| t.critical_path())
            .unwrap_or_default()
    });
    Ok(Evaluated {
        outcome: WireQueryOutcome {
            hits,
            responded,
            unreachable,
            coverage,
            trace,
            critical_path,
        },
        subqueries: plan.subqueries,
        fanout: plan.groups.len(),
        gathered,
        anchors: merged,
        decompose,
        finalize,
        groups,
    })
}

/// A storage node's serving loop over TCP: receive, then
/// [`serve_request`].
///
/// Serves until the transport disconnects, which shutting it down does
/// within one idle poll; no message stops a node, so a forged one cannot
/// either. Requests that arrive while the node is mid-gather as a group
/// entry point are backlogged and served afterwards, so interleaved
/// queries from multiple front-ends are reordered rather than dropped.
/// Replies never get this far: an envelope in the node's own id plane is
/// consumed or dropped by [`gather`], or dropped by the idle poll here —
/// after clearing its sender's suspicion, as every envelope does.
pub(crate) fn node_serve_loop(
    cluster: &MendelCluster,
    topo: &Topology,
    me: NodeId,
    transport: &TcpTransport,
    timeouts: WireTimeouts,
) {
    let deadlines = Deadlines::new(cluster, timeouts);
    let mut backlog: VecDeque<Envelope> = VecDeque::new();
    loop {
        let env = match backlog.pop_front() {
            Some(env) => env,
            None => match transport.recv_timeout(SERVE_POLL) {
                Ok(env) => {
                    deadlines.clear(transport.addr(), env.from);
                    // A reply to a gather that has ended: only requests
                    // are dispatched on their tag.
                    if is_reply_to(transport.addr(), env.correlation) {
                        continue;
                    }
                    env
                }
                Err(RecvError::Timeout) => continue,
                Err(RecvError::Disconnected) => return,
            },
        };
        serve_request(cluster, topo, me, transport, &deadlines, env, &mut backlog);
    }
}

/// The node side: `me` answers one request, whichever carrier brought
/// it; anything but a group or node query is ignored. Other issuers'
/// requests that reach `me` while it gathers land in `backlog`.
pub(crate) fn serve_request<T: Transport>(
    cluster: &MendelCluster,
    topo: &Topology,
    me: NodeId,
    transport: &T,
    deadlines: &Deadlines,
    env: Envelope,
    backlog: &mut VecDeque<Envelope>,
) {
    // A payload that does not decode as a query, or carries a tag this
    // protocol does not have, is ignored.
    let Ok(msg) = QueryMsg::from_bytes(&env.payload) else {
        return;
    };
    let group = match msg.tag {
        TAG_GROUP_QUERY => true,
        TAG_NODE_QUERY => false,
        _ => return,
    };
    if !admissible(cluster, &msg) {
        // Nobody searched, so nobody is listed as having contributed:
        // the caller sees a degraded answer now instead of a member
        // timeout later.
        let nothing = if group {
            GroupReply::default().to_bytes()
        } else {
            NodeReply::default().to_bytes()
        };
        transport.send(env.from, env.correlation, nothing);
        return;
    }
    if group {
        serve_group_query(cluster, topo, me, transport, deadlines, &env, &msg, backlog);
        return;
    }
    // A sampled trace context on the envelope: the local search is a
    // span, shipped home as a reply tail.
    let span = env.trace.filter(|c| c.sampled).map(|ctx| {
        let tracer = cluster.metrics_registry().tracer(me.0 as u32);
        tracer.child(&format!("node/{}", me.0), ctx)
    });
    let (hsps, receipt) = eval_local(cluster, me, &msg);
    let mut reply = NodeReply {
        compute: receipt.compute,
        candidates: receipt.candidates,
        hsps,
        spans: Vec::new(),
    };
    if let Some(mut span) = span {
        span.tag("anchors", reply.hsps.len());
        reply.spans.extend(span.finish());
    }
    transport.send(env.from, env.correlation, reply.to_bytes());
}

/// The trust boundary of a serving node: a decoded request is searched
/// only if its parameters pass the same [`QueryParams::validate`] as a
/// front-end's `plan` (a negative ungapped X-drop would trip
/// `extend_ungapped`'s assert), every residue code indexes the cluster's
/// alphabet (the distance kernels panic on a code outside their table)
/// and every subquery window lies inside the query. A front-end's own
/// plan never produces anything else, so a request failing this is
/// malformed or forged; it is counted in `mendel.wire.rejected_requests`
/// and answered with an empty anchor set instead of a panic that would
/// stop this node's serving thread for good.
fn admissible(cluster: &MendelCluster, msg: &QueryMsg) -> bool {
    let block_len = cluster.config().block_len;
    let ok = msg.params.to_query_params().validate().is_ok()
        && pipeline::foreign_code(cluster, &msg.query).is_none()
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
/// deadline, merge, and reply with every contributor's receipt.
#[allow(
    clippy::too_many_arguments,
    reason = "serving-context plumbing; bundling into a struct would be pure ceremony"
)]
fn serve_group_query<T: Transport>(
    cluster: &MendelCluster,
    topo: &Topology,
    me: NodeId,
    transport: &T,
    deadlines: &Deadlines,
    env: &Envelope,
    msg: &QueryMsg,
    backlog: &mut VecDeque<Envelope>,
) {
    let Some(g) = topo.node_group(me) else {
        return; // not a member of any group: nothing to serve
    };
    // Sampled trace context: open a group span now (it parents every
    // member subquery, the local search and the merge), collect each
    // member's span tree from the reply tails, and ship the lot home.
    let trace_ctx = env.trace.filter(|c| c.sampled);
    let tracer = trace_ctx.map(|_| cluster.metrics_registry().tracer(me.0 as u32));
    let group_span = tracer
        .as_ref()
        .zip(trace_ctx)
        .map(|(t, ctx)| t.child(&format!("group/{}", g.0), ctx));
    let member_ctx = group_span.as_ref().map(ActiveSpan::context);
    let child = |name: &str| {
        tracer
            .as_ref()
            .zip(member_ctx)
            .map(|(t, c)| t.child(name, c))
    };
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
    let node_span = child(&format!("node/{}", me.0));
    let (mut anchors, own) = eval_local(cluster, me, msg);
    if let Some(mut span) = node_span {
        span.tag("anchors", anchors.len());
        shipped.extend(span.finish());
    }
    let mut receipts = vec![own];
    let on_reply = |(peer, sent): (NodeId, Option<Duration>), resp: Envelope| {
        let Ok(reply) = NodeReply::from_bytes(&resp.payload) else {
            return;
        };
        receipts.push(Receipt {
            node: peer,
            compute: reply.compute,
            candidates: reply.candidates,
            anchors: reply.hsps.len() as u32,
        });
        anchors.extend(reply.hsps);
        if let (Some(t), Some(sent)) = (&tracer, sent) {
            let mut remote = reply.spans;
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
        deadlines.timeouts.member(),
        deadlines,
        on_reply,
        on_foreign,
    );
    receipts.sort_unstable_by_key(|r| r.node);
    // First aggregation stage (§V-B): merge overlapping anchors on the
    // same diagonal at the group entry point.
    let merge_span = child("merge");
    let clock = cluster.metrics_registry().clock();
    let t = clock.now();
    let merged = mendel_align::hsp::merge_overlapping(anchors);
    let merge = clock.now().saturating_sub(t);
    shipped.extend(merge_span.and_then(ActiveSpan::finish));
    // Close the group span last so it brackets everything above, then
    // put it first in the tail: the re-anchoring at the receiving side
    // keys off the earliest-starting record as the hop's root.
    if let Some(mut span) = group_span {
        span.tag("members", receipts.len());
        if let Some(record) = span.finish() {
            shipped.insert(0, record);
        }
    }
    let reply = GroupReply {
        receipts,
        merge,
        hsps: merged,
        spans: shipped,
    };
    transport.send(env.from, env.correlation, reply.to_bytes());
}

/// Node `me`'s search for `msg` — the one site that times a node search:
/// its anchors and its receipt, the compute time also added to
/// `mendel.query.local_search_nanos`.
fn eval_local(cluster: &MendelCluster, me: NodeId, msg: &QueryMsg) -> (Vec<Hsp>, Receipt) {
    let params = msg.params.to_query_params();
    let Ok(matrix) = cluster.resolve_matrix(&params.m) else {
        return (
            Vec::new(),
            Receipt {
                node: me,
                ..Receipt::default()
            },
        );
    };
    let obs = cluster.metrics_registry();
    let clock = obs.clock();
    let t = clock.now();
    let out = cluster.node_local_search(me, &msg.query, &msg.offsets, &params, &matrix);
    let compute = clock.now().saturating_sub(t);
    obs.counter("mendel.query.local_search_nanos")
        .add(compute.as_nanos() as u64);
    let receipt = Receipt {
        node: me,
        compute,
        candidates: out.candidates,
        anchors: out.anchors.len() as u32,
    };
    (out.anchors, receipt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::inline::Port;
    use mendel_obs::Clock;
    use mendel_seq::gen::{NrLikeSpec, QuerySetSpec};
    use mendel_seq::SeqId;
    use std::sync::atomic::AtomicBool;

    fn cluster() -> Arc<MendelCluster> {
        cluster_of(ClusterConfig::small_protein())
    }

    fn cluster_of(config: ClusterConfig) -> Arc<MendelCluster> {
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
        Arc::new(MendelCluster::build(config, db).unwrap())
    }

    /// The front-end address of a hand-built [`InlineNet`].
    const FRONT: NodeAddr = NodeAddr(0);

    /// An address that is neither a node nor [`FRONT`]: replies to it
    /// are dead letters.
    const STRANGER: NodeAddr = NodeAddr(999);

    /// One query from [`FRONT`] over `net`, whose inboxes a test may have
    /// seeded, by a front-end that suspects nobody.
    fn ask(
        cluster: &MendelCluster,
        net: &InlineNet,
        q: &[u8],
        params: &QueryParams,
    ) -> WireQueryOutcome {
        let deadlines = Deadlines::new(cluster, WireTimeouts::default());
        query_via(cluster, &net.port(FRONT), q, params, &deadlines)
            .unwrap()
            .outcome
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
        assert!(wire.bytes_sent() > 0, "a query must send messages");
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

    fn sample_anchor() -> Hsp {
        Hsp {
            subject_id: 9,
            query_start: 4,
            query_end: 40,
            subject_start: 11,
            score: 55,
        }
    }

    /// The MDL1 layouts, built by hand: a member reply is `compute_ns ·
    /// candidates · hsps`, a group reply `receipts · merge_ns · hsps`,
    /// each receipt `node:u16 · compute_ns · candidates · anchors:u32`;
    /// untraced, neither carries a span tail.
    #[test]
    fn untraced_group_reply_is_byte_identical_to_pre_tracing_encoding() {
        let receipt = |node: u16, ns: u64| Receipt {
            node: NodeId(node),
            compute: Duration::from_nanos(ns),
            candidates: 24,
            anchors: 2,
        };
        let reply = GroupReply {
            receipts: vec![receipt(0, 700), receipt(3, 900)],
            merge: Duration::from_nanos(40),
            hsps: vec![sample_anchor()],
            spans: Vec::new(),
        };
        let mut hand = BytesMut::new();
        2u32.encode(&mut hand);
        for (node, ns) in [(0u16, 700u64), (3, 900)] {
            node.encode(&mut hand);
            ns.encode(&mut hand);
            24u64.encode(&mut hand);
            2u32.encode(&mut hand);
        }
        40u64.encode(&mut hand);
        encode_hsps_into(&reply.hsps, &mut hand);
        assert_eq!(reply.to_bytes(), hand.freeze());
        assert_eq!(GroupReply::from_bytes(&reply.to_bytes()).unwrap(), reply);

        let member = NodeReply {
            compute: Duration::from_nanos(700),
            candidates: 24,
            hsps: vec![sample_anchor()],
            spans: Vec::new(),
        };
        let mut hand = BytesMut::new();
        700u64.encode(&mut hand);
        24u64.encode(&mut hand);
        encode_hsps_into(&member.hsps, &mut hand);
        assert_eq!(member.to_bytes(), hand.freeze());
        assert_eq!(NodeReply::from_bytes(&member.to_bytes()).unwrap(), member);
    }

    #[test]
    fn traced_group_reply_roundtrips_span_tail() {
        let spans = vec![SpanRecord {
            trace: TraceId(500),
            span: SpanId(501),
            parent: Some(SpanId(7)),
            node: 1,
            name: "group/0".into(),
            start: Duration::from_nanos(100),
            end: Duration::from_nanos(900),
            tags: vec![("members".into(), "2".into())],
        }];
        let reply = GroupReply {
            receipts: vec![Receipt::default()],
            spans: spans.clone(),
            ..GroupReply::default()
        };
        assert_eq!(GroupReply::from_bytes(&reply.to_bytes()).unwrap(), reply);
        let member = NodeReply {
            hsps: vec![sample_anchor()],
            spans,
            ..NodeReply::default()
        };
        assert_eq!(NodeReply::from_bytes(&member.to_bytes()).unwrap(), member);
    }

    #[test]
    fn hsp_wire_bytes_is_the_encoded_length_of_one_anchor() {
        let reply = |hsps| NodeReply {
            hsps,
            ..NodeReply::default()
        };
        let one = reply(bogus_anchors(1)).to_bytes().len();
        assert_eq!(one - reply(Vec::new()).to_bytes().len(), HSP_WIRE_BYTES);
    }

    /// Counts of `u32::MAX` with nothing behind them — receipts in a group
    /// reply, anchors in a member reply or a group reply, span records in
    /// a reply tail — are decode errors, reserving no more than the bytes
    /// carried.
    #[test]
    fn forged_counts_without_a_body_are_rejected() {
        let count = |prefix: &[u8]| {
            let mut buf = BytesMut::new();
            buf.extend_from_slice(prefix);
            u32::MAX.encode(&mut buf);
            buf.freeze()
        };
        // A member reply: no receipt at all, a receipt and no anchors, and
        // anchors with no span records behind their tail count.
        assert!(NodeReply::from_bytes(&count(&[])).is_err());
        let receipt = [0u8; 16];
        assert!(NodeReply::from_bytes(&count(&receipt)).is_err());
        let no_anchors = NodeReply::default().to_bytes();
        assert!(NodeReply::from_bytes(&count(&no_anchors)).is_err());
        // A group reply: receipts, then anchors.
        assert!(GroupReply::from_bytes(&count(&[])).is_err());
        let mut no_receipts = BytesMut::new();
        Vec::<Receipt>::new().encode(&mut no_receipts);
        0u64.encode(&mut no_receipts);
        assert!(GroupReply::from_bytes(&count(&no_receipts)).is_err());
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
        // Unencoded residues (ASCII, not codes) fail in `plan`, from
        // every entry point, instead of panicking in a distance kernel.
        let ascii = b"MKVLAAGIVGLLLAQWERTYHHH".to_vec();
        assert!(wire.query(&ascii, &QueryParams::protein()).is_err());
        assert!(cluster.query(&ascii, &QueryParams::protein()).is_err());
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

    /// The second member (`at = 1`) or the entry point (`at = 0`) of a
    /// group `q` is routed to: a node whose silence the query must meet.
    fn queried_member(cluster: &MendelCluster, q: &[u8], at: usize) -> NodeId {
        let topo = cluster.topology();
        let plan = pipeline::plan(cluster, q, &QueryParams::protein()).unwrap();
        plan.groups
            .keys()
            .find_map(|&g| {
                let members = topo.group_members(g);
                (members.len() >= 2).then(|| members[at])
            })
            .expect("a queried group with two members")
    }

    /// A fault plan that crashes `victim` and loses nothing else.
    fn crashed(victim: NodeId) -> FaultPlan {
        let plan = FaultPlan::new(FaultConfig::passthrough(0));
        plan.crash(node_addr(victim));
        plan
    }

    /// A node that never answers (a hung process, as seen by peers) must
    /// degrade the wire answer exactly like the control plane's
    /// `fail_node`: hits from live members only, and the same coverage
    /// report on a twin cluster.
    #[test]
    fn dead_member_degrades_like_in_process_failover() {
        let cluster = cluster();
        // Crash a non-entry-point member of a group serving seq 0's
        // windows: it swallows the member request, so the entry point
        // must time the member out.
        let q = cluster.db().get(SeqId(0)).unwrap().residues.clone();
        let victim = queried_member(&cluster, &q, 1);
        let timeouts = WireTimeouts {
            rpc: Duration::from_millis(1000),
        };
        let deadlines = Deadlines::new(&cluster, timeouts);
        let plan = crashed(victim);
        let net = InlineNet::new(&cluster, FRONT, Some(&plan), &deadlines);
        let front = net.port(FRONT);
        let outcome = query_via(&cluster, &front, &q, &QueryParams::protein(), &deadlines)
            .unwrap()
            .outcome;
        assert_eq!(
            front.clock().now(),
            timeouts.member(),
            "the member was timed out, and nothing else was"
        );

        // Twin: same build, control-plane failover of the same node.
        let twin = self::cluster();
        twin.fail_node(victim).unwrap();
        let expected_hits = twin.query(&q, &QueryParams::protein()).unwrap().hits;
        assert_eq!(outcome.hits, expected_hits, "hits match simulated failover");
        let twin_cov = twin.coverage();
        let wire_cov = &outcome.coverage;
        assert!(outcome.unreachable.contains(&victim));
        assert_eq!(wire_cov.blocks_expected, twin_cov.blocks_expected);
        assert_eq!(wire_cov.blocks_reachable, twin_cov.blocks_reachable);
        assert_eq!(wire_cov.degraded, twin_cov.degraded);
        assert_eq!(wire_cov.per_group, twin_cov.per_group);
    }

    /// A dead group entry point: the client times it out and retries
    /// through the next member, so the group still answers (minus the
    /// dead node's anchors), matching control-plane failover on a twin.
    #[test]
    fn dead_entry_point_fails_over_to_next_member() {
        let cluster = cluster();
        let topo = cluster.topology();
        let q = cluster.db().get(SeqId(4)).unwrap().residues.clone();
        let victim = queried_member(&cluster, &q, 0);
        let timeouts = WireTimeouts {
            rpc: Duration::from_millis(900),
        };
        let deadlines = Deadlines::new(&cluster, timeouts);
        let plan = crashed(victim);
        let net = InlineNet::new(&cluster, FRONT, Some(&plan), &deadlines);
        let front = net.port(FRONT);
        let outcome = query_via(&cluster, &front, &q, &QueryParams::protein(), &deadlines)
            .unwrap()
            .outcome;
        // The client waits out the entry point; the member that takes
        // its place waits out the same node as a member.
        assert_eq!(
            front.clock().now(),
            timeouts.rpc + timeouts.member(),
            "the entry point was timed out"
        );
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
        assert!(outcome.unreachable.contains(&victim));
        assert_eq!(outcome.coverage.degraded, twin.coverage().degraded);
    }

    /// Queries of `q` over one [`WireCluster`] of `cluster` whose plan
    /// crashes `victim`, each as `query_outcome` asks it, with the logical time it
    /// waited and the suspect skips it counted. Each address keeps its
    /// suspects from one query to the next.
    fn crashed_run(
        cluster: &Arc<MendelCluster>,
        victim: NodeId,
        q: &[u8],
        rounds: usize,
    ) -> Vec<(WireQueryOutcome, Duration, u64)> {
        let timeouts = WireTimeouts {
            rpc: Duration::from_millis(1000),
        };
        let wire = WireCluster::serve_with(cluster.clone(), Arc::new(crashed(victim)), timeouts);
        let timed = || {
            let deadlines = &wire.deadlines;
            let net = InlineNet::new(cluster, FRONT, Some(&wire.faults), deadlines);
            let front = net.port(FRONT);
            let before = cluster.metrics_snapshot();
            let evaluated = query_via(cluster, &front, q, &QueryParams::protein(), deadlines);
            let skips = cluster.metrics_snapshot().since(&before);
            let skips = skips.counter("mendel.wire.suspect_skips");
            (evaluated.unwrap().outcome, front.clock().now(), skips)
        };
        (0..rounds).map(|_| timed()).collect()
    }

    /// Every answer of a [`crashed_run`] is its first one.
    fn same_answers(run: &[(WireQueryOutcome, Duration, u64)]) {
        let first = &run[0].0;
        for (i, (next, _, _)) in run.iter().enumerate() {
            assert_eq!(next.hits, first.hits, "query {i}");
            assert_eq!(next.coverage, first.coverage, "query {i}");
            assert_eq!(next.responded, first.responded, "query {i}");
            assert_eq!(next.unreachable, first.unreachable, "query {i}");
        }
    }

    /// A crashed member is waited out once, then only asked: its entry
    /// point's first query waits the member deadline on the logical
    /// clock and skips nothing; every later one waits nothing and skips
    /// that member once. The answer never changes.
    #[test]
    fn crashed_member_is_waited_out_once_then_only_asked() {
        let cluster = cluster();
        let q = cluster.db().get(SeqId(0)).unwrap().residues.clone();
        let victim = queried_member(&cluster, &q, 1);
        let run = crashed_run(&cluster, victim, &q, 4);
        let member = Duration::from_millis(500);
        let waits: Vec<(Duration, u64)> = run.iter().map(|r| (r.1, r.2)).collect();
        let later = (Duration::ZERO, 1);
        assert_eq!(waits, [(member, 0), later, later, later]);
        assert_eq!(run[0].0.unreachable, vec![victim]);
        same_answers(&run);
    }

    /// A crashed entry point is waited out once by the client, then once
    /// more as a member by the member that takes its place; after that
    /// the client passes it by and its stand-in only asks it — two skips
    /// a query, no wait, the same answer.
    #[test]
    fn crashed_entry_point_is_passed_by_after_one_wait() {
        let cluster = cluster();
        let q = cluster.db().get(SeqId(4)).unwrap().residues.clone();
        let victim = queried_member(&cluster, &q, 0);
        let run = crashed_run(&cluster, victim, &q, 3);
        let first = Duration::from_millis(1000 + 500);
        let waits: Vec<(Duration, u64)> = run.iter().map(|r| (r.1, r.2)).collect();
        let later = (Duration::ZERO, 2);
        assert_eq!(waits, [(first, 0), later, later]);
        assert!(run[0].0.unreachable.contains(&victim));
        same_answers(&run);
    }

    /// A suspect entry point passed by for a member that then fails is
    /// asked before its group is given up. On a replication-2 cluster of
    /// two-member groups, the entry point is waited out once, comes back,
    /// and its only other member is failed: the next query passes it by
    /// once, gets a dead letter from the other member, and then asks it,
    /// answering as a client that suspects nobody does.
    #[test]
    fn passed_by_entry_point_is_asked_when_every_member_after_it_fails() {
        let cluster = cluster_of(ClusterConfig {
            nodes: 4,
            groups: 2,
            replication: 2,
            ..ClusterConfig::small_protein()
        });
        let q = cluster.db().get(SeqId(4)).unwrap().residues.clone();
        let (entry, other) = (
            queried_member(&cluster, &q, 0),
            queried_member(&cluster, &q, 1),
        );
        let ask = |wire: &WireCluster| wire.query_outcome(&q, &QueryParams::protein()).unwrap();
        let plan = Arc::new(crashed(entry));
        let wire = WireCluster::serve_with(cluster.clone(), plan.clone(), WireTimeouts::default());
        assert!(ask(&wire).unreachable.contains(&entry));

        plan.restart(node_addr(entry));
        cluster.fail_node(other).unwrap();
        let before = cluster.metrics_snapshot();
        let next = ask(&wire);
        let skips = cluster.metrics_snapshot().since(&before);
        assert_eq!(skips.counter("mendel.wire.suspect_skips"), 1);
        let trusting = ask(&WireCluster::serve(cluster.clone()));
        assert!(next.responded.values().flatten().any(|&n| n == entry));
        assert_eq!(next.hits, trusting.hits);
        assert_eq!(next.responded, trusting.responded);
        assert_eq!(next.unreachable, vec![other]);
        assert_eq!(next.coverage, trusting.coverage);
    }

    /// A front-end port that loses the first reply it would receive, as
    /// a network that dropped it would.
    struct LosesFirstReply<'a> {
        port: Port<'a>,
        lost: AtomicBool,
    }

    impl Transport for LosesFirstReply<'_> {
        fn addr(&self) -> NodeAddr {
            self.port.addr()
        }
        fn send_envelope(&self, env: Envelope) -> bool {
            self.port.send_envelope(env)
        }
        fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
            let env = self.port.recv_timeout(timeout)?;
            if self.lost.swap(true, Ordering::Relaxed) {
                Ok(env)
            } else {
                self.port.recv_timeout(timeout)
            }
        }
        fn clock(&self) -> &dyn Clock {
            self.port.clock()
        }
    }

    /// A lost `GroupReply` times its entry point out, but the member
    /// retried in its place still hears from it: the node answered, so
    /// it is not reported unreachable, and on a replication-1 cluster
    /// the answer is the complete one.
    #[test]
    fn entry_point_whose_reply_was_lost_but_that_answered_is_not_unreachable() {
        let cluster = cluster();
        let deadlines = Deadlines::new(&cluster, WireTimeouts::default());
        assert_eq!(cluster.config().replication, 1);
        let q = cluster.db().get(SeqId(2)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let clean = ask(
            &cluster,
            &InlineNet::new(&cluster, FRONT, None, &deadlines),
            &q,
            &params,
        );
        let net = InlineNet::new(&cluster, FRONT, None, &deadlines);
        let lossy = LosesFirstReply {
            port: net.port(FRONT),
            lost: AtomicBool::new(false),
        };
        let timeouts = WireTimeouts::default();
        let next = query_via(&cluster, &lossy, &q, &params, &deadlines)
            .unwrap()
            .outcome;
        assert!(lossy.lost.load(Ordering::Relaxed));
        assert!(
            lossy.clock().now() >= timeouts.rpc,
            "an entry point timed out"
        );
        assert_eq!(next.hits, clean.hits);
        let responded: BTreeSet<NodeId> = next.responded.values().flatten().copied().collect();
        assert!(
            next.unreachable.iter().all(|n| !responded.contains(n)),
            "{:?} responded and is reported unreachable",
            next.unreachable
        );
        assert!(!next.coverage.degraded);
        assert_eq!(next.coverage, clean.coverage);
        // The timed-out entry point's receipt cleared its suspicion: the
        // next query asks it first again, and passes nobody by.
        let before = cluster.metrics_snapshot();
        let net = InlineNet::new(&cluster, FRONT, None, &deadlines);
        let again = query_via(&cluster, &net.port(FRONT), &q, &params, &deadlines);
        let again = again.unwrap().outcome;
        let skips = cluster.metrics_snapshot().since(&before);
        assert_eq!(skips.counter("mendel.wire.suspect_skips"), 0);
        assert_eq!(again.responded, clean.responded);
    }

    // ---- Hostile replies -----------------------------------------------

    /// A front-end port whose every group reply gains `forged` anchors,
    /// as an entry point that lies would send them.
    struct Tampered<'a> {
        port: Port<'a>,
        forged: Vec<Hsp>,
    }

    impl Transport for Tampered<'_> {
        fn addr(&self) -> NodeAddr {
            self.port.addr()
        }
        fn send_envelope(&self, env: Envelope) -> bool {
            self.port.send_envelope(env)
        }
        fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
            let mut env = self.port.recv_timeout(timeout)?;
            if let Ok(mut reply) = GroupReply::from_bytes(&env.payload) {
                reply.hsps.extend(&self.forged);
                env.payload = reply.to_bytes();
            }
            Ok(env)
        }
        fn clock(&self) -> &dyn Clock {
            self.port.clock()
        }
    }

    /// Anchors off the wire that lie outside the query or the subject —
    /// past the query's end, inverted, empty, on a subject nobody
    /// stores, past the subject's end — are dropped and counted before
    /// `finalize` indexes with them: the answer is the clean run's.
    #[test]
    fn out_of_range_anchors_from_an_entry_point_are_dropped() {
        let cluster = cluster();
        let deadlines = Deadlines::new(&cluster, WireTimeouts::default());
        let q = cluster.db().get(SeqId(2)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let clean = cluster.query(&q, &params).unwrap();
        let db = cluster.db();
        let subject_len = db.get(SeqId(0)).unwrap().len();
        let at = |query_start, query_end, subject_id, subject_start| Hsp {
            subject_id,
            query_start,
            query_end,
            subject_start,
            score: 99,
        };
        let forged = vec![
            at(0, q.len() + 50, 0, 0),
            at(20, 10, 0, 20),
            at(5, 5, 0, 5),
            at(0, 16, db.len() as u32 + 7, 0),
            at(0, 16, 0, subject_len - 5),
        ];
        let net = InlineNet::new(&cluster, FRONT, None, &deadlines);
        let lying = Tampered {
            port: net.port(FRONT),
            forged: forged.clone(),
        };
        let before = cluster.metrics_snapshot();
        let outcome = query_via(&cluster, &lying, &q, &params, &deadlines)
            .unwrap()
            .outcome;
        assert_eq!(outcome.hits, clean.hits);
        assert!(outcome.unreachable.is_empty());
        let rejected = cluster
            .metrics_snapshot()
            .since(&before)
            .counter("mendel.wire.rejected_anchors");
        assert_eq!(rejected, (forged.len() * outcome.responded.len()) as u64);
    }

    /// A front-end port that, before each request it sends, queues a
    /// reply to it from `imposter`, a peer that was not asked.
    struct Impersonated<'a> {
        port: Port<'a>,
        imposter: NodeAddr,
    }

    impl Transport for Impersonated<'_> {
        fn addr(&self) -> NodeAddr {
            self.port.addr()
        }
        fn send_envelope(&self, env: Envelope) -> bool {
            let forged = Envelope {
                from: self.imposter,
                to: env.from,
                correlation: env.correlation,
                payload: GroupReply::default().to_bytes(),
                trace: None,
            };
            assert!(self.port.send_envelope(forged));
            self.port.send_envelope(env)
        }
        fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
            self.port.recv_timeout(timeout)
        }
        fn clock(&self) -> &dyn Clock {
            self.port.clock()
        }
    }

    /// A reply under a pending id from a peer it was not sent to — a
    /// forgery, since TCP's `from` is self-declared — answers nothing:
    /// the asked entry point's reply, queued behind it, does.
    #[test]
    fn reply_from_a_peer_not_asked_is_dropped() {
        let cluster = cluster();
        let deadlines = Deadlines::new(&cluster, WireTimeouts::default());
        let q = cluster.db().get(SeqId(2)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let clean = WireCluster::serve(cluster.clone())
            .query_outcome(&q, &params)
            .unwrap();
        for imposter in [STRANGER, node_addr(NodeId(5))] {
            let net = InlineNet::new(&cluster, FRONT, None, &deadlines);
            let forging = Impersonated {
                port: net.port(FRONT),
                imposter,
            };
            let next = query_via(&cluster, &forging, &q, &params, &deadlines)
                .unwrap()
                .outcome;
            assert_eq!(next.unreachable, Vec::<NodeId>::new(), "{imposter}");
            assert_eq!(next.responded, clean.responded, "{imposter}");
            assert_eq!(next.hits, clean.hits, "{imposter}");
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
        let deadlines = Deadlines::new(&cluster, WireTimeouts::default());
        let topo = cluster.topology();
        let net = InlineNet::new(&cluster, FRONT, None, &deadlines);
        let q = cluster.db().get(SeqId(2)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let clean = ask(&cluster, &net, &q, &params);
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
        let stranger = net.port(STRANGER);
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
                    assert!(stranger.send(node_addr(node), 0, msg.to_bytes()));
                    sent += 1;
                }
                let next = ask(&cluster, &net, &q, &params);
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
    /// boundary: a neighbour count no heap can preallocate, a DNA
    /// matrix name whose scores `ScoringMatrix::dna` asserts against, a
    /// negative ungapped X-drop, which `extend_ungapped` asserts against,
    /// and a NaN identity or consecutivity threshold.
    #[test]
    fn hostile_wire_params_do_not_stop_a_node() {
        let cluster = cluster();
        let deadlines = Deadlines::new(&cluster, WireTimeouts::default());
        let topo = cluster.topology();
        let net = InlineNet::new(&cluster, FRONT, None, &deadlines);
        let q = cluster.db().get(SeqId(2)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let clean = ask(&cluster, &net, &q, &params);
        let hostile = [
            WireParams {
                n: usize::MAX,
                ..WireParams::of(&params)
            },
            WireParams {
                m: "DNA(0/0)".into(),
                ..WireParams::of(&params)
            },
            WireParams {
                x_drop_ungapped: -1,
                ..WireParams::of(&params)
            },
        ];
        let stranger = net.port(STRANGER);
        let send = |params: WireParams| {
            let msg = QueryMsg {
                tag: TAG_NODE_QUERY,
                query: q[..40].to_vec(),
                offsets: vec![0],
                params,
            };
            for node in topo.nodes() {
                assert!(stranger.send(node_addr(node), 0, msg.to_bytes()));
            }
        };
        hostile.into_iter().for_each(send);
        let next = ask(&cluster, &net, &q, &QueryParams::protein());
        assert_eq!(next.unreachable, Vec::<NodeId>::new());
        assert_eq!(next.hits, clean.hits);
        // A NaN `i` or `c` fails `validate` at the trust boundary: each
        // copy is counted as rejected, and the answer stands.
        let rejected = || {
            cluster
                .metrics_registry()
                .snapshot()
                .counter("mendel.wire.rejected_requests")
        };
        let before = rejected();
        let nan = [
            WireParams {
                i: f32::NAN,
                ..WireParams::of(&params)
            },
            WireParams {
                c: f32::NAN,
                ..WireParams::of(&params)
            },
        ];
        nan.into_iter().for_each(send);
        let next = ask(&cluster, &net, &q, &QueryParams::protein());
        assert_eq!(next.hits, clean.hits);
        assert_eq!(rejected() - before, 2 * topo.nodes().count() as u64);
    }

    /// `E` and τ do not travel (a node neither filters by E-value nor
    /// routes), so a NaN in either stops at the front end's `validate`
    /// and no request is sent.
    #[test]
    fn nan_e_value_or_tolerance_is_refused_before_any_request() {
        let cluster = cluster();
        let deadlines = Deadlines::new(&cluster, WireTimeouts::default());
        let net = InlineNet::new(&cluster, FRONT, None, &deadlines);
        let q = cluster.db().get(SeqId(2)).unwrap().residues.clone();
        let ok = QueryParams::protein();
        for params in [
            QueryParams {
                e: f64::NAN,
                ..ok.clone()
            },
            QueryParams {
                group_tolerance: f32::NAN,
                ..ok.clone()
            },
        ] {
            let Err(err) = query_via(&cluster, &net.port(FRONT), &q, &params, &deadlines) else {
                panic!("NaN parameters were accepted");
            };
            assert!(matches!(err, MendelError::Params(_)), "{err}");
        }
        let rejected = cluster
            .metrics_registry()
            .snapshot()
            .counter("mendel.wire.rejected_requests");
        assert_eq!(rejected, 0, "nothing reached a node");
    }

    // ---- Late replies (DESIGN.md §16.3) -------------------------------

    /// Queue `payload` from `from` in `to`'s inbox once under every
    /// request sequence number in `issued`, placed in `to`'s id plane:
    /// what a late reply to each request `to` issued in that span looks
    /// like, waiting for `to`'s next gather.
    fn deliver_late(
        net: &InlineNet,
        from: NodeAddr,
        to: NodeAddr,
        issued: std::ops::Range<u64>,
        payload: &Bytes,
    ) {
        for seq in issued {
            assert!(net.port(from).send_envelope(Envelope {
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
        let deadlines = Deadlines::new(&cluster, WireTimeouts::default());
        let topo = cluster.topology();
        let q = cluster.db().get(SeqId(2)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let before = issued_so_far();
        let clean = ask(
            &cluster,
            &InlineNet::new(&cluster, FRONT, None, &deadlines),
            &q,
            &params,
        );
        let issued = before..issued_so_far();
        assert!(!clean.hits.is_empty() && !issued.is_empty());

        let net = InlineNet::new(&cluster, FRONT, None, &deadlines);
        for &g in clean.responded.keys() {
            let members = topo.group_members(g);
            let empty = GroupReply {
                receipts: members
                    .iter()
                    .map(|&node| Receipt {
                        node,
                        ..Receipt::default()
                    })
                    .collect(),
                ..GroupReply::default()
            };
            let entry = node_addr(members[0]);
            deliver_late(&net, entry, FRONT, issued.clone(), &empty.to_bytes());
        }
        let next = ask(&cluster, &net, &q, &params);
        assert_eq!(next.hits, clean.hits);
        assert_eq!(next.coverage, clean.coverage);
        assert_eq!(next.responded, clean.responded);
    }

    /// What a group reply says about the work done, less the times.
    fn work(reply: &GroupReply) -> (Vec<(NodeId, usize, u32)>, &[Hsp]) {
        let receipts = reply.receipts.iter();
        let work = receipts.map(|r| (r.node, r.candidates, r.anchors));
        (work.collect(), &reply.hsps)
    }

    /// One level down: a member anchor set that answers an earlier group
    /// query, waiting at the entry point when it gathers the next one,
    /// is not merged into it.
    #[test]
    fn late_member_reply_is_not_merged_into_the_next_group_query() {
        let cluster = cluster();
        let deadlines = Deadlines::new(&cluster, WireTimeouts::default());
        let topo = cluster.topology();
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
        let stale = NodeReply {
            hsps: bogus_anchors(1),
            ..NodeReply::default()
        }
        .to_bytes();
        // Play a front-end by hand: the late replies are queued at the
        // entry point before it asks its members anything.
        let net = InlineNet::new(&cluster, FRONT, None, &deadlines);
        let front = net.port(FRONT);
        let ask = |id: u64, late: std::ops::Range<u64>| {
            deliver_late(&net, node_addr(member), node_addr(entry), late, &stale);
            assert!(front.send(node_addr(entry), id, group_query.to_bytes()));
            let env = front.try_recv().expect("answered on the sender's thread");
            assert_eq!(env.correlation, id);
            GroupReply::from_bytes(&env.payload).unwrap()
        };
        let before = issued_so_far();
        let clean = ask(1, 0..0);
        let issued = before..issued_so_far();
        assert!(!clean.hsps.is_empty() && !issued.is_empty());
        let next = ask(2, issued);
        assert_eq!(work(&next), work(&clean));
    }

    /// A member reply that starts with the byte `3` (the stop tag this
    /// protocol once had) waiting in an idle node's inbox is still a
    /// reply, and the node keeps serving.
    #[test]
    fn late_three_anchor_reply_does_not_stop_an_idle_node() {
        let cluster = cluster();
        let deadlines = Deadlines::new(&cluster, WireTimeouts::default());
        let topo = cluster.topology();
        let q = cluster.db().get(SeqId(2)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let before = issued_so_far();
        let clean = ask(
            &cluster,
            &InlineNet::new(&cluster, FRONT, None, &deadlines),
            &q,
            &params,
        );
        let issued = before..issued_so_far();
        assert!(clean.unreachable.is_empty() && !issued.is_empty());

        let three = NodeReply {
            compute: Duration::from_nanos(3),
            hsps: bogus_anchors(3),
            ..NodeReply::default()
        }
        .to_bytes();
        assert_eq!(three.first(), Some(&3));
        let net = InlineNet::new(&cluster, FRONT, None, &deadlines);
        for g in topo.group_ids() {
            let members = topo.group_members(g);
            for (i, &node) in members.iter().enumerate() {
                let peer = members[(i + 1) % members.len()];
                deliver_late(
                    &net,
                    node_addr(peer),
                    node_addr(node),
                    issued.clone(),
                    &three,
                );
            }
        }
        let next = ask(&cluster, &net, &q, &params);
        assert_eq!(next.unreachable, Vec::<NodeId>::new());
        assert_eq!(next.hits, clean.hits);
        assert_eq!(next.coverage, clean.coverage);
    }

    /// No request stops a node: the payload `[3]` from an address that
    /// is neither a node nor the client is an unknown tag, ignored.
    #[test]
    fn forged_stop_frame_does_not_stop_a_node() {
        let cluster = cluster();
        let deadlines = Deadlines::new(&cluster, WireTimeouts::default());
        let net = InlineNet::new(&cluster, FRONT, None, &deadlines);
        let q = cluster.db().get(SeqId(2)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let clean = ask(&cluster, &net, &q, &params);
        assert!(!clean.hits.is_empty() && clean.unreachable.is_empty());

        let stranger = net.port(STRANGER);
        for node in cluster.topology().nodes() {
            assert!(stranger.send(node_addr(node), 0, Bytes::from_static(&[3])));
        }
        let next = ask(&cluster, &net, &q, &params);
        assert_eq!(next.unreachable, Vec::<NodeId>::new());
        assert_eq!(next.hits, clean.hits);
        assert_eq!(next.coverage, clean.coverage);
    }

    /// Two threads sharing one `WireCluster` get the answers they would
    /// get one at a time: each query has its own inboxes.
    #[test]
    fn concurrent_queries_on_one_wire_cluster_match_sequential_ones() {
        let cluster = cluster();
        let wire = Arc::new(WireCluster::serve(cluster.clone()));
        let params = QueryParams::protein();
        let queries: Vec<Vec<u8>> = (0..8u32)
            .map(|id| cluster.db().get(SeqId(id)).unwrap().residues.clone())
            .collect();
        let sequential: Vec<WireQueryOutcome> = queries
            .iter()
            .map(|q| wire.query_outcome(q, &params).unwrap())
            .collect();
        let start = Arc::new(std::sync::Barrier::new(2));
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let (wire, queries, params) = (wire.clone(), queries.clone(), params.clone());
                let start = start.clone();
                std::thread::spawn(move || {
                    start.wait();
                    queries
                        .iter()
                        .map(|q| wire.query_outcome(q, &params).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for t in threads {
            for (got, want) in t.join().unwrap().iter().zip(&sequential) {
                assert_eq!(got.unreachable, Vec::<NodeId>::new());
                assert_eq!(got.hits, want.hits);
                assert_eq!(got.responded, want.responded);
                assert_eq!(got.coverage, want.coverage);
            }
        }
    }
}
