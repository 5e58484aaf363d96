//! In-process delivery (DESIGN.md §16.1): a [`Transport`] whose send to
//! a storage node runs that node's [`serve_request`] on the sender's
//! thread, so `MendelCluster::query` and `WireCluster` run the evaluator
//! `mendel serve` runs over TCP. No threads, no channels and no wall
//! clock: delivery order is call order, time is a [`VirtualClock`], and
//! a seed fixes every message, span id and counter — and, through an
//! optional [`FaultPlan`], every message lost.

use crate::cluster::MendelCluster;
use crate::wire::{is_reply_to, node_addr, serve_request, Deadlines};
use mendel_dht::{NodeId, Topology};
use mendel_net::envelope::{Envelope, NodeAddr, RecvError};
use mendel_net::fault::{FaultPlan, Verdict};
use mendel_net::transport::Transport;
use mendel_obs::{Clock, Counter, VirtualClock};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// One query's delivery between `cluster`'s nodes and one front-end:
/// an inbox per node and one for the front-end, and the logical clock
/// their deadlines run on.
pub(crate) struct InlineNet<'a> {
    cluster: &'a MendelCluster,
    topo: Topology,
    /// Decides which accepted envelopes are lost in transit.
    faults: Option<&'a FaultPlan>,
    /// Every address's deadlines and suspects; they may outlive the query.
    deadlines: &'a Deadlines,
    inboxes: BTreeMap<NodeAddr, Mutex<VecDeque<Envelope>>>,
    clock: VirtualClock,
    bytes: Counter,
}

impl<'a> InlineNet<'a> {
    pub(crate) fn new(
        cluster: &'a MendelCluster,
        front: NodeAddr,
        faults: Option<&'a FaultPlan>,
        deadlines: &'a Deadlines,
    ) -> Self {
        let topo = cluster.topology();
        let inboxes = topo.nodes().map(node_addr).chain([front]);
        InlineNet {
            cluster,
            faults,
            deadlines,
            inboxes: inboxes.map(|addr| (addr, Mutex::default())).collect(),
            topo,
            clock: VirtualClock::new(),
            bytes: Counter::new(),
        }
    }

    /// The endpoint at `addr`.
    pub(crate) fn port(&self, addr: NodeAddr) -> Port<'_> {
        Port { net: self, addr }
    }

    /// Payload bytes of the envelopes accepted so far.
    pub(crate) fn traffic(&self) -> u64 {
        self.bytes.get()
    }

    /// A send to a failed node (`fail_node`) or to an unknown address is
    /// a dead letter; one the fault plan drops is accepted and lost; a
    /// request — an id outside the recipient's plane — is served at
    /// once; a reply waits in its recipient's inbox.
    fn deliver(&self, env: Envelope) -> bool {
        let node =
            (env.to.0.checked_sub(1).map(NodeId)).filter(|&n| self.topo.node_group(n).is_some());
        if node.is_some_and(|n| self.cluster.is_failed(n)) {
            return false;
        }
        let Some(inbox) = self.inboxes.get(&env.to) else {
            return false;
        };
        self.bytes.add(env.payload.len() as u64);
        if self
            .faults
            .is_some_and(|plan| plan.decide(env.from, env.to) == Verdict::Drop)
        {
            return true;
        }
        match node {
            Some(n) if !is_reply_to(env.to, env.correlation) => {
                let (port, mut backlog) = (self.port(env.to), VecDeque::new());
                let (topo, deadlines) = (&self.topo, self.deadlines);
                serve_request(self.cluster, topo, n, &port, deadlines, env, &mut backlog);
            }
            _ => inbox.lock().push_back(env),
        }
        true
    }
}

/// One address's endpoint on an [`InlineNet`].
pub(crate) struct Port<'a> {
    net: &'a InlineNet<'a>,
    addr: NodeAddr,
}

impl Port<'_> {
    /// The next envelope in this address's inbox, if one is waiting.
    pub(crate) fn try_recv(&self) -> Option<Envelope> {
        self.net.inboxes.get(&self.addr)?.lock().pop_front()
    }
}

impl Transport for Port<'_> {
    fn addr(&self) -> NodeAddr {
        self.addr
    }

    fn send_envelope(&self, env: Envelope) -> bool {
        self.net.deliver(env)
    }

    /// Every handler a send reaches has run before the send returned,
    /// so an empty inbox stays empty: the wait is over at once, with the
    /// clock moved past it, as for a silent peer.
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
        self.try_recv().ok_or_else(|| {
            self.net.clock.advance(timeout);
            RecvError::Timeout
        })
    }

    fn clock(&self) -> &dyn Clock {
        &self.net.clock
    }
}
