//! Cluster operations (§VII-B): failure and recovery, re-replication
//! repair, scale-out, coverage and its ledger oracle. A second `impl
//! MendelCluster` over the control-plane state declared in the parent
//! module; per-node work goes through the [`NodeSlot`] verbs. No
//! operation deletes a stored record, and a rebalance places the new
//! layout before it lets the old one go.

use super::{KeyRuns, MendelCluster};
use crate::block::BlockKey;
use crate::error::MendelError;
use crate::report::{CoverageReport, GroupCoverage};
use mendel_dht::sha1::KeyHasher;
use mendel_dht::{FlatPlacement, GroupId, NodeId, Topology};
use mendel_net::NodeSpeed;
use std::collections::BTreeMap;
#[cfg(any(test, feature = "strict-invariants"))]
use std::collections::HashMap;
use std::sync::atomic::Ordering;

/// What one [`MendelCluster::repair`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Groups where at least one copy was added.
    pub groups_repaired: usize,
    /// Distinct block keys examined across all groups.
    pub blocks_scanned: usize,
    /// Block copies created to restore the replication factor.
    pub copies_added: u64,
    /// Blocks with **no** live replica — repair cannot recreate these;
    /// they come back only when a holder recovers.
    pub unreachable: usize,
}

impl MendelCluster {
    // ---- Fault tolerance (§VII-B) -------------------------------------

    /// Inject a node failure: the node stops serving queries. With
    /// `replication ≥ 2`, its blocks remain reachable on replicas.
    /// Idempotent: failing an already-failed node is `Ok` and keeps the
    /// group epoch of its first failure. Repair, scale-out and rebalance
    /// fail a node the same way when its disk refuses a write.
    pub fn fail_node(&self, node: NodeId) -> Result<(), MendelError> {
        let Some(g) = self.topology.read().node_group(node) else {
            return Err(MendelError::NoSuchNode(node));
        };
        let group_epoch = self.group_epochs.read()[g.0 as usize];
        let mut failed = self.failed.write();
        if failed.contains_key(&node) {
            return Ok(());
        }
        failed.insert(node, group_epoch);
        drop(failed);
        // Durable backend: a failure is a true process kill — the node's
        // RAM and store handle die; only its disk survives. The ledger
        // keeps what the node held: a dark node's blocks stay expected,
        // so lost data never reads as full coverage.
        self.slot(node).kill();
        self.assert_ledger("fail_node");
        Ok(())
    }

    /// Durable-backend half of a node recovery: the node restarts from
    /// its disk ([`NodeSlot::replay`]) and holds what the disk does and
    /// the ledger still names it for — its ledger entry is struck and
    /// rewritten from those replayed blocks, which are indexed without
    /// being persisted again. A record of a copy the ledger has since
    /// moved elsewhere is stale: it stays on disk and is not indexed.
    /// Times the whole thing into `mendel.store.recovery.seconds`. No-op
    /// in memory mode.
    fn restore_node_from_disk(&self, node: NodeId, g: GroupId) -> Result<(), MendelError> {
        let clock = self.obs.clock();
        let started = clock.now();
        let slot = self.slot(node);
        // A replayed key the ledger would refuse fails the replay like
        // a corrupt disk: the node stays down, its holdings expected.
        let accept = |keys: &[BlockKey]| self.ledger.read().check(g, keys.iter().copied());
        let Some(mut keys) = slot.replay(self.config.block_len, accept)? else {
            return Ok(());
        };
        let mut ledger = self.ledger.write();
        let named = ledger.keys_held_by(g, |n| n == node);
        keys.retain(|key| named.binary_search(key).is_ok());
        ledger.clear(g, node);
        drop(ledger);
        self.admit(g, &slot, keys)?;
        let elapsed = clock.now().saturating_sub(started);
        self.obs
            .histogram("mendel.store.recovery.seconds")
            .record(elapsed.as_secs_f64());
        self.obs.counter("mendel.store.recoveries").inc();
        Ok(())
    }

    /// Recover a previously failed node (its in-memory data never left).
    /// Errors with [`MendelError::NoSuchNode`] for ids outside the
    /// topology; recovering a node that is not failed is `Ok`. If the
    /// node's group rebalanced while it was down (its failure-time epoch
    /// no longer matches), its contents reflect a stale placement — the
    /// whole group is re-placed so queries never see pre-rebalance
    /// layout. A durable node whose disk cannot be read back stays
    /// failed, its blocks still expected and unreachable.
    pub fn recover_node(&self, node: NodeId) -> Result<(), MendelError> {
        let Some(g) = self.topology.read().node_group(node) else {
            return Err(MendelError::NoSuchNode(node));
        };
        let Some(failed_at) = self.failed.read().get(&node).copied() else {
            return Ok(());
        };
        // Durable backend: the process is restarting from disk — replay
        // the WAL and rebuild the node's index before it serves
        // anything, and leave the failed set only once that worked.
        self.restore_node_from_disk(node, g)?;
        self.failed.write().remove(&node);
        let current = self.group_epochs.read()[g.0 as usize];
        if failed_at != current {
            let topo = self.topology.read().clone();
            self.rebalance_group(&topo, g);
        }
        self.assert_ledger("recover_node");
        Ok(())
    }

    /// Currently failed nodes.
    pub fn failed_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.failed.read().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Re-replicate under-replicated blocks onto live group members,
    /// restoring the configured replication factor where enough live
    /// nodes exist. Copy targets walk the group's *live* members in
    /// membership order, from index `sha1(key) mod live.len()` on,
    /// wrapping, skipping members that already hold the block. While a
    /// member is down that is not [`mendel_dht::FlatPlacement::ring`]
    /// (whose start counts every member), so a copy need not land where
    /// placement would put it; it is a function of the key and the live
    /// set alone, so repeated repairs are idempotent. Blocks whose every
    /// replica is down are reported as `unreachable` — they reappear when
    /// a holder recovers.
    // audit:allow(unreached): the re-replication pass tests/fault_tolerance.rs and tests/chaos.rs heal with; no operator command calls it yet
    pub fn repair(&self) -> RepairReport {
        let topo = self.topology.read().clone();
        let mut report = RepairReport::default();
        // Nodes whose durable store broke while persisting a repair copy;
        // marked failed after all guards drop.
        let mut broken: Vec<NodeId> = Vec::new();
        let hasher = KeyHasher::dispatched();
        for g in topo.group_ids() {
            let live = self.live_members(&topo, g);
            let nodes = self.nodes.read();
            let want = self.config.replication.min(live.len());
            let short = {
                let ledger = self.ledger.read();
                let expected = ledger.expected(g);
                report.blocks_scanned += expected;
                report.unreachable += expected - ledger.reachable(g, |n| live.contains(&n));
                ledger.under_replicated(g, &live, want)
            };
            let mut adds: BTreeMap<NodeId, Vec<BlockKey>> = BTreeMap::new();
            let mut group_added = 0u64;
            for (key, hs) in &short {
                let start = (hasher.head(&key.as_bytes()) % live.len() as u64) as usize;
                let mut have = hs.len();
                for i in 0..live.len() {
                    if have >= want {
                        break;
                    }
                    let target = live[(start + i) % live.len()];
                    if hs.contains(&target) {
                        continue;
                    }
                    adds.entry(target).or_default().push(*key);
                    have += 1;
                    group_added += 1;
                }
            }
            if group_added > 0 {
                report.groups_repaired += 1;
            }
            report.copies_added += group_added;
            for (node, keys) in adds {
                let copies = keys.len() as u64;
                if self.place(&topo, &nodes, node, keys).is_err() {
                    // The copies never became durable: don't let the
                    // report claim them either. The target is failed
                    // below and can recover from its own pre-repair
                    // disk state.
                    report.copies_added -= copies;
                    broken.push(node);
                }
            }
        }
        for node in broken {
            let _ = self.fail_node(node);
        }
        self.assert_ledger("repair");
        self.repair_moves
            .fetch_add(report.copies_added, Ordering::Relaxed); // audit:ordering(Relaxed): statistics counter; RMW atomicity is all that is needed
        report
    }

    /// Block availability right now: per group, the distinct keys the
    /// placement ledger records on *any* member (the placed universe — a
    /// failed node keeps its RAM on the memory backend, and a dark
    /// durable node's holdings stay in the ledger) versus the keys
    /// recorded on a live member. `degraded` means some placed block has
    /// no live replica and query answers may be incomplete.
    pub fn coverage(&self) -> CoverageReport {
        self.coverage_with_down(&[])
    }

    /// [`Self::coverage`], additionally treating every node in `down`
    /// as failed. This is how a wire front-end reports availability:
    /// nodes it observed unreachable during a query (silent entry
    /// points, members missing from group replies) fold into the same
    /// report shape the control plane produces for `fail_node`, so a
    /// real-process cluster and its simulated twin emit identical
    /// degraded-coverage answers. A ledger read: per group it costs the
    /// number of distinct holder sets, whatever `down` is and however
    /// many blocks are stored.
    pub fn coverage_with_down(&self, down: &[NodeId]) -> CoverageReport {
        let topo = self.topology.read();
        let failed = self.failed.read();
        let ledger = self.ledger.read();
        let is_live = |n: NodeId| !failed.contains_key(&n) && !down.contains(&n);
        let per_group = topo.group_ids().map(|g| GroupCoverage {
            group: g,
            expected: ledger.expected(g),
            reachable: ledger.reachable(g, is_live),
            live_members: topo
                .group_members(g)
                .iter()
                .filter(|&&m| is_live(m))
                .count(),
        });
        CoverageReport::of(per_group.collect())
    }

    /// The O(blocks) sweep [`Self::coverage_with_down`] must agree with,
    /// kept as its test oracle: per group, every key found on a member
    /// ([`NodeSlot::oracle_keys`]) with the members it was found on.
    #[cfg(any(test, feature = "strict-invariants"))]
    fn sweep_holders(&self) -> Vec<HashMap<BlockKey, Vec<NodeId>>> {
        let topo = self.topology.read();
        let nodes = self.nodes.read();
        let group = |g| {
            let mut holders: HashMap<BlockKey, Vec<NodeId>> = HashMap::new();
            for &m in topo.group_members(g) {
                for key in nodes[m.0 as usize].oracle_keys() {
                    holders.entry(key).or_default().push(m);
                }
            }
            holders
        };
        topo.group_ids().map(group).collect()
    }

    /// Coverage by the sweep's definition: a key is expected when any
    /// member holds it, reachable when a member neither failed nor in
    /// `down` does.
    #[cfg(any(test, feature = "strict-invariants"))]
    fn sweep_coverage(
        &self,
        holders: &[HashMap<BlockKey, Vec<NodeId>>],
        down: &[NodeId],
    ) -> CoverageReport {
        let topo = self.topology.read();
        let failed = self.failed.read();
        let is_live = |n: &NodeId| !failed.contains_key(n) && !down.contains(n);
        let per_group = topo.group_ids().zip(holders).map(|(g, holders)| {
            let reachable = holders.values().filter(|hs| hs.iter().any(is_live));
            GroupCoverage {
                group: g,
                expected: holders.len(),
                reachable: reachable.count(),
                live_members: topo.group_members(g).iter().filter(|m| is_live(m)).count(),
            }
        });
        CoverageReport::of(per_group.collect())
    }

    /// Ledger validation (the `strict-invariants` checker, DESIGN.md
    /// §8.2): the ledger's own accounting holds, and its coverage equals
    /// the sweep's for each of `downs` on top of the failed set. Unlike
    /// the other checkers it exists only in test and `strict-invariants`
    /// builds, because the sweep needs oracle state (what a dark node
    /// held) the product does not keep. A cluster that hosts one node
    /// ([`MendelCluster::build_member`]) has no other node's RAM to
    /// sweep: its check is that the hosted node holds exactly the keys
    /// the ledger names it for.
    #[cfg(any(test, feature = "strict-invariants"))]
    pub fn check_ledger_for(&self, downs: &[Vec<NodeId>]) -> Result<(), String> {
        let db = self.db();
        let len = self.config.block_len;
        let group_of = |key: BlockKey| {
            let seq = db.get(key.seq)?;
            Some(self.group_of_window(seq.window(key.start as usize, len)?))
        };
        self.ledger.read().check_invariants(group_of)?;
        if !self.hosts_every_node() {
            return self.check_hosted_keys();
        }
        let holders = self.sweep_holders();
        for down in downs {
            let ledger = self.coverage_with_down(down);
            let sweep = self.sweep_coverage(&holders, down);
            if ledger != sweep {
                return Err(format!(
                    "with {down:?} down the ledger reports {ledger:?}, the sweep {sweep:?}"
                ));
            }
        }
        Ok(())
    }

    /// Each hosted node's held keys ([`NodeSlot::oracle_keys`]) equal
    /// the keys whose ledger holder set names it.
    #[cfg(any(test, feature = "strict-invariants"))]
    fn check_hosted_keys(&self) -> Result<(), String> {
        let topo = self.topology.read();
        let nodes = self.nodes.read();
        for g in topo.group_ids() {
            for &m in topo.group_members(g).iter().filter(|&&m| self.hosts(m)) {
                let mut held = nodes[m.0 as usize].oracle_keys();
                held.sort_unstable();
                held.dedup();
                let placed = self.ledger.read().keys_held_by(g, |n| n == m);
                if held != placed {
                    return Err(format!(
                        "hosted node {m} holds {} keys, the ledger names it for {}",
                        held.len(),
                        placed.len()
                    ));
                }
            }
        }
        Ok(())
    }

    /// [`Self::check_ledger_for`] with nobody extra down and with
    /// each single node down.
    #[cfg(any(test, feature = "strict-invariants"))]
    pub fn check_ledger(&self) -> Result<(), String> {
        let nodes = self.topology.read().nodes().collect::<Vec<_>>();
        let downs = std::iter::once(Vec::new()).chain(nodes.into_iter().map(|n| vec![n]));
        self.check_ledger_for(&downs.collect::<Vec<_>>())
    }

    /// Abort with the violation when [`Self::check_ledger`] fails —
    /// called wherever placement or the failed set changes under
    /// `strict-invariants`; nothing otherwise.
    pub(super) fn assert_ledger(&self, _site: &str) {
        #[cfg(feature = "strict-invariants")]
        #[expect(
            clippy::panic,
            reason = "strict-invariants mode aborts on accounting corruption by design"
        )]
        if let Err(e) = self.check_ledger() {
            panic!("placement ledger diverged from the coverage sweep after {_site}: {e}");
        }
    }

    // ---- Elasticity (§VII-B) ------------------------------------------

    /// Scale out: add a storage node to the smallest group and rebalance
    /// that group's blocks over its new membership. A joiner whose
    /// durable store does not open joins failed and the group keeps its
    /// placement: re-placing would route the joiner's share to a node
    /// that cannot take it. The epoch bump makes the `recover_node` that
    /// brings the joiner up do the rebalance instead.
    pub fn add_node(&self) -> NodeId {
        let mut topo = self.topology.write();
        let idx = topo.num_nodes();
        let (id, g) = topo.join(NodeSpeed::paper_mix(idx));
        let slot = Self::new_slot(&self.config, &self.db, &self.obs, &self.storage, idx);
        let opened = slot.open();
        self.nodes.write().push(slot);
        let topo_snapshot = topo.clone();
        drop(topo);
        match opened {
            Ok(()) => self.rebalance_group(&topo_snapshot, g),
            Err(_) => {
                let _ = self.fail_node(id);
                self.group_epochs.write()[g.0 as usize] += 1;
            }
        }
        self.assert_ledger("add_node");
        id
    }

    /// Re-place every block of group `g` under the current membership,
    /// the new layout placed before the old one is let go (DESIGN.md
    /// §20.3). The blocks are the keys the ledger records on a live
    /// member; each window is read from the reference store at its key,
    /// so no member's RAM is read. Each pass forgets the members' RAM
    /// (their disks keep every record) and re-places: a key's holders are
    /// replaced where a replica took it, and kept where every replica's
    /// disk refused, so a crash anywhere leaves extra copies, never
    /// missing ones. Members whose disks refused are failed, and the
    /// group is re-placed again without them.
    pub(super) fn rebalance_group(&self, topo: &Topology, g: GroupId) {
        let (hasher, ring) = (KeyHasher::dispatched(), topo.group_members(g));
        loop {
            let members = self.live_members(topo, g);
            let keys = self.ledger.read().keys_held_by(g, |n| members.contains(&n));
            for &m in &members {
                self.slot(m).forget();
            }
            // Pass 1 for blocks whose group is known: where their rings start.
            let routes: Vec<NodeId> = keys
                .iter()
                .map(|key| ring[FlatPlacement::ring_start(hasher, ring.len(), &key.as_bytes())])
                .collect();
            let blocks = KeyRuns::of_keys(self.db(), self.config.block_len, &keys);
            let (refused, _) = self.route_and_place(topo, &routes, &blocks);
            let broken: Vec<NodeId> = refused.into_iter().filter_map(|(node, _)| node).collect();
            if broken.is_empty() {
                break;
            }
            // A key no replica took still names its old holders: each
            // member indexes what the ledger names it for before any is
            // failed, so the dark ones hold what the ledger says.
            for &m in members.iter().filter(|&&m| self.hosts(m)) {
                let named = self.ledger.read().keys_held_by(g, |n| n == m);
                let slot = self.slot(m);
                slot.forget();
                slot.insert_keys(named, self.config.block_len);
            }
            for node in broken {
                let _ = self.fail_node(node);
            }
        }
        // Any node that was down during this re-placement now holds a
        // stale layout; the epoch bump makes recover_node detect that.
        self.group_epochs.write()[g.0 as usize] += 1;
        self.assert_ledger("rebalance_group");
    }
}
