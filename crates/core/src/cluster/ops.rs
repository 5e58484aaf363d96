//! Cluster operations (§VII-B): failure and recovery, the failure
//! detector, re-replication repair, scale-out, coverage and its ledger
//! oracle. A second `impl MendelCluster` over the control-plane state
//! declared in the parent module; per-node work goes through the
//! [`NodeSlot`] verbs.

use super::MendelCluster;
use crate::block::{Block, BlockKey};
use crate::error::MendelError;
use crate::report::{CoverageReport, GroupCoverage};
use mendel_dht::sha1::sha1_u64;
use mendel_dht::{GroupId, NodeId, Topology};
use mendel_net::{HeartbeatMonitor, NodeSpeed};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;

/// Why (and when) a node entered the failed set.
#[derive(Debug, Clone, Copy)]
pub(super) struct FailureRecord {
    /// True when the failure detector suspected the node
    /// ([`MendelCluster::sync_failure_detector`]); false for an
    /// operator-initiated [`MendelCluster::fail_node`]. Only auto
    /// failures are auto-recovered when the node beats again.
    pub(super) auto: bool,
    /// The group's rebalance epoch when the node went down. A mismatch
    /// at recovery means placement moved while the node was dark — its
    /// contents are stale and the group must be re-placed.
    pub(super) group_epoch: u64,
}

/// What one [`MendelCluster::sync_failure_detector`] pass changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailoverDelta {
    /// Nodes newly added to the failed set (detector suspects).
    pub suspected: Vec<NodeId>,
    /// Auto-failed nodes recovered because they beat again.
    pub recovered: Vec<NodeId>,
}

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
    /// original failure record.
    pub fn fail_node(&self, node: NodeId) -> Result<(), MendelError> {
        self.mark_failed(node, false).map(|_| ())
    }

    fn mark_failed(&self, node: NodeId, auto: bool) -> Result<bool, MendelError> {
        let Some(g) = self.topology.read().node_group(node) else {
            return Err(MendelError::NoSuchNode(node));
        };
        let group_epoch = self.group_epochs.read()[g.0 as usize];
        let mut failed = self.failed.write();
        if failed.contains_key(&node) {
            return Ok(false);
        }
        failed.insert(node, FailureRecord { auto, group_epoch });
        drop(failed);
        // Durable backend: a failure is a true process kill — the node's
        // RAM and store handle die; only its disk survives. The ledger
        // keeps what the node held: a dark node's blocks stay expected,
        // so lost data never reads as full coverage.
        self.slot(node).kill();
        self.assert_ledger("mark_failed");
        Ok(true)
    }

    /// Durable-backend half of a node recovery: the node restarts from
    /// its disk ([`NodeSlot::replay`]) and holds exactly what the disk
    /// does — its ledger entry is struck and rewritten from the replayed
    /// blocks, which are indexed without being persisted again. Times
    /// the whole thing into `mendel.store.recovery.seconds`. No-op in
    /// memory mode.
    fn restore_node_from_disk(&self, node: NodeId, g: GroupId) -> Result<(), MendelError> {
        let clock = self.obs.clock();
        let started = clock.now();
        let slot = self.slot(node);
        let Some(blocks) = slot.replay()? else {
            return Ok(());
        };
        self.ledger.write().clear(g, node);
        self.admit(g, &slot, blocks);
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
        let Some(rec) = self.failed.read().get(&node).copied() else {
            return Ok(());
        };
        // Durable backend: the process is restarting from disk — replay
        // the WAL and rebuild the vp-tree before the node serves
        // anything, and leave the failed set only once that worked.
        self.restore_node_from_disk(node, g)?;
        self.failed.write().remove(&node);
        let current = self.group_epochs.read()[g.0 as usize];
        if rec.group_epoch != current {
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

    /// Fold a [`HeartbeatMonitor`]'s view into the failed set, closing
    /// the detect→route-around loop. Convention: heartbeat address
    /// `NodeAddr(i)` is storage node `NodeId(i)`; addresses outside the
    /// topology (e.g. the monitor's own endpoint) are ignored.
    ///
    /// Suspects not already failed are auto-failed; auto-failed nodes
    /// that beat again are recovered (through [`Self::recover_node`], so
    /// stale-placement recovery applies). Operator-failed nodes are
    /// never auto-recovered — suspicion is a hint, an explicit
    /// `fail_node` is a decision.
    pub fn sync_failure_detector(&self, monitor: &HeartbeatMonitor) -> FailoverDelta {
        let mut delta = FailoverDelta::default();
        for addr in monitor.suspects() {
            let node = NodeId(addr.0);
            if let Ok(true) = self.mark_failed(node, true) {
                delta.suspected.push(node);
            }
        }
        for addr in monitor.alive() {
            let node = NodeId(addr.0);
            let is_auto = matches!(self.failed.read().get(&node), Some(r) if r.auto);
            if is_auto && self.recover_node(node).is_ok() {
                delta.recovered.push(node);
            }
        }
        delta
    }

    /// Re-replicate under-replicated blocks onto live group members,
    /// restoring the configured replication factor where enough live
    /// nodes exist. Copy targets follow the same deterministic ring walk
    /// as [`FlatPlacement::replicas`], so repeated repairs are
    /// idempotent. Blocks whose every replica is down are reported as
    /// `unreachable` — they reappear when a holder recovers.
    pub fn repair(&self) -> RepairReport {
        let topo = self.topology.read().clone();
        let mut report = RepairReport::default();
        // Nodes whose durable store broke while persisting a repair copy;
        // marked failed after all guards drop.
        let mut broken: Vec<NodeId> = Vec::new();
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
            let mut adds: BTreeMap<NodeId, Vec<Block>> = BTreeMap::new();
            let mut cache: HashMap<NodeId, BTreeMap<BlockKey, Block>> = HashMap::new();
            let mut group_added = 0u64;
            for (key, hs) in &short {
                let src = hs[0];
                let src_blocks = cache.entry(src).or_insert_with(|| {
                    nodes[src.0 as usize]
                        .read()
                        .blocks()
                        .into_iter()
                        .map(|b| (b.key(), b))
                        .collect()
                });
                let Some(block) = src_blocks.get(key) else {
                    continue;
                };
                let start = (sha1_u64(&key.as_bytes()) % live.len() as u64) as usize;
                let mut have = hs.len();
                for i in 0..live.len() {
                    if have >= want {
                        break;
                    }
                    let target = live[(start + i) % live.len()];
                    if hs.contains(&target) {
                        continue;
                    }
                    adds.entry(target).or_default().push(block.clone());
                    have += 1;
                    group_added += 1;
                }
            }
            if group_added > 0 {
                report.groups_repaired += 1;
            }
            report.copies_added += group_added;
            for (node, batch) in adds {
                let copies = batch.len() as u64;
                if self.place(&topo, &nodes, node, batch).is_err() {
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
            let _ = self.mark_failed(node, true);
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
    /// held) the product does not keep.
    #[cfg(any(test, feature = "strict-invariants"))]
    pub fn check_ledger_for(&self, downs: &[Vec<NodeId>]) -> Result<(), String> {
        self.ledger.read().check_invariants()?;
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
        if let Err(e) = self.check_ledger() {
            // audit:allow(panic): strict-invariants mode aborts on accounting corruption by design.
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
        let idx = topo.id_space();
        let (id, g) = topo.join(NodeSpeed::paper_mix(idx));
        let slot = Self::new_slot(&self.config, &self.db, &self.obs, &self.storage, idx);
        let opened = slot.open();
        self.nodes.write().push(slot);
        let topo_snapshot = topo.clone();
        drop(topo);
        match opened {
            Ok(()) => self.rebalance_group(&topo_snapshot, g),
            Err(_) => {
                let _ = self.mark_failed(id, true);
                self.group_epochs.write()[g.0 as usize] += 1;
            }
        }
        self.assert_ledger("add_node");
        id
    }

    /// Re-place every block of group `g` under the current membership.
    pub(super) fn rebalance_group(&self, topo: &Topology, g: GroupId) {
        let members = self.live_members(topo, g);
        // Collect each member's blocks and empty it, RAM and disk. A
        // member whose disk refuses goes dark holding what it held and
        // is failed before anything is re-placed, so the blocks it alone
        // held stay expected.
        let mut unique: BTreeMap<BlockKey, Block> = BTreeMap::new();
        let mut broken: Vec<NodeId> = Vec::new();
        {
            let nodes = self.nodes.read();
            for &m in &members {
                let slot = &nodes[m.0 as usize];
                for b in slot.read().blocks() {
                    unique.insert(b.key(), b);
                }
                match slot.wipe() {
                    Ok(()) => self.ledger.write().clear(g, m),
                    Err(_) => broken.push(m),
                }
            }
        }
        for node in broken {
            let _ = self.mark_failed(node, true);
        }
        let refused = self.route_and_place(topo, unique.into_values().map(|b| (g, b)));
        // Any node that was down during this re-placement now holds a
        // stale layout; the epoch bump makes recover_node detect that.
        self.group_epochs.write()[g.0 as usize] += 1;
        // Members whose disks refused their new batch hold partial
        // state: fail them (every guard above is gone) so queries route
        // around until an operator recover replays what *is* durable.
        for (node, _) in refused {
            let _ = self.mark_failed(node, true);
        }
        self.assert_ledger("rebalance_group");
    }
}
