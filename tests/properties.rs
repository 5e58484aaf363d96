//! Cross-crate property tests (proptest): invariants that must hold for
//! arbitrary inputs, spanning the block pipeline, the DHT placement, and
//! the query engine.

use mendel_suite::core::{
    check_block_chain, make_blocks, ClusterConfig, MendelCluster, MendelError, QueryParams,
    StorageBackend,
};
use mendel_suite::dht::{FlatPlacement, GroupId, NodeId, Topology};
use mendel_suite::obs::MonotonicClock;
use mendel_suite::seq::gen::NrLikeSpec;
use mendel_suite::seq::matrix::ScoringMatrix;
use mendel_suite::seq::{Alphabet, MatrixDistance, Metric, SeqId, Sequence, Unbounded};
use mendel_suite::store::{MemVfs, StoreOptions, Vfs};
use mendel_suite::vptree::{brute_force_knn, VpTree};
use proptest::prelude::*;
use std::sync::Arc;

/// Crash points `ledger_coverage_holds_through_churn`'s scale-out is
/// cut at: about the VFS operations an unreplicated one takes on its
/// corpus, so most cuts land inside it.
const CRASH_POINTS: u16 = 1024;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocks of any sequence reassemble the sequence exactly.
    #[test]
    fn blocks_reassemble_any_sequence(
        residues in proptest::collection::vec(0u8..20, 16..200),
        block_len in 4usize..16,
    ) {
        let mut s = Sequence::from_codes("p", Alphabet::Protein, residues.clone());
        s.id = SeqId(1);
        let blocks = make_blocks(&s, block_len);
        prop_assert_eq!(check_block_chain(&blocks, s.len()), Ok(()));
        prop_assert_eq!(blocks.len(), residues.len() - block_len + 1);
        let mut rebuilt = blocks[0].window.to_vec();
        for b in &blocks[1..] {
            rebuilt.push(*b.window.last().unwrap());
        }
        prop_assert_eq!(rebuilt, residues);
        // Neighbour references chain the blocks completely.
        for (i, b) in blocks.iter().enumerate() {
            prop_assert_eq!(b.prev_key().is_some(), i > 0);
            prop_assert_eq!(b.next_key(s.len()).is_some(), i + 1 < blocks.len());
        }
    }

    /// The bounded-kernel contract (DESIGN.md §10): `dist_bounded` agrees
    /// with `dist` bit-for-bit whenever it returns `Some`, and returns
    /// `None` only when the true distance strictly exceeds the bound.
    #[test]
    fn bounded_distance_agrees_with_full_distance(
        pairs in proptest::collection::vec((0u8..24, 0u8..24), 0..80),
        bound_scale in 0.0f32..1.5,
    ) {
        let a: Vec<u8> = pairs.iter().map(|&(x, _)| x).collect();
        let b: Vec<u8> = pairs.iter().map(|&(_, y)| y).collect();
        let m = MatrixDistance::mendel(&ScoringMatrix::blosum62());
        let full = m.dist(&a[..], &b[..]);
        let bound = full * bound_scale;
        match m.dist_bounded(&a[..], &b[..], bound) {
            Some(d) => {
                prop_assert_eq!(d.to_bits(), full.to_bits(), "Some must be bit-identical");
                prop_assert!(d <= bound);
            }
            None => prop_assert!(full > bound, "None only past the bound"),
        }
        // Unit-distance (Hamming) kernel under the same contract.
        let u = MatrixDistance::unit(Alphabet::Protein);
        let ufull = u.dist(&a[..], &b[..]);
        match u.dist_bounded(&a[..], &b[..], bound) {
            Some(d) => prop_assert_eq!(d.to_bits(), ufull.to_bits()),
            None => prop_assert!(ufull > bound),
        }
    }

    /// vp-tree k-NN with early-abandoning kernels equals the brute-force
    /// oracle (and the full-kernel `Unbounded` baseline bit-for-bit) for
    /// arbitrary point sets. Under `strict-invariants` the builds also
    /// assert structural invariants internally.
    #[test]
    fn early_abandoning_knn_matches_brute_force(
        windows in proptest::collection::vec(
            proptest::collection::vec(0u8..24, 12), 1..120),
        query in proptest::collection::vec(0u8..24, 12),
        k in 1usize..8,
        bucket in 1usize..12,
        seed in 0u64..4,
    ) {
        let m = MatrixDistance::mendel(&ScoringMatrix::blosum62());
        let bounded = VpTree::build(
            windows.clone(), m.clone(), bucket, seed);
        let baseline = VpTree::build(
            windows.clone(), Unbounded(m.clone()), bucket, seed);
        let got = bounded.knn(&query, k);
        let oracle = brute_force_knn(&windows, &m, &query, k);
        prop_assert_eq!(got.len(), oracle.len());
        for (g, w) in got.iter().zip(&oracle) {
            prop_assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "oracle distance");
        }
        let base = baseline.knn(&query, k);
        for (g, w) in got.iter().zip(&base) {
            prop_assert_eq!(g.index, w.index, "baseline index");
            prop_assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "baseline distance");
        }
    }

    /// Flat placement always lands inside the requested group and is
    /// deterministic, for any key and any viable topology.
    #[test]
    fn placement_is_total_and_deterministic(
        key in proptest::collection::vec(any::<u8>(), 0..64),
        nodes in 1usize..64,
        replication in 1usize..5,
    ) {
        let groups = (nodes / 4).max(1);
        let topo = Topology::new(nodes, groups);
        let placement = FlatPlacement::with_replication(replication);
        for g in 0..groups as u16 {
            let reps = placement.replicas(&topo, GroupId(g), &key);
            prop_assert!(!reps.is_empty());
            prop_assert_eq!(reps.clone(), placement.replicas(&topo, GroupId(g), &key));
            let members = topo.group_members(GroupId(g));
            for r in &reps {
                prop_assert!(members.contains(r));
            }
            let mut dedup = reps.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), reps.len(), "replicas must be distinct");
        }
    }
}

proptest! {
    // Cluster-level properties are expensive; keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Query results are deterministic and ranked by ascending E-value
    /// for arbitrary (valid) Table I parameter settings.
    #[test]
    fn queries_are_deterministic_and_ranked(
        n in 2usize..12,
        k in 4usize..16,
        i in 0.2f32..0.8,
        seed in 0u64..4,
    ) {
        let db = Arc::new(NrLikeSpec {
            families: 8,
            members_per_family: 2,
            length_range: (120, 220),
            seed: 0x77 + seed,
            ..Default::default()
        }.generate().unwrap());
        let cluster = MendelCluster::build(ClusterConfig::small_protein(), db.clone()).unwrap();
        let params = QueryParams { n, k, i, ..QueryParams::protein() };
        let q = db.get(SeqId(3)).unwrap().residues.clone();
        let a = cluster.query(&q, &params).unwrap();
        let b = cluster.query(&q, &params).unwrap();
        prop_assert_eq!(&a.hits, &b.hits);
        for w in a.hits.windows(2) {
            prop_assert!(w[0].evalue <= w[1].evalue, "hits must be sorted by E-value");
        }
        for h in &a.hits {
            prop_assert!(h.evalue <= params.e);
            prop_assert!(h.query_end <= q.len());
            let subject = db.get(h.subject).unwrap();
            prop_assert!(h.subject_end <= subject.len());
        }
    }

    /// Coverage read from the placement ledger stays what a sweep over
    /// every node's blocks would report, through any sequence of
    /// failures, recoveries, repairs, scale-outs (the durable ones
    /// crashed part way too), ingests and flushes — on both backends, unreplicated and replicated, and for any set of
    /// extra unreachable nodes. The exact ledger == sweep comparison
    /// needs the checker's oracle and so runs under `strict-invariants`
    /// (where every mutation site asserts it as well); the relations
    /// between reports hold in every build.
    ///
    /// And the node lifecycle loses nothing: once everyone is back, the
    /// cluster holds and answers what a twin that never saw a failure
    /// does — where that twin is defined. It is not after a scale-out
    /// (another membership), after a repair around a dead holder (the
    /// holder returns and its blocks are held once too often), or after
    /// an ingest with a node down (the down node's copies land on other
    /// members, whose trees then hold other blocks than the twin's, so
    /// budgeted searches can answer differently; and a group with every
    /// member down takes none of its blocks, which the ingest reports by
    /// naming the group). `calm` runs keep it defined — no scale-out,
    /// everyone recovered ahead of a repair or an ingest — so half the
    /// cases reach the comparison.
    #[test]
    fn ledger_coverage_holds_through_churn(
        ops in proptest::collection::vec((0u8..9, any::<u16>()), 6..12),
        calm in any::<bool>(),
        seed in 0u64..4,
    ) {
        let db = Arc::new(NrLikeSpec {
            families: 6,
            members_per_family: 2,
            length_range: (100, 160),
            seed: 0x1ED + seed,
            ..Default::default()
        }.generate().unwrap());
        let q = db.get(SeqId(2)).unwrap().residues.clone();
        let params = QueryParams::protein();
        let durable = StorageBackend::Durable(StoreOptions::default());
        for (storage, replication) in
            [(StorageBackend::Memory, 1), (StorageBackend::Memory, 2), (durable, 1), (durable, 2)]
        {
            let config = ClusterConfig { storage, replication, ..ClusterConfig::small_protein() };
            // The durable cases' disk, which op 8 crashes.
            let vfs = matches!(storage, StorageBackend::Durable(_))
                .then(|| MemVfs::plain(config.seed));
            let cluster = MendelCluster::build_with_storage(
                config.clone(),
                db.clone(),
                Arc::new(MonotonicClock::new()),
                vfs.clone().map(|v| Arc::new(v) as Arc<dyn Vfs>),
            ).unwrap();
            let mut ingested: Vec<Vec<Sequence>> = Vec::new();
            let mut twin_defined = true;
            for &(op, pick) in &ops {
                let topo = cluster.topology();
                let nodes: Vec<NodeId> = topo.nodes().collect();
                let node = nodes[pick as usize % nodes.len()];
                let may_fail = cluster.failed_nodes().len() + 1 < nodes.len();
                let op = if calm { [0, 1, 2, 1, 4, 0, 7, 4, 7][op as usize] } else { op };
                if calm && matches!(op, 2 | 4) {
                    for down in cluster.failed_nodes() {
                        cluster.recover_node(down).unwrap();
                    }
                }
                match op {
                    0 if may_fail => {
                        let before = cluster.coverage().blocks_expected;
                        cluster.fail_node(node).unwrap();
                        // A failed node's blocks stay placed, RAM or not.
                        prop_assert_eq!(cluster.coverage().blocks_expected, before);
                    }
                    1 => cluster.recover_node(node).unwrap(),
                    2 => {
                        twin_defined &= cluster.failed_nodes().is_empty();
                        cluster.repair();
                    }
                    3 if nodes.len() < 9 => {
                        twin_defined = false;
                        cluster.add_node();
                    }
                    4 => {
                        let extra = NrLikeSpec {
                            families: 1,
                            members_per_family: 1,
                            length_range: (40, 60),
                            seed: pick as u64,
                            ..Default::default()
                        }.generate().unwrap();
                        let extra: Vec<Sequence> = extra.iter().cloned().collect();
                        let failed = cluster.failed_nodes();
                        twin_defined &= failed.is_empty();
                        let before = cluster.coverage().blocks_expected;
                        let new_blocks: usize =
                            extra.iter().map(|s| s.len() - config.block_len + 1).sum();
                        match cluster.insert_sequences(extra.clone()) {
                            // Every block found a live replica.
                            Ok(_) => prop_assert_eq!(
                                cluster.coverage().blocks_expected,
                                before + new_blocks
                            ),
                            Err(MendelError::GroupDown(g)) => prop_assert!(
                                topo.group_members(g).iter().all(|m| failed.contains(m)),
                                "{:?} refused with a member up", g
                            ),
                            Err(e) => prop_assert!(false, "ingest failed: {}", e),
                        }
                        ingested.push(extra);
                    }
                    // A member goes dark, its group rebalances onto a
                    // joiner without it, and it comes back holding a
                    // stale layout.
                    5 if may_fail && nodes.len() < 9 => {
                        twin_defined = false;
                        let joins = topo.group_ids()
                            .min_by_key(|&g| topo.group_members(g).len())
                            .unwrap();
                        let members = topo.group_members(joins);
                        let dark = members[pick as usize % members.len()];
                        cluster.fail_node(dark).unwrap();
                        let joiner = cluster.add_node();
                        prop_assert_eq!(cluster.topology().node_group(joiner), Some(joins));
                        cluster.recover_node(dark).unwrap();
                    }
                    // Repair with a holder dead, which then returns to
                    // find its blocks copied elsewhere.
                    6 if may_fail => {
                        twin_defined = false;
                        cluster.fail_node(node).unwrap();
                        cluster.repair();
                        cluster.recover_node(node).unwrap();
                    }
                    7 => cluster.flush_storage().unwrap(),
                    // The disk dies some operations into a scale-out —
                    // in the joiner's open, inside the re-placement or
                    // past its end — and comes back: no block stops being
                    // expected, and every failed node recovers.
                    8 if nodes.len() < 9 => {
                        twin_defined = false;
                        let before = cluster.coverage().blocks_expected;
                        if let Some(vfs) = &vfs {
                            vfs.set_crash_after(vfs.ops() + u64::from(pick % CRASH_POINTS));
                        }
                        cluster.add_node();
                        if let Some(vfs) = &vfs {
                            vfs.recover();
                        }
                        prop_assert_eq!(cluster.coverage().blocks_expected, before);
                        for down in cluster.failed_nodes() {
                            cluster.recover_node(down).unwrap();
                        }
                    }
                    _ => {}
                }

                let nodes: Vec<NodeId> = cluster.topology().nodes().collect();
                let failed = cluster.failed_nodes();
                let down: Vec<NodeId> = nodes
                    .iter()
                    .copied()
                    .filter(|n| (pick >> (n.0 % 16)) & 1 == 1)
                    .collect();
                #[cfg(feature = "strict-invariants")]
                prop_assert_eq!(
                    cluster.check_ledger_for(&[down.clone(), nodes.clone(), failed.clone()]),
                    Ok(())
                );
                let now = cluster.coverage();
                prop_assert_eq!(&cluster.query(&q, &params).unwrap().coverage, &now);
                prop_assert_eq!(now.degraded, now.blocks_reachable < now.blocks_expected);
                prop_assert!(!now.degraded || !failed.is_empty(), "degraded with every node up");
                prop_assert_eq!(&cluster.coverage_with_down(&failed), &now);
                prop_assert_eq!(cluster.coverage_with_down(&nodes).blocks_reachable, 0);
                let with_down = cluster.coverage_with_down(&down);
                prop_assert_eq!(with_down.blocks_expected, now.blocks_expected);
                prop_assert!(with_down.blocks_reachable <= now.blocks_reachable);
                for g in &with_down.per_group {
                    let live = cluster.topology().group_members(g.group).iter()
                        .filter(|m| !failed.contains(m) && !down.contains(m))
                        .count();
                    prop_assert_eq!(g.live_members, live);
                    prop_assert!(g.reachable <= g.expected);
                }
            }

            for node in cluster.failed_nodes() {
                cluster.recover_node(node).unwrap();
            }
            #[cfg(feature = "strict-invariants")]
            prop_assert_eq!(cluster.check_ledger(), Ok(()));
            prop_assert!(!cluster.coverage().degraded);
            if twin_defined {
                let twin = MendelCluster::build(config, db.clone()).unwrap();
                for seqs in ingested {
                    twin.insert_sequences(seqs).unwrap();
                }
                prop_assert_eq!(cluster.total_blocks(), twin.total_blocks());
                prop_assert_eq!(cluster.coverage(), twin.coverage());
                prop_assert_eq!(
                    cluster.query(&q, &params).unwrap().hits,
                    twin.query(&q, &params).unwrap().hits
                );
            }
        }
    }
}
