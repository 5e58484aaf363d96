//! Property tests for the DHT substrate: SHA-1 differential behaviour,
//! placement totality, topology invariants under joins.

use mendel_dht::placement::FlatPlacement;
use mendel_dht::sha1::{sha1, sha1_u64, Sha1};
use mendel_dht::topology::{GroupId, NodeId, Topology};
use mendel_net::NodeSpeed;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Streaming in arbitrary chunkings matches the one-shot digest.
    #[test]
    fn sha1_streaming_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..300),
        splits in proptest::collection::vec(any::<u16>(), 0..8),
    ) {
        let want = sha1(&data);
        let mut s = Sha1::new();
        let mut rest: &[u8] = &data;
        for split in splits {
            if rest.is_empty() {
                break;
            }
            let cut = (split as usize) % rest.len().max(1);
            let (head, tail) = rest.split_at(cut.min(rest.len()));
            s.update(head);
            rest = tail;
        }
        s.update(rest);
        prop_assert_eq!(s.finalize(), want);
    }

    /// Feeding the input as arbitrary-sized chunks — including empty
    /// updates and cuts inside the 64-byte compression block — matches
    /// the one-shot digest, and `sha1_u64` agrees with the digest head.
    #[test]
    fn sha1_chunked_by_sizes_equals_oneshot(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..100), 0..10),
    ) {
        let data: Vec<u8> = chunks.iter().flatten().copied().collect();
        let mut s = Sha1::new();
        for c in &chunks {
            s.update(c);
        }
        let streamed = s.finalize();
        prop_assert_eq!(streamed, sha1(&data));
        let head = u64::from_be_bytes(streamed[..8].try_into().unwrap());
        prop_assert_eq!(sha1_u64(&data), head);
    }

    /// Different inputs essentially never collide (sanity differential).
    #[test]
    fn sha1_differential(a in proptest::collection::vec(any::<u8>(), 0..64),
                         b in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(sha1(&a) == sha1(&b), a == b);
    }

    /// Topology construction covers every node exactly once, for any
    /// viable geometry.
    #[test]
    fn topology_partitions_nodes(nodes in 1usize..200, g in 1usize..20) {
        let groups = g.min(nodes);
        let topo = Topology::new(nodes, groups);
        let mut seen = vec![false; nodes];
        for gid in topo.group_ids() {
            for n in topo.group_members(gid) {
                prop_assert!(!seen[n.0 as usize], "node in two groups");
                seen[n.0 as usize] = true;
                prop_assert_eq!(topo.node_group(*n), Some(gid));
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    /// Join churn preserves invariants: ids are handed out in order,
    /// group membership and speeds stay consistent.
    #[test]
    fn topology_churn_invariants(joins in 1usize..40) {
        let mut topo = Topology::new(6, 2);
        for next_id in 6..6 + joins as u16 {
            let (id, g) = topo.join(NodeSpeed::HP_DL160);
            prop_assert_eq!(id, NodeId(next_id));
            prop_assert!(topo.group_members(g).contains(&id));
            prop_assert_eq!(topo.check_invariants(), Ok(()));
        }
        // Every node has a speed and a group.
        let all: Vec<NodeId> = topo.nodes().collect();
        prop_assert_eq!(all.len(), topo.num_nodes());
        for n in all {
            prop_assert!(topo.node_speed(n).is_some());
            prop_assert!(topo.node_group(n).is_some());
        }
    }

    /// Placement with any replication factor yields the clamped replica
    /// count, primary first.
    #[test]
    fn placement_stability(
        key in proptest::collection::vec(any::<u8>(), 1..32),
        replication in 1usize..4,
    ) {
        let topo = Topology::new(12, 3);
        let p = FlatPlacement::with_replication(replication);
        for g in 0..3u16 {
            let reps = p.replicas(&topo, GroupId(g), &key);
            prop_assert_eq!(reps.len(), replication.min(topo.group_members(GroupId(g)).len()));
            prop_assert_eq!(reps[0], p.primary(&topo, GroupId(g), &key).unwrap());
        }
    }
}
