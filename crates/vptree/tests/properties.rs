//! Property tests for the vp-tree: the k-NN oracle equivalence is the
//! load-bearing invariant of the whole Mendel search path.

use mendel_seq::{Hamming, Metric};
use mendel_vptree::{brute_force_knn, VpPrefixTree, VpTree};
use proptest::prelude::*;

fn points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(0u8..8, 6..7), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exact k-NN equals brute force for arbitrary point sets — including
    /// duplicates and tiny sets.
    #[test]
    fn knn_equals_brute_force(
        pts in points(1..120),
        query in proptest::collection::vec(0u8..8, 6..7),
        k in 1usize..8,
        bucket in 1usize..12,
    ) {
        let tree = VpTree::build(pts.clone(), Hamming, bucket, 11);
        prop_assert_eq!(tree.check_invariants(), Ok(()));
        let got: Vec<f32> = tree.knn(&query, k).iter().map(|n| n.dist).collect();
        let want: Vec<f32> = brute_force_knn(&pts, &Hamming, &query, k).iter().map(|n| n.dist).collect();
        prop_assert_eq!(got, want);
    }

    /// Range search returns exactly the points within the radius.
    #[test]
    fn range_equals_filter(
        pts in points(1..100),
        query in proptest::collection::vec(0u8..8, 6..7),
        radius in 0.0f32..7.0,
        bucket in 1usize..10,
    ) {
        let tree = VpTree::build(pts.clone(), Hamming, bucket, 13);
        let mut got: Vec<u32> = tree.range(&query, radius).iter().map(|n| n.index).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| Hamming.dist(&query[..], &p[..]) <= radius)
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// A dynamically-built tree answers identically to a bulk-built one.
    #[test]
    fn dynamic_equals_bulk(
        pts in points(1..80),
        query in proptest::collection::vec(0u8..8, 6..7),
        k in 1usize..5,
    ) {
        let bulk = VpTree::build(pts.clone(), Hamming, 4, 17);
        let mut dynamic = VpTree::new(Hamming, 4, 17);
        for p in pts {
            dynamic.insert(p);
        }
        prop_assert_eq!(dynamic.check_invariants(), Ok(()));
        let a: Vec<f32> = bulk.knn(&query, k).iter().map(|n| n.dist).collect();
        let b: Vec<f32> = dynamic.knn(&query, k).iter().map(|n| n.dist).collect();
        prop_assert_eq!(a, b);
    }

    /// Budgeted search distances never beat the exact ones and the full
    /// budget reproduces them.
    #[test]
    fn budget_monotonicity(
        pts in points(4..120),
        query in proptest::collection::vec(0u8..8, 6..7),
        budget in 1usize..64,
    ) {
        let tree = VpTree::build(pts, Hamming, 4, 19);
        let exact: Vec<f32> = tree.knn(&query, 3).iter().map(|n| n.dist).collect();
        let full: Vec<f32> =
            tree.knn_with_budget(&query, 3, usize::MAX).iter().map(|n| n.dist).collect();
        prop_assert_eq!(&exact, &full);
        let capped = tree.knn_with_budget(&query, 3, budget);
        for (c, e) in capped.iter().zip(&exact) {
            prop_assert!(c.dist >= *e);
        }
    }

    /// Prefix hashing is total and stable, and tolerance only widens the
    /// reached set.
    #[test]
    fn prefix_hash_total_and_monotone(
        sample in points(8..64),
        query in proptest::collection::vec(0u8..8, 6..7),
        depth in 1usize..6,
        tau in 0.0f32..4.0,
    ) {
        let tree = VpPrefixTree::build(sample.clone(), Hamming, depth, 23);
        prop_assert_eq!(tree.check_invariants(&sample), Ok(()));
        prop_assert_eq!(tree.check_invariants(std::slice::from_ref(&query)), Ok(()));
        let h = tree.hash(&query);
        prop_assert!(tree.bucket_index(h) < tree.num_buckets());
        prop_assert_eq!(h, tree.hash(&query));
        let tight = tree.hash_with_tolerance(&query, tau);
        let wide = tree.hash_with_tolerance(&query, tau + 1.0);
        prop_assert!(tight.contains(&h));
        for t in &tight {
            prop_assert!(wide.contains(t), "tolerance must be monotone");
        }
    }

    /// Stats invariants: every element is accounted for; depth bounds.
    #[test]
    fn stats_accounting(pts in points(1..200), bucket in 1usize..16) {
        let n = pts.len();
        let tree = VpTree::build(pts, Hamming, bucket, 29);
        let s = tree.stats();
        prop_assert_eq!(s.points, n);
        // internal vantages + leaf bucket contents = all points.
        prop_assert_eq!(s.internal_nodes + (s.mean_bucket_fill * s.leaves as f64).round() as usize, n);
        prop_assert!(s.min_depth <= s.max_depth);
    }
}
