//! k-nearest-neighbour bookkeeping: result records and the bounded
//! max-heap that maintains the shrinking search radius τ (§III-C).

use mendel_seq::Metric;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One nearest-neighbour result: the point's index in its tree plus its
/// distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the point in the owning tree's point arena.
    pub index: u32,
    /// Distance from the query to the point.
    pub dist: f32,
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by distance; ties broken by index for determinism.
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.index.cmp(&other.index))
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded max-heap of the best `k` neighbours seen so far. The heap's
/// worst element defines τ: once full, only strictly closer points enter.
#[derive(Debug)]
pub struct KnnHeap {
    k: usize,
    heap: BinaryHeap<Neighbor>,
}

impl KnnHeap {
    /// A heap retaining the best `k` neighbours (`k ≥ 1`).
    pub fn new(k: usize) -> Self {
        /// `k` can come off the wire: preallocate for ordinary values and
        /// let an absurd one grow only as far as real candidates take it.
        const PREALLOC: usize = 1024;
        assert!(k >= 1, "k must be at least 1");
        KnnHeap {
            k,
            heap: BinaryHeap::with_capacity(k.min(PREALLOC) + 1),
        }
    }

    /// Current search radius τ: the distance of the worst retained
    /// neighbour, or `f32::INFINITY` while the heap is not yet full
    /// (the paper: "Initially τ encompasses all points in the tree").
    #[inline]
    pub fn tau(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::INFINITY
        } else {
            self.heap.peek().map_or(f32::INFINITY, |n| n.dist)
        }
    }

    /// Offer a candidate; it is retained iff it improves the result set.
    pub fn offer(&mut self, index: u32, dist: f32) {
        if dist < self.tau() {
            self.heap.push(Neighbor { index, dist });
            if self.heap.len() > self.k {
                self.heap.pop();
            }
        }
    }

    /// Number of neighbours currently retained.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no neighbour has been retained yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drain into a vector sorted by ascending distance.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort();
        v
    }
}

/// Brute-force k-NN over a point slice — the oracle the vp-tree is
/// property-tested against, and the fallback for tiny collections.
pub fn brute_force_knn<P, M: Metric<P>>(
    points: &[P],
    metric: &M,
    query: &P,
    k: usize,
) -> Vec<Neighbor> {
    let mut heap = KnnHeap::new(k);
    for (i, p) in points.iter().enumerate() {
        heap.offer(i as u32, metric.dist(query, p));
    }
    heap.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mendel_seq::Hamming;

    #[test]
    fn tau_is_infinite_until_full() {
        let mut h = KnnHeap::new(2);
        assert_eq!(h.tau(), f32::INFINITY);
        h.offer(0, 5.0);
        assert_eq!(h.tau(), f32::INFINITY);
        h.offer(1, 3.0);
        assert_eq!(h.tau(), 5.0);
    }

    #[test]
    fn tau_shrinks_as_better_candidates_arrive() {
        let mut h = KnnHeap::new(2);
        h.offer(0, 5.0);
        h.offer(1, 3.0);
        h.offer(2, 1.0);
        assert_eq!(h.tau(), 3.0);
        let out = h.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(
            out[0],
            Neighbor {
                index: 2,
                dist: 1.0
            }
        );
        assert_eq!(
            out[1],
            Neighbor {
                index: 1,
                dist: 3.0
            }
        );
    }

    #[test]
    fn worse_candidates_are_rejected_when_full() {
        let mut h = KnnHeap::new(1);
        h.offer(0, 1.0);
        h.offer(1, 2.0);
        assert_eq!(
            h.into_sorted(),
            vec![Neighbor {
                index: 0,
                dist: 1.0
            }]
        );
    }

    #[test]
    fn equal_distance_does_not_replace_when_full() {
        let mut h = KnnHeap::new(1);
        h.offer(0, 1.0);
        h.offer(1, 1.0);
        let out = h.into_sorted();
        assert_eq!(out[0].index, 0, "first-seen wins on exact ties");
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_is_rejected() {
        KnnHeap::new(0);
    }

    #[test]
    fn brute_force_oracle() {
        let points: Vec<Vec<u8>> = vec![vec![0, 0, 0], vec![0, 0, 1], vec![1, 1, 1], vec![2, 2, 2]];
        let metric = mendel_seq::BlockDistance::new(Hamming);
        let out = brute_force_knn(&points, &metric, &vec![0u8, 0, 0], 2);
        assert_eq!(
            out[0],
            Neighbor {
                index: 0,
                dist: 0.0
            }
        );
        assert_eq!(
            out[1],
            Neighbor {
                index: 1,
                dist: 1.0
            }
        );
    }

    #[test]
    fn brute_force_with_fewer_points_than_k() {
        let points: Vec<Vec<u8>> = vec![vec![0u8]];
        let metric = mendel_seq::BlockDistance::new(Hamming);
        let out = brute_force_knn(&points, &metric, &vec![1u8], 5);
        assert_eq!(out.len(), 1);
    }
}
