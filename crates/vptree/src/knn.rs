//! k-nearest-neighbour bookkeeping: result records and the bounded
//! max-heap that maintains the shrinking search radius τ (§III-C).

use mendel_seq::Metric;
use std::collections::BinaryHeap;

/// One nearest-neighbour result: the point's insertion id in its tree
/// plus its distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Insertion id of the point: `i` for the `i`-th window its tree was
    /// given, by `VpTree::build` or an insert, whatever rebuilds ran since.
    pub index: u32,
    /// Distance from the query to the point.
    pub dist: f32,
}

/// A bounded max-heap of the best `k` neighbours seen so far. The heap's
/// worst element defines τ: once full, only points before it in
/// `(distance, index)` order enter.
///
/// A neighbour is held as one `u64` whose unsigned order is that order —
/// the distance's bits mapped to `f32::total_cmp` order above the index —
/// so every sift step is one integer compare, and τ is kept beside the
/// heap instead of being read out of it.
#[derive(Debug)]
pub struct KnnHeap {
    k: usize,
    heap: BinaryHeap<u64>,
    tau: f32,
}

/// `(dist, index)` as one key whose unsigned order is `Neighbor`'s.
#[inline]
fn key(dist: f32, index: u32) -> u64 {
    let bits = dist.to_bits();
    // Negative floats reverse their magnitude order; the sign bit then
    // puts every negative below every positive, as `total_cmp` does.
    let ordered = if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    };
    u64::from(ordered) << 32 | u64::from(index)
}

/// The neighbour a [`key`] holds.
#[inline]
fn neighbor(key: u64) -> Neighbor {
    let ordered = (key >> 32) as u32;
    let bits = if ordered >> 31 == 1 {
        ordered & !(1 << 31)
    } else {
        !ordered
    };
    Neighbor {
        index: key as u32,
        dist: f32::from_bits(bits),
    }
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
            tau: f32::INFINITY,
        }
    }

    /// Current search radius τ: the distance of the worst retained
    /// neighbour, or `f32::INFINITY` while the heap is not yet full
    /// (the paper: "Initially τ encompasses all points in the tree").
    #[inline]
    pub fn tau(&self) -> f32 {
        self.tau
    }

    /// Offer a candidate; it is retained iff it improves the result set
    /// in `(distance, index)` order, so a tie at τ goes to the lower index
    /// in any arrival order and every exact traversal keeps the same set.
    pub fn offer(&mut self, index: u32, dist: f32) {
        let cand = key(dist, index);
        if self.heap.len() < self.k {
            self.heap.push(cand);
        } else if let Some(mut worst) = self.heap.peek_mut().filter(|w| cand < **w) {
            *worst = cand;
        } else {
            return;
        }
        if self.heap.len() == self.k {
            self.tau = self
                .heap
                .peek()
                .map_or(f32::INFINITY, |&w| neighbor(w).dist);
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
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(neighbor)
            .collect()
    }
}

/// Brute-force k-NN over a window slice — the oracle the vp-tree is
/// property-tested against, and the fallback for tiny collections.
pub fn brute_force_knn<P: AsRef<[u8]>, M: Metric<[u8]>>(
    points: &[P],
    metric: &M,
    query: &[u8],
    k: usize,
) -> Vec<Neighbor> {
    let mut heap = KnnHeap::new(k);
    for (i, p) in points.iter().enumerate() {
        heap.offer(i as u32, metric.dist(query, p.as_ref()));
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
    fn exact_ties_go_to_the_lower_index_in_any_arrival_order() {
        for order in [[0u32, 1], [1, 0]] {
            let mut h = KnnHeap::new(1);
            for i in order {
                h.offer(i, 1.0);
            }
            let out = h.into_sorted();
            assert_eq!(out[0].index, 0, "arrival order {order:?}");
        }
    }

    /// The packed key orders neighbours by `total_cmp` on the distance,
    /// then the index, and gives back the same bits.
    #[test]
    fn packed_keys_keep_neighbour_order_and_bits() {
        let dists = [
            f32::NEG_INFINITY,
            -3.5,
            -0.0,
            0.0,
            0.5,
            64.5,
            f32::INFINITY,
            f32::NAN,
        ];
        let all: Vec<Neighbor> = dists
            .iter()
            .flat_map(|&dist| [0u32, 7, u32::MAX].map(|index| Neighbor { index, dist }))
            .collect();
        for a in &all {
            let back = neighbor(key(a.dist, a.index));
            assert_eq!(
                (back.index, back.dist.to_bits()),
                (a.index, a.dist.to_bits())
            );
            for b in &all {
                let want = a.dist.total_cmp(&b.dist).then(a.index.cmp(&b.index));
                assert_eq!(key(a.dist, a.index).cmp(&key(b.dist, b.index)), want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_is_rejected() {
        KnnHeap::new(0);
    }

    #[test]
    fn brute_force_oracle() {
        let points: Vec<Vec<u8>> = vec![vec![0, 0, 0], vec![0, 0, 1], vec![1, 1, 1], vec![2, 2, 2]];
        let out = brute_force_knn(&points, &Hamming, &[0u8, 0, 0], 2);
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
        let out = brute_force_knn(&points, &Hamming, &[1u8], 5);
        assert_eq!(out.len(), 1);
    }
}
