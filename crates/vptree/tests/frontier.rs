//! The recall–cost frontier of the budgeted node search: the guard the
//! end-to-end benchmark cannot give. Its `recall` asks whether a query's
//! source ranks in the top 10, which a search that finds little of its
//! exhaustive answer still passes; this asks how much of that answer a
//! budget finds, and at how many distance calls.
//!
//! The corpus has the benchmark's shape: families of six members with
//! 15 % divergence inside a family, fixed-length sequences cut into
//! 16-residue windows, and a tree holding one member's share of them
//! (every third window, as on a three-member group). Queries are corpus
//! windows with 10 % of residues substituted. *Filter-surviving recall*
//! takes each query's exhaustive top-n, keeps the neighbours that pass
//! the storage node's §V-B identity filter (`identity ≥ i`, the only
//! ones that can become anchors), and counts the share of them the
//! budgeted search returns.
//!
//! `DEPTH_FIRST_*` are the literals this file's [`frontier`] produced at
//! budget 4,096 against commit 2297ef6, whose search was a depth-first
//! descent. The served budgets must find at least as much at a quarter
//! (protein) or half (DNA) of its distance calls.

use mendel_seq::gen::{MutationModel, NrLikeSpec};
use mendel_seq::{Alphabet, Hamming, MatrixDistance, Metric, ScoringMatrix};
use mendel_vptree::VpTree;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// `QueryParams::{protein, dna}().n`.
const N: usize = 8;
/// `ClusterConfig::paper_testbed_protein()`'s block length and bucket.
const BLOCK_LEN: usize = 16;
const BUCKET: usize = 32;
/// Group members: the tree holds every `MEMBERS`-th window.
const MEMBERS: usize = 3;
/// `QueryParams::protein().search_budget` and `QueryParams::dna().search_budget`.
const PROTEIN_BUDGET: usize = 1024;
const DNA_BUDGET: usize = 2048;

/// Corpus and query-set size.
#[derive(Clone, Copy)]
struct Shape {
    families: usize,
    queries: usize,
}

/// Sized to run in a few seconds in a debug build.
const SMALL: Shape = Shape {
    families: 30,
    queries: 200,
};
/// The benchmark corpus: about 94 k protein and 124 k DNA points.
const SERVED: Shape = Shape {
    families: 60,
    queries: 400,
};

/// One point of the frontier: `found` of the `wanted` filter-surviving
/// exhaustive neighbours, at `dist_calls` distance calls in all.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Point {
    found: usize,
    wanted: usize,
    dist_calls: u64,
}

/// Depth-first at 4,096, commit 2297ef6: protein, `SMALL` then `SERVED`.
const DEPTH_FIRST_PROTEIN: [Point; 2] = [
    Point {
        found: 182,
        wanted: 491,
        dist_calls: 819_200,
    },
    Point {
        found: 277,
        wanted: 1020,
        dist_calls: 1_638_400,
    },
];
/// Depth-first at 4,096, commit 2297ef6: DNA, `SMALL` then `SERVED`.
const DEPTH_FIRST_DNA: [Point; 2] = [
    Point {
        found: 250,
        wanted: 674,
        dist_calls: 819_200,
    },
    Point {
        found: 584,
        wanted: 2167,
        dist_calls: 1_638_400,
    },
];

/// The tree's points and the queries for `alphabet` at `shape`.
fn corpus(alphabet: Alphabet, seq_len: usize, shape: Shape) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let db = NrLikeSpec {
        alphabet,
        families: shape.families,
        members_per_family: 6,
        length_range: (seq_len, seq_len),
        family_divergence: MutationModel::with_indels(0.15, 0.01),
        seed: 0x5EED,
    }
    .generate()
    .expect("valid corpus spec");
    let windows: Vec<&[u8]> = db
        .iter()
        .flat_map(|s| s.residues.windows(BLOCK_LEN))
        .collect();
    let points = windows
        .iter()
        .step_by(MEMBERS)
        .map(|w| w.to_vec())
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EEE);
    let noise = MutationModel::with_indels(0.10, 0.0);
    let queries = (0..shape.queries)
        .map(|_| {
            let w = windows[rng.random_range(0..windows.len())];
            noise.mutate(alphabet, w, &mut rng)
        })
        .collect();
    (points, queries)
}

/// The §V-B identity a storage node filters candidates on.
fn identity(a: &[u8], b: &[u8]) -> f32 {
    a.iter().zip(b).filter(|(x, y)| x == y).count() as f32 / a.len() as f32
}

/// Filter-surviving recall of `budget` on the corpus of `alphabet`.
fn frontier<M: Metric<[u8]> + Clone>(
    alphabet: Alphabet,
    seq_len: usize,
    shape: Shape,
    metric: M,
    min_identity: f32,
    budget: usize,
) -> Point {
    let (points, queries) = corpus(alphabet, seq_len, shape);
    // A one-leaf tree is the flat scan: every point, in index order,
    // through the leaf kernel — the exhaustive answer.
    let flat = VpTree::build(points.clone(), metric.clone(), points.len(), 0);
    let tree = VpTree::build(points.clone(), metric, BUCKET, 0xF0);
    let (mut found, mut wanted) = (0, 0);
    for q in &queries {
        let got = tree.knn_with_budget(q, N, budget);
        for nb in flat.knn(q, N) {
            if identity(q, &points[nb.index as usize]) >= min_identity {
                wanted += 1;
                found += usize::from(got.iter().any(|g| g.index == nb.index));
            }
        }
    }
    let dist_calls = tree.search_metrics().dist_calls.get();
    Point {
        found,
        wanted,
        dist_calls,
    }
}

/// The served budget finds at least what depth-first 4,096 found, at no
/// more than `1 / cheaper` of its distance calls.
fn holds(got: Point, parent: Point, cheaper: u64) {
    assert_eq!(got.wanted, parent.wanted, "the corpus changed: {got:?}");
    assert!(
        got.found >= parent.found,
        "recall {got:?} fell below depth-first's {parent:?}"
    );
    assert!(
        got.dist_calls * cheaper <= parent.dist_calls,
        "{got:?} is not {cheaper}× cheaper than {parent:?}"
    );
}

fn protein(shape: Shape) -> Point {
    let metric = MatrixDistance::mendel(&ScoringMatrix::blosum62());
    // `QueryParams::protein().i`.
    frontier(Alphabet::Protein, 800, shape, metric, 0.40, PROTEIN_BUDGET)
}

fn dna(shape: Shape) -> Point {
    let metric = Hamming;
    // `QueryParams::dna().i`.
    frontier(Alphabet::Dna, 1050, shape, metric, 0.70, DNA_BUDGET)
}

#[test]
fn best_first_at_the_served_budget_beats_depth_first_4096() {
    holds(protein(SMALL), DEPTH_FIRST_PROTEIN[0], 4);
    holds(dna(SMALL), DEPTH_FIRST_DNA[0], 2);
}

/// The same at served size; `ci.sh` runs it in release.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn best_first_at_the_served_budget_beats_depth_first_4096_at_served_size() {
    holds(protein(SERVED), DEPTH_FIRST_PROTEIN[1], 4);
    holds(dna(SERVED), DEPTH_FIRST_DNA[1], 2);
}

/// The identity filter's distance ceiling for `q`: a neighbour passes
/// `identity ≥ min_identity` only with at most `m` mismatching positions
/// — the largest `m` the filter's own f32 expression accepts, ⌊(1 − i)·L⌋
/// — and each mismatch at position `p` costs at most `row_max(q[p])`, so
/// no survivor is farther than the `m` largest of those costs.
fn ceiling(q: &[u8], min_identity: f32, row_max: &dyn Fn(u8) -> f32) -> f32 {
    let len = q.len();
    let mismatches = (0..=len)
        .filter(|m| identity_of(len - m, len) >= min_identity)
        .max()
        .unwrap_or(0);
    let mut costs: Vec<f32> = q.iter().map(|&r| row_max(r)).collect();
    costs.sort_by(|a, b| b.total_cmp(a));
    costs[..mismatches].iter().sum()
}

/// [`identity`] of two windows of `len` residues with `same` equal ones.
fn identity_of(same: usize, len: usize) -> f32 {
    same as f32 / len as f32
}

/// A search radius taken from the identity filter, a negative result
/// (DESIGN.md §6). The ceiling is sound — every filter survivor of the
/// exhaustive top-n lies within it — but useless as a radius: a range
/// search within it spends at least `10×` the served budget's distance
/// calls (measured at `SMALL`: 24.8× DNA, 46.0× protein). Protein's
/// ceiling holds nearly the whole tree; DNA's holds a handful of points
/// the tree cannot prune its way to.
fn ceiling_is_sound_but_costs_tenfold<M: Metric<[u8]> + Clone>(
    alphabet: Alphabet,
    seq_len: usize,
    shape: Shape,
    metric: M,
    min_identity: f32,
    budget: usize,
    row_max: &dyn Fn(u8) -> f32,
) {
    let (points, queries) = corpus(alphabet, seq_len, shape);
    let flat = VpTree::build(points.clone(), metric.clone(), points.len(), 0);
    let tree = VpTree::build(points.clone(), metric, BUCKET, 0xF0);
    let calls = || tree.search_metrics().dist_calls.get();
    let (mut budgeted, mut ranged, mut within, mut ceilings) = (0, 0, 0, 0.0);
    for q in &queries {
        let radius = ceiling(q, min_identity, row_max);
        ceilings += f64::from(radius);
        for nb in flat.knn(q, N) {
            if identity(q, &points[nb.index as usize]) >= min_identity {
                assert!(nb.dist <= radius, "survivor at {} past {radius}", nb.dist);
            }
        }
        let before = calls();
        tree.knn_with_budget(q, N, budget);
        budgeted += calls() - before;
        let before = calls();
        within += tree.range(q, radius).len();
        ranged += calls() - before;
    }
    let times = ranged as f64 / budgeted as f64;
    let per_query = |n: f64| n / queries.len() as f64;
    eprintln!(
        "{alphabet:?}: mean ceiling {:.1}, {:.0} of {} points within it; \
         range search {:.0} calls per query, {times:.1}× the budget's",
        per_query(ceilings),
        per_query(within as f64),
        points.len(),
        per_query(ranged as f64),
    );
    assert!(
        times >= 10.0,
        "{alphabet:?}: the ceiling's range search costs only {times:.1}×"
    );
}

fn ceilings(shape: Shape) {
    let matrix = MatrixDistance::mendel(&ScoringMatrix::blosum62());
    let table = matrix.clone();
    let protein_row_max = move |r: u8| {
        (0..24)
            .map(|c| table.residue_dist(r, c))
            .fold(0.0, f32::max)
    };
    ceiling_is_sound_but_costs_tenfold(
        Alphabet::Protein,
        800,
        shape,
        matrix,
        0.40,
        PROTEIN_BUDGET,
        &protein_row_max,
    );
    ceiling_is_sound_but_costs_tenfold(
        Alphabet::Dna,
        1050,
        shape,
        Hamming,
        0.70,
        DNA_BUDGET,
        &|_| 1.0,
    );
}

#[test]
fn the_identity_filters_ceiling_is_no_search_radius() {
    ceilings(SMALL);
}

/// The same at served size; `ci.sh` runs it in release.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn the_identity_filters_ceiling_is_no_search_radius_at_served_size() {
    ceilings(SERVED);
}
