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
//! `DEPTH_FIRST_*` are the literals this file's frontier produced at
//! budget 4,096 against commit 2297ef6, whose search was a depth-first
//! descent. The best-first search's first operating point (bucket 32,
//! budgets 1,024 / 2,048, commit 12c0abc) must find at least as much at a
//! quarter (protein) or half (DNA) of its distance calls, and the served
//! protein point (bucket 256, budget 2,048) at least as much as that
//! point at every corpus size, on a third of its vertices.
//!
//! [`sweep`] prints the bucket × budget grid the served protein point was
//! picked on (DESIGN.md §21.1). [`unbudgeted_protein_search_is_exact`]
//! checks the search with no budget against brute force on the same
//! corpus. DNA nodes no longer search a vp-tree: their pigeonhole index
//! is checked against brute force, and against the budgeted tree it
//! replaced, by [`pigeonhole_search_is_exact`].

#![allow(
    clippy::print_stderr,
    clippy::expect_used,
    clippy::disallowed_methods,
    reason = "test support code outside #[test] functions fails the calling test on a broken fixture; it notes skips, retries and measurements on stderr; it times real builds and searches on the wall clock"
)]

use mendel_seq::gen::{MutationModel, NrLikeSpec};
use mendel_seq::{Alphabet, Hamming, MatrixDistance, Metric, ScoringMatrix};
use mendel_vptree::{brute_force_knn, VpTree};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// `QueryParams::{protein, dna}().n`.
const N: usize = 8;
/// `ClusterConfig::paper_testbed_protein()`'s block length.
const BLOCK_LEN: usize = 16;
/// The bucket of the best-first search's first operating point (commit
/// 12c0abc), the point the depth-first literals were beaten at.
const BUCKET: usize = 32;
/// Group members: the tree holds every `MEMBERS`-th window.
const MEMBERS: usize = 3;
/// The protein and DNA budgets of the best-first search's first operating
/// point (commit 12c0abc).
const PROTEIN_BUDGET: usize = 1024;
const DNA_BUDGET: usize = 2048;
/// The served point: `ClusterConfig::paper_testbed_protein().bucket_capacity`
/// and `QueryParams::protein().search_budget`, and the DNA budget DNA
/// nodes searched their trees on before the pigeonhole index.
const SERVED_BUCKET: usize = 256;
const SERVED_PROTEIN_BUDGET: usize = 2048;
const SERVED_DNA_BUDGET: usize = 4096;

/// Corpus and query-set size.
#[derive(Clone, Copy)]
struct Shape {
    families: usize,
    queries: usize,
}

/// The smallest node share the served point is held to: about 20 k
/// protein points, `ablation_budget`'s node share.
const TINY: Shape = Shape {
    families: 13,
    queries: 400,
};
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
/// Twice the benchmark corpus: about 188 k protein points.
const LARGE: Shape = Shape {
    families: 120,
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

/// A tree's leaf bucket and a search budget in distance calls.
#[derive(Debug, Clone, Copy)]
struct Setting {
    bucket: usize,
    budget: usize,
}

/// What one setting did on a corpus: its frontier point, the vertices
/// (internal and leaf) and the leaves its searches visited, the median
/// µs per search over the timed passes, and the share of that time its
/// leaf candidates would take at the flat scan's cost per candidate
/// (both 0 when untimed).
#[derive(Debug, Clone, Copy)]
struct Run {
    setting: Setting,
    point: Point,
    nodes_visited: u64,
    leaf_scans: u64,
    us: f64,
    kernel_share: f64,
}

/// The median of `t`; 0 when empty.
fn median(mut t: Vec<f64>) -> f64 {
    t.sort_by(f64::total_cmp);
    t.get(t.len() / 2).copied().unwrap_or(0.0)
}

/// Every setting's run on the corpus of `alphabet`, with `reps` timed
/// passes of the query set each.
fn survey<M: Metric<[u8]> + Clone>(
    alphabet: Alphabet,
    seq_len: usize,
    shape: Shape,
    metric: M,
    min_identity: f32,
    settings: &[Setting],
    reps: usize,
) -> Vec<Run> {
    let (points, queries) = corpus(alphabet, seq_len, shape);
    // A one-leaf tree is the flat scan: every point, in index order,
    // through the leaf kernel — the exhaustive answer.
    let flat = VpTree::build(points.clone(), metric.clone(), points.len(), 0);
    let wanted: Vec<Vec<u32>> = queries
        .iter()
        .map(|q| {
            flat.knn(q, N)
                .into_iter()
                .filter(|nb| identity(q, &points[nb.index as usize]) >= min_identity)
                .map(|nb| nb.index)
                .collect()
        })
        .collect();
    let mut buckets: Vec<usize> = settings.iter().map(|s| s.bucket).collect();
    buckets.sort_unstable();
    buckets.dedup();
    let trees: Vec<VpTree<M>> = buckets
        .iter()
        .map(|&b| VpTree::build(points.clone(), metric.clone(), b, 0xF0))
        .collect();
    let tree_of = |s: Setting| &trees[buckets.binary_search(&s.bucket).expect("built")];
    let mut runs: Vec<Run> = settings
        .iter()
        .map(|&setting| {
            let m = tree_of(setting).search_metrics();
            let counts = || {
                (
                    m.dist_calls.get(),
                    m.nodes_visited.get(),
                    m.leaf_scans.get(),
                )
            };
            let before = counts();
            let mut found = 0;
            for (q, want) in queries.iter().zip(&wanted) {
                let got = tree_of(setting).knn_with_budget(q, N, setting.budget);
                found += want
                    .iter()
                    .filter(|&&i| got.iter().any(|g| g.index == i))
                    .count();
            }
            let after = counts();
            Run {
                setting,
                point: Point {
                    found,
                    wanted: wanted.iter().map(Vec::len).sum(),
                    dist_calls: after.0 - before.0,
                },
                nodes_visited: after.1 - before.1,
                leaf_scans: after.2 - before.2,
                us: 0.0,
                kernel_share: 0.0,
            }
        })
        .collect();
    // The timed passes take the settings (and the flat scan) in turn, so
    // a swing in the host's speed lands on all of them alike.
    let time = |tree: &VpTree<M>, budget: usize| {
        let start = Instant::now();
        for q in &queries {
            black_box(tree.knn_with_budget(q, N, budget));
        }
        start.elapsed().as_secs_f64() * 1e6 / queries.len() as f64
    };
    let mut times = vec![Vec::new(); runs.len()];
    let mut flat_times = Vec::new();
    for _ in 0..reps {
        flat_times.push(time(&flat, usize::MAX));
        for (run, t) in runs.iter().zip(&mut times) {
            t.push(time(tree_of(run.setting), run.setting.budget));
        }
    }
    let us_per_candidate = median(flat_times) / points.len() as f64;
    for (run, t) in runs.iter_mut().zip(times) {
        run.us = median(t);
        // Every internal vertex visited cost one vantage distance; every
        // other distance call was a leaf candidate.
        let vantages = run.nodes_visited - run.leaf_scans;
        let candidates = (run.point.dist_calls - vantages) as f64 / queries.len() as f64;
        if run.us > 0.0 {
            run.kernel_share = candidates * us_per_candidate / run.us;
        }
    }
    runs
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

/// Filter-surviving recall of [`BUCKET`] at [`PROTEIN_BUDGET`].
fn protein(shape: Shape) -> Point {
    protein_survey(shape, &[(BUCKET, 1)], 0)[0].point
}

/// Filter-surviving recall of [`BUCKET`] at [`DNA_BUDGET`].
fn dna(shape: Shape) -> Point {
    dna_survey(shape, &[(BUCKET, 1)], 0)[0].point
}

/// [`survey`] on the protein corpus, at budgets of `m ×`
/// [`PROTEIN_BUDGET`] for each `(bucket, m)`.
fn protein_survey(shape: Shape, grid: &[(usize, usize)], reps: usize) -> Vec<Run> {
    let metric = MatrixDistance::mendel(&ScoringMatrix::blosum62());
    let settings = scaled(grid, PROTEIN_BUDGET);
    // `QueryParams::protein().i`.
    survey(Alphabet::Protein, 800, shape, metric, 0.40, &settings, reps)
}

/// [`survey`] on the DNA corpus, at budgets of `m ×` [`DNA_BUDGET`].
fn dna_survey(shape: Shape, grid: &[(usize, usize)], reps: usize) -> Vec<Run> {
    let settings = scaled(grid, DNA_BUDGET);
    // `QueryParams::dna().i`.
    survey(Alphabet::Dna, 1050, shape, Hamming, 0.70, &settings, reps)
}

/// Each `(bucket, m)` as a setting with `m × base` distance calls.
fn scaled(grid: &[(usize, usize)], base: usize) -> Vec<Setting> {
    grid.iter()
        .map(|&(bucket, m)| Setting {
            bucket,
            budget: m * base,
        })
        .collect()
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

/// The old point, then the served one, as `(bucket, budget multiple)`.
const OLD_AND_SERVED: [(usize, usize); 2] = [
    (BUCKET, 1),
    (SERVED_BUCKET, SERVED_PROTEIN_BUDGET / PROTEIN_BUDGET),
];

/// The served protein point finds at least what the old one found at
/// `shape`; on `fewer_vertices`, it visits at most a third of the old
/// point's vertices doing so.
fn served_point_holds(shape: Shape, fewer_vertices: bool) {
    let runs = protein_survey(shape, &OLD_AND_SERVED, 0);
    let (old, served) = (runs[0], runs[1]);
    assert_eq!(served.point.wanted, old.point.wanted);
    assert!(
        served.point.found >= old.point.found,
        "at {} families the served point {served:?} finds less than {old:?}",
        shape.families
    );
    if fewer_vertices {
        assert!(
            served.nodes_visited * 3 <= old.nodes_visited,
            "{served:?} visits more than a third of {old:?}'s vertices"
        );
    }
}

#[test]
fn the_served_point_finds_as_much_as_the_old_one() {
    served_point_holds(TINY, false);
    served_point_holds(SMALL, false);
}

/// The same at served size and twice it; `ci.sh` runs it in release.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn the_served_point_finds_as_much_as_the_old_one_at_served_size() {
    served_point_holds(SERVED, true);
    served_point_holds(LARGE, false);
}

/// The leaf buckets and budget multiples [`sweep`] tries.
const SWEEP_BUCKETS: [usize; 6] = [32, 64, 128, 256, 384, 512];
const SWEEP_MULTIPLES: [usize; 3] = [1, 2, 4];

/// The bucket × budget sweep the served protein point was picked on: per
/// corpus size and setting, filter-surviving `found/wanted`, vertices and
/// leaves visited per search, the median µs per search over nine passes,
/// and the share of it the leaf kernel takes (estimated from the flat
/// scan's cost per candidate). The rule: of the settings whose `found`
/// is at least the old point's at every size, the one with the lowest
/// served-size time relative to the old point's. (The rule once weighed
/// DNA too, when DNA nodes searched the same trees; their pigeonhole
/// index has no bucket or budget.) The sweep prints that pick; timings
/// depend on the host, so no test asserts it, and the recall half is
/// [`served_point_holds`].
///
/// ```sh
/// cargo test --release -p mendel-vptree --test frontier -- --ignored --nocapture sweep
/// ```
#[test]
#[ignore = "a timed sweep; run it in release by hand"]
fn sweep() {
    let grid: Vec<(usize, usize)> = SWEEP_BUCKETS
        .iter()
        .flat_map(|&b| SWEEP_MULTIPLES.map(|m| (b, m)))
        .collect();
    // `kept[i]`: grid point `i` finds no less than the old point so far.
    let mut kept = vec![true; grid.len()];
    let mut served_ratio = vec![0.0; grid.len()];
    for shape in [TINY, SMALL, SERVED, LARGE] {
        let runs = protein_survey(shape, &grid, 9);
        let old = runs[0];
        eprintln!(
            "protein at {} families ({} queries): old point found {}",
            shape.families, shape.queries, old.point.found
        );
        eprintln!(
            "{:>7} {:>7} {:>12} {:>10} {:>10} {:>9} {:>7} {:>7}",
            "bucket",
            "budget",
            "found/wanted",
            "vertices/q",
            "leaves/q",
            "µs/search",
            "vs old",
            "kernel"
        );
        let per_query = |n: u64| n as f64 / shape.queries as f64;
        for (i, run) in runs.iter().enumerate() {
            kept[i] &= run.point.found >= old.point.found;
            if shape.families == SERVED.families {
                served_ratio[i] = run.us / old.us;
            }
            eprintln!(
                "{:>7} {:>7} {:>5}/{:<6} {:>10.1} {:>10.1} {:>9.2} {:>7.2} {:>7.2}",
                run.setting.bucket,
                run.setting.budget,
                run.point.found,
                run.point.wanted,
                per_query(run.nodes_visited),
                per_query(run.leaf_scans),
                run.us,
                run.us / old.us,
                run.kernel_share,
            );
        }
        eprintln!();
    }
    let pick = (0..grid.len())
        .filter(|&i| kept[i])
        .min_by(|&a, &b| served_ratio[a].total_cmp(&served_ratio[b]))
        .expect("the old point always qualifies");
    for (i, &(bucket, m)) in grid.iter().enumerate() {
        eprintln!(
            "bucket {bucket:>3} × {m}: {} served-size time {:.2} of the old point's",
            if kept[i] {
                "keeps recall, "
            } else {
                "loses recall,"
            },
            served_ratio[i]
        );
    }
    let (bucket, m) = grid[pick];
    eprintln!("pick: bucket {bucket}, budget {m} × {PROTEIN_BUDGET}");
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

/// An unbudgeted search of the served protein tree (bucket 256,
/// `MatrixDistance::mendel`) answers as brute force does, in ids and
/// distance bits, for every query at k = 1, 8 and 16. The §III-B distance
/// breaks the triangle inequality, so a search that prunes on it could
/// drop a true neighbour (ROADMAP item 18); on this corpus none is
/// dropped, at either size.
fn unbudgeted_protein_search_is_exact(shape: Shape) {
    let metric = MatrixDistance::mendel(&ScoringMatrix::blosum62());
    let (points, queries) = corpus(Alphabet::Protein, 800, shape);
    let tree = VpTree::build(points.clone(), metric.clone(), SERVED_BUCKET, 0xF0);
    let key = |nbs: Vec<mendel_vptree::Neighbor>| -> Vec<(u32, u32)> {
        nbs.iter().map(|nb| (nb.index, nb.dist.to_bits())).collect()
    };
    let mut misses = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        for k in [1, 8, 16] {
            if key(tree.knn(q, k)) != key(brute_force_knn(&points, &metric, q, k)) {
                misses.push((i, k));
            }
        }
    }
    assert!(
        misses.is_empty(),
        "{} of {} (query, k) pairs differ from brute force: {misses:?}",
        misses.len(),
        3 * queries.len()
    );
}

/// Sized to run in a few seconds in a debug build.
const EXACT: Shape = Shape {
    families: 13,
    queries: 60,
};

#[test]
fn unbudgeted_protein_search_matches_brute_force() {
    unbudgeted_protein_search_is_exact(EXACT);
}

/// The same at served size; `ci.sh` runs it in release.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn unbudgeted_protein_search_matches_brute_force_at_served_size() {
    unbudgeted_protein_search_is_exact(SERVED);
}

/// What the pigeonhole index and the budgeted tree it replaced on DNA
/// nodes did over one query set at one identity threshold.
#[derive(Debug)]
struct Exact {
    identity: f32,
    radius: usize,
    /// Windows the index checked per query window.
    candidates: f64,
    /// Buckets it looked up per query window.
    probes: f64,
    /// Neighbours within the radius at k = 8: every filter survivor.
    survivors: usize,
    /// The same for the served tree at its old budget.
    tree_calls: f64,
    tree_survivors: usize,
}

/// The served-size DNA corpus (or `shape`'s), with an `N` put into about
/// one window in 37 and one query in 7, then, per identity threshold
/// (`QueryParams::dna().i` = 0.70, a loose 0.50 and a tight 0.85), the
/// pigeonhole index's answers at k = 1, 8 and 16 against brute force —
/// ids and distance bits, brute-force k-NN cut to the identity filter's
/// radius — with its work next to the budgeted tree's (bucket 256, the
/// old served DNA budget of 4,096).
fn pigeonhole_search_is_exact(shape: Shape) -> Vec<Exact> {
    use mendel_vptree::{IndexMetrics, PigeonholeIndex};
    let (mut points, mut queries) = corpus(Alphabet::Dna, 1050, shape);
    let n_code = Alphabet::Dna.encode(b'N').expect("N is a DNA code");
    for (i, p) in points.iter_mut().enumerate().step_by(37) {
        p[i % BLOCK_LEN] = n_code;
    }
    for (i, q) in queries.iter_mut().enumerate().step_by(7) {
        q[(i * 5) % BLOCK_LEN] = n_code;
    }
    let obs = IndexMetrics::default();
    let mut index = PigeonholeIndex::new(obs.clone());
    let started = Instant::now();
    index.insert_windows(points.len(), |id| &points[id as usize]);
    let index_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let tree = VpTree::build(points.clone(), Hamming, SERVED_BUCKET, 0xF0);
    let tree_ms = started.elapsed().as_secs_f64() * 1e3;
    eprintln!("build: index {index_ms:.1} ms, tree {tree_ms:.1} ms");
    // Brute-force top-16 per query; top-1 and top-8 are its prefixes, and
    // a top-k cut to a radius is the k nearest within it.
    let brute: Vec<Vec<(u32, u32)>> = queries
        .iter()
        .map(|q| {
            brute_force_knn(&points, &Hamming, q, 16)
                .iter()
                .map(|nb| (nb.index, nb.dist.to_bits()))
                .collect()
        })
        .collect();
    let key = |nbs: &[mendel_vptree::Neighbor]| -> Vec<(u32, u32)> {
        nbs.iter().map(|nb| (nb.index, nb.dist.to_bits())).collect()
    };
    let per_window = |n: u64| n as f64 / queries.len() as f64;
    let mut out = Vec::new();
    for identity in [0.70f32, 0.50, 0.85] {
        let radius = (0..=BLOCK_LEN)
            .filter(|m| identity_of(BLOCK_LEN - m, BLOCK_LEN) >= identity)
            .max()
            .expect("an equal window passes");
        let (probes, candidates) = (obs.probes.get(), obs.candidates.get());
        let mut survivors = 0;
        for k in [1, 8, 16] {
            for (i, (q, want)) in queries.iter().zip(&brute).enumerate() {
                let within = radius as f32;
                let want: Vec<(u32, u32)> = want[..k]
                    .iter()
                    .copied()
                    .filter(|&(_, d)| f32::from_bits(d) <= within)
                    .collect();
                let got = &index.search(q, &[0], k, radius)[0];
                assert_eq!(key(got), want, "identity {identity}, k = {k}, query {i}");
                if k == N {
                    survivors += got.len();
                }
            }
        }
        let calls = tree.search_metrics().dist_calls.get();
        let tree_survivors: usize = queries
            .iter()
            .map(|q| {
                let found = tree.knn_with_budget(q, N, SERVED_DNA_BUDGET);
                found.iter().filter(|nb| nb.dist <= radius as f32).count()
            })
            .sum();
        out.push(Exact {
            identity,
            radius,
            candidates: per_window(obs.candidates.get() - candidates) / 3.0,
            probes: per_window(obs.probes.get() - probes) / 3.0,
            survivors,
            tree_calls: per_window(tree.search_metrics().dist_calls.get() - calls),
            tree_survivors,
        });
    }
    // µs per window of each search at the served identity, medians of
    // five passes that alternate the two.
    let radius = out[0].radius;
    let (mut index_us, mut tree_us) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let started = Instant::now();
        for q in &queries {
            black_box(index.search(q, &[0], N, radius));
        }
        index_us.push(started.elapsed().as_secs_f64() * 1e6 / queries.len() as f64);
        let started = Instant::now();
        for q in &queries {
            black_box(tree.knn_with_budget(q, N, SERVED_DNA_BUDGET));
        }
        tree_us.push(started.elapsed().as_secs_f64() * 1e6 / queries.len() as f64);
    }
    eprintln!(
        "search at r = {radius}: index {:.1} µs a window, tree {:.1} µs",
        median(index_us),
        median(tree_us)
    );
    for e in &out {
        eprintln!(
            "DNA at {} points, identity {} (r = {}): index {:.0} candidates and {:.0} probes \
             a window, {} survivors at k = 8; tree {:.0} distance calls a window, {} survivors",
            points.len(),
            e.identity,
            e.radius,
            e.candidates,
            e.probes,
            e.survivors,
            e.tree_calls,
            e.tree_survivors
        );
        assert!(e.survivors >= e.tree_survivors, "{e:?}");
    }
    out
}

#[test]
fn pigeonhole_dna_search_matches_brute_force() {
    pigeonhole_search_is_exact(EXACT);
}

/// The same at served size; `ci.sh` runs it in release. At the served
/// identity the index checks fewer windows than the tree spends distance
/// calls, and finds more survivors.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn pigeonhole_dna_search_matches_brute_force_at_served_size() {
    let served = &pigeonhole_search_is_exact(SERVED)[0];
    assert!(served.candidates < served.tree_calls, "{served:?}");
    assert!(served.survivors > served.tree_survivors, "{served:?}");
}
