//! Shared harness utilities for the figure-regeneration and ablation
//! binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the index); this library holds the common
//! workload builders so all experiments draw from the same synthetic
//! `nr`-like data and the same cluster geometries.

use mendel::{ClusterConfig, MendelCluster, QueryParams, StageTimings};
use mendel_seq::gen::{NrLikeSpec, QueryRecord, QuerySetSpec};
use mendel_seq::SeqStore;
use std::sync::Arc;
use std::time::Duration;

/// Workload seeds, fixed so every figure draws the same data.
pub const DB_SEED: u64 = 0xF16;
/// Seed for query sets.
pub const QUERY_SEED: u64 = 0x517;

/// Build an `nr`-like protein database of roughly `residues` total
/// residues. Sequences come in families of 8 (NCBI `nr` is
/// "non-redundant" only at 100% identity — below that it is massively
/// family-redundant, which is exactly the clustering that makes
/// metric-tree pruning effective); lengths run 200–1400 so the paper's
/// 1000-residue query windows can be sampled.
#[expect(
    clippy::expect_used,
    reason = "bench fixture; the hard-coded spec is valid by construction"
)]
pub fn protein_db(residues: usize) -> Arc<SeqStore> {
    const MEMBERS: usize = 8;
    let families = (residues / (800 * MEMBERS)).max(2);
    Arc::new(
        NrLikeSpec {
            families,
            members_per_family: MEMBERS,
            length_range: (200, 1400),
            seed: DB_SEED,
            ..Default::default()
        }
        .generate()
        .expect("spec is valid"),
    )
}

/// The paper's cluster geometry (50 nodes, 10 groups) over a database.
#[expect(
    clippy::expect_used,
    reason = "bench fixture; the paper testbed geometry is valid by construction"
)]
pub fn paper_cluster(db: &Arc<SeqStore>) -> MendelCluster {
    MendelCluster::build(ClusterConfig::paper_testbed_protein(), db.clone())
        .expect("testbed config is valid")
}

/// A cluster with an explicit geometry.
#[expect(
    clippy::expect_used,
    reason = "bench fixture; callers pass small positive geometries"
)]
pub fn cluster_with(db: &Arc<SeqStore>, nodes: usize, groups: usize) -> MendelCluster {
    let cfg = ClusterConfig {
        nodes,
        groups,
        ..ClusterConfig::paper_testbed_protein()
    };
    MendelCluster::build(cfg, db.clone()).expect("geometry is valid")
}

/// An `s_aureus`-style query set: fragments of database sequences at the
/// given identity.
#[expect(
    clippy::expect_used,
    reason = "bench fixture; protein_db always holds 1400-residue members"
)]
pub fn query_set(
    db: &Arc<SeqStore>,
    count: usize,
    length: usize,
    identity: f64,
) -> Vec<QueryRecord> {
    QuerySetSpec {
        count,
        length,
        identity,
        seed: QUERY_SEED,
    }
    .generate(db)
    .expect("database holds long enough sequences")
}

/// Default Mendel query parameters used by the performance figures.
pub fn bench_params() -> QueryParams {
    QueryParams::protein()
}

/// Mean of a set of durations (zero for an empty set).
pub fn mean_duration(ds: &[Duration]) -> Duration {
    if ds.is_empty() {
        return Duration::ZERO;
    }
    ds.iter().sum::<Duration>() / ds.len() as u32
}

/// Mean turnaround, group phase (node search) and finalize (the entry
/// point's gapped extension) of a set of queries: the turnaround and
/// the two stages most of it is spent in.
pub fn stage_means(timings: &[StageTimings]) -> [Duration; 3] {
    let mean = |stage: fn(&StageTimings) -> Duration| {
        mean_duration(&timings.iter().map(stage).collect::<Vec<_>>())
    };
    [
        mean(StageTimings::total),
        mean(|t| t.group_phase),
        mean(|t| t.finalize),
    ]
}

/// Column by column, `a / b`: a growth or speedup factor per column.
pub fn ratios<const N: usize>(a: [Duration; N], b: [Duration; N]) -> [f64; N] {
    std::array::from_fn(|c| a[c].as_secs_f64() / b[c].as_secs_f64())
}

/// Format a duration in fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Print a figure header in a consistent style.
#[allow(
    clippy::print_stdout,
    reason = "the bench binaries report through stdout; this shared banner is the lib's only print"
)]
pub fn figure_header(id: &str, caption: &str) {
    println!("================================================================");
    println!("{id}: {caption}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protein_db_scales_with_request() {
        let small = protein_db(50_000);
        let large = protein_db(200_000);
        assert!(large.total_residues() > small.total_residues());
        // Roughly the requested magnitude (generous tolerance: lengths vary).
        let r = small.total_residues() as f64 / 50_000.0;
        assert!((0.5..2.0).contains(&r), "ratio {r}");
    }

    #[test]
    fn db_generation_is_deterministic() {
        let a = protein_db(30_000);
        let b = protein_db(30_000);
        assert_eq!(a.len(), b.len());
        assert_eq!(
            a.get(mendel_seq::SeqId(0)).unwrap().residues,
            b.get(mendel_seq::SeqId(0)).unwrap().residues
        );
    }

    #[test]
    fn mean_duration_basics() {
        assert_eq!(mean_duration(&[]), Duration::ZERO);
        let m = mean_duration(&[Duration::from_millis(2), Duration::from_millis(4)]);
        assert_eq!(m, Duration::from_millis(3));
    }

    #[test]
    fn ms_formats_fractions() {
        assert_eq!(ms(Duration::from_micros(1500)), "1.50");
    }
}
