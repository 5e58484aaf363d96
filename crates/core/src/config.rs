//! Cluster configuration.

use crate::error::MendelError;
use crate::metric::BlockMetric;
use mendel_net::LatencyModel;
use mendel_seq::Alphabet;
use mendel_store::StoreOptions;

/// Where node-local block state lives (ROADMAP item 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageBackend {
    /// RAM only — the original behaviour. `fail_node` keeps the node's
    /// memory, so recovery is instant but a real crash would lose
    /// everything.
    #[default]
    Memory,
    /// The `mendel-store` durable engine: every placed block is framed
    /// into a per-node WAL and flushed to checksummed segments, so
    /// `fail_node` models a true process kill (RAM dies) and
    /// `recover_node` rebuilds the node from its own disk.
    Durable(StoreOptions),
}

impl StorageBackend {
    /// Durable storage with default engine options (fsync every
    /// record).
    pub fn durable() -> Self {
        StorageBackend::Durable(StoreOptions::default())
    }
}

/// Which block metric the cluster's vp-trees use (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Hamming distance (DNA).
    Hamming,
    /// The paper's BLOSUM62-derived distance (protein).
    MendelBlosum62,
    /// The BLOSUM62 distance with triangle-inequality repair (ablation;
    /// see DESIGN.md).
    MendelBlosum62Repaired,
}

impl MetricKind {
    /// Instantiate the metric.
    pub fn instantiate(self) -> BlockMetric {
        match self {
            MetricKind::Hamming => BlockMetric::Hamming,
            MetricKind::MendelBlosum62 => BlockMetric::mendel_blosum62(),
            MetricKind::MendelBlosum62Repaired => BlockMetric::mendel_blosum62_repaired(),
        }
    }
}

/// Everything needed to build a [`crate::MendelCluster`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of storage nodes.
    pub nodes: usize,
    /// Number of node groups ("user-configurable parameter", §IV-C).
    pub groups: usize,
    /// Residue alphabet of the indexed data.
    pub alphabet: Alphabet,
    /// Block metric for the cluster's vp-trees: the protein nodes' and
    /// the vp-prefix routing tree's.
    pub metric: MetricKind,
    /// Inverted-index block length (the indexing window, §V-A1).
    pub block_len: usize,
    /// Leaf-bucket capacity of the protein nodes' vp-trees (§III-D); DNA
    /// nodes index pigeonhole tables, which have none. A leaf
    /// is scored sixteen windows per lane-kernel call, a few ns a window,
    /// while each vertex a search visits costs a vantage distance and a
    /// frontier step; so the default, 256, is chosen with
    /// `QueryParams::search_budget` on the recall–time frontier of
    /// `crates/vptree/tests/frontier.rs` (DESIGN.md §21.1), not on the
    /// paper's small buckets.
    pub bucket_capacity: usize,
    /// Depth threshold of the vp-prefix hash tree (§III-F). Buckets =
    /// `2^prefix_depth`; must satisfy `2^depth ≥ groups`.
    pub prefix_depth: usize,
    /// How many sampled blocks to build the prefix tree from.
    pub prefix_sample: usize,
    /// Replication factor inside groups (1 = the paper's baseline; ≥ 2
    /// enables the §VII-B fault-tolerance extension).
    pub replication: usize,
    /// Simulated network model for turnaround accounting.
    pub latency: LatencyModel,
    /// Master seed for all deterministic sampling.
    pub seed: u64,
    /// Node-local storage backend (memory or the durable WAL engine).
    pub storage: StorageBackend,
}

impl ClusterConfig {
    /// The paper's testbed geometry for proteins: 50 nodes, 10 groups.
    pub fn paper_testbed_protein() -> Self {
        ClusterConfig {
            nodes: 50,
            groups: 10,
            alphabet: Alphabet::Protein,
            metric: MetricKind::MendelBlosum62,
            block_len: 16,
            bucket_capacity: 256,
            prefix_depth: 6,
            prefix_sample: 4096,
            replication: 1,
            latency: LatencyModel::lan(),
            seed: 0x4d31,
            storage: StorageBackend::Memory,
        }
    }

    /// A small protein cluster for tests/doctests: 6 nodes, 2 groups.
    pub fn small_protein() -> Self {
        ClusterConfig {
            nodes: 6,
            groups: 2,
            prefix_depth: 3,
            prefix_sample: 512,
            ..Self::paper_testbed_protein()
        }
    }

    /// A small DNA cluster: Hamming metric, 16-residue blocks.
    pub fn small_dna() -> Self {
        ClusterConfig {
            alphabet: Alphabet::Dna,
            metric: MetricKind::Hamming,
            ..Self::small_protein()
        }
    }

    /// Validate structural constraints.
    pub fn validate(&self) -> Result<(), MendelError> {
        if self.nodes == 0 {
            return Err(MendelError::Config("nodes must be >= 1".into()));
        }
        if self.groups == 0 || self.groups > self.nodes {
            return Err(MendelError::Config(format!(
                "groups must be in 1..=nodes (got {} groups, {} nodes)",
                self.groups, self.nodes
            )));
        }
        if self.block_len < 4 {
            return Err(MendelError::Config("block length must be >= 4".into()));
        }
        if self.bucket_capacity == 0 {
            return Err(MendelError::Config("bucket capacity must be >= 1".into()));
        }
        if self.prefix_depth == 0 || self.prefix_depth > 20 {
            return Err(MendelError::Config("prefix depth must be in 1..=20".into()));
        }
        if (1usize << self.prefix_depth) < self.groups {
            return Err(MendelError::Config(format!(
                "2^prefix_depth ({}) must cover the {} groups",
                1usize << self.prefix_depth,
                self.groups
            )));
        }
        if self.prefix_sample < (1 << self.prefix_depth) {
            return Err(MendelError::Config(
                "prefix sample must be at least 2^prefix_depth".into(),
            ));
        }
        if self.replication == 0 {
            return Err(MendelError::Config("replication must be >= 1".into()));
        }
        let metric_matches = matches!(
            (self.alphabet, self.metric),
            (Alphabet::Dna, MetricKind::Hamming) | (Alphabet::Protein, _)
        );
        if !metric_matches {
            return Err(MendelError::Config(format!(
                "metric {:?} does not fit alphabet {:?}",
                self.metric, self.alphabet
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        ClusterConfig::paper_testbed_protein().validate().unwrap();
        ClusterConfig::small_protein().validate().unwrap();
        ClusterConfig::small_dna().validate().unwrap();
    }

    #[test]
    fn paper_testbed_matches_the_paper() {
        let c = ClusterConfig::paper_testbed_protein();
        assert_eq!(c.nodes, 50);
        assert_eq!(c.groups, 10);
    }

    #[test]
    fn bad_configs_rejected() {
        let ok = ClusterConfig::small_protein();
        assert!(ClusterConfig {
            nodes: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(ClusterConfig {
            groups: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(ClusterConfig {
            groups: 7,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(ClusterConfig {
            block_len: 2,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(ClusterConfig {
            bucket_capacity: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(ClusterConfig {
            prefix_depth: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(ClusterConfig {
            prefix_depth: 21,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(ClusterConfig {
            prefix_sample: 2,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(ClusterConfig {
            replication: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        // 2 groups need 2^depth >= 2: depth 1 with 2 groups is fine, but
        // depth must cover larger group counts.
        assert!(ClusterConfig {
            groups: 6,
            nodes: 6,
            prefix_depth: 2,
            ..ok.clone()
        }
        .validate()
        .is_err());
        // DNA + protein metric is inconsistent.
        assert!(ClusterConfig {
            alphabet: Alphabet::Dna,
            metric: MetricKind::MendelBlosum62,
            ..ok
        }
        .validate()
        .is_err());
    }

    #[test]
    fn storage_backend_defaults_to_memory() {
        assert_eq!(StorageBackend::default(), StorageBackend::Memory);
        assert!(matches!(
            StorageBackend::durable(),
            StorageBackend::Durable(_)
        ));
        let durable = ClusterConfig {
            storage: StorageBackend::durable(),
            ..ClusterConfig::small_protein()
        };
        durable.validate().unwrap();
    }

    #[test]
    fn metric_kind_instantiates() {
        assert!(matches!(
            MetricKind::Hamming.instantiate(),
            BlockMetric::Hamming
        ));
        assert!(matches!(
            MetricKind::MendelBlosum62.instantiate(),
            BlockMetric::Matrix(_)
        ));
    }
}
