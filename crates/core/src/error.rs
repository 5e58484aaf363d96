//! Error types of the Mendel framework.

use std::fmt;

/// Errors surfaced by cluster construction, indexing, and queries.
#[derive(Debug, Clone, PartialEq)]
pub enum MendelError {
    /// Invalid cluster configuration.
    Config(String),
    /// Invalid query parameters (Table I constraints).
    Params(String),
    /// The query is unusable (too short for the block length, wrong
    /// alphabet, empty...).
    Query(String),
    /// A sequence-layer failure (FASTA, encoding...).
    Seq(mendel_seq::SeqError),
    /// The addressed node does not exist or has left the cluster.
    NoSuchNode(mendel_dht::NodeId),
    /// Every member of the group is down, so the group's blocks could
    /// not be placed anywhere.
    GroupDown(mendel_dht::GroupId),
    /// The durable storage engine failed (I/O error, poisoned store,
    /// corrupt on-disk state).
    Store(String),
}

impl fmt::Display for MendelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MendelError::Config(m) => write!(f, "invalid cluster config: {m}"),
            MendelError::Params(m) => write!(f, "invalid query parameters: {m}"),
            MendelError::Query(m) => write!(f, "invalid query: {m}"),
            MendelError::Seq(e) => write!(f, "sequence error: {e}"),
            MendelError::NoSuchNode(n) => write!(f, "no such node: {n}"),
            MendelError::GroupDown(g) => write!(f, "group {g} has no live member"),
            MendelError::Store(m) => write!(f, "storage error: {m}"),
        }
    }
}

impl std::error::Error for MendelError {}

impl From<mendel_seq::SeqError> for MendelError {
    fn from(e: mendel_seq::SeqError) -> Self {
        MendelError::Seq(e)
    }
}

impl From<mendel_store::StoreError> for MendelError {
    fn from(e: mendel_store::StoreError) -> Self {
        MendelError::Store(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(MendelError::Config("x".into())
            .to_string()
            .contains("config"));
        assert!(MendelError::NoSuchNode(mendel_dht::NodeId(3))
            .to_string()
            .contains("n3"));
    }

    #[test]
    fn seq_error_converts() {
        let e: MendelError = mendel_seq::SeqError::EmptySequence.into();
        assert!(matches!(e, MendelError::Seq(_)));
    }

    #[test]
    fn store_error_converts() {
        let e: MendelError = mendel_store::StoreError::KeyTooLong(99).into();
        assert!(matches!(e, MendelError::Store(_)));
        assert!(e.to_string().contains("storage"));
    }
}
