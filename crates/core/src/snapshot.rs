//! Pre-indexed dataset snapshots (§VII-B future work, implemented).
//!
//! "Adding the ability to save pre-indexed data for popular large
//! datasets ... for various cluster sizes would save researchers a lot of
//! time." A snapshot captures the cluster geometry and every node's
//! routed block set in the workspace wire format (`mendel-net` codec), so
//! a restore skips the entire hash-and-route pipeline — only the cheap
//! node-local vp-tree builds rerun.
//!
//! Format: VERSION 2 ends with a CRC-32 footer over everything before
//! it, so any truncation or corruption is rejected up front. (VERSION 1
//! had no footer; nothing writes it, so nothing reads it.) Every
//! malformed buffer yields [`MendelError::Snapshot`] — never a panic.

use crate::block::Block;
use crate::cluster::MendelCluster;
use crate::config::{ClusterConfig, MetricKind, StorageBackend};
use crate::error::MendelError;
use bytes::{Bytes, BytesMut};
use mendel_dht::NodeId;
use mendel_net::codec::{Decode, Encode};
use mendel_net::LatencyModel;
use mendel_seq::{Alphabet, SeqStore};
use std::sync::Arc;

const MAGIC: u32 = 0x4d53_4e50; // "MSNP"
/// The one format version written and read (CRC-32 footer).
const VERSION: u8 = 2;

fn alphabet_tag(a: Alphabet) -> u8 {
    match a {
        Alphabet::Dna => 0,
        Alphabet::Protein => 1,
    }
}

fn alphabet_from(tag: u8) -> Result<Alphabet, MendelError> {
    match tag {
        0 => Ok(Alphabet::Dna),
        1 => Ok(Alphabet::Protein),
        t => Err(MendelError::Snapshot(format!("bad alphabet tag {t}"))),
    }
}

fn metric_tag(m: MetricKind) -> u8 {
    match m {
        MetricKind::Hamming => 0,
        MetricKind::MendelBlosum62 => 1,
        MetricKind::MendelBlosum62Repaired => 2,
    }
}

fn metric_from(tag: u8) -> Result<MetricKind, MendelError> {
    match tag {
        0 => Ok(MetricKind::Hamming),
        1 => Ok(MetricKind::MendelBlosum62),
        2 => Ok(MetricKind::MendelBlosum62Repaired),
        t => Err(MendelError::Snapshot(format!("bad metric tag {t}"))),
    }
}

/// Serialize a cluster's geometry and routed blocks.
///
/// Only clusters with their original membership can be saved (a snapshot
/// of a scaled topology would not restore into
/// `Topology::new(nodes, groups)`), and only with every node up: the
/// format has no place for the failed set, so a restore would bring a
/// down node back as healthy — without its blocks on the durable
/// backend, whose dark nodes have nothing in RAM to save.
pub fn save(cluster: &MendelCluster) -> Result<Bytes, MendelError> {
    let cfg = cluster.config();
    let topo = cluster.topology();
    if topo.num_nodes() != cfg.nodes || topo.id_space() != cfg.nodes {
        return Err(MendelError::Snapshot(
            "cannot snapshot a cluster whose membership changed; re-index instead".into(),
        ));
    }
    let failed = cluster.failed_nodes();
    if !failed.is_empty() {
        return Err(MendelError::Snapshot(format!(
            "cannot snapshot a cluster with nodes down ({failed:?}); recover them first"
        )));
    }
    let mut buf = BytesMut::new();
    MAGIC.encode(&mut buf);
    VERSION.encode(&mut buf);
    (cfg.nodes as u16).encode(&mut buf);
    (cfg.groups as u16).encode(&mut buf);
    cfg.block_len.encode(&mut buf);
    cfg.bucket_capacity.encode(&mut buf);
    cfg.prefix_depth.encode(&mut buf);
    cfg.prefix_sample.encode(&mut buf);
    cfg.replication.encode(&mut buf);
    cfg.seed.encode(&mut buf);
    alphabet_tag(cfg.alphabet).encode(&mut buf);
    metric_tag(cfg.metric).encode(&mut buf);
    for node in topo.nodes() {
        let blocks = cluster.node_blocks(node);
        blocks.encode(&mut buf);
    }
    // VERSION 2: whole-buffer CRC-32 footer.
    let body = buf.freeze();
    let crc = mendel_store::crc32(body.as_slice());
    let mut out = BytesMut::with_capacity(body.len() + 4);
    out.extend_from_slice(body.as_slice());
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out.freeze())
}

/// Rebuild a cluster from a snapshot over the same reference database.
/// The prefix tree is rebuilt deterministically from the recorded seed,
/// so query routing is identical to the saved cluster's.
pub fn restore(
    bytes: &Bytes,
    db: Arc<SeqStore>,
    latency: LatencyModel,
) -> Result<MendelCluster, MendelError> {
    // The version byte sits right after the 4-byte magic. Verify and
    // strip the CRC-32 footer before any decoding: truncation or
    // corruption anywhere is caught here, up front.
    let raw = bytes.as_slice();
    if raw.len() < 5 {
        return Err(MendelError::Snapshot("truncated header".into()));
    }
    if raw[4] != VERSION {
        return Err(MendelError::Snapshot(format!(
            "unsupported version {}",
            raw[4]
        )));
    }
    let body_len = raw
        .len()
        .checked_sub(4)
        .filter(|&n| n >= 5)
        .ok_or_else(|| MendelError::Snapshot("truncated footer".into()))?;
    let stored = u32::from_le_bytes([
        raw[body_len],
        raw[body_len + 1],
        raw[body_len + 2],
        raw[body_len + 3],
    ]);
    let actual = mendel_store::crc32(&raw[..body_len]);
    if stored != actual {
        return Err(MendelError::Snapshot(format!(
            "checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )));
    }
    let mut buf = bytes.slice(0..body_len);
    let bad = |e: mendel_net::DecodeError| MendelError::Snapshot(e.to_string());
    if u32::decode(&mut buf).map_err(bad)? != MAGIC {
        return Err(MendelError::Snapshot("bad magic".into()));
    }
    u8::decode(&mut buf).map_err(bad)?; // the version byte checked above
    let nodes = u16::decode(&mut buf).map_err(bad)? as usize;
    let groups = u16::decode(&mut buf).map_err(bad)? as usize;
    let block_len = usize::decode(&mut buf).map_err(bad)?;
    let bucket_capacity = usize::decode(&mut buf).map_err(bad)?;
    let prefix_depth = usize::decode(&mut buf).map_err(bad)?;
    let prefix_sample = usize::decode(&mut buf).map_err(bad)?;
    let replication = usize::decode(&mut buf).map_err(bad)?;
    let seed = u64::decode(&mut buf).map_err(bad)?;
    let alphabet = alphabet_from(u8::decode(&mut buf).map_err(bad)?)?;
    let metric = metric_from(u8::decode(&mut buf).map_err(bad)?)?;
    let config = ClusterConfig {
        nodes,
        groups,
        alphabet,
        metric,
        block_len,
        bucket_capacity,
        prefix_depth,
        prefix_sample,
        replication,
        latency,
        seed,
        // The backend is a runtime deployment choice, not part of the
        // indexed-data geometry; restores start in memory mode.
        storage: StorageBackend::Memory,
    };
    let cluster = MendelCluster::build_empty(config, db)?;
    for n in 0..nodes {
        let blocks = Vec::<Block>::decode(&mut buf).map_err(bad)?;
        cluster.load_node_blocks(NodeId(n as u16), blocks)?;
    }
    if !buf.is_empty() {
        return Err(MendelError::Snapshot(format!(
            "{} trailing bytes after node data",
            buf.len()
        )));
    }
    Ok(cluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::QueryParams;
    use mendel_seq::gen::NrLikeSpec;
    use mendel_seq::SeqId;

    fn db() -> Arc<SeqStore> {
        Arc::new(
            NrLikeSpec {
                families: 8,
                members_per_family: 2,
                length_range: (100, 180),
                seed: 0x5A,
                ..Default::default()
            }
            .generate()
            .unwrap(),
        )
    }

    #[test]
    fn snapshot_roundtrip_preserves_results() {
        let db = db();
        let original = MendelCluster::build(ClusterConfig::small_protein(), db.clone()).unwrap();
        let bytes = save(&original).unwrap();
        let restored = restore(&bytes, db.clone(), LatencyModel::lan()).unwrap();
        assert_eq!(restored.total_blocks(), original.total_blocks());
        let q = db.get(SeqId(4)).unwrap().residues.clone();
        let params = QueryParams::protein();
        assert_eq!(
            restored.query(&q, &params).unwrap().hits,
            original.query(&q, &params).unwrap().hits,
        );
    }

    #[test]
    fn snapshot_of_scaled_cluster_is_refused() {
        let db = db();
        let c = MendelCluster::build(ClusterConfig::small_protein(), db).unwrap();
        c.add_node();
        assert!(matches!(save(&c), Err(MendelError::Snapshot(_))));
    }

    #[test]
    fn snapshot_with_a_node_down_is_refused() {
        let db = db();
        for storage in [StorageBackend::Memory, StorageBackend::durable()] {
            let cfg = ClusterConfig {
                storage,
                ..ClusterConfig::small_protein()
            };
            let c = MendelCluster::build(cfg, db.clone()).unwrap();
            c.fail_node(NodeId(1)).unwrap();
            assert!(
                matches!(save(&c), Err(MendelError::Snapshot(m)) if m.contains("down")),
                "{storage:?}: the format cannot say a node is down"
            );
            c.recover_node(NodeId(1)).unwrap();
            let restored = restore(&save(&c).unwrap(), db.clone(), LatencyModel::lan()).unwrap();
            assert_eq!(restored.coverage(), c.coverage());
        }
    }

    #[test]
    fn restored_cluster_keeps_its_replication_factor() {
        let db = db();
        let cfg = ClusterConfig {
            replication: 2,
            ..ClusterConfig::small_protein()
        };
        let built = MendelCluster::build(cfg, db.clone()).unwrap();
        let restored = restore(&save(&built).unwrap(), db, LatencyModel::lan()).unwrap();
        assert_eq!(restored.config().replication, 2);
        // Scale-out re-places the joiner's group: it must do so at the
        // configured factor on both.
        built.add_node();
        restored.add_node();
        assert_eq!(restored.total_blocks(), built.total_blocks());
        for c in [&built, &restored] {
            for n in c.topology().nodes() {
                c.fail_node(n).unwrap();
                assert!(!c.coverage().degraded, "one node down at replication 2");
                c.recover_node(n).unwrap();
            }
        }
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let db = db();
        let c = MendelCluster::build(ClusterConfig::small_protein(), db.clone()).unwrap();
        let bytes = save(&c).unwrap();
        // Bad magic.
        let mut bad = bytes.to_vec();
        bad[0] ^= 0xFF;
        assert!(restore(&Bytes::from(bad), db.clone(), LatencyModel::lan()).is_err());
        // Truncated.
        let short = bytes.slice(0..bytes.len() / 2);
        assert!(restore(&short, db.clone(), LatencyModel::lan()).is_err());
        // Trailing garbage.
        let mut long = bytes.to_vec();
        long.push(0);
        assert!(restore(&Bytes::from(long), db, LatencyModel::lan()).is_err());
    }

    #[test]
    fn truncation_sweep_always_errors_never_panics() {
        let db = db();
        let c = MendelCluster::build(ClusterConfig::small_protein(), db.clone()).unwrap();
        let bytes = save(&c).unwrap();
        for cut in 0..bytes.len() {
            let short = bytes.slice(0..cut);
            assert!(
                matches!(
                    restore(&short, db.clone(), LatencyModel::lan()),
                    Err(MendelError::Snapshot(_))
                ),
                "cut at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn corruption_sweep_is_rejected_by_the_footer() {
        let db = db();
        let c = MendelCluster::build(ClusterConfig::small_protein(), db.clone()).unwrap();
        let bytes = save(&c).unwrap();
        // Single-bit flips across the whole buffer (strided for speed),
        // including the CRC footer itself.
        for off in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            let mut bad = bytes.to_vec();
            bad[off] ^= 1;
            assert!(
                matches!(
                    restore(&Bytes::from(bad), db.clone(), LatencyModel::lan()),
                    Err(MendelError::Snapshot(_))
                ),
                "flip at {off} must be rejected"
            );
        }
    }

    #[test]
    fn bad_version_is_rejected() {
        let db = db();
        let c = MendelCluster::build(ClusterConfig::small_protein(), db.clone()).unwrap();
        let mut bytes = save(&c).unwrap().to_vec();
        // The version byte follows the 4-byte magic; 1 is the retired
        // footer-less format (here with and without the footer cut off).
        for (version, cut) in [(99u8, 0), (1, 0), (1, 4)] {
            bytes[4] = version;
            let tagged = Bytes::from(bytes[..bytes.len() - cut].to_vec());
            assert!(matches!(
                restore(&tagged, db.clone(), LatencyModel::lan()),
                Err(MendelError::Snapshot(m)) if m.contains("unsupported version")
            ));
        }
    }
}
