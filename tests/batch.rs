//! Sim-vs-TCP twin property suite (DESIGN.md §18): for random picks of
//! random queries, under both metrics (protein/MatrixDistance and
//! DNA/Hamming), both storage backends (memory and durable) and three
//! block lengths, `MendelCluster::query` — the pipeline's messages
//! delivered in process — answers **bit-identically** to a front-end
//! whose messages cross loopback TCP to one `NodeServer` per node, as
//! `mendel serve` runs them. Beside it: concurrent callers, the SIMD
//! kill switch and the error text, all one query per call.

#![allow(
    clippy::unwrap_used,
    reason = "test support code outside #[test] functions fails the calling test on a broken fixture"
)]

use mendel_suite::core::wire::node_addr;
use mendel_suite::core::{
    ClusterConfig, FrontEnd, MendelCluster, MendelHit, NodeServer, QueryParams, StorageBackend,
    WireCluster, WireTimeouts,
};
use mendel_suite::dht::NodeId;
use mendel_suite::net::{NodeAddr, TcpConfig, TransportMetrics};
use mendel_suite::seq::gen::{NrLikeSpec, QuerySetSpec};
use mendel_suite::seq::Alphabet;
use proptest::prelude::*;
use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};

/// One pre-built cluster plus a pool of realistic queries against it.
struct World {
    cluster: Arc<MendelCluster>,
    pool: Vec<Vec<u8>>,
}

fn build_world(alphabet: Alphabet, backend: StorageBackend, seed: u64, block_len: usize) -> World {
    let db = Arc::new(
        NrLikeSpec {
            alphabet,
            families: 10,
            members_per_family: 2,
            length_range: (100, 200),
            seed,
            ..Default::default()
        }
        .generate()
        .unwrap(),
    );
    let base = match alphabet {
        Alphabet::Protein => ClusterConfig::small_protein(),
        Alphabet::Dna => ClusterConfig::small_dna(),
    };
    let cluster = Arc::new(
        MendelCluster::build(
            ClusterConfig {
                storage: backend,
                block_len,
                ..base
            },
            db.clone(),
        )
        .unwrap(),
    );
    // Query pool: mutated windows (80% identity) plus raw subsequences.
    let mut pool: Vec<Vec<u8>> = QuerySetSpec {
        count: 8,
        length: 80,
        identity: 0.8,
        seed: seed ^ 0x9E37,
    }
    .generate(&db)
    .unwrap()
    .into_iter()
    .map(|q| q.query.residues)
    .collect();
    for i in 0..4 {
        let s = &db.iter().nth(i * 3).unwrap().residues;
        pool.push(s[..s.len().min(120)].to_vec());
    }
    World { cluster, pool }
}

/// Every node of a cluster served over loopback TCP, and a front-end
/// dialing them all.
struct Served {
    _nodes: Vec<NodeServer>,
    front: FrontEnd,
}

fn serve(cluster: &Arc<MendelCluster>) -> Served {
    let timeouts = WireTimeouts::default();
    let any: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let nodes: Vec<NodeServer> = cluster
        .topology()
        .nodes()
        .map(|n| {
            let metrics = TransportMetrics::detached();
            let cfg = TcpConfig::default();
            NodeServer::start(cluster.clone(), n, any, &[], cfg, metrics, timeouts).unwrap()
        })
        .collect();
    let addrs: Vec<(NodeAddr, SocketAddr)> = nodes
        .iter()
        .map(|s| (node_addr(s.node()), s.local_socket_addr().unwrap()))
        .collect();
    for s in &nodes {
        for &(peer, sock) in &addrs {
            s.transport().add_peer(peer, sock);
        }
    }
    let metrics = TransportMetrics::detached();
    let front = FrontEnd::connect(
        cluster.clone(),
        0,
        &addrs,
        TcpConfig::default(),
        metrics,
        timeouts,
    );
    Served {
        _nodes: nodes,
        front,
    }
}

fn world(alphabet: Alphabet, durable: bool) -> &'static (World, Served) {
    static WORLDS: [OnceLock<(World, Served)>; 4] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    let idx = (matches!(alphabet, Alphabet::Dna) as usize) * 2 + durable as usize;
    WORLDS[idx].get_or_init(|| {
        let backend = if durable {
            StorageBackend::durable()
        } else {
            StorageBackend::Memory
        };
        let world = build_world(alphabet, backend, 0xBA7C + idx as u64, 16);
        let served = serve(&world.cluster);
        (world, served)
    })
}

/// Every field of a hit, floats as raw bit patterns.
#[allow(
    clippy::type_complexity,
    reason = "the tuple is the hit's fields in order, compared as a whole"
)]
fn hit_bits(h: &MendelHit) -> (u32, i32, u64, u64, usize, usize, usize, usize, u32) {
    (
        h.subject.0,
        h.score,
        h.bits.to_bits(),
        h.evalue.to_bits(),
        h.query_start,
        h.query_end,
        h.subject_start,
        h.subject_end,
        h.identity.to_bits(),
    )
}

fn params_for(world: &World) -> QueryParams {
    match world.cluster.config().alphabet {
        Alphabet::Protein => QueryParams::protein(),
        Alphabet::Dna => QueryParams::dna(),
    }
}

fn assert_sim_and_tcp_agree(world: &World, served: &Served, picks: &[usize], k: usize) {
    let mut params = params_for(world);
    params.k = k;
    let mut asked = std::collections::HashSet::new();
    for &pick in picks.iter().filter(|&&p| asked.insert(p)) {
        let q = &world.pool[pick];
        let sim: Vec<_> = world
            .cluster
            .query(q, &params)
            .unwrap()
            .hits
            .iter()
            .map(hit_bits)
            .collect();
        let tcp = served.front.query(q, &params).unwrap();
        assert!(tcp.unreachable.is_empty());
        let tcp: Vec<_> = tcp.hits.iter().map(hit_bits).collect();
        assert_eq!(tcp, sim, "in-process delivery must answer like TCP");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Memory backend, protein cluster (MatrixDistance bounded kernel).
    #[test]
    fn protein_memory_batch_is_bit_identical(
        picks in proptest::collection::vec(0usize..12, 1..64),
        k in 1usize..4,
    ) {
        let (w, served) = world(Alphabet::Protein, false);
        assert_sim_and_tcp_agree(w, served, &picks, k);
    }

    /// Memory backend, DNA cluster (Hamming SIMD kernel).
    #[test]
    fn dna_memory_batch_is_bit_identical(
        picks in proptest::collection::vec(0usize..12, 1..64),
        k in 1usize..4,
    ) {
        let (w, served) = world(Alphabet::Dna, false);
        assert_sim_and_tcp_agree(w, served, &picks, k);
    }
}

proptest! {
    // The durable clusters pay WAL + recovery machinery per build; a few
    // cases over the same worlds still sweep query picks and k.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Durable backend, protein cluster.
    #[test]
    fn protein_durable_batch_is_bit_identical(
        picks in proptest::collection::vec(0usize..12, 1..48),
        k in 1usize..4,
    ) {
        let (w, served) = world(Alphabet::Protein, true);
        assert_sim_and_tcp_agree(w, served, &picks, k);
    }

    /// Durable backend, DNA cluster.
    #[test]
    fn dna_durable_batch_is_bit_identical(
        picks in proptest::collection::vec(0usize..12, 1..48),
        k in 1usize..4,
    ) {
        let (w, served) = world(Alphabet::Dna, true);
        assert_sim_and_tcp_agree(w, served, &picks, k);
    }
}

/// Callers on several threads share the one cluster, each query on its
/// own caller's thread; each still gets the answer a lone caller gets.
#[test]
fn concurrent_single_queries_match_serial_answers() {
    let (w, _) = world(Alphabet::Protein, false);
    let params = QueryParams::protein();
    let serial: Vec<Vec<MendelHit>> = w.pool[..4]
        .iter()
        .map(|q| w.cluster.query(q, &params).unwrap().hits)
        .collect();
    let concurrent: Vec<Vec<MendelHit>> = std::thread::scope(|s| {
        let handles: Vec<_> = w.pool[..4]
            .iter()
            .map(|q| s.spawn(|| w.cluster.query(q, &QueryParams::protein()).unwrap().hits))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(concurrent, serial);
}

/// The process-wide SIMD kill switch changes which distance and gapped
/// kernels run, never an answer nor the work the query does: hits and
/// each report's four `mendel.vptree.*` (protein node search), two
/// `mendel.dna_index.*` (DNA node search) and two `mendel.query.gapped_*`
/// counter deltas are identical with it on and off, at build time and at
/// query time (hits are compared, so toggling it under the other tests of
/// this binary is harmless to them).
#[test]
fn simd_kill_switch_leaves_cluster_hits_identical() {
    use mendel_suite::seq::simd::set_simd_enabled;
    const COUNTERS: [&str; 8] = [
        "mendel.vptree.dist_calls",
        "mendel.vptree.early_abandons",
        "mendel.vptree.nodes_visited",
        "mendel.vptree.leaf_scans",
        "mendel.dna_index.candidates",
        "mendel.dna_index.probes",
        "mendel.query.gapped_extensions",
        "mendel.query.gapped_cells",
    ];
    for alphabet in [Alphabet::Dna, Alphabet::Protein] {
        // Clusters of their own: the shared worlds serve this binary's
        // other tests concurrently, which would leak into the deltas. The
        // build scores its vantage distances through the same kernels, so
        // one cluster is built with SIMD off and one with it on.
        let built = |on: bool| -> World {
            let prev = set_simd_enabled(on);
            let w = build_world(alphabet, StorageBackend::Memory, 0x51D, 16);
            set_simd_enabled(prev);
            w
        };
        let answers = |w: &World, on: bool| -> Vec<(Vec<MendelHit>, [u64; 8])> {
            let params = params_for(w);
            let prev = set_simd_enabled(on);
            let out = w
                .pool
                .iter()
                .map(|q| {
                    let r = w.cluster.query(q, &params).unwrap();
                    (r.hits, COUNTERS.map(|c| r.metrics.counter(c)))
                })
                .collect();
            set_simd_enabled(prev);
            out
        };
        let (scalar_built, vector_built) = (built(false), built(true));
        let scalar = answers(&scalar_built, false);
        // Every query searched its nodes: the tree's distance calls on
        // protein, the tables' candidate checks on DNA.
        let searched = match alphabet {
            Alphabet::Protein => 0,
            Alphabet::Dna => 4,
        };
        assert!(scalar.iter().all(|(_, c)| c[searched] > 0), "{alphabet:?}");
        let cells: u64 = scalar.iter().map(|(_, c)| c[7]).sum();
        assert!(cells > 0, "{alphabet:?}: no gapped extension ran");
        assert_eq!(scalar, answers(&scalar_built, true), "{alphabet:?}");
        assert_eq!(scalar, answers(&vector_built, false), "{alphabet:?}");
        assert_eq!(scalar, answers(&vector_built, true), "{alphabet:?}");
    }
}

/// Every hit field of a fixed-seed world's whole query pool, in rank
/// order, plus each query's gapped extensions and DP cells, as one FNV-1a
/// literal per alphabet. The literals were recorded before the gapped
/// kernel went to SIMD lanes: any change to an extension's score, either
/// range or the cells it walked trips here. (A cluster of its own: the
/// shared worlds' other callers would leak into the counter deltas.)
#[test]
fn fixed_seed_hits_and_gapped_work_are_pinned() {
    fn digest(alphabet: Alphabet) -> u64 {
        let w = build_world(alphabet, StorageBackend::Memory, 0xF1A7, 16);
        let params = params_for(&w);
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
            }
        };
        for q in &w.pool {
            let r = w.cluster.query(q, &params).unwrap();
            for hit in &r.hits {
                let f = hit_bits(hit);
                eat(u64::from(f.0));
                eat(f.1 as u64);
                eat(f.2);
                eat(f.3);
                for end in [f.4, f.5, f.6, f.7] {
                    eat(end as u64);
                }
                eat(u64::from(f.8));
            }
            eat(r.metrics.counter("mendel.query.gapped_extensions"));
            eat(r.metrics.counter("mendel.query.gapped_cells"));
        }
        h
    }
    assert_eq!(digest(Alphabet::Protein), 0x73A8645D5C0B05E7);
    assert_eq!(digest(Alphabet::Dna), 0x6258CA7ED0EEBDEE);
}

/// Block lengths off the kernels' 16-residue tile — a short tail only
/// (12) and a full tile plus a tail (20) — answer identically in
/// process, over TCP, and with SIMD off, on both alphabets.
#[test]
fn off_tile_block_lengths_answer_identically_everywhere() {
    use mendel_suite::seq::simd::set_simd_enabled;
    for alphabet in [Alphabet::Protein, Alphabet::Dna] {
        for block_len in [12usize, 20] {
            let w = build_world(
                alphabet,
                StorageBackend::Memory,
                0xB10C + block_len as u64,
                block_len,
            );
            let picks: Vec<usize> = (0..w.pool.len()).collect();
            assert_sim_and_tcp_agree(&w, &serve(&w.cluster), &picks, 1);
            let params = params_for(&w);
            let hits = |on: bool| -> Vec<Vec<MendelHit>> {
                let prev = set_simd_enabled(on);
                let out = w
                    .pool
                    .iter()
                    .map(|q| w.cluster.query(q, &params).unwrap().hits)
                    .collect();
                set_simd_enabled(prev);
                out
            };
            let vector = hits(true);
            assert_eq!(hits(false), vector, "{alphabet:?} block {block_len}");
            assert!(
                vector.iter().any(|h| !h.is_empty()),
                "{alphabet:?} block {block_len}: the pool finds something"
            );
        }
    }
}

/// Drift guard: every entry point rejects a too-short query with the
/// same words.
#[test]
fn too_short_query_error_is_the_same_from_every_entry_point() {
    let (w, served) = world(Alphabet::Protein, false);
    let params = QueryParams::protein();
    let short = vec![0u8; 4];
    let single = w.cluster.query(&short, &params).unwrap_err().to_string();
    let entered = w.cluster.query_from(NodeId(2), &short, &params);
    let wire = WireCluster::serve(w.cluster.clone());
    let tcp = served.front.query(&short, &params);
    assert!(single.contains("4 residues"), "{single}");
    assert_eq!(entered.unwrap_err().to_string(), single);
    assert_eq!(wire.query(&short, &params).unwrap_err().to_string(), single);
    assert_eq!(tcp.unwrap_err().to_string(), single);
}
