//! Multi-query batching property suite (DESIGN.md "The query pipeline"):
//! for random batches of random queries, under both metrics
//! (protein/MatrixDistance and DNA/Hamming) and both storage backends
//! (memory and durable),
//!
//! * a batch of N answers exactly like N batches of one — queries stay
//!   independent of their batch-mates; and
//! * the in-process evaluator answers **bit-identically** to
//!   `WireCluster::query` — the same per-window node search, reached
//!   through one scheduler job per node rather than encoded messages.

use mendel_suite::core::{
    ClusterConfig, MendelCluster, MendelError, MendelHit, QueryParams, StorageBackend, WireCluster,
};
use mendel_suite::seq::gen::{NrLikeSpec, QuerySetSpec};
use mendel_suite::seq::Alphabet;
use proptest::prelude::*;
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

fn world(alphabet: Alphabet, durable: bool) -> &'static World {
    static WORLDS: [OnceLock<World>; 4] = [
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
        build_world(alphabet, backend, 0xBA7C + idx as u64, 16)
    })
}

/// Every field of a hit, floats as raw bit patterns.
#[allow(clippy::type_complexity)]
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

fn assert_batch_matches(world: &World, picks: &[usize], k: usize) {
    let mut params = params_for(world);
    params.k = k;
    let queries: Vec<Vec<u8>> = picks.iter().map(|&i| world.pool[i].clone()).collect();
    let batch = world.cluster.query_batch(&queries, &params);
    assert_eq!(batch.len(), queries.len());
    // One wire client per case: a `WireCluster` handle carries one query
    // at a time and the worlds are shared between test threads.
    let wire = WireCluster::serve(world.cluster.clone());
    let mut wired = std::collections::HashSet::new();
    for ((q, r), &pick) in queries.iter().zip(&batch).zip(picks) {
        let single = world.cluster.query(q, &params).unwrap();
        let batched = r.as_ref().unwrap();
        let a: Vec<_> = batched.hits.iter().map(hit_bits).collect();
        let b: Vec<_> = single.hits.iter().map(hit_bits).collect();
        assert_eq!(a, b, "a batch of N must answer like N batches of one");
        assert_eq!(batched.stats.candidates, single.stats.candidates);
        assert_eq!(batched.stats.anchors, single.stats.anchors);
        if wired.insert(pick) {
            let w: Vec<_> = wire
                .query(q, &params)
                .unwrap()
                .iter()
                .map(hit_bits)
                .collect();
            assert_eq!(
                w, b,
                "the in-process evaluator must answer like the wire path"
            );
        }
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
        assert_batch_matches(world(Alphabet::Protein, false), &picks, k);
    }

    /// Memory backend, DNA cluster (Hamming SIMD kernel).
    #[test]
    fn dna_memory_batch_is_bit_identical(
        picks in proptest::collection::vec(0usize..12, 1..64),
        k in 1usize..4,
    ) {
        assert_batch_matches(world(Alphabet::Dna, false), &picks, k);
    }
}

proptest! {
    // The durable clusters pay WAL + recovery machinery per build; a few
    // cases over the same worlds still sweep batch sizes and k.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Durable backend, protein cluster.
    #[test]
    fn protein_durable_batch_is_bit_identical(
        picks in proptest::collection::vec(0usize..12, 1..48),
        k in 1usize..4,
    ) {
        assert_batch_matches(world(Alphabet::Protein, true), &picks, k);
    }

    /// Durable backend, DNA cluster.
    #[test]
    fn dna_durable_batch_is_bit_identical(
        picks in proptest::collection::vec(0usize..12, 1..48),
        k in 1usize..4,
    ) {
        assert_batch_matches(world(Alphabet::Dna, true), &picks, k);
    }
}

/// Duplicate queries inside one batch each get the full, identical answer
/// (regression guard: outputs are keyed by query index, not by content).
#[test]
fn duplicate_queries_in_one_batch_agree() {
    let w = world(Alphabet::Protein, false);
    let q = w.pool[0].clone();
    let params = QueryParams::protein();
    let batch = w.cluster.query_batch(&[q.clone(), q.clone(), q], &params);
    let first: Vec<_> = batch[0]
        .as_ref()
        .unwrap()
        .hits
        .iter()
        .map(hit_bits)
        .collect();
    for r in &batch {
        let bits: Vec<_> = r.as_ref().unwrap().hits.iter().map(hit_bits).collect();
        assert_eq!(bits, first);
    }
}

/// A shed query errors without contaminating its batch-mates.
#[test]
fn shed_query_leaves_batch_mates_bit_identical() {
    let w = world(Alphabet::Dna, false);
    let cluster = MendelCluster::build(ClusterConfig::small_dna(), w.cluster.db())
        .unwrap()
        .with_scheduler(mendel_suite::sched::SchedConfig {
            workers: 2,
            max_in_flight: 2,
        });
    let params = QueryParams::dna();
    let queries: Vec<Vec<u8>> = w.pool[..3].to_vec();
    let results = cluster.query_batch(&queries, &params);
    assert!(matches!(results[2], Err(MendelError::Shed { .. })));
    for (q, r) in queries[..2].iter().zip(&results[..2]) {
        let seq = cluster.query(q, &params).unwrap();
        let a: Vec<_> = r.as_ref().unwrap().hits.iter().map(hit_bits).collect();
        let b: Vec<_> = seq.hits.iter().map(hit_bits).collect();
        assert_eq!(a, b);
    }
}

/// Callers on several threads share the one evaluator (and its
/// scheduler); each still gets the answer a lone caller gets.
#[test]
fn concurrent_single_queries_match_serial_answers() {
    let w = world(Alphabet::Protein, false);
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

/// The process-wide SIMD kill switch changes which distance kernel
/// runs, never an answer (hits are compared, so toggling it under the
/// other tests of this binary is harmless to them).
#[test]
fn simd_kill_switch_leaves_cluster_hits_identical() {
    use mendel_suite::seq::simd::set_simd_enabled;
    for alphabet in [Alphabet::Dna, Alphabet::Protein] {
        let w = world(alphabet, false);
        let params = params_for(w);
        let answers = |on: bool| -> Vec<Vec<MendelHit>> {
            let prev = set_simd_enabled(on);
            let out = w
                .cluster
                .query_batch(&w.pool, &params)
                .into_iter()
                .map(|r| r.unwrap().hits)
                .collect();
            set_simd_enabled(prev);
            out
        };
        assert_eq!(answers(false), answers(true), "{alphabet:?}");
    }
}

/// Block lengths off the kernels' 16-residue tile — a short tail only
/// (12) and a full tile plus a tail (20) — answer identically from a
/// batch, from single queries, over the wire, and with SIMD off, on both
/// alphabets.
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
            assert_batch_matches(&w, &picks, 1);
            let params = params_for(&w);
            let hits = |on: bool| -> Vec<Vec<MendelHit>> {
                let prev = set_simd_enabled(on);
                let out = w
                    .cluster
                    .query_batch(&w.pool, &params)
                    .into_iter()
                    .map(|r| r.unwrap().hits)
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

/// Every node job a batch submits runs to completion.
#[test]
fn scheduler_drains_every_job_of_a_batch() {
    let w = world(Alphabet::Protein, false);
    let cluster = MendelCluster::build(ClusterConfig::small_protein(), w.cluster.db()).unwrap();
    for r in cluster.query_batch(&w.pool, &QueryParams::protein()) {
        r.unwrap();
    }
    // The scheduler counts a job `completed` before it publishes the
    // job's result, so the counters agree as soon as the reports exist.
    let snap = cluster.metrics_snapshot();
    assert!(snap.counter("mendel.sched.submitted") > 0);
    assert_eq!(
        snap.counter("mendel.sched.submitted"),
        snap.counter("mendel.sched.completed")
    );
    assert_eq!(snap.counter("mendel.sched.job_panics"), 0);
}

/// Drift guard: a batch feeds the slow-query log and the degraded
/// counter once per query, exactly like the same queries asked singly.
#[test]
fn batch_observes_each_query_like_single_queries_do() {
    use mendel_suite::dht::NodeId;
    use mendel_suite::obs::SlowLogConfig;
    let w = world(Alphabet::Protein, false);
    let queries = &w.pool[..3];
    let observed = |run: &dyn Fn(&MendelCluster)| {
        // Replication 1: one dead node leaves blocks with no live copy.
        let cluster = MendelCluster::build(ClusterConfig::small_protein(), w.cluster.db()).unwrap();
        cluster.set_slowlog_config(SlowLogConfig {
            threshold: std::time::Duration::ZERO, // log everything
            sample_every: 0,
            capacity: 16,
        });
        cluster.fail_node(NodeId(1)).unwrap();
        run(&cluster);
        let entries = cluster.slowlog().entries();
        assert!(entries.iter().all(|e| e.query.degraded));
        (
            entries.len(),
            cluster.metrics_snapshot().counter("mendel.query.degraded"),
            cluster.metrics_snapshot().counter("mendel.query.count"),
        )
    };
    let params = QueryParams::protein();
    let singly = observed(&|c| {
        for q in queries {
            assert!(c.query(q, &params).unwrap().coverage.degraded);
        }
    });
    let batched = observed(&|c| {
        for r in c.query_batch(queries, &params) {
            assert!(r.unwrap().coverage.degraded);
        }
    });
    assert_eq!(singly, (3, 3, 3));
    assert_eq!(batched, singly);
}

/// Drift guard: every entry point rejects a too-short query with the
/// same words.
#[test]
fn too_short_query_error_is_the_same_from_every_entry_point() {
    let w = world(Alphabet::Protein, false);
    let params = QueryParams::protein();
    let short = vec![0u8; 4];
    let single = w.cluster.query(&short, &params).unwrap_err().to_string();
    let batch = w.cluster.query_batch(std::slice::from_ref(&short), &params);
    let wire = WireCluster::serve(w.cluster.clone());
    assert!(single.contains("4 residues"), "{single}");
    assert_eq!(batch[0].as_ref().unwrap_err().to_string(), single);
    assert_eq!(wire.query(&short, &params).unwrap_err().to_string(), single);
}
