//! Ablation — second-tier placement: flat SHA-1 vs a second vp-prefix
//! hash *within* groups (§V-A2).
//!
//! The paper tried similarity hashing at both tiers and rejected it:
//! "Employing a second-tier vp-prefix hashing tree at this level proved
//! to be ineffective. Load balancing became significantly harder ...
//! Furthermore ... grouping similar blocks onto the same node
//! drastically reduces the amount of parallelism." This ablation
//! measures both effects: per-node load spread, and how many of a
//! group's members hold the blocks relevant to a query (the group-wide
//! parallelism a query can exploit).
//!
//! ```sh
//! cargo run --release -p mendel-bench --bin ablation_group_hash
//! ```

#![allow(
    clippy::print_stdout,
    clippy::unwrap_used,
    reason = "a bench binary reports on stdout and aborts on impossible fixture state with the message as the diagnostic"
)]

use mendel::{make_blocks, MetricKind};
use mendel_bench::{figure_header, protein_db, query_set, DB_SEED};
use mendel_dht::{FlatPlacement, GroupId, LoadReport, NodeId, Topology};
use mendel_vptree::{GroupAssignment, VpPrefixTree};

const NODES: usize = 50;
const GROUPS: usize = 10;
const GROUP_SIZE: usize = NODES / GROUPS;
const BLOCK_LEN: usize = 16;

fn main() {
    figure_header(
        "Ablation: group-internal hash",
        "flat SHA-1 vs second-tier vp-prefix placement within groups",
    );
    let db = protein_db(400_000);
    let topo = Topology::new(NODES, GROUPS);
    let metric = MetricKind::MendelBlosum62.instantiate();

    // First tier (shared by both variants): vp-prefix to groups.
    let sample: Vec<Vec<u8>> = db
        .iter()
        .flat_map(|s| {
            s.residues
                .windows(BLOCK_LEN)
                .step_by(97)
                .map(|w| w.to_vec())
                .collect::<Vec<_>>()
        })
        .collect();
    let tier1 = VpPrefixTree::build(sample.clone(), metric.clone(), 6, DB_SEED);
    let assign = GroupAssignment::new(tier1.num_buckets(), GROUPS);
    // Variant B second tier: a vp-prefix hash over each group's slice of
    // the same sample, with enough depth to cover the group members.
    let tier2 = VpPrefixTree::build(sample, metric.clone(), 3, DB_SEED ^ 1);
    let placement = FlatPlacement::new();

    let group_of = |window: &Vec<u8>| -> GroupId {
        GroupId(assign.group_of_bucket(tier1.bucket_index(tier1.hash(window))) as u16)
    };

    let mut flat_load = vec![0u64; NODES];
    let mut vp_load = vec![0u64; NODES];
    // Remember, per variant, which node got each block (for the
    // parallelism probe below).
    let mut flat_node_of = std::collections::HashMap::new();
    let mut vp_node_of = std::collections::HashMap::new();
    for s in db.iter() {
        for b in make_blocks(s, BLOCK_LEN) {
            let g = group_of(&b.window.to_vec());
            let members = topo.group_members(g);
            // (a) flat SHA-1 within the group.
            let n_flat = placement.primary(&topo, g, &b.key().as_bytes()).unwrap();
            flat_load[n_flat.0 as usize] += b.window.len() as u64;
            flat_node_of.insert(b.key(), n_flat);
            // (b) vp-prefix within the group: bucket the window again and
            // fold the finer bucket onto the group's members.
            let bucket = tier2.bucket_index(tier2.hash(&b.window));
            let n_vp = members[bucket * members.len() / tier2.num_buckets()];
            vp_load[n_vp.0 as usize] += b.window.len() as u64;
            vp_node_of.insert(b.key(), n_vp);
        }
    }

    let flat_report = LoadReport::new(
        flat_load
            .iter()
            .enumerate()
            .map(|(i, &b)| (NodeId(i as u16), b))
            .collect(),
    );
    let vp_report = LoadReport::new(
        vp_load
            .iter()
            .enumerate()
            .map(|(i, &b)| (NodeId(i as u16), b))
            .collect(),
    );

    // Parallelism probe: for each query, how many distinct nodes of the
    // routed group hold blocks similar to the query's windows?
    // For the blocks a perfect search would touch (the source sequence's
    // blocks under the query window), count how many members of each
    // *routed group* hold them — the intra-group parallelism a query can
    // exploit (§V-A2's point).
    let queries = query_set(&db, 12, 400, 0.9);
    let mut flat_distinct = 0.0f64;
    let mut vp_distinct = 0.0f64;
    let mut samples = 0usize;
    for q in &queries {
        let src = db.get(q.source).unwrap();
        let mut f: std::collections::HashMap<GroupId, std::collections::HashSet<NodeId>> =
            Default::default();
        let mut v: std::collections::HashMap<GroupId, std::collections::HashSet<NodeId>> =
            Default::default();
        for start in q.source_start..q.source_start + 400 - BLOCK_LEN {
            let key = mendel::BlockKey {
                seq: src.id,
                start: start as u32,
            };
            let window = src.residues[start..start + BLOCK_LEN].to_vec();
            let g = group_of(&window);
            if let Some(n) = flat_node_of.get(&key) {
                f.entry(g).or_default().insert(*n);
            }
            if let Some(n) = vp_node_of.get(&key) {
                v.entry(g).or_default().insert(*n);
            }
        }
        flat_distinct += f.values().map(|s| s.len()).sum::<usize>() as f64 / f.len() as f64;
        vp_distinct += v.values().map(|s| s.len()).sum::<usize>() as f64 / v.len() as f64;
        samples += 1;
    }
    let fd = flat_distinct / samples as f64;
    let vd = vp_distinct / samples as f64;

    println!("{:>28} | {:>12} | {:>12}", "", "flat SHA-1", "vp-prefix");
    println!("{}", "-".repeat(60));
    println!(
        "{:>28} | {:>12.3} | {:>12.3}",
        "load spread (pp, max-min)",
        flat_report.spread_pct(),
        vp_report.spread_pct()
    );
    println!(
        "{:>28} | {:>12.3} | {:>12.3}",
        "load stddev (pp)",
        flat_report.stddev_pct(),
        vp_report.stddev_pct()
    );
    println!(
        "{:>28} | {:>12.2} | {:>12.2}",
        format!("nodes serving a query (of {GROUP_SIZE})"),
        fd,
        vd
    );
    println!(
        "\npaper claim: flat hash balances better AND spreads a query's relevant\nblocks over more group members (parallelism) -> {}",
        if flat_report.spread_pct() <= vp_report.spread_pct() && fd >= vd {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}
