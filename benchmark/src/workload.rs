//! The workloads: what corpus is generated, what queries are sent, by
//! how many clients, to which entry nodes. Everything here is a pure
//! function of the workload name and `--seed`.

use crate::rng::SplitMix64;

/// Nodes in every benchmark cluster.
pub const NODES: usize = 3;
/// Each residue of a query is substituted with this probability.
pub const SUBSTITUTION_RATE: f64 = 0.10;
/// A query counts towards recall when its source is among this many hits.
pub const RECALL_TOP: usize = 10;

/// One workload. Every corpus sequence starts from the same length, so
/// the amount of work depends little on the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub dna: bool,
    pub families: usize,
    pub members: usize,
    pub seq_len: usize,
    pub groups: usize,
    /// Closed-loop client threads (never more than `nproc` = 2 here).
    pub clients: usize,
    /// Q: distinct queries per pass.
    pub queries: usize,
    pub query_len: (usize, usize),
    /// P: measured passes in a run of [`NOMINAL_SECONDS`], sized so that
    /// they take a little less than that here.
    pub passes: usize,
    /// Queries per timed segment of a pass; a segment takes 0.5–0.7 s.
    pub segment: usize,
    /// Every query goes to node 0 unless this is set, in which case the
    /// entry node is drawn from the seed and rotated by pass, so every
    /// query meets every entry node.
    pub any_entry: bool,
}

/// `BENCHMARK.json`'s `run_seconds`; [`Spec::passes`] is sized for it.
pub const NOMINAL_SECONDS: f64 = 50.0;

/// Why each workload exists is recorded in `README.md` and in
/// `BENCHMARK.json`.
pub const SPECS: [Spec; 2] = [
    Spec {
        name: "protein-long",
        dna: false,
        families: 60,
        members: 6,
        seq_len: 800,
        groups: 1,
        clients: 1,
        queries: 100,
        query_len: (360, 480),
        passes: 8,
        segment: 10,
        any_entry: false,
    },
    Spec {
        name: "dna-concurrent",
        dna: true,
        families: 60,
        members: 6,
        seq_len: 1050,
        groups: 3,
        clients: 2,
        queries: 200,
        query_len: (150, 150),
        passes: 12,
        segment: 40,
        any_entry: true,
    },
];

/// Not a workload: the small corpus the traced run ingests once with and
/// once without `--data-dir` for the `store.*` metrics (one durable
/// ingest is one fsync per block, so it has to stay small).
pub const STORE_CORPUS: Spec = Spec {
    name: "store-corpus",
    dna: false,
    families: 3,
    members: 3,
    seq_len: 400,
    groups: 1,
    clients: 1,
    queries: 30,
    query_len: (120, 160),
    passes: 0,
    segment: 30,
    any_entry: true,
};

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The `mendel generate` command line (without the program name).
    pub fn generate_args(&self, seed: u64, out: &str) -> Vec<String> {
        let mut args: Vec<String> = [
            "generate",
            "--out",
            out,
            "--families",
            &self.families.to_string(),
            "--members",
            &self.members.to_string(),
            "--min-len",
            &self.seq_len.to_string(),
            "--max-len",
            &self.seq_len.to_string(),
            "--seed",
            &seed.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if self.dna {
            args.push("--dna".into());
        }
        args
    }

    /// Q after `--smoke` scaling.
    pub fn query_count(&self, smoke: bool) -> usize {
        if smoke {
            (self.queries / 10).max(2 * self.clients)
        } else {
            self.queries
        }
    }

    /// P for a run of `seconds`: a fixed count per workload, scaled with
    /// the run length asked for and never with how fast the machine or
    /// the commit is.
    pub fn pass_count(&self, seconds: f64, smoke: bool) -> usize {
        if smoke {
            2
        } else {
            ((self.passes as f64 * seconds / NOMINAL_SECONDS).round() as usize).max(2)
        }
    }
}

/// One query of the fixed list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Name of the corpus sequence the fragment was cut from.
    pub source: String,
    /// The residues sent as the request body.
    pub residues: String,
    /// Entry node in pass 0, rotated by pass; `None` pins the query to
    /// node 0 (see [`Spec::any_entry`]).
    pub entry: Option<usize>,
}

impl Query {
    /// The node that receives this query in `pass`.
    pub fn entry_node(&self, pass: usize) -> usize {
        self.entry.map_or(0, |e| (e + pass) % NODES)
    }
}

/// `(name, residues)` of each record; the name is the first word after
/// `>`, as the program reports it in its hits.
pub fn parse_fasta(text: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        if let Some(header) = line.strip_prefix('>') {
            let name = header.split_whitespace().next().unwrap_or("").to_string();
            out.push((name, String::new()));
        } else if let Some((_, residues)) = out.last_mut() {
            residues.push_str(line.trim());
        }
    }
    out
}

/// The query list for `spec` and `seed`: fragments of random corpus
/// sequences, each residue substituted with probability
/// [`SUBSTITUTION_RATE`] by a different letter of the alphabet.
pub fn make_queries(spec: &Spec, seed: u64, count: usize, fasta: &str) -> Vec<Query> {
    let corpus = parse_fasta(fasta);
    assert!(!corpus.is_empty(), "corpus has no sequences");
    let letters: &[u8] = if spec.dna {
        b"ACGT"
    } else {
        b"ACDEFGHIKLMNPQRSTVWY"
    };
    // A stream of its own, so the corpus seed and the query seed differ.
    let mut rng = SplitMix64::new(seed ^ 0x6d65_6e64_656c_2d71);
    (0..count)
        .map(|_| {
            let (name, residues) = &corpus[rng.below(corpus.len())];
            let bytes = residues.as_bytes();
            let len = rng
                .range(spec.query_len.0, spec.query_len.1)
                .min(bytes.len());
            let start = rng.range(0, bytes.len() - len);
            let fragment: Vec<u8> = bytes[start..start + len]
                .iter()
                .map(|&b| {
                    if !rng.chance(SUBSTITUTION_RATE) {
                        return b;
                    }
                    loop {
                        let sub = letters[rng.below(letters.len())];
                        if sub != b {
                            return sub;
                        }
                    }
                })
                .collect();
            Query {
                source: name.clone(),
                residues: String::from_utf8(fragment).expect("ASCII residues"),
                entry: spec.any_entry.then(|| rng.below(NODES)),
            }
        })
        .collect()
}

/// Client `c` of `clients` takes the queries `i ≡ c (mod clients)`.
pub fn client_split(queries: usize, clients: usize) -> Vec<Vec<usize>> {
    (0..clients)
        .map(|c| (c..queries).step_by(clients).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FASTA: &str =
        ">fam0_m0 family 0 member 0\nACGTACGTACGTACGTACGTACGTACGTACGT\nACGTACGTAC\n\
                         >fam1_m0 family 1 member 0\nTTTTGGGGCCCCAAAATTTTGGGGCCCCAAAATTTTGGGG\n";

    fn tiny() -> Spec {
        Spec {
            query_len: (8, 12),
            ..spec("dna-concurrent").unwrap().clone()
        }
    }

    #[test]
    fn fasta_names_and_residues() {
        let parsed = parse_fasta(FASTA);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "fam0_m0");
        assert_eq!(parsed[0].1.len(), 42);
        assert_eq!(parsed[1].0, "fam1_m0");
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let s = tiny();
        assert_eq!(s.generate_args(7, "c.fa"), s.generate_args(7, "c.fa"));
        assert_eq!(
            s.generate_args(7, "c.fa").join(" "),
            "generate --out c.fa --families 60 --members 6 --min-len 1050 --max-len 1050 --seed 7 --dna"
        );
        assert_ne!(s.generate_args(7, "c.fa"), s.generate_args(8, "c.fa"));
        let a = make_queries(&s, 7, 40, FASTA);
        let b = make_queries(&s, 7, 40, FASTA);
        let c = make_queries(&s, 8, 40, FASTA);
        assert_eq!(a, b, "query list, sources and entry-node schedule repeat");
        assert_ne!(a, c);
        let entries = |qs: &[Query]| qs.iter().map(|q| q.entry).collect::<Vec<_>>();
        assert_ne!(
            entries(&a),
            entries(&c),
            "entry-node schedule follows the seed"
        );
        assert_eq!(client_split(40, 2), client_split(40, 2));
    }

    #[test]
    fn queries_are_fragments_with_substitutions() {
        let s = tiny();
        let queries = make_queries(&s, 3, 200, FASTA);
        let corpus = parse_fasta(FASTA);
        let mut changed = 0;
        let mut total = 0;
        for q in &queries {
            assert!((8..=12).contains(&q.residues.len()));
            assert!(q.residues.bytes().all(|b| b"ACGT".contains(&b)));
            assert!(q.entry.is_some_and(|e| e < NODES));
            let source = &corpus.iter().find(|(n, _)| *n == q.source).unwrap().1;
            // The closest window of the source differs in about 10 % of places.
            let best = source
                .as_bytes()
                .windows(q.residues.len())
                .map(|w| {
                    w.iter()
                        .zip(q.residues.bytes())
                        .filter(|(a, b)| **a != *b)
                        .count()
                })
                .min()
                .unwrap();
            changed += best;
            total += q.residues.len();
        }
        let rate = changed as f64 / total as f64;
        assert!((0.05..0.15).contains(&rate), "{rate}");
    }

    #[test]
    fn entry_nodes_rotate_by_pass_and_clients_split_by_residue_class() {
        let q = Query {
            source: "s".into(),
            residues: "ACGT".into(),
            entry: Some(2),
        };
        assert_eq!(
            [q.entry_node(0), q.entry_node(1), q.entry_node(2)],
            [2, 0, 1]
        );
        assert_eq!(client_split(5, 2), vec![vec![0, 2, 4], vec![1, 3]]);
        assert_eq!(client_split(3, 1), vec![vec![0, 1, 2]]);
        let fixed = make_queries(
            spec("protein-long").unwrap(),
            1,
            5,
            ">a\nACDEFGHIKLMNPQRSTVWY\n",
        );
        assert!(fixed
            .iter()
            .all(|q| q.entry_node(0) == 0 && q.entry_node(1) == 0));
    }

    #[test]
    fn specs_are_named_once_and_smoke_shrinks_q() {
        for (i, a) in SPECS.iter().enumerate() {
            assert!(SPECS[i + 1..].iter().all(|b| b.name != a.name));
            assert!(a.clients <= 2);
        }
        let long = spec("protein-long").unwrap();
        assert_eq!(long.query_count(true), 10);
        assert_eq!(long.query_count(false), 100);
        assert_eq!(long.pass_count(NOMINAL_SECONDS, false), long.passes);
        assert_eq!(long.pass_count(10.0, false), 2);
        assert_eq!(long.pass_count(25.0, false), 4);
        assert_eq!(long.pass_count(NOMINAL_SECONDS, true), 2);
        assert!(spec("nope").is_none());
    }
}
