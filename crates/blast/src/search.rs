//! The BLAST search pipeline: seeding, two-hit filtering, ungapped and
//! gapped extension, E-value ranking.

use crate::index::WordIndex;
use crate::word::{neighborhood, query_words, unpack_word, WordSpec};
use mendel_align::karlin::solve_ungapped_background;
use mendel_align::{extend_gapped_banded, extend_ungapped, GapPenalties, KarlinParams};
use mendel_seq::dist::percent_identity;
use mendel_seq::{ScoringMatrix, SeqId, SeqStore};
use std::collections::HashMap;
use std::sync::Arc;

/// Tunable parameters of the BLAST pipeline.
#[derive(Debug, Clone)]
pub struct BlastParams {
    /// Word shape (length + packing radix).
    pub spec: WordSpec,
    /// Substitution matrix.
    pub matrix: ScoringMatrix,
    /// Neighbourhood threshold `T`; `None` seeds on exact words only
    /// (blastn behaviour).
    pub neighborhood_threshold: Option<i32>,
    /// Two-hit window `A`; `None` triggers extension on every seed
    /// (one-hit mode, more sensitive and slower).
    pub two_hit_window: Option<usize>,
    /// X-drop for the ungapped extension.
    pub x_drop_ungapped: i32,
    /// X-drop for the banded gapped extension.
    pub x_drop_gapped: i32,
    /// Raw ungapped score required to attempt a gapped extension.
    pub gap_trigger: i32,
    /// Minimum ungapped HSP score to keep at all.
    pub min_ungapped_score: i32,
    /// Affine gap penalties for the gapped stage.
    pub gaps: GapPenalties,
    /// Band half-width for the gapped extension.
    pub band: usize,
    /// Karlin–Altschul parameters used for E-values of reported scores.
    pub karlin: KarlinParams,
    /// Report hits with `E ≤ evalue_cutoff`.
    pub evalue_cutoff: f64,
}

impl BlastParams {
    /// blastp-like defaults: BLOSUM62, 3-letter words, T = 11, two-hit
    /// window 40, gaps 11/1.
    pub fn protein() -> Self {
        BlastParams {
            spec: WordSpec::protein(),
            matrix: ScoringMatrix::blosum62(),
            neighborhood_threshold: Some(11),
            two_hit_window: Some(40),
            x_drop_ungapped: 16,
            x_drop_gapped: 38,
            gap_trigger: 41,
            min_ungapped_score: 23,
            gaps: GapPenalties::BLASTP_DEFAULT,
            band: 24,
            karlin: KarlinParams::BLOSUM62_GAPPED_11_1,
            evalue_cutoff: 10.0,
        }
    }

    /// blastn-like defaults: 11-letter exact words, +2/−3, gaps 5/2.
    /// Karlin parameters are solved numerically for the scoring system.
    pub fn dna() -> Self {
        let matrix = ScoringMatrix::dna(2, -3);
        #[expect(
            clippy::expect_used,
            reason = "+2/-3 has negative drift and positive max score, so the Karlin solver always converges"
        )]
        let karlin = solve_ungapped_background(&matrix)
            .expect("+2/-3 has negative drift and positive scores");
        BlastParams {
            spec: WordSpec::dna(),
            matrix,
            neighborhood_threshold: None,
            two_hit_window: None,
            x_drop_ungapped: 20,
            x_drop_gapped: 30,
            gap_trigger: 25,
            min_ungapped_score: 22, // exact 11-mer seed scores 22
            gaps: GapPenalties::BLASTN_DEFAULT,
            band: 16,
            karlin,
            evalue_cutoff: 10.0,
        }
    }
}

/// One reported database hit.
#[derive(Debug, Clone, PartialEq)]
pub struct BlastHit {
    /// Subject sequence.
    pub subject: SeqId,
    /// Final (gapped where attempted) raw score.
    pub score: i32,
    /// Bit score.
    pub bits: f64,
    /// Expectation value against the whole database.
    pub evalue: f64,
    /// Query range of the best HSP.
    pub query_start: usize,
    /// Exclusive query end.
    pub query_end: usize,
    /// Subject range of the best HSP.
    pub subject_start: usize,
    /// Exclusive subject end.
    pub subject_end: usize,
    /// Percent identity over the seeding ungapped segment.
    pub identity: f32,
}

/// A BLAST searcher over an indexed database.
pub struct Blast {
    db: Arc<SeqStore>,
    index: WordIndex,
    params: BlastParams,
    db_residues: usize,
}

impl Blast {
    /// Index `db` under `params`.
    pub fn new(db: Arc<SeqStore>, params: BlastParams) -> Self {
        let index = WordIndex::build(&db, params.spec);
        let db_residues = db.total_residues();
        Blast {
            db,
            index,
            params,
            db_residues,
        }
    }

    /// Search one encoded query, returning hits sorted by ascending
    /// E-value (best first).
    pub fn search(&self, query: &[u8]) -> Vec<BlastHit> {
        let p = &self.params;
        let k = p.spec.k;
        if query.len() < k {
            return Vec::new();
        }

        // 1. Seed words (neighbourhood-expanded for proteins).
        let words = query_words(p.spec, query);
        let mut hood_cache: HashMap<u32, Vec<u32>> = HashMap::new();
        // Raw seed hits keyed by (subject, diagonal).
        let mut by_diag: HashMap<(SeqId, i64), Vec<(usize, usize)>> = HashMap::new();
        for (qpos, w) in &words {
            let seeds: &[u32] = match p.neighborhood_threshold {
                None => std::slice::from_ref(w),
                Some(t) => hood_cache.entry(*w).or_insert_with(|| {
                    neighborhood(p.spec, &unpack_word(p.spec, *w), &p.matrix, t)
                }),
            };
            for &seed in seeds {
                for post in self.index.lookup(seed) {
                    let diag = post.offset as i64 - *qpos as i64;
                    by_diag
                        .entry((post.seq, diag))
                        .or_default()
                        .push((*qpos, post.offset as usize));
                }
            }
        }

        // 2. Per-diagonal two-hit filtering and ungapped extension.
        struct Segment {
            qs: usize,
            qe: usize,
            ss: usize,
            score: i32,
        }
        let mut per_subject: HashMap<SeqId, Vec<Segment>> = HashMap::new();
        for ((seq, _diag), mut hits) in by_diag {
            hits.sort_unstable();
            hits.dedup();
            #[expect(
                clippy::expect_used,
                reason = "index invariant; postings only reference sequences stored in the same db"
            )]
            let subject = &self
                .db
                .get(seq)
                .expect("posting references live sequence")
                .residues;
            let mut covered_to: i64 = -1; // rightmost query end already extended
            let mut last_hit_q: Option<usize> = None;
            for (qpos, spos) in hits {
                if (qpos as i64) < covered_to {
                    last_hit_q = Some(qpos);
                    continue; // already inside an extended segment
                }
                let trigger = match p.two_hit_window {
                    None => true,
                    Some(window) => match last_hit_q {
                        // A second non-overlapping hit within the window on
                        // the same diagonal triggers the extension.
                        Some(prev) => qpos > prev && qpos - prev <= window,
                        None => false,
                    },
                };
                last_hit_q = Some(qpos);
                if !trigger {
                    continue;
                }
                let ext =
                    extend_ungapped(query, subject, qpos, spos, k, &p.matrix, p.x_drop_ungapped);
                covered_to = ext.query_end as i64;
                if ext.score >= p.min_ungapped_score {
                    per_subject.entry(seq).or_default().push(Segment {
                        qs: ext.query_start,
                        qe: ext.query_end,
                        ss: ext.subject_start,
                        score: ext.score,
                    });
                }
            }
        }

        // 3. Gapped extension for HSPs over the trigger; keep the best HSP
        //    per subject; rank by E-value.
        let mut out: Vec<BlastHit> = Vec::new();
        for (seq, mut segments) in per_subject {
            // Deterministic winner among equal-scoring HSPs regardless of
            // hash-map iteration order.
            segments.sort_unstable_by_key(|s| (s.qs, s.ss, std::cmp::Reverse(s.score)));
            #[expect(
                clippy::expect_used,
                reason = "index invariant; per_subject keys come from live postings"
            )]
            let subject = &self.db.get(seq).expect("live sequence").residues;
            let mut best: Option<BlastHit> = None;
            for seg in &segments {
                let identity = percent_identity(
                    &query[seg.qs..seg.qe],
                    &subject[seg.ss..seg.ss + (seg.qe - seg.qs)],
                )
                .unwrap_or(0.0);
                let (score, qr, sr) = if seg.score >= p.gap_trigger {
                    let q_mid = (seg.qs + seg.qe) / 2;
                    let s_mid = seg.ss + (q_mid - seg.qs);
                    let g = extend_gapped_banded(
                        query,
                        subject,
                        q_mid,
                        s_mid,
                        &p.matrix,
                        p.gaps,
                        p.band,
                        p.x_drop_gapped,
                    );
                    (
                        g.score.max(seg.score),
                        (g.query_start, g.query_end),
                        (g.subject_start, g.subject_end),
                    )
                } else {
                    (
                        seg.score,
                        (seg.qs, seg.qe),
                        (seg.ss, seg.ss + (seg.qe - seg.qs)),
                    )
                };
                let evalue = p.karlin.evalue(score, query.len(), self.db_residues);
                let hit = BlastHit {
                    subject: seq,
                    score,
                    bits: p.karlin.bit_score(score),
                    evalue,
                    query_start: qr.0,
                    query_end: qr.1,
                    subject_start: sr.0,
                    subject_end: sr.1,
                    identity,
                };
                if best.as_ref().is_none_or(|b| hit.score > b.score) {
                    best = Some(hit);
                }
            }
            if let Some(hit) = best {
                if hit.evalue <= p.evalue_cutoff {
                    out.push(hit);
                }
            }
        }
        out.sort_by(|a, b| {
            a.evalue
                .total_cmp(&b.evalue)
                .then(b.score.cmp(&a.score))
                .then(a.subject.cmp(&b.subject))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mendel_seq::gen::{mutate_to_identity, NrLikeSpec, QuerySetSpec};
    use mendel_seq::Alphabet;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn protein_db() -> Arc<SeqStore> {
        Arc::new(
            NrLikeSpec {
                families: 24,
                members_per_family: 3,
                length_range: (150, 400),
                seed: 0xB1A57,
                ..Default::default()
            }
            .generate()
            .unwrap(),
        )
    }

    #[test]
    fn finds_exact_self_hit_with_tiny_evalue() {
        let db = protein_db();
        let blast = Blast::new(db.clone(), BlastParams::protein());
        let target = db.get(SeqId(5)).unwrap();
        let hits = blast.search(&target.residues);
        assert!(!hits.is_empty(), "self-query must hit");
        let top = &hits[0];
        assert_eq!(top.subject, SeqId(5));
        assert!(top.evalue < 1e-20, "self E-value {}", top.evalue);
        assert!(top.identity > 0.99);
    }

    #[test]
    fn finds_mutated_homolog() {
        let db = protein_db();
        let blast = Blast::new(db.clone(), BlastParams::protein());
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let src = db.get(SeqId(9)).unwrap();
        let query = mutate_to_identity(Alphabet::Protein, &src.residues, 0.7, &mut rng).unwrap();
        let hits = blast.search(&query);
        assert!(
            hits.iter().any(|h| h.subject == SeqId(9)),
            "70%-identity homolog must be found"
        );
    }

    #[test]
    fn unrelated_random_query_finds_nothing_significant() {
        let db = protein_db();
        let mut params = BlastParams::protein();
        params.evalue_cutoff = 1e-3;
        let blast = Blast::new(db, params);
        let mut rng = ChaCha8Rng::seed_from_u64(78);
        let query = mendel_seq::gen::random_sequence(Alphabet::Protein, 300, &mut rng);
        let hits = blast.search(&query);
        assert!(
            hits.is_empty(),
            "random query should have no E<1e-3 hits, got {:?}",
            hits.first()
        );
    }

    #[test]
    fn family_members_rank_above_strangers() {
        let db = protein_db();
        let blast = Blast::new(db.clone(), BlastParams::protein());
        let q = db.iter().find(|s| s.name == "fam3_m0").unwrap();
        let hits = blast.search(&q.residues);
        // The top hits should all be family-3 members.
        let top_names: Vec<&str> = hits
            .iter()
            .take(3)
            .map(|h| db.get(h.subject).unwrap().name.as_str())
            .collect();
        for n in &top_names {
            assert!(
                n.starts_with("fam3_"),
                "unexpected top hit {n} in {top_names:?}"
            );
        }
    }

    #[test]
    fn dna_search_finds_planted_match() {
        let mut st = SeqStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(79);
        for i in 0..10 {
            let codes = mendel_seq::gen::random_sequence(Alphabet::Dna, 600, &mut rng);
            st.insert(mendel_seq::Sequence::from_codes(
                format!("d{i}"),
                Alphabet::Dna,
                codes,
            ));
        }
        let db = Arc::new(st);
        let blast = Blast::new(db.clone(), BlastParams::dna());
        let src = db.get(SeqId(4)).unwrap();
        let query = src.residues[100..400].to_vec();
        let hits = blast.search(&query);
        assert_eq!(hits[0].subject, SeqId(4));
        assert!(hits[0].subject_start <= 100 && hits[0].subject_end >= 380);
    }

    #[test]
    fn query_shorter_than_word_is_empty() {
        let db = protein_db();
        let blast = Blast::new(db, BlastParams::protein());
        assert!(blast.search(&[0, 1]).is_empty());
        assert!(blast.search(&[]).is_empty());
    }

    #[test]
    fn one_hit_mode_is_at_least_as_sensitive_as_two_hit() {
        let db = protein_db();
        let queries = QuerySetSpec {
            count: 6,
            length: 120,
            identity: 0.55,
            seed: 80,
        }
        .generate(&db)
        .unwrap();
        let two_hit = Blast::new(db.clone(), BlastParams::protein());
        let mut p1 = BlastParams::protein();
        p1.two_hit_window = None;
        let one_hit = Blast::new(db.clone(), p1);
        let found = |b: &Blast| {
            queries
                .iter()
                .filter(|q| {
                    b.search(&q.query.residues)
                        .iter()
                        .any(|h| h.subject == q.source)
                })
                .count()
        };
        assert!(found(&one_hit) >= found(&two_hit));
    }

    #[test]
    fn results_are_deterministic() {
        let db = protein_db();
        let blast = Blast::new(db.clone(), BlastParams::protein());
        let q = db.get(SeqId(0)).unwrap();
        let a = blast.search(&q.residues);
        let b = blast.search(&q.residues);
        assert_eq!(a, b);
    }

    #[test]
    fn evalue_cutoff_filters_weak_hits() {
        let db = protein_db();
        let mut loose = BlastParams::protein();
        loose.evalue_cutoff = f64::INFINITY;
        let mut strict = BlastParams::protein();
        strict.evalue_cutoff = 1e-30;
        let q = db.get(SeqId(2)).unwrap().residues.clone();
        let n_loose = Blast::new(db.clone(), loose).search(&q).len();
        let n_strict = Blast::new(db.clone(), strict).search(&q).len();
        assert!(n_loose >= n_strict);
        assert!(n_strict >= 1, "the self-hit survives any cutoff");
    }
}
