//! Query parameters — Table I of the paper.
//!
//! | Parameter | Description                             | Type         |
//! |-----------|-----------------------------------------|--------------|
//! | `k`       | Sliding window step                     | int(1..∞)    |
//! | `n`       | No. of nearest neighbors to find        | int(1..∞)    |
//! | `i`       | Identity threshold                      | float(0..1)  |
//! | `c`       | Consecutivity score threshold           | float(0..1)  |
//! | `M`       | Scoring Matrix                          | string       |
//! | `S`       | Score threshold for gapped extension    | float(0..∞)  |
//! | `l`       | Gapped alignment band width             | int(0..∞)    |
//! | `E`       | Expectation value threshold             | float(0..∞)  |

use crate::error::MendelError;
use mendel_align::GapPenalties;

/// The eight Table I knobs plus the group-routing tolerance (an
/// implementation parameter of §V-B's multi-group fan-out: a query ball
/// of this radius follows both children when it straddles a vp-prefix
/// partition boundary).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryParams {
    /// `k` — sliding window step over the query: the query is normalized
    /// into subqueries of the indexed block length, stepping by `k`
    /// "rather than of size one, to reduce the amplification of the
    /// subqueries" (§V-B).
    pub k: usize,
    /// `n` — nearest neighbours fetched from each node's local index.
    pub n: usize,
    /// `i` — minimum percent identity for a candidate block.
    pub i: f32,
    /// `c` — minimum consecutivity score for a candidate block.
    pub c: f32,
    /// `M` — name of the scoring matrix used to score final alignments
    /// (`"BLOSUM62"` or `"DNA(+m/-n)"`-style; resolved by the cluster).
    pub m: String,
    /// `S` — normalized (bit) score an anchor needs before a gapped
    /// extension is attempted.
    pub s: f64,
    /// `l` — gapped alignment band width (diagonals either side).
    pub l: usize,
    /// `E` — report alignments with expectation value at most this.
    pub e: f64,
    /// Group-routing tolerance τ for the vp-prefix hash (0 = single
    /// group per subquery; larger values replicate subqueries to more
    /// groups, trading work for recall).
    pub group_tolerance: f32,
    /// Gap penalties for the gapped extension stage.
    pub gaps: GapPenalties,
    /// X-drop for the node-local ungapped anchor extension.
    pub x_drop_ungapped: i32,
    /// X-drop for the final gapped extension.
    pub x_drop_gapped: i32,
    /// Minimum raw score an extended anchor needs to survive at the
    /// storage node (§V-B extends "until the extension deteriorates the
    /// score of a match below the threshold"; anchors that never reach
    /// this score are chance k-NN neighbours, not seeds).
    pub min_anchor_score: i32,
    /// Per-subquery distance-call budget for each protein node's vp-tree
    /// search; DNA nodes do not read it, since their pigeonhole index
    /// finds every window within the identity filter's radius exactly
    /// (DESIGN.md §3). DNA's default is kept so a parameter set encodes
    /// as before. Short-window distances concentrate, so exact k-NN
    /// degenerates to a scan of the node's whole tree; the best-first
    /// traversal spends this budget on the subtrees nearest the query
    /// (see `VpTree::knn_with_budget`). The defaults (2,048 protein,
    /// 4,096 DNA) were picked together with
    /// `ClusterConfig::bucket_capacity` on a bucket × budget sweep
    /// (`crates/vptree/tests/frontier.rs`, DESIGN.md §21.1): the fastest
    /// setting whose filter-surviving recall is no lower than bucket 32
    /// at 1,024 / 2,048 on node trees of ~20 k to ~190 k points. A budget
    /// counts leaf candidates and vantage distances alike, so against a
    /// 256-window bucket it buys about a third of the vertices the old
    /// setting visited. `usize::MAX` = exact search.
    pub search_budget: usize,
}

impl QueryParams {
    /// Protein defaults: BLOSUM62, identity 0.40, c-score 0.55, gapped
    /// trigger 20 bits, band 24, E ≤ 10.
    pub fn protein() -> Self {
        QueryParams {
            k: 8,
            n: 8,
            i: 0.40,
            c: 0.55,
            m: "BLOSUM62".to_string(),
            s: 20.0,
            l: 24,
            e: 10.0,
            group_tolerance: 1.5,
            gaps: GapPenalties::BLASTP_DEFAULT,
            x_drop_ungapped: 18,
            x_drop_gapped: 38,
            min_anchor_score: 35,
            search_budget: 2048,
        }
    }

    /// DNA defaults: +2/−3 scoring, identity 0.6, band 16.
    pub fn dna() -> Self {
        QueryParams {
            k: 8,
            n: 8,
            i: 0.70,
            c: 0.60,
            m: "DNA(+2/-3)".to_string(),
            s: 16.0,
            l: 16,
            e: 10.0,
            group_tolerance: 1.0,
            gaps: GapPenalties::BLASTN_DEFAULT,
            x_drop_ungapped: 20,
            x_drop_gapped: 30,
            min_anchor_score: 24,
            search_budget: 4096,
        }
    }

    /// Check every Table I domain constraint.
    pub fn validate(&self) -> Result<(), MendelError> {
        if self.k < 1 {
            return Err(MendelError::Params("k must be >= 1".into()));
        }
        if self.n < 1 {
            return Err(MendelError::Params("n must be >= 1".into()));
        }
        for (name, v) in [("i", self.i), ("c", self.c)] {
            if !(0.0..=1.0).contains(&v) {
                return Err(MendelError::Params(format!("{name}={v} outside [0,1]")));
            }
        }
        if self.m.is_empty() {
            return Err(MendelError::Params(
                "M (scoring matrix) must be named".into(),
            ));
        }
        if self.s < 0.0 || !self.s.is_finite() {
            return Err(MendelError::Params(format!(
                "S={} must be finite and >= 0",
                self.s
            )));
        }
        // `+∞` is legal for both: report every hit, route to every group.
        // NaN compares false with everything, so it is refused by name.
        if self.e.is_nan() || self.e < 0.0 {
            return Err(MendelError::Params(format!("E={} must be >= 0", self.e)));
        }
        if self.group_tolerance.is_nan() || self.group_tolerance < 0.0 {
            return Err(MendelError::Params(format!(
                "group tolerance {} must be >= 0",
                self.group_tolerance
            )));
        }
        if self.search_budget == 0 {
            return Err(MendelError::Params("search budget must be >= 1".into()));
        }
        // Costs and drops, not rewards: `extend_ungapped` asserts on a
        // negative X-drop, and the gapped kernel's recurrence needs
        // open >= 0.
        for (name, v) in [
            ("gap open", self.gaps.open),
            ("gap extend", self.gaps.extend),
            ("ungapped X-drop", self.x_drop_ungapped),
            ("gapped X-drop", self.x_drop_gapped),
        ] {
            if v < 0 {
                return Err(MendelError::Params(format!("{name}={v} must be >= 0")));
            }
        }
        Ok(())
    }

    /// Render the Table I view of these parameters.
    pub fn table(&self) -> String {
        format!(
            "Parameter  Value        Description\n\
             k          {:<12} Sliding window step\n\
             n          {:<12} No. of nearest neighbors to find\n\
             i          {:<12} Identity threshold\n\
             c          {:<12} Consecutivity score threshold\n\
             M          {:<12} Scoring Matrix\n\
             S          {:<12} Score threshold for gapped extension\n\
             l          {:<12} Gapped alignment band width\n\
             E          {:<12} Expectation value threshold\n",
            self.k, self.n, self.i, self.c, self.m, self.s, self.l, self.e
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        QueryParams::protein().validate().unwrap();
        QueryParams::dna().validate().unwrap();
    }

    #[test]
    fn domain_violations_are_caught() {
        let ok = QueryParams::protein();
        assert!(QueryParams { k: 0, ..ok.clone() }.validate().is_err());
        assert!(QueryParams { n: 0, ..ok.clone() }.validate().is_err());
        assert!(QueryParams {
            i: 1.5,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(QueryParams {
            c: -0.1,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(QueryParams {
            m: String::new(),
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(QueryParams {
            s: -1.0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(QueryParams {
            s: f64::NAN,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(QueryParams {
            e: -2.0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(QueryParams {
            group_tolerance: -1.0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(QueryParams {
            e: f64::NAN,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(QueryParams {
            group_tolerance: f32::NAN,
            ..ok.clone()
        }
        .validate()
        .is_err());
        // Infinity reports everything / routes everywhere, and is allowed.
        QueryParams {
            e: f64::INFINITY,
            group_tolerance: f32::INFINITY,
            ..ok.clone()
        }
        .validate()
        .unwrap();
        assert!(QueryParams {
            search_budget: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        for gaps in [
            GapPenalties {
                open: -1,
                ..ok.gaps
            },
            GapPenalties {
                extend: -1,
                ..ok.gaps
            },
        ] {
            assert!(QueryParams { gaps, ..ok.clone() }.validate().is_err());
        }
        assert!(QueryParams {
            x_drop_ungapped: -1,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(QueryParams {
            x_drop_gapped: -1,
            ..ok.clone()
        }
        .validate()
        .is_err());
        // Zero costs nothing and drops nothing, and is allowed.
        QueryParams {
            gaps: GapPenalties { open: 0, extend: 0 },
            x_drop_ungapped: 0,
            x_drop_gapped: 0,
            ..ok
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn table_lists_all_eight_parameters() {
        let t = QueryParams::protein().table();
        for p in ["k ", "n ", "i ", "c ", "M ", "S ", "l ", "E "] {
            assert!(
                t.contains(&format!("\n{p}")) || t.starts_with(p),
                "missing row {p:?}"
            );
        }
        assert!(t.contains("BLOSUM62"));
    }
}
