//! Atomic-ordering audit: every `Ordering::*` site carries a reviewed
//! justification.
//!
//! The analysis walks the token stream for the exact path tokens
//! `Ordering :: <Relaxed|Acquire|Release|AcqRel|SeqCst>` (so
//! `cmp::Ordering::Less` never matches and string/comment mentions are
//! invisible). Each non-test site must be annotated with a marker in a
//! comment on the same line or the line directly above:
//!
//! ```text
//! // audit:ordering(Relaxed): statistics counter; no data is
//! // published under this value.
//! hits.fetch_add(1, Ordering::Relaxed);
//! ```
//!
//! The marker's ordering must match the site's ordering — changing
//! `Relaxed` to `AcqRel` invalidates the old justification on purpose.
//! Any unannotated site fails the audit; there is no baseline.

use crate::lexer::{lex, TokKind};
use crate::report::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// The five memory orderings.
pub const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One `Ordering::*` use site.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    pub file: String,
    pub line: usize,
    pub ordering: String,
    /// The annotation reason, when a matching marker was found.
    pub reason: Option<String>,
}

impl AtomicSite {
    pub fn annotated(&self) -> bool {
        self.reason.is_some()
    }
}

/// Whole-workspace atomic-ordering report.
#[derive(Debug, Default)]
pub struct AtomicsReport {
    pub files: usize,
    pub sites: Vec<AtomicSite>,
}

impl AtomicsReport {
    pub fn unannotated(&self) -> Vec<&AtomicSite> {
        self.sites.iter().filter(|s| !s.annotated()).collect()
    }

    /// Clean when every site is annotated.
    pub fn is_clean(&self) -> bool {
        self.sites.iter().all(AtomicSite::annotated)
    }

    /// Sites per ordering (annotated or not) — the inventory.
    pub fn inventory(&self) -> BTreeMap<String, usize> {
        let mut inv = BTreeMap::new();
        for site in &self.sites {
            *inv.entry(site.ordering.clone()).or_insert(0) += 1;
        }
        inv
    }
}

/// Scan one file for `Ordering::*` sites and their annotations.
pub fn scan_source(file: &str, source: &str) -> Vec<AtomicSite> {
    let lexed = lex(source);
    let toks = &lexed.tokens;
    let mut sites = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("Ordering") || toks[i].in_test {
            continue;
        }
        let path = toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'));
        if !path {
            continue;
        }
        let Some(ord) = toks
            .get(i + 3)
            .filter(|t| t.kind == TokKind::Ident && ORDERINGS.contains(&t.text.as_str()))
        else {
            continue;
        };
        let line = ord.line;
        // An `audit:ordering(<ord>): <reason>` marker on the site's line
        // or the line directly above, naming the site's ordering.
        let reason = [line, line - 1]
            .into_iter()
            .flat_map(|l| lexed.markers(l, "ordering"))
            .find(|&(named, _)| named == ord.text)
            .map(|(_, reason)| reason.to_string());
        sites.push(AtomicSite {
            file: file.to_string(),
            line,
            ordering: ord.text.clone(),
            reason,
        });
    }
    sites
}

/// Scan every workspace source file under `root`.
pub fn scan_workspace(root: &Path) -> Result<AtomicsReport, String> {
    let files =
        crate::workspace_rs_files(root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
    let mut report = AtomicsReport::default();
    for rel_path in files {
        let rel = crate::slash_path(&rel_path);
        let source = std::fs::read_to_string(root.join(&rel_path))
            .map_err(|e| format!("read {}: {e}", rel_path.display()))?;
        report.sites.extend(scan_source(&rel, &source));
        report.files += 1;
    }
    Ok(report)
}

/// Human-readable report: the inventory, then every unannotated site.
pub fn render_report(report: &AtomicsReport) -> String {
    let unannotated = report.unannotated();
    let mut out = format!(
        "atomics: {} files, {} Ordering::* sites ({} annotated, {} unannotated)\n",
        report.files,
        report.sites.len(),
        report.sites.len() - unannotated.len(),
        unannotated.len(),
    );
    out.push_str("inventory:");
    for (ordering, count) in report.inventory() {
        out.push_str(&format!(" {ordering}={count}"));
    }
    out.push('\n');
    if unannotated.is_empty() {
        out.push_str("every site annotated.\n");
    } else {
        for site in unannotated {
            out.push_str(&format!(
                "  unannotated: {}:{} Ordering::{}\n",
                site.file, site.line, site.ordering
            ));
        }
        out.push_str("annotate with `audit:ordering(<Ord>): <reason>` or fix the ordering.\n");
    }
    out
}

/// JSON document for trend tracking (`ci.sh` writes it under `target/ci/`).
pub fn to_json(report: &AtomicsReport) -> Json {
    Json::Obj(vec![
        ("analysis".into(), Json::str("atomics")),
        ("files".into(), Json::count(report.files)),
        ("sites".into(), Json::count(report.sites.len())),
        (
            "unannotated".into(),
            Json::count(report.unannotated().len()),
        ),
        (
            "inventory".into(),
            Json::Obj(
                report
                    .inventory()
                    .into_iter()
                    .map(|(k, v)| (k, Json::count(v)))
                    .collect(),
            ),
        ),
        (
            "sites_detail".into(),
            Json::Arr(
                report
                    .sites
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("file".into(), Json::str(&s.file)),
                            ("line".into(), Json::count(s.line)),
                            ("ordering".into(), Json::str(&s.ordering)),
                            ("annotated".into(), Json::Bool(s.annotated())),
                            (
                                "reason".into(),
                                match &s.reason {
                                    Some(r) => Json::str(r),
                                    None => Json::Null,
                                },
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("clean".into(), Json::Bool(report.is_clean())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites(src: &str) -> Vec<AtomicSite> {
        scan_source("crates/x/src/m.rs", src)
    }

    #[test]
    fn finds_memory_orderings_only() {
        let src = "fn f() {\n    x.load(Ordering::Relaxed);\n    match a.cmp(b) { Ordering::Less => {} _ => {} }\n}";
        let got = sites(src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].ordering, "Relaxed");
        assert_eq!(got[0].line, 2);
    }

    #[test]
    fn annotation_same_line_or_above() {
        let src = "fn f() {\n    // audit:ordering(Relaxed): stats only\n    x.load(Ordering::Relaxed);\n    y.store(1, Ordering::Release); // audit:ordering(Release): publishes the slot\n    z.load(Ordering::Acquire);\n}";
        let got = sites(src);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].reason.as_deref(), Some("stats only"));
        assert_eq!(got[1].reason.as_deref(), Some("publishes the slot"));
        assert!(got[2].reason.is_none());
    }

    #[test]
    fn annotation_ordering_must_match() {
        let src = "fn f() {\n    // audit:ordering(Acquire): wrong ordering named\n    x.load(Ordering::Relaxed);\n}";
        assert!(!sites(src)[0].annotated());
    }

    #[test]
    fn empty_reason_does_not_annotate() {
        let src = "fn f() {\n    // audit:ordering(Relaxed):\n    x.load(Ordering::Relaxed);\n}";
        assert!(!sites(src)[0].annotated());
    }

    #[test]
    fn two_orderings_one_line_one_marker() {
        let src = "fn f() {\n    // audit:ordering(Relaxed): monotonic CAS retry loop\n    c.compare_exchange(a, b, Ordering::Relaxed, Ordering::Relaxed);\n}";
        let got = sites(src);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|s| s.annotated()));
    }

    #[test]
    fn test_code_is_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.load(Ordering::SeqCst); }\n}";
        assert!(sites(src).is_empty());
    }

    #[test]
    fn strings_do_not_match() {
        let src = "fn f() { let s = \"Ordering::Relaxed\"; }";
        assert!(sites(src).is_empty());
    }
}
