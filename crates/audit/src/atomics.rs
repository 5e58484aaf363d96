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
//! Unannotated sites are held in a shrink-only baseline
//! (`atomics-baseline.txt`, same contract as the lint baseline): new
//! unannotated sites fail the audit, annotating a site makes the
//! baseline stale until it is regenerated smaller.

use crate::lexer::{lex, Lexed, TokKind};
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

/// Unannotated counts keyed by `(file, ordering)` — the baseline
/// currency.
pub type Counts = BTreeMap<(String, String), usize>;

impl AtomicsReport {
    pub fn unannotated(&self) -> Vec<&AtomicSite> {
        self.sites.iter().filter(|s| !s.annotated()).collect()
    }

    pub fn to_counts(&self) -> Counts {
        let mut counts = Counts::new();
        for site in self.unannotated() {
            *counts
                .entry((site.file.clone(), site.ordering.clone()))
                .or_insert(0) += 1;
        }
        counts
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
        let reason = annotation_reason(&lexed, line, &ord.text);
        sites.push(AtomicSite {
            file: file.to_string(),
            line,
            ordering: ord.text.clone(),
            reason,
        });
    }
    sites
}

/// Find an `audit:ordering(<ord>): <reason>` marker for `line` (same
/// line or the line directly above) whose ordering matches.
fn annotation_reason(lexed: &Lexed, line: usize, ordering: &str) -> Option<String> {
    parse_marker(lexed.comment_on(line), ordering).or_else(|| {
        if line > 1 {
            parse_marker(lexed.comment_on(line - 1), ordering)
        } else {
            None
        }
    })
}

fn parse_marker(comment: &str, ordering: &str) -> Option<String> {
    const MARKER: &str = "audit:ordering(";
    let mut from = 0;
    while let Some(pos) = comment[from..].find(MARKER) {
        let rest = &comment[from + pos + MARKER.len()..];
        if let Some(close) = rest.find(')') {
            let named = rest[..close].trim();
            let reason = rest[close + 1..].strip_prefix(':').map(str::trim);
            if named == ordering {
                if let Some(reason) = reason.filter(|r| !r.is_empty()) {
                    return Some(reason.to_string());
                }
            }
        }
        from += pos + MARKER.len();
    }
    None
}

/// Scan every workspace source file under `root`.
pub fn scan_workspace(root: &Path) -> Result<AtomicsReport, String> {
    let files =
        crate::workspace_rs_files(root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
    let mut report = AtomicsReport::default();
    for rel_path in files {
        let rel = rel_path
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = std::fs::read_to_string(root.join(&rel_path))
            .map_err(|e| format!("read {}: {e}", rel_path.display()))?;
        report.sites.extend(scan_source(&rel, &source));
        report.files += 1;
    }
    Ok(report)
}

/// Render baseline counts in the on-disk format:
/// `<path>\t<ordering>\t<count>`, sorted, one per line.
pub fn render_baseline(counts: &Counts) -> String {
    let mut out = String::from(
        "# mendel-audit atomics baseline: unannotated Ordering::* sites.\n\
         # Shrink-only: annotate sites with audit:ordering(<Ord>): <reason>\n\
         # and regenerate with `mendel-audit atomics --write`.\n",
    );
    for ((file, ordering), count) in counts {
        out.push_str(&format!("{file}\t{ordering}\t{count}\n"));
    }
    out
}

/// Parse the on-disk baseline. Unknown orderings, malformed lines, and
/// duplicates are errors — a baseline must be exact.
pub fn parse_baseline(text: &str) -> Result<Counts, String> {
    let mut counts = Counts::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        let (Some(file), Some(ordering), Some(count), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "atomics baseline line {}: expected 3 tab-separated fields",
                idx + 1
            ));
        };
        if !ORDERINGS.contains(&ordering) {
            return Err(format!(
                "atomics baseline line {}: unknown ordering `{ordering}`",
                idx + 1
            ));
        }
        let count: usize = count
            .parse()
            .map_err(|_| format!("atomics baseline line {}: bad count `{count}`", idx + 1))?;
        if count == 0 {
            return Err(format!(
                "atomics baseline line {}: zero-count entry",
                idx + 1
            ));
        }
        let key = (file.to_string(), ordering.to_string());
        if counts.insert(key, count).is_some() {
            return Err(format!(
                "atomics baseline line {}: duplicate entry",
                idx + 1
            ));
        }
    }
    Ok(counts)
}

/// A `(file, ordering)` whose unannotated count grew past the
/// baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    pub file: String,
    pub ordering: String,
    pub baseline: usize,
    pub current: usize,
}

/// Compare current counts against the baseline: regressions fail the
/// audit, stale entries mean the baseline can shrink.
pub fn diff(current: &Counts, baseline: &Counts) -> (Vec<Regression>, Vec<Regression>) {
    let mut regressions = Vec::new();
    let mut stale = Vec::new();
    let keys: std::collections::BTreeSet<&(String, String)> =
        current.keys().chain(baseline.keys()).collect();
    for key in keys {
        let cur = current.get(key).copied().unwrap_or(0);
        let base = baseline.get(key).copied().unwrap_or(0);
        let entry = Regression {
            file: key.0.clone(),
            ordering: key.1.clone(),
            baseline: base,
            current: cur,
        };
        if cur > base {
            regressions.push(entry);
        } else if cur < base {
            stale.push(entry);
        }
    }
    (regressions, stale)
}

/// Human-readable report.
pub fn render_report(
    report: &AtomicsReport,
    regressions: &[Regression],
    stale: &[Regression],
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "atomics: {} files, {} Ordering::* sites ({} annotated, {} unannotated)\n",
        report.files,
        report.sites.len(),
        report.sites.len() - report.unannotated().len(),
        report.unannotated().len(),
    ));
    out.push_str("inventory:");
    for (ordering, count) in report.inventory() {
        out.push_str(&format!(" {ordering}={count}"));
    }
    out.push('\n');
    if regressions.is_empty() {
        out.push_str("no unannotated sites beyond baseline.\n");
    } else {
        out.push_str(&format!("REGRESSIONS ({}):\n", regressions.len()));
        for r in regressions {
            out.push_str(&format!(
                "  {}\t{}\tbaseline {} -> current {}\n",
                r.file, r.ordering, r.baseline, r.current
            ));
        }
        out.push_str("annotate with `audit:ordering(<Ord>): <reason>` or fix the ordering.\n");
        let mut shown = 0;
        for site in report.unannotated() {
            out.push_str(&format!(
                "  unannotated: {}:{} Ordering::{}\n",
                site.file, site.line, site.ordering
            ));
            shown += 1;
            if shown >= 20 {
                break;
            }
        }
    }
    if !stale.is_empty() {
        out.push_str(&format!(
            "stale baseline entries ({}) — regenerate with --write to shrink:\n",
            stale.len()
        ));
        for s in stale {
            out.push_str(&format!(
                "  {}\t{}\tbaseline {} -> current {}\n",
                s.file, s.ordering, s.baseline, s.current
            ));
        }
    }
    out
}

/// JSON document for trend tracking (`ci.sh` writes it under `target/ci/`).
pub fn to_json(report: &AtomicsReport, regressions: &[Regression]) -> Json {
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
        ("regressions".into(), Json::count(regressions.len())),
        ("clean".into(), Json::Bool(regressions.is_empty())),
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

    #[test]
    fn baseline_round_trip() {
        let mut counts = Counts::new();
        counts.insert(("crates/a/src/x.rs".into(), "Relaxed".into()), 2);
        counts.insert(("crates/b/src/y.rs".into(), "SeqCst".into()), 1);
        let text = render_baseline(&counts);
        assert_eq!(parse_baseline(&text), Ok(counts));
    }

    #[test]
    fn baseline_rejects_garbage() {
        assert!(parse_baseline("a\tRelaxed").is_err());
        assert!(parse_baseline("a\tBogus\t1").is_err());
        assert!(parse_baseline("a\tRelaxed\tzero").is_err());
        assert!(parse_baseline("a\tRelaxed\t0").is_err());
        assert!(parse_baseline("a\tRelaxed\t1\na\tRelaxed\t2").is_err());
    }

    #[test]
    fn diff_finds_regressions_and_stale() {
        let mut base = Counts::new();
        base.insert(("a".into(), "Relaxed".into()), 2);
        base.insert(("b".into(), "SeqCst".into()), 1);
        let mut cur = Counts::new();
        cur.insert(("a".into(), "Relaxed".into()), 3);
        let (reg, stale) = diff(&cur, &base);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].current, 3);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].file, "b");
    }
}
