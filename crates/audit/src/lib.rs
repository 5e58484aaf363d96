//! `mendel-audit`: a from-scratch, zero-dependency source auditor for
//! the Mendel workspace.
//!
//! Every analysis reads source the same way — as the [`lexer`]'s token
//! stream, with `#[test]` / `#[cfg(test)]` regions marked — honours
//! waivers through one parser ([`lexer::Lexed::markers`]), and fails on
//! any finding left unwaived. There are no baselines.
//!
//! 1. **Lint pass** ([`lint`]): walks `crates/*/src/**/*.rs` and matches
//!    nine rules (panics, `std::sync` locks, stray prints, unjustified
//!    `#[allow]`, raw `Instant::now()`) as token sequences.
//! 2. **Structural invariant checkers** (in the data-structure crates,
//!    behind the `strict-invariants` feature): deep `check_invariants`
//!    methods on the vp-tree, DHT topology, and placement ledger, asserted at
//!    mutation sites and exercised by the property suites.
//! 3. **Concurrency analyses**: [`locks`] builds the held-while-acquiring
//!    lock graph and fails on lock-order cycles and guard-across-io
//!    smells; [`atomics`] forces every `Ordering::*` site to carry an
//!    `audit:ordering` review annotation.
//! 4. **Dead-code analysis** ([`reach`]): every `pub` fn, type and const
//!    must be named somewhere other than its own definition, tests, and
//!    the bodies of other unreached items — library code, a binary, an
//!    example or the benchmark — or carry an `audit:allow(unreached)`
//!    waiver.
//!
//! Run `cargo run -p mendel-audit -- <lint|locks|atomics|reach>` from
//! anywhere in the workspace; see `DESIGN.md` §8.1 and § "Concurrency
//! static analysis".

pub mod atomics;
pub mod lexer;
pub mod lint;
pub mod locks;
pub mod reach;
pub mod report;
mod sanitize;

pub use lint::{scan_source, Rule, Violation};
pub use report::Json;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Collect every `.rs` file under `crates/*/src`, sorted, as paths
/// relative to `root` (`/`-separated regardless of platform).
pub fn workspace_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    for f in &mut files {
        if let Ok(rel) = f.strip_prefix(root) {
            *f = rel.to_path_buf();
        }
    }
    files.sort();
    Ok(files)
}

pub(crate) fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` with `/` separators regardless of platform.
pub(crate) fn slash_path(path: &Path) -> String {
    path.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Scan the whole workspace under `root`; violations carry
/// workspace-relative `/`-separated paths.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    for rel in workspace_rs_files(root)? {
        let source = fs::read_to_string(root.join(&rel))?;
        violations.extend(scan_source(&slash_path(&rel), &source));
    }
    Ok(violations)
}

/// Seed a one-file workspace containing known violations into a fresh
/// temp directory, scan it, and verify every expected rule fires with a
/// usable report. Returns the report text on success.
///
/// This is the lint's own end-to-end self-test: it proves the gate
/// actually fails (with file/line context) when a violation is
/// introduced, independent of the real tree being clean.
pub fn self_test() -> Result<String, String> {
    let root = std::env::temp_dir().join(format!("mendel-audit-selftest-{}", std::process::id()));
    let result = self_test_in(&root);
    let _ = fs::remove_dir_all(&root);
    result
}

fn self_test_in(root: &Path) -> Result<String, String> {
    let src_dir = root.join("crates/seeded/src");
    fs::create_dir_all(&src_dir).map_err(|e| format!("self-test setup: {e}"))?;
    let seeded = "\
use std::sync::Mutex;

#[allow(dead_code)]
fn seeded(o: Option<u8>) -> u8 {
    println!(\"side effect\");
    let v = o.unwrap();
    if v == 0 {
        panic!(\"boom\");
    }
    v
}

#[cfg(test)]
mod tests {
    #[test]
    fn exempt() {
        None::<u8>.unwrap();
    }
}
";
    fs::write(src_dir.join("lib.rs"), seeded).map_err(|e| format!("self-test setup: {e}"))?;

    let violations = scan_workspace(root).map_err(|e| format!("self-test scan: {e}"))?;
    let expected = [
        Rule::StdSyncLock,
        Rule::AllowWithoutReason,
        Rule::Println,
        Rule::Unwrap,
        Rule::Panic,
    ];
    for rule in expected {
        if !violations.iter().any(|v| v.rule == rule) {
            return Err(format!(
                "self-test: seeded `{rule}` violation was not detected"
            ));
        }
    }
    if violations.iter().any(|v| v.line > 10) {
        return Err("self-test: a violation leaked out of the non-test region".into());
    }

    let report = lint::render_report(&violations);
    if !report.contains("crates/seeded/src/lib.rs:6") {
        return Err(format!(
            "self-test: report lacks file:line context for the seeded unwrap:\n{report}"
        ));
    }

    self_test_concurrency(root)?;
    self_test_reach(root)?;
    Ok(report)
}

/// Seed an uncalled `pub fn` and a waived one, then verify `reach`
/// reports the first, by file and line, and only it.
fn self_test_reach(root: &Path) -> Result<(), String> {
    let src_dir = root.join("crates/unreached/src");
    fs::create_dir_all(&src_dir).map_err(|e| format!("self-test setup: {e}"))?;
    let seeded = "\
pub fn never_called() {}

// audit:allow(unreached): the self-test's waived item
pub fn waived_on_purpose() {}
";
    fs::write(src_dir.join("lib.rs"), seeded).map_err(|e| format!("self-test setup: {e}"))?;
    let report = reach::scan_workspace(root)?;
    let unreached: Vec<&str> = report
        .unreached_items()
        .iter()
        .map(|i| i.name.as_str())
        .collect();
    if unreached != ["never_called"] || report.waived() != 1 {
        return Err(format!(
            "self-test: reach found {unreached:?} ({} waived), wanted [\"never_called\"] (1 waived)",
            report.waived()
        ));
    }
    let text = reach::render_report(&report);
    if !text.contains("crates/unreached/src/lib.rs:1: pub fn never_called") {
        return Err(format!("self-test: reach report lacks file:line:\n{text}"));
    }
    Ok(())
}

/// Seed a deadlock pair, an unannotated atomic site, and an unwaived
/// guard-across-io call, then verify the concurrency analyses catch
/// all three — the end-to-end proof that the `locks` and `atomics`
/// gates actually fail when those hazards are introduced.
fn self_test_concurrency(root: &Path) -> Result<(), String> {
    let src_dir = root.join("crates/deadlocked/src");
    fs::create_dir_all(&src_dir).map_err(|e| format!("self-test setup: {e}"))?;
    let seeded = "\
struct S;

impl S {
    fn forward(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        drop(b);
        drop(a);
    }

    fn backward(&self) {
        let b = self.beta.lock();
        self.alpha.lock().len();
    }

    fn publish(&self, tx: &Sender) {
        self.flag.store(1, Ordering::Release);
        let g = self.beta.lock();
        tx.send(1);
    }
}
";
    fs::write(src_dir.join("lib.rs"), seeded).map_err(|e| format!("self-test setup: {e}"))?;

    let lock_report = locks::analyze_workspace(root)?;
    let seeded_cycle = lock_report.cycles.iter().any(|c| {
        c.locks.contains(&"deadlocked/lib::alpha".to_string())
            && c.locks.contains(&"deadlocked/lib::beta".to_string())
    });
    if !seeded_cycle {
        return Err(format!(
            "self-test: seeded alpha/beta lock-order cycle was not detected:\n{}",
            locks::render_report(&lock_report)
        ));
    }
    let seeded_smell = lock_report
        .unwaived_smells()
        .iter()
        .any(|s| s.callee == "send" && s.file.contains("deadlocked"));
    if !seeded_smell {
        return Err("self-test: seeded guard-across-io send was not detected".into());
    }

    let atomics_report = atomics::scan_workspace(root)?;
    let seeded_site = atomics_report
        .unannotated()
        .iter()
        .any(|s| s.ordering == "Release" && s.file.contains("deadlocked"));
    if !seeded_site {
        return Err("self-test: seeded unannotated Ordering::Release was not detected".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes() {
        let report = self_test().expect("self-test succeeds");
        assert!(report.contains("lint violation(s)"), "{report}");
        assert!(report.contains("crates/seeded/src/lib.rs:6: [unwrap]"));
    }

    #[test]
    fn locks_on_real_tree_has_no_cycles_or_unwaived_smells() {
        // Same gate as `mendel-audit locks` in CI: the workspace lock
        // graph must be acyclic and every guard-across-io site waived
        // with a reason.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = locks::analyze_workspace(&root).expect("analyze workspace");
        assert!(
            report.is_clean(),
            "lock-order gate failed:\n{}",
            locks::render_report(&report)
        );
        // The analysis is actually looking at something: the workspace
        // has parking_lot locks in net/obs/core.
        assert!(
            report.acquisitions.len() >= 10,
            "suspiciously few acquisitions"
        );
    }

    #[test]
    fn atomics_on_real_tree_is_clean() {
        // Same gate as `mendel-audit atomics` in CI: every Ordering::*
        // site annotated.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = atomics::scan_workspace(&root).expect("scan workspace");
        assert!(report.is_clean(), "{}", atomics::render_report(&report));
        // The inventory covers the workspace's real atomic sites.
        assert!(report.sites.len() >= 30, "suspiciously few Ordering sites");
    }

    #[test]
    fn reach_on_real_tree_is_clean() {
        // Same gate as `mendel-audit reach` in CI: every pub item is named
        // outside its own definition and tests, or carries a waiver.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = reach::scan_workspace(&root).expect("scan workspace");
        assert!(report.is_clean(), "{}", reach::render_report(&report));
        assert!(report.items.len() >= 500, "suspiciously few pub items");
    }

    #[test]
    fn lint_on_real_tree_is_clean() {
        // Same gate as `mendel-audit lint` in CI: no violation unwaived.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let violations = scan_workspace(&root).expect("scan workspace");
        assert!(
            violations.is_empty(),
            "{}",
            lint::render_report(&violations)
        );
    }
}
