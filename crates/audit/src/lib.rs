//! `mendel-audit`: a from-scratch, zero-dependency source auditor for
//! the Mendel workspace's checks that clippy cannot make.
//!
//! Every analysis reads source the same way — as the [`lexer`]'s token
//! stream, with `#[test]` / `#[cfg(test)]` regions marked — honours
//! waivers through one parser ([`lexer::Lexed::markers`]), and fails on
//! any finding left unwaived. There are no baselines.
//!
//! 1. **Concurrency analyses**: [`locks`] builds the held-while-acquiring
//!    lock graph and fails on lock-order cycles and guard-across-io
//!    smells; [`atomics`] forces every `Ordering::*` site to carry an
//!    `audit:ordering` review annotation.
//! 2. **Dead-code analysis** ([`reach`]): every `pub` fn, type and const
//!    must be named somewhere other than its own definition, tests, and
//!    the bodies of other unreached items — library code, a binary, an
//!    example or the benchmark — or carry an `audit:allow(unreached)`
//!    waiver.
//!
//! The per-line rules (no panics, `std::sync` locks, stray prints,
//! unjustified `#[allow]`, raw `Instant::now()`) are clippy lints set in
//! the workspace lint table and `clippy.toml`. The structural invariant
//! checkers live in the data-structure crates, behind the
//! `strict-invariants` feature.
//!
//! Run `cargo run -p mendel-audit -- <locks|atomics|reach>` from
//! anywhere in the workspace; see `DESIGN.md` §8.1 and § "Concurrency
//! static analysis".

pub mod atomics;
pub mod lexer;
pub mod locks;
pub mod reach;
pub mod report;
mod sanitize;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
