//! Bake the git revision into the binary so `/healthz?verbose=1` can
//! report which build is serving. Falls back to `"unknown"` outside a
//! git checkout (e.g. a source tarball) rather than failing the build.

use std::path::Path;
use std::process::Command;

/// `git <args>`'s trimmed stdout, or `None` when git fails or prints
/// nothing.
fn git(args: &[&str]) -> Option<String> {
    Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

fn main() {
    let sha = git(&["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=MENDEL_GIT_SHA={sha}");
    // Rebuild when the commit moves: `HEAD` changes on a checkout, the
    // branch ref it names on a commit, and `packed-refs` when git packs
    // that ref. `--git-path` finds each in the git dir that holds it, a
    // worktree's included. Only existing paths are watched: Cargo reruns
    // the script on every build for a missing one.
    let mut watched = vec!["HEAD".to_string(), "packed-refs".to_string()];
    watched.extend(git(&["symbolic-ref", "-q", "HEAD"]));
    for name in &watched {
        if let Some(path) = git(&["rev-parse", "--git-path", name]) {
            if Path::new(&path).exists() {
                println!("cargo:rerun-if-changed={path}");
            }
        }
    }
}
