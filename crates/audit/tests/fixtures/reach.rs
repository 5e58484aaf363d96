// Fixture: the reach rule's edge cases, as a small workspace. Each
// `// ==> <path>` line starts one file. Expected findings are exact:
// 5 unreached (`uncalled`, `dead_helper`, `test_only`, `OnlyImpl`,
// `reexported`), 1 stale waiver (`stale_waiver`), 2 waived items, and
// the file under `tests/` is not read at all.
//
// This file is test data for `crates/audit/tests/corpus.rs`; it is
// never compiled and does not need to resolve.

// ==> crates/fix/src/lib.rs
pub use inner::reexported;

/// Nothing calls it: reported.
pub fn uncalled() {
    dead_helper();
}

/// Called only from `uncalled`, which is itself unreached: reported in
/// the same run.
pub fn dead_helper() {}

// audit:allow(unreached): kept for the fixture's waiver case
pub fn waived() {}

/// Called only from the test module below: reported.
pub fn test_only() {}

/// Named only by its own `impl` blocks: reported.
pub struct OnlyImpl;

impl OnlyImpl {
    fn helper(&self) -> OnlyImpl {
        OnlyImpl
    }
}

impl Default for OnlyImpl {
    fn default() -> Self {
        OnlyImpl
    }
}

/// Called from the example root: not reported.
pub fn from_example() {}

/// Called from the example root; calls `live_helper`.
pub fn entry() {
    live_helper();
    stale_waiver();
}

/// Called by live library code: not reported.
pub fn live_helper() {}

// audit:allow(unreached): claims no reader, but `entry` calls it
pub fn stale_waiver() {}

mod inner {
    /// Reached only through the `pub use` above: reported.
    pub fn reexported() {}

    pub(crate) fn crate_private() {}
}

#[cfg(test)]
mod tests {
    #[test]
    fn exercises() {
        super::test_only();
        super::inner::crate_private();
    }
}

// ==> examples/demo.rs
fn main() {
    fix::from_example();
    fix::entry();
}

// ==> crates/fix/tests/it.rs
#[test]
fn integration() {
    fix::uncalled();
    fix::reexported();
}
