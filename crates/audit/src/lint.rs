//! The lint rules and the per-file scanner.
//!
//! Rules are matched against sanitized code (comments and literal
//! contents blanked — see [`crate::sanitize`]), with `#[cfg(test)]`
//! modules and `#[test]` functions exempted by a brace-depth region
//! tracker. Binary targets (`src/bin/**`, `main.rs`) are library code
//! for the panic-family rules but are allowed to print.
//!
//! Deliberate exceptions are suppressed inline with an
//! `audit:allow(<rule>): <reason>` marker in a comment on the same line
//! or the line directly above; the reason is mandatory. This keeps the
//! checked-in baseline shrink-only: justified sites never enter it.

use crate::sanitize::{sanitize, SanitizedLine};
use std::fmt;

/// The invariants the audit enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `.unwrap()` in non-test library code.
    Unwrap,
    /// `.expect(..)` in non-test library code.
    Expect,
    /// `panic!` in non-test library code.
    Panic,
    /// `todo!` anywhere outside tests.
    Todo,
    /// `unimplemented!` anywhere outside tests.
    Unimplemented,
    /// `std::sync::Mutex` / `std::sync::RwLock`; the workspace uses
    /// `parking_lot` locks exclusively.
    StdSyncLock,
    /// `println!` / `eprintln!` in library (non-binary) code.
    Println,
    /// `#[allow(..)]` with no justification comment beside it.
    AllowWithoutReason,
    /// `Instant::now()` in an instrumented crate (vptree, net, dht,
    /// core); wall-clock reads there must go through the metric
    /// registry's injectable clock so tests can use a virtual one
    /// (DESIGN.md §11).
    InstantNow,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 9] = [
        Rule::Unwrap,
        Rule::Expect,
        Rule::Panic,
        Rule::Todo,
        Rule::Unimplemented,
        Rule::StdSyncLock,
        Rule::Println,
        Rule::AllowWithoutReason,
        Rule::InstantNow,
    ];

    /// Stable name used in the baseline file and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Unwrap => "unwrap",
            Rule::Expect => "expect",
            Rule::Panic => "panic",
            Rule::Todo => "todo",
            Rule::Unimplemented => "unimplemented",
            Rule::StdSyncLock => "std-sync-lock",
            Rule::Println => "println",
            Rule::AllowWithoutReason => "allow-without-reason",
            Rule::InstantNow => "instant-now",
        }
    }

    /// Parse a [`Rule::name`] back into the rule.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// One-line description for reports.
    pub fn description(self) -> &'static str {
        match self {
            Rule::Unwrap => "`.unwrap()` forbidden in non-test library code; return a Result",
            Rule::Expect => "`.expect(..)` forbidden in non-test library code; return a Result",
            Rule::Panic => "`panic!` forbidden in non-test library code",
            Rule::Todo => "`todo!` must not be committed",
            Rule::Unimplemented => "`unimplemented!` must not be committed",
            Rule::StdSyncLock => "use parking_lot locks, not std::sync::{Mutex,RwLock}",
            Rule::Println => "no direct stdout/stderr printing from library crates",
            Rule::AllowWithoutReason => "#[allow(..)] needs a justification comment",
            Rule::InstantNow => {
                "instrumented crates read time via Registry::clock(), not Instant::now()"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file,
            self.line,
            self.rule,
            self.rule.description(),
            self.excerpt
        )
    }
}

/// Count occurrences of `needle` in `hay` that are not immediately
/// preceded by an identifier character (so `println!` does not also
/// match inside `eprintln!`).
fn count_token(hay: &str, needle: &str) -> usize {
    let bytes = hay.as_bytes();
    let needs_boundary = needle
        .as_bytes()
        .first()
        .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
    let mut count = 0;
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let bounded = !needs_boundary || at == 0 || {
            let prev = bytes[at - 1];
            !(prev.is_ascii_alphanumeric() || prev == b'_')
        };
        if bounded {
            count += 1;
        }
        from = at + needle.len();
    }
    count
}

fn has_std_sync_lock(code: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find("std::sync::") {
        let rest = &code[from + pos + "std::sync::".len()..];
        if rest.starts_with("Mutex") || rest.starts_with("RwLock") {
            return true;
        }
        // `use std::sync::{Mutex, ..}` — grouped import on one line.
        if rest.starts_with('{') {
            let group = rest[1..].split('}').next().unwrap_or("");
            if group
                .split(',')
                .any(|item| matches!(item.trim(), "Mutex" | "RwLock"))
            {
                return true;
            }
        }
        from += pos + "std::sync::".len();
    }
    false
}

/// Scan one file's source. `file` is the workspace-relative path used in
/// reports and the baseline.
/// Crates whose wall-clock reads must go through the injectable
/// registry clock ([`Rule::InstantNow`]). `mendel-obs` itself is exempt:
/// it *implements* the clock.
const INSTRUMENTED_CRATES: [&str; 4] = [
    "crates/vptree/",
    "crates/net/",
    "crates/dht/",
    "crates/core/",
];

pub fn scan_source(file: &str, source: &str) -> Vec<Violation> {
    let is_bin = file.contains("/bin/") || file.ends_with("/main.rs");
    let instrumented = INSTRUMENTED_CRATES.iter().any(|p| file.starts_with(p));
    let lines = sanitize(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let mut violations = Vec::new();

    // Brace-depth tracker for `#[cfg(test)]` / `#[test]` regions.
    let mut depth: i64 = 0;
    let mut pending_test = false;
    let mut test_stack: Vec<i64> = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        let in_test = !test_stack.is_empty() || pending_test;
        if code.contains("#[cfg(test)")
            || code.contains("#[test]")
            || code.contains("#[cfg(all(test")
        {
            pending_test = true;
        }

        if !in_test && !pending_test {
            let mut hits: Vec<(Rule, usize)> = vec![
                (Rule::Unwrap, count_token(code, ".unwrap()")),
                (Rule::Expect, count_token(code, ".expect(")),
                (Rule::Panic, count_token(code, "panic!")),
                (Rule::Todo, count_token(code, "todo!")),
                (Rule::Unimplemented, count_token(code, "unimplemented!")),
                (Rule::StdSyncLock, usize::from(has_std_sync_lock(code))),
            ];
            if !is_bin {
                hits.push((
                    Rule::Println,
                    count_token(code, "println!") + count_token(code, "eprintln!"),
                ));
            }
            if instrumented && !is_bin {
                hits.push((Rule::InstantNow, count_token(code, "Instant::now()")));
            }
            if (code.contains("#[allow(") || code.contains("#![allow("))
                && !allow_is_justified(&lines, idx)
            {
                hits.push((Rule::AllowWithoutReason, 1));
            }
            if hits.iter().any(|&(_, count)| count > 0) {
                let suppressed = suppressed_rules(&lines, idx);
                hits.retain(|(rule, _)| !suppressed.contains(rule));
            }
            for (rule, count) in hits {
                for _ in 0..count {
                    violations.push(Violation {
                        file: file.to_string(),
                        line: idx + 1,
                        rule,
                        excerpt: excerpt(raw_lines.get(idx).copied().unwrap_or("")),
                    });
                }
            }
        }

        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending_test {
                        test_stack.push(depth);
                        pending_test = false;
                    }
                }
                '}' => {
                    if test_stack.last() == Some(&depth) {
                        test_stack.pop();
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
    }
    violations
}

/// Rules suppressed at line `idx` by an `audit:allow(<rule>): <reason>`
/// marker in a comment on the same line or the line directly above. A
/// marker with an unknown rule name or an empty reason suppresses
/// nothing.
fn suppressed_rules(lines: &[SanitizedLine], idx: usize) -> Vec<Rule> {
    const MARKER: &str = "audit:allow(";
    let mut rules = Vec::new();
    let mut scan = |comment: &str| {
        let mut from = 0;
        while let Some(pos) = comment[from..].find(MARKER) {
            let rest = &comment[from + pos + MARKER.len()..];
            if let Some(close) = rest.find(')') {
                let justified = rest[close + 1..]
                    .strip_prefix(':')
                    .is_some_and(|reason| !reason.trim().is_empty());
                if justified {
                    if let Some(rule) = Rule::from_name(rest[..close].trim()) {
                        rules.push(rule);
                    }
                }
            }
            from += pos + MARKER.len();
        }
    };
    scan(&lines[idx].comment);
    if idx > 0 {
        scan(&lines[idx - 1].comment);
    }
    rules
}

/// An `#[allow]` is justified when a comment sits on the same line or on
/// the line directly above it.
fn allow_is_justified(lines: &[SanitizedLine], idx: usize) -> bool {
    if !lines[idx].comment.trim().is_empty() {
        return true;
    }
    idx > 0 && !lines[idx - 1].comment.trim().is_empty()
}

fn excerpt(raw: &str) -> String {
    let trimmed = raw.trim();
    if trimmed.chars().count() > 120 {
        let cut: String = trimmed.chars().take(117).collect();
        format!("{cut}...")
    } else {
        trimmed.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(src: &str) -> Vec<Rule> {
        scan_source("crates/x/src/lib.rs", src)
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn unwrap_and_expect_fire_in_lib_code() {
        let got = rules_of("fn f(o: Option<u8>) -> u8 { o.unwrap() + o.expect(\"set\") }");
        assert_eq!(got, vec![Rule::Unwrap, Rule::Expect]);
    }

    #[test]
    fn panic_family_fires() {
        let got = rules_of(
            "fn f() { panic!(\"boom\") }\nfn g() { todo!() }\nfn h() { unimplemented!() }",
        );
        assert_eq!(got, vec![Rule::Panic, Rule::Todo, Rule::Unimplemented]);
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn lib() -> u8 { 1 }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); panic!(\"fine\"); }\n}\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn test_attr_fn_is_exempt_but_code_after_is_not() {
        let src = "#[test]\nfn t() { None::<u8>.unwrap(); }\nfn lib(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let got = scan_source("crates/x/src/lib.rs", src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 3);
        assert_eq!(got[0].rule, Rule::Unwrap);
    }

    #[test]
    fn std_sync_lock_detected_in_both_forms() {
        assert_eq!(rules_of("use std::sync::Mutex;\n"), vec![Rule::StdSyncLock]);
        assert_eq!(
            rules_of("use std::sync::{Arc, Mutex};\n"),
            vec![Rule::StdSyncLock]
        );
        assert!(rules_of("use std::sync::{Arc, atomic::AtomicUsize};\n").is_empty());
        assert_eq!(
            rules_of("type L = std::sync::RwLock<u8>;\n"),
            vec![Rule::StdSyncLock]
        );
    }

    #[test]
    fn println_only_outside_bins() {
        let src = "fn f() { println!(\"x\"); eprintln!(\"y\"); }";
        assert_eq!(rules_of(src), vec![Rule::Println, Rule::Println]);
        assert!(scan_source("crates/cli/src/bin/mendel.rs", src).is_empty());
        assert!(scan_source("crates/cli/src/main.rs", src).is_empty());
    }

    #[test]
    fn eprintln_is_not_double_counted() {
        let got = rules_of("fn f() { eprintln!(\"y\"); }");
        assert_eq!(got, vec![Rule::Println]);
    }

    #[test]
    fn allow_requires_justification() {
        assert_eq!(
            rules_of("#[allow(dead_code)]\nfn f() {}\n"),
            vec![Rule::AllowWithoutReason]
        );
        assert!(
            rules_of("// retained for the wire format\n#[allow(dead_code)]\nfn f() {}\n")
                .is_empty()
        );
        assert!(
            rules_of("#[allow(dead_code)] // part of the public surface\nfn f() {}\n").is_empty()
        );
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let src =
            "fn f() -> &'static str { \"call .unwrap() or panic!\" }\n// don't .unwrap() here\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn multiple_hits_on_one_line_are_counted() {
        let got = rules_of("fn f(a: Option<u8>, b: Option<u8>) -> u8 { a.unwrap() + b.unwrap() }");
        assert_eq!(got, vec![Rule::Unwrap, Rule::Unwrap]);
    }

    #[test]
    fn audit_allow_suppresses_on_same_line() {
        let src = "fn f() { panic!(\"x\") } // audit:allow(panic): state is unrecoverable here\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn audit_allow_suppresses_from_line_above() {
        let src = "// audit:allow(unwrap): checked non-empty two lines up\nfn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn audit_allow_requires_a_reason() {
        let src = "fn f() { panic!(\"x\") } // audit:allow(panic):\n";
        assert_eq!(rules_of(src), vec![Rule::Panic]);
        let src = "fn f() { panic!(\"x\") } // audit:allow(panic)\n";
        assert_eq!(rules_of(src), vec![Rule::Panic]);
    }

    #[test]
    fn audit_allow_only_suppresses_the_named_rule() {
        let src = "fn f(o: Option<u8>) { o.unwrap(); panic!(\"x\") } // audit:allow(panic): deliberate abort\n";
        assert_eq!(rules_of(src), vec![Rule::Unwrap]);
    }

    #[test]
    fn audit_allow_with_unknown_rule_suppresses_nothing() {
        let src = "fn f() { panic!(\"x\") } // audit:allow(no-such): whatever\n";
        assert_eq!(rules_of(src), vec![Rule::Panic]);
    }

    #[test]
    fn instant_now_fires_only_in_instrumented_crates() {
        let src = "fn f() { let t = Instant::now(); let u = std::time::Instant::now(); }";
        let got = scan_source("crates/net/src/tcp.rs", src);
        assert_eq!(
            got.iter().map(|v| v.rule).collect::<Vec<_>>(),
            vec![Rule::InstantNow, Rule::InstantNow]
        );
        // Uninstrumented crates, the obs crate, and test code are exempt.
        assert!(scan_source("crates/seq/src/fasta.rs", src).is_empty());
        assert!(scan_source("crates/obs/src/clock.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = Instant::now(); }\n}\n";
        assert!(scan_source("crates/core/src/cluster.rs", test_src).is_empty());
    }

    #[test]
    fn instant_now_suppressible_with_marker() {
        let src = "// audit:allow(instant-now): deadline math needs a real Instant\nfn f() { let t = Instant::now(); }\n";
        assert!(scan_source("crates/net/src/tcp.rs", src).is_empty());
    }

    #[test]
    fn rule_names_roundtrip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(Rule::from_name("no-such"), None);
    }
}
