//! The lint rules and the per-file scanner.
//!
//! Rules are token sequences matched on [`crate::lexer::lex`]'s stream
//! (`.` `unwrap` `(` `)`, `panic` `!`, `std` `::` `sync` `::` `Mutex`,
//! `#` `[` `allow` `(`, …), so comments, literal contents and the line
//! breaks of a multi-line import or method chain change nothing. Tokens
//! in `#[cfg(test)]` modules and `#[test]` functions are exempt. Binary
//! targets (`src/bin/**`, `main.rs`) are library code for the
//! panic-family rules but are allowed to print.
//!
//! Deliberate exceptions are suppressed inline with an
//! `audit:allow(<rule>): <reason>` marker in a comment on the same line
//! or the line directly above; the reason is mandatory. There is no
//! baseline: the gate fails on any finding left unwaived.

use crate::lexer::{lex, Token};
use std::fmt;
use std::fmt::Write as _;

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
    /// `Instant::now()` or `thread::sleep` in an instrumented crate
    /// (vptree, net, dht, core); wall-clock reads and waits there must
    /// go through an injectable clock (the metric registry's, or the
    /// transport's) so tests can use a virtual one (DESIGN.md §11).
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

    /// Stable name used in `audit:allow` markers and reports.
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
                "instrumented crates read and wait on an injectable Clock, not Instant::now() or thread::sleep"
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

/// Crates whose wall-clock reads must go through the injectable
/// registry clock ([`Rule::InstantNow`]). `mendel-obs` itself is exempt:
/// it *implements* the clock.
const INSTRUMENTED_CRATES: [&str; 4] = [
    "crates/vptree/",
    "crates/net/",
    "crates/dht/",
    "crates/core/",
];

/// Scan one file's source. `file` is the workspace-relative path used in
/// reports.
pub fn scan_source(file: &str, source: &str) -> Vec<Violation> {
    let is_bin = file.contains("/bin/") || file.ends_with("/main.rs");
    let instrumented = INSTRUMENTED_CRATES.iter().any(|p| file.starts_with(p));
    let lexed = lex(source);
    let toks = &lexed.tokens;
    let raw_lines: Vec<&str> = source.lines().collect();
    // Rules an `audit:allow` marker on `line` or the line above waives.
    let waived = |line: usize| -> Vec<Rule> {
        [line, line - 1]
            .into_iter()
            .flat_map(|l| lexed.markers(l, "allow"))
            .filter_map(|(name, _)| Rule::from_name(name))
            .collect()
    };
    let commented = |line: usize| !lexed.comment_on(line).trim().is_empty();
    let mut violations = Vec::new();
    for i in 0..toks.len() {
        if toks[i].in_test {
            continue;
        }
        let Some(rule) = rule_at(toks, i, is_bin, instrumented) else {
            continue;
        };
        let line = toks[i].line;
        if rule == Rule::AllowWithoutReason && (commented(line) || commented(line - 1)) {
            continue;
        }
        if waived(line).contains(&rule) {
            continue;
        }
        violations.push(Violation {
            file: file.to_string(),
            line,
            rule,
            excerpt: excerpt(raw_lines.get(line - 1).copied().unwrap_or("")),
        });
    }
    violations
}

/// The rule broken by the token sequence that starts at `toks[i]`.
fn rule_at(toks: &[Token], i: usize, is_bin: bool, instrumented: bool) -> Option<Rule> {
    let seq = |texts: &[&str]| {
        texts
            .iter()
            .enumerate()
            .all(|(k, text)| toks.get(i + k).is_some_and(|t| t.text == *text))
    };
    let rule = if seq(&[".", "unwrap", "(", ")"]) {
        Rule::Unwrap
    } else if seq(&[".", "expect", "("]) {
        Rule::Expect
    } else if seq(&["panic", "!"]) {
        Rule::Panic
    } else if seq(&["todo", "!"]) {
        Rule::Todo
    } else if seq(&["unimplemented", "!"]) {
        Rule::Unimplemented
    } else if seq(&["std", ":", ":", "sync", ":", ":"]) && imports_lock(toks, i + 6) {
        Rule::StdSyncLock
    } else if !is_bin && (seq(&["println", "!"]) || seq(&["eprintln", "!"])) {
        Rule::Println
    } else if seq(&["#", "[", "allow", "("]) || seq(&["#", "!", "[", "allow", "("]) {
        Rule::AllowWithoutReason
    } else if instrumented
        && !is_bin
        && (seq(&["Instant", ":", ":", "now", "(", ")"]) || seq(&["thread", ":", ":", "sleep"]))
    {
        Rule::InstantNow
    } else {
        return None;
    };
    Some(rule)
}

/// True when the path segment at `toks[at]`, just after `std::sync::`,
/// names `Mutex` or `RwLock`, directly or as an item of a `{..}` group.
fn imports_lock(toks: &[Token], at: usize) -> bool {
    let is_lock = |t: &Token| t.is_ident("Mutex") || t.is_ident("RwLock");
    let Some(first) = toks.get(at) else {
        return false;
    };
    if !first.is_punct('{') {
        return is_lock(first);
    }
    // An item of the group sits at the group's inner depth, right after
    // its `{` or a `,`; `atomic::{..}` and `mpsc::..` items are deeper
    // or follow a `:`.
    let inner = first.depth + 1;
    toks[at + 1..]
        .iter()
        .zip(&toks[at..])
        .take_while(|(t, _)| t.depth >= inner)
        .any(|(t, prev)| {
            t.depth == inner && is_lock(t) && (prev.is_punct('{') || prev.is_punct(','))
        })
}

/// Human-readable report: every violation with its location and rule,
/// or a one-line clean summary.
pub fn render_report(violations: &[Violation]) -> String {
    if violations.is_empty() {
        return "lint clean: no violations".to_string();
    }
    let mut out = format!("error: {} lint violation(s)\n\n", violations.len());
    for v in violations {
        let _ = writeln!(out, "{v}");
    }
    out.push_str(
        "\nFix them, or keep one with a marker on its line or the line above:\n  \
         // audit:allow(<rule>): <reason>",
    );
    out
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
    fn std_sync_lock_detected_in_a_multi_line_group() {
        let src = "use std::sync::{\n    Arc,\n    Mutex,\n};\n";
        let got = scan_source("crates/x/src/lib.rs", src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!((got[0].rule, got[0].line), (Rule::StdSyncLock, 1));
        assert!(
            rules_of("use std::sync::{\n    Arc,\n    atomic::{AtomicU8, Ordering},\n};\n")
                .is_empty()
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
        // A wall-clock wait is a wall-clock read too.
        let sleep = "fn f(d: Duration) { std::thread::sleep(d); thread::sleep(d); }";
        let got = scan_source("crates/core/src/inline.rs", sleep);
        assert_eq!(
            got.iter().map(|v| v.rule).collect::<Vec<_>>(),
            vec![Rule::InstantNow, Rule::InstantNow]
        );
        assert!(scan_source("crates/seq/src/fasta.rs", sleep).is_empty());
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
