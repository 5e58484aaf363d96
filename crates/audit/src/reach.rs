//! Reachability audit: every `pub` fn, type and const is named by code
//! that is not its own definition and not a test.
//!
//! `rustc`'s `dead_code` lint is silent on `pub` items of a library
//! crate, since another crate might call them. This analysis closes the
//! workspace: it lexes every library source under `crates/*/src` and
//! `src/`, plus the roots that call into them — the binaries
//! (`crates/*/src/main.rs`, `crates/*/src/bin/**`), `examples/`, and
//! `benchmark/src` (whose probe API is frozen, so what it calls counts
//! as reached) — and reports each `pub` item whose name occurs nowhere
//! else. What does not count as a mention:
//!
//! - the item's own definition and, for a type, its `impl` blocks
//!   (`impl Foo` and `impl Trait for Foo` both belong to `Foo`);
//! - `#[test]` / `#[cfg(test)]` regions and `tests/` directories;
//! - `use` and `pub use` declarations: a re-export is not a caller;
//! - the body of another item this analysis already found unreached,
//!   so a helper called only from dead code is reported in the same run.
//!
//! `pub(crate)` and narrower items are `rustc`'s job and are skipped.
//! The match is by name, so an item that shares its name with anything
//! live passes: the rule errs towards missing dead code, not towards
//! flagging live code. A method — a `pub fn` inside `impl Foo` — is
//! matched more closely, as far as the tokens show the receiver: it is
//! named by a call `.name(` (any receiver), by `Foo::name` or
//! `Self::name`, or by `Q::name` where `Q` is no type with an `impl` in
//! the workspace (an alias, a trait, a generic parameter). A bare
//! `name`, a field `.name`, and `Bar::name` for another type `Bar` do
//! not name it.
//!
//! A finding is cleared by deleting the item or by a waiver in a comment
//! between the previous item and the `pub` keyword:
//!
//! ```text
//! // audit:allow(unreached): reference oracle for tests/oracle.rs
//! pub fn needleman_wunsch(..) { .. }
//! ```
//!
//! A waived item counts as live, and a waiver on an item that is
//! reached anyway is itself a finding, so waivers cannot outlive their
//! reason. There is no baseline: the tree is kept at zero.

use crate::lexer::{lex, TokKind, Token};
use crate::report::Json;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

/// One `pub` item the analysis tracks.
#[derive(Debug, Clone)]
pub struct Item {
    pub file: String,
    pub line: usize,
    /// `fn`, `struct`, `enum`, `trait`, `union`, `type`, `const` or `static`.
    pub kind: &'static str,
    pub name: String,
    /// The self type of the `impl` block a method sits in.
    pub owner: Option<String>,
    /// The waiver's reason, when the item carries one.
    pub waiver: Option<String>,
}

/// Whole-workspace reachability report.
#[derive(Debug, Default)]
pub struct ReachReport {
    pub files: usize,
    pub items: Vec<Item>,
    /// Indices into `items` of unwaived items nothing reaches.
    pub unreached: Vec<usize>,
    /// Indices into `items` of waived items something reaches anyway.
    pub stale_waivers: Vec<usize>,
}

impl ReachReport {
    /// Clean when nothing is unreached and no waiver is stale.
    pub fn is_clean(&self) -> bool {
        self.unreached.is_empty() && self.stale_waivers.is_empty()
    }

    pub fn waived(&self) -> usize {
        self.items.iter().filter(|i| i.waiver.is_some()).count()
    }

    /// The unreached items themselves, in file and line order.
    pub fn unreached_items(&self) -> Vec<&Item> {
        self.unreached.iter().map(|&i| &self.items[i]).collect()
    }
}

impl Item {
    /// `name`, or `Owner::name` for a method.
    pub fn path(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// How a mention of a name sits among its neighbouring tokens.
#[derive(Debug, Clone, PartialEq)]
enum Form {
    /// `name` alone: a free item, a local or a field initialiser.
    Bare,
    /// `.name` not followed by `(` or `::`: a field.
    Field,
    /// `.name(` or `.name::<..>(`: a method call.
    Call,
    /// `Q::name`, with `Q` when it is an identifier.
    Path(Option<String>),
}

impl Form {
    fn of(toks: &[Token], at: usize) -> Form {
        let before = |k: usize| at.checked_sub(k).map(|p| &toks[p]);
        if before(1).is_some_and(|t| t.is_punct('.')) {
            let next = toks.get(at + 1);
            return if next.is_some_and(|t| t.is_punct('(') || t.is_punct(':')) {
                Form::Call
            } else {
                Form::Field
            };
        }
        if before(1).is_some_and(|t| t.is_punct(':')) && before(2).is_some_and(|t| t.is_punct(':'))
        {
            let qualifier = before(3).filter(|t| t.kind == TokKind::Ident);
            return Form::Path(qualifier.map(|t| t.text.clone()));
        }
        Form::Bare
    }
}

/// True for the files whose `pub` items are not candidates: binaries,
/// examples and the benchmark package. They still count as callers.
pub fn is_root(path: &str) -> bool {
    path.starts_with("examples/")
        || path.starts_with("benchmark/src/")
        || path.starts_with("crates/")
            && (path.ends_with("/src/main.rs") || path.contains("/src/bin/"))
}

/// A token range `[start, end]` of one file.
#[derive(Debug, Clone, Copy)]
struct Span {
    file: usize,
    start: usize,
    end: usize,
}

impl Span {
    fn contains(&self, file: usize, tok: usize) -> bool {
        self.file == file && (self.start..=self.end).contains(&tok)
    }
}

/// Analyse `(path, source)` pairs with workspace-relative `/`-separated
/// paths. Paths outside the library and root sets (tests, fixtures) are
/// ignored.
pub fn analyze(files: &[(String, String)]) -> ReachReport {
    let mut report = ReachReport::default();
    // Per item: its own spans (definition, plus impl blocks for a type).
    let mut own: Vec<Vec<Span>> = Vec::new();
    let mut impls: HashMap<String, Vec<Span>> = HashMap::new();
    let mut mentions: Vec<(String, usize, usize, Form)> = Vec::new();
    for (path, source) in files {
        let library = path.starts_with("src/")
            || path.starts_with("crates/") && path.contains("/src/") && !is_root(path);
        if !library && !is_root(path) {
            continue;
        }
        let file = report.files;
        report.files += 1;
        let lexed = lex(source);
        let toks = &lexed.tokens;
        // The impl blocks around the current token: (self type, last token).
        let mut open_impls: Vec<(String, usize)> = Vec::new();
        let mut i = 0;
        while i < toks.len() {
            let tok = &toks[i];
            while open_impls.last().is_some_and(|&(_, end)| end < i) {
                open_impls.pop();
            }
            if tok.in_test {
                i += 1;
                continue;
            }
            if tok.is_ident("use") {
                i = statement_end(toks, i) + 1;
                continue;
            }
            if tok.is_ident("impl") && starts_item(toks, i) {
                if let Some((name, end)) = impl_self_type(toks, i) {
                    impls.entry(name.clone()).or_default().push(Span {
                        file,
                        start: i,
                        end,
                    });
                    open_impls.push((name, end));
                }
            }
            if library && tok.is_ident("pub") {
                if let Some((kind, name_at)) = pub_item(toks, i) {
                    let end = item_end(toks, name_at, kind);
                    let first = attributes_start(toks, i);
                    let from = first.checked_sub(1).map_or(1, |p| toks[p].line + 1);
                    let waiver = (from.min(tok.line)..=tok.line)
                        .flat_map(|line| lexed.markers(line, "allow"))
                        .find(|&(name, _)| name == "unreached")
                        .map(|(_, reason)| reason.to_string());
                    let owner = open_impls.last().filter(|_| kind == "fn");
                    report.items.push(Item {
                        file: path.clone(),
                        line: tok.line,
                        kind,
                        name: toks[name_at].text.clone(),
                        owner: owner.map(|(name, _)| name.clone()),
                        waiver,
                    });
                    own.push(vec![Span {
                        file,
                        start: i,
                        end,
                    }]);
                }
            }
            if tok.kind == TokKind::Ident {
                mentions.push((tok.text.clone(), file, i, Form::of(toks, i)));
            }
            i += 1;
        }
    }
    for (item, spans) in report.items.iter().zip(own.iter_mut()) {
        if let Some(blocks) = impls.get(&item.name) {
            spans.extend(blocks);
        }
    }

    // Mentions of each candidate name; other identifiers are dropped.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (idx, item) in report.items.iter().enumerate() {
        by_name.entry(item.name.as_str()).or_default().push(idx);
    }
    let mut sites: HashMap<&str, Vec<(usize, usize, &Form)>> = HashMap::new();
    for (name, file, tok, form) in &mentions {
        if let Some((key, _)) = by_name.get_key_value(name.as_str()) {
            sites.entry(key).or_default().push((*file, *tok, form));
        }
    }
    // Whether a mention's form can name `item`: anything names a free
    // item or a type; a method needs a call or a path that fits its type.
    let names = |item: &Item, form: &Form| match (&item.owner, form) {
        (None, _) => true,
        (Some(_), Form::Call | Form::Path(None)) => true,
        (Some(owner), Form::Path(Some(q))) => q == owner || q == "Self" || !impls.contains_key(q),
        (Some(_), Form::Bare | Form::Field) => false,
    };

    // Fixed point: an unreached item's spans stop counting as mentions,
    // which can leave more items unreached. Waived items stay live. An
    // item's own spans never count for it, nor do those of an item with
    // its name and owner (a free fn's namesake in another module).
    let mut dead = vec![false; report.items.len()];
    let reached = |item: &Item, dead: &[bool]| {
        let excluded: Vec<Span> = (0..own.len())
            .filter(|&i| {
                let other = &report.items[i];
                dead[i] || other.name == item.name && other.owner == item.owner
            })
            .flat_map(|i| own[i].iter().copied())
            .collect();
        sites.get(item.name.as_str()).is_some_and(|s| {
            s.iter().any(|&(f, t, form)| {
                names(item, form) && !excluded.iter().any(|sp| sp.contains(f, t))
            })
        })
    };
    loop {
        let newly: Vec<usize> = (0..dead.len())
            .filter(|&i| !dead[i] && report.items[i].waiver.is_none())
            .filter(|&i| !reached(&report.items[i], &dead))
            .collect();
        if newly.is_empty() {
            break;
        }
        for i in newly {
            dead[i] = true;
        }
    }
    let stale: Vec<usize> = (0..dead.len())
        .filter(|&i| report.items[i].waiver.is_some() && reached(&report.items[i], &dead))
        .collect();
    report.unreached = (0..dead.len()).filter(|&i| dead[i]).collect();
    report.stale_waivers = stale;
    report
}

/// The index of the `;` that ends the statement starting at `at`.
fn statement_end(toks: &[Token], at: usize) -> usize {
    let depth = toks[at].depth;
    (at..toks.len())
        .find(|&k| toks[k].is_punct(';') && toks[k].depth == depth)
        .unwrap_or(toks.len() - 1)
}

/// The index of the `}` matching the `{` at `open`.
fn block_end(toks: &[Token], open: usize) -> usize {
    let depth = toks[open].depth;
    (open + 1..toks.len())
        .find(|&k| toks[k].is_punct('}') && toks[k].depth == depth)
        .unwrap_or(toks.len() - 1)
}

/// True when the token at `at` begins an item rather than sitting in a
/// type (`-> impl Iterator`, `x: impl Fn()`).
fn starts_item(toks: &[Token], at: usize) -> bool {
    at.checked_sub(1).is_none_or(|p| {
        let prev = &toks[p];
        ['}', ';', '{', ']'].iter().any(|&c| prev.is_punct(c)) || prev.is_ident("unsafe")
    })
}

/// For the `impl` at `at`: the self type's name and the block's last
/// token. `impl<T> a::Foo<T>` and `impl Trait for &Foo` both name `Foo`.
fn impl_self_type(toks: &[Token], at: usize) -> Option<(String, usize)> {
    let open =
        (at..toks.len()).find(|&k| toks[k].is_punct('{') && toks[k].depth == toks[at].depth)?;
    let mut header = &toks[at + 1..open];
    // Skip `impl<..>`'s parameters, and everything up to a `for` that
    // sits outside angle brackets; stop at `where`.
    let mut in_params = header.first().is_some_and(|t| t.is_punct('<'));
    let (mut angle, mut self_from) = (0i32, 0);
    for (k, t) in header.iter().enumerate() {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !(k > 0 && header[k - 1].is_punct('-')) {
            angle -= 1;
            if in_params && angle == 0 {
                in_params = false;
                self_from = k + 1;
            }
        } else if angle == 0 && t.is_ident("for") {
            self_from = k + 1;
        } else if angle == 0 && t.is_ident("where") {
            header = &header[..k];
            break;
        }
    }
    let name = header[self_from.min(header.len())..]
        .iter()
        .take_while(|t| !t.is_punct('<'))
        .filter(|t| t.kind == TokKind::Ident && !matches!(t.text.as_str(), "mut" | "dyn"))
        .last()?;
    Some((name.text.clone(), block_end(toks, open)))
}

/// For the `pub` at `at`: the item's kind and the index of its name, or
/// `None` for restricted visibility, modules, re-exports and fields.
fn pub_item(toks: &[Token], at: usize) -> Option<(&'static str, usize)> {
    const KINDS: [&str; 8] = [
        "fn", "struct", "enum", "trait", "union", "type", "const", "static",
    ];
    let mut j = at + 1;
    if toks.get(j)?.is_punct('(') {
        return None;
    }
    loop {
        let t = toks.get(j)?;
        let qualifies_fn = toks.get(j + 1).is_some_and(|n| {
            ["fn", "unsafe", "async", "extern"]
                .iter()
                .any(|k| n.is_ident(k))
        });
        if t.is_ident("unsafe") || t.is_ident("async") || t.is_ident("const") && qualifies_fn {
            j += 1;
        } else if t.is_ident("extern") {
            j += 1;
            if toks.get(j).is_some_and(|l| l.kind == TokKind::Literal) {
                j += 1;
            }
        } else {
            break;
        }
    }
    let kind = KINDS.into_iter().find(|k| toks[j].is_ident(k))?;
    j += 1;
    if kind == "static" && toks.get(j)?.is_ident("mut") {
        j += 1;
    }
    let name = toks.get(j)?;
    (name.kind == TokKind::Ident && name.text != "_").then_some((kind, j))
}

/// The last token of the item whose name is at `name_at`: its `;`, or
/// the `}` closing its body.
fn item_end(toks: &[Token], name_at: usize, kind: &str) -> usize {
    let depth = toks[name_at].depth;
    let braced = !matches!(kind, "type" | "const" | "static");
    let mut nest = 0i32;
    for k in name_at + 1..toks.len() {
        let t = &toks[k];
        if t.depth != depth {
            continue;
        }
        if t.is_punct('(') || t.is_punct('[') {
            nest += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            nest -= 1;
        } else if nest == 0 && t.is_punct(';') {
            return k;
        } else if nest == 0 && braced && t.is_punct('{') {
            return block_end(toks, k);
        }
    }
    toks.len() - 1
}

/// The first token of the `#[..]` attributes directly before `at`.
fn attributes_start(toks: &[Token], at: usize) -> usize {
    let mut start = at;
    while start >= 2 && toks[start - 1].is_punct(']') {
        let mut nest = 0i32;
        let Some(open) = (0..start).rev().find(|&k| {
            if toks[k].is_punct(']') {
                nest += 1;
            } else if toks[k].is_punct('[') {
                nest -= 1;
            }
            nest == 0
        }) else {
            break;
        };
        if open == 0 || !toks[open - 1].is_punct('#') {
            break;
        }
        start = open - 1;
    }
    start
}

/// Analyse the workspace under `root`: library sources under
/// `crates/*/src` and `src`, and the roots `examples/` and `benchmark/src`.
pub fn scan_workspace(root: &Path) -> Result<ReachReport, String> {
    let mut paths = crate::workspace_rs_files(root).map_err(|e| format!("scanning: {e}"))?;
    for dir in ["src", "examples", "benchmark/src"] {
        if root.join(dir).is_dir() {
            let mut found = Vec::new();
            crate::collect_rs(&root.join(dir), &mut found)
                .map_err(|e| format!("scanning {dir}: {e}"))?;
            paths.extend(
                found
                    .into_iter()
                    .filter_map(|p| p.strip_prefix(root).ok().map(Path::to_path_buf)),
            );
        }
    }
    paths.sort();
    let mut files = Vec::new();
    for rel in paths {
        let source = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("read {}: {e}", rel.display()))?;
        files.push((crate::slash_path(&rel), source));
    }
    Ok(analyze(&files))
}

/// Human-readable report: every finding with its location, or a one-line
/// clean summary.
pub fn render_report(report: &ReachReport) -> String {
    if report.is_clean() {
        return format!(
            "reach clean: {} pub item(s) in {} file(s), {} waived, none unreached",
            report.items.len(),
            report.files,
            report.waived()
        );
    }
    let mut out = String::new();
    let line = |i: &Item| format!("  {}:{}: pub {} {}", i.file, i.line, i.kind, i.path());
    if !report.unreached.is_empty() {
        let _ = writeln!(
            out,
            "error: {} pub item(s) named by no code outside their own definition and tests\n",
            report.unreached.len()
        );
        for item in report.unreached_items() {
            let _ = writeln!(out, "{}", line(item));
        }
        let _ = writeln!(
            out,
            "\nDelete them, or keep one with a waiver naming its reader:\n  \
             // audit:allow(unreached): <reason>"
        );
    }
    if !report.stale_waivers.is_empty() {
        let _ = writeln!(
            out,
            "\nerror: reached item(s) carrying an unreached waiver:\n"
        );
        for &i in &report.stale_waivers {
            let _ = writeln!(out, "{}", line(&report.items[i]));
        }
    }
    out
}

/// JSON summary for `--json`.
pub fn to_json(report: &ReachReport) -> Json {
    let names = |idxs: &[usize]| {
        Json::Arr(
            idxs.iter()
                .map(|&i| {
                    let item = &report.items[i];
                    Json::str(format!("{}:{}: {}", item.file, item.line, item.path()))
                })
                .collect(),
        )
    };
    Json::Obj(vec![
        ("analysis".into(), Json::str("reach")),
        ("files".into(), Json::count(report.files)),
        ("items".into(), Json::count(report.items.len())),
        ("waived".into(), Json::count(report.waived())),
        ("unreached".into(), names(&report.unreached)),
        ("stale_waivers".into(), names(&report.stale_waivers)),
        ("clean".into(), Json::Bool(report.is_clean())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(src: &str) -> ReachReport {
        analyze(&[("crates/x/src/lib.rs".to_string(), src.to_string())])
    }

    fn unreached(src: &str) -> Vec<String> {
        let report = lib(src);
        report
            .unreached_items()
            .iter()
            .map(|i| format!("{} {}", i.kind, i.path()))
            .collect()
    }

    #[test]
    fn item_kinds_and_qualifiers() {
        let src = "pub const fn a() {}\npub unsafe extern \"C\" fn b() {}\n\
                   pub static mut C: u8 = 0;\npub type D = u8;\npub trait E {}\n\
                   pub(crate) fn hidden() {}\npub mod m {}\n";
        assert_eq!(
            unreached(src),
            ["fn a", "fn b", "static C", "type D", "trait E"]
        );
    }

    #[test]
    fn generic_and_trait_impls_belong_to_their_self_type() {
        let src = "pub struct Foo<T>(T);\npub trait Show<T> {}\n\
                   impl<T: Clone> Show<Foo<T>> for Foo<T> where T: Copy {}\n\
                   fn used() -> Foo<u8> { Foo(1) }\n\
                   pub struct Bar;\nimpl<'a> Bar { fn f(&self) -> Bar { Bar } }\n";
        // `Show` is named by Foo's impl and `Foo` by `used`; `Bar` only
        // by its own impl.
        assert_eq!(unreached(src), ["struct Bar"]);
    }

    #[test]
    fn methods_are_named_by_calls_and_by_paths_through_their_type() {
        let src = "pub struct A;\npub struct B;\n\
                   impl A {\n\
                       pub fn new() -> A { A }\n\
                       pub fn called(&self) {}\n\
                       pub fn turbofish(&self) {}\n\
                       pub fn field(&self) {}\n\
                       pub fn bare() {}\n\
                       pub fn other_type() {}\n\
                       pub fn alias() {}\n\
                       pub fn via_self() {}\n\
                       pub fn helper() { Self::via_self() }\n\
                   }\n\
                   impl B { pub fn other_type() {} }\n\
                   fn user() { let a = A::new(); a.called(); a.turbofish::<u8>();\n\
                       let _ = a.field; bare(); B::other_type(); Alias::alias(); A::helper(); }\n";
        // A field read, a bare name and another type's path do not name
        // a method; a call, its own type, `Self` and an unknown
        // qualifier (an alias, a trait) do.
        assert_eq!(
            unreached(src),
            ["fn A::field", "fn A::bare", "fn A::other_type"]
        );
    }

    #[test]
    fn const_initializers_and_multiline_strings_end_where_they_end() {
        let src = "pub const T: &str = \"a\nb;\";\npub const N: [u8; 2] = { [1; 2] };\n\
                   pub fn user() -> usize { T.len() + N.len() }\nfn main() { user(); }\n";
        assert_eq!(unreached(src), Vec::<String>::new());
    }

    #[test]
    fn roots_are_callers_not_candidates() {
        assert!(is_root("crates/cli/src/main.rs"));
        assert!(is_root("crates/bench/src/bin/fig5.rs"));
        assert!(is_root("examples/quickstart.rs"));
        assert!(is_root("benchmark/src/lib.rs"));
        assert!(!is_root("crates/core/src/lib.rs"));
        assert!(!is_root("crates/core/tests/it.rs"));
    }

    #[test]
    fn waiver_needs_a_reason() {
        let report = lib("// audit:allow(unreached):\npub fn a() {}\n");
        assert_eq!(report.waived(), 0);
        assert_eq!(report.unreached.len(), 1);
    }
}
