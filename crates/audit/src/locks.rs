//! Lock-order analysis: who acquires what while holding what.
//!
//! Walks the token stream of every workspace source file, infers the
//! scope of each parking_lot guard (`.lock()` / `.read()` / `.write()`
//! with no arguments on a named field or variable), and builds the
//! *held-while-acquiring* graph: an edge `A -> B` means some function
//! acquires lock `B` while a guard for lock `A` is still live. A cycle
//! in that graph is a potential deadlock; an I/O or blocking call made
//! while any guard is live is a long-held-guard smell.
//!
//! ## Guard scope model (soundness limits)
//!
//! The analysis is intra-procedural and syntactic:
//!
//! * A guard bound by exactly `let [mut] name = <recv>.lock();` lives
//!   to the end of its enclosing block, or to an explicit
//!   `drop(name)`.
//! * Any other acquisition is a temporary living to the end of its
//!   statement — except in an `if` / `while` / `match` scrutinee,
//!   where (matching Rust's temporary-lifetime extension) it is
//!   adopted into the brace block that follows.
//! * Locks are named `<crate>/<file>::<field path>` with `self.`
//!   stripped and index expressions collapsed to `[_]`; a guard
//!   variable used as a receiver is substituted by the lock it holds,
//!   so `nodes_guard[i].read()` becomes `…::nodes[_]`.
//! * Calls are not followed: a function that takes a lock and then
//!   calls another function that takes a different lock contributes
//!   edges only for the acquisitions it performs itself. The graph is
//!   therefore an under-approximation across calls and a slight
//!   over-approximation within match arms (arm temporaries are
//!   considered live until the end of the statement).
//!
//! Test code (`#[test]` / `#[cfg(test)]` regions) is exempt, as with
//! every other audit rule.

use crate::lexer::{lex, TokKind, Token};
use crate::report::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Method names that produce a parking_lot guard when called with no
/// arguments.
const GUARD_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Calls that block or perform I/O; making one while a guard is live is
/// the `guard-across-io` smell (waivable via
/// `audit:allow(guard-across-io): <reason>`).
const IO_CALLS: [&str; 18] = [
    "send",
    "send_traced",
    "recv",
    "recv_timeout",
    "try_recv",
    // The wire path's request/reply layer (calls are not followed, so
    // the wrappers around send and recv_timeout are named themselves),
    // and the front-end's query, which waits on both.
    "request",
    "gather",
    "query_via",
    "sleep",
    // File I/O (the mendel-store disk path): an fsync can stall for
    // seconds on a busy disk, and even buffered writes/reads block.
    "sync_all",
    "sync_data",
    "write_all",
    "create",
    "read_to_end",
    // Socket I/O (the TCP transport and HTTP front-end): connects and
    // blocking reads can stall for a full timeout.
    "connect",
    "connect_timeout",
    "accept",
    "read_exact",
];

/// One lock acquisition site.
#[derive(Debug, Clone)]
pub struct Acquisition {
    pub lock: String,
    pub mode: &'static str,
    pub file: String,
    pub line: usize,
    pub function: String,
}

/// Lock `acquired` taken while a guard for `held` was live.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    pub held: String,
    pub acquired: String,
    pub file: String,
    pub line: usize,
    pub function: String,
}

/// A blocking/I/O call made while one or more guards were live.
#[derive(Debug, Clone)]
pub struct IoSmell {
    pub file: String,
    pub line: usize,
    pub function: String,
    pub callee: String,
    pub guards: Vec<String>,
    pub waived: bool,
}

/// A strongly connected component of the held-while-acquiring graph
/// with more than one lock (or a self-edge): a potential deadlock.
#[derive(Debug, Clone)]
pub struct Cycle {
    pub locks: Vec<String>,
    pub edges: Vec<LockEdge>,
}

/// Analysis result for one file.
#[derive(Debug, Default)]
pub struct FileLockFacts {
    pub acquisitions: Vec<Acquisition>,
    pub edges: Vec<LockEdge>,
    pub smells: Vec<IoSmell>,
}

/// Whole-workspace lock-order report.
#[derive(Debug, Default)]
pub struct LockReport {
    pub files: usize,
    pub acquisitions: Vec<Acquisition>,
    pub edges: Vec<LockEdge>,
    pub cycles: Vec<Cycle>,
    pub smells: Vec<IoSmell>,
}

impl LockReport {
    /// Smells not waived by an `audit:allow(guard-across-io)` marker.
    pub fn unwaived_smells(&self) -> Vec<&IoSmell> {
        self.smells.iter().filter(|s| !s.waived).collect()
    }

    /// True when the workspace passes the gate: no cycles, no unwaived
    /// smells.
    pub fn is_clean(&self) -> bool {
        self.cycles.is_empty() && self.unwaived_smells().is_empty()
    }

    /// Distinct lock names seen anywhere.
    pub fn lock_names(&self) -> BTreeSet<String> {
        let mut names: BTreeSet<String> =
            self.acquisitions.iter().map(|a| a.lock.clone()).collect();
        for e in &self.edges {
            names.insert(e.held.clone());
            names.insert(e.acquired.clone());
        }
        names
    }
}

/// Lock id prefix for a workspace-relative path:
/// `crates/net/src/tcp.rs` → `net/tcp`.
pub fn module_name(rel_path: &str) -> String {
    let p = rel_path.strip_prefix("crates/").unwrap_or(rel_path);
    let p = p.replace("/src/", "/");
    p.strip_suffix(".rs").unwrap_or(&p).to_string()
}

/// A live guard during simulation.
#[derive(Debug, Clone)]
struct Guard {
    lock: String,
    var: Option<String>,
}

/// One open brace block: its guards, plus the statement state of the
/// enclosing statement (restored when the block closes, so temporaries
/// of `let x = … { … } …;` survive the inner block).
struct Scope {
    guards: Vec<Guard>,
    saved_temps: Vec<Guard>,
    saved_head: Option<String>,
    saved_start: usize,
}

/// Analyze one file's token stream. `module` is the lock-name prefix
/// (see [`module_name`]); `file` is used verbatim in findings.
pub fn analyze_source(file: &str, module: &str, source: &str) -> FileLockFacts {
    let lexed = lex(source);
    let toks = &lexed.tokens;
    let mut facts = FileLockFacts::default();

    let mut scopes: Vec<Scope> = Vec::new();
    let mut stmt_temps: Vec<Guard> = Vec::new();
    let mut stmt_head: Option<String> = None;
    let mut stmt_start: usize = 0;
    let mut fn_stack: Vec<(String, u32)> = Vec::new();
    let mut pending_fn: Option<String> = None;
    let mut seen_edges: BTreeSet<(String, String, usize)> = BTreeSet::new();

    let mut i = 0;
    while i < toks.len() {
        let tok = &toks[i];
        match tok.kind {
            TokKind::Punct if tok.is_punct('{') => {
                let scrutinee = matches!(
                    stmt_head.as_deref(),
                    Some("if" | "while" | "match" | "for" | "else")
                );
                let adopted = if scrutinee {
                    std::mem::take(&mut stmt_temps)
                } else {
                    Vec::new()
                };
                if let Some(name) = pending_fn.take() {
                    fn_stack.push((name, tok.depth));
                }
                scopes.push(Scope {
                    guards: adopted,
                    saved_temps: std::mem::take(&mut stmt_temps),
                    saved_head: stmt_head.take(),
                    saved_start: stmt_start,
                });
                stmt_start = i + 1;
            }
            TokKind::Punct if tok.is_punct('}') => {
                if let Some(scope) = scopes.pop() {
                    stmt_temps = scope.saved_temps;
                    stmt_head = scope.saved_head;
                    stmt_start = scope.saved_start;
                } else {
                    stmt_temps.clear();
                    stmt_head = None;
                }
                if fn_stack.last().is_some_and(|(_, d)| *d == tok.depth) {
                    fn_stack.pop();
                }
            }
            TokKind::Punct if tok.is_punct(';') => {
                stmt_temps.clear();
                stmt_head = None;
                stmt_start = i + 1;
                pending_fn = None;
            }
            TokKind::Ident => {
                let text = tok.text.as_str();
                if i == stmt_start && matches!(text, "if" | "while" | "match" | "for" | "else") {
                    stmt_head = Some(text.to_string());
                }
                if text == "fn" {
                    if let Some(next) = toks.get(i + 1) {
                        if next.kind == TokKind::Ident {
                            pending_fn = Some(next.text.clone());
                        }
                    }
                } else if text == "drop"
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
                {
                    if let Some(victim) = toks.get(i + 2).filter(|t| t.kind == TokKind::Ident) {
                        let name = victim.text.as_str();
                        for scope in scopes.iter_mut() {
                            scope.guards.retain(|g| g.var.as_deref() != Some(name));
                        }
                        stmt_temps.retain(|g| g.var.as_deref() != Some(name));
                    }
                } else if is_acquisition(toks, i) && !tok.in_test {
                    let mode = GUARD_METHODS
                        .iter()
                        .find(|m| **m == text)
                        .copied()
                        .unwrap_or("lock");
                    let (segments, recv_start) = walk_receiver(toks, i);
                    let lock = lock_name(module, segments, &scopes, &stmt_temps);
                    let function = fn_stack
                        .last()
                        .map(|(n, _)| n.clone())
                        .unwrap_or_else(|| String::from("<top>"));
                    facts.acquisitions.push(Acquisition {
                        lock: lock.clone(),
                        mode,
                        file: file.to_string(),
                        line: tok.line,
                        function: function.clone(),
                    });
                    for held in live_guards(&scopes, &stmt_temps) {
                        if seen_edges.insert((held.clone(), lock.clone(), tok.line)) {
                            facts.edges.push(LockEdge {
                                held,
                                acquired: lock.clone(),
                                file: file.to_string(),
                                line: tok.line,
                                function: function.clone(),
                            });
                        }
                    }
                    let var = binding_var(toks, stmt_start, recv_start, i);
                    let guard = Guard {
                        lock,
                        var: var.clone(),
                    };
                    if var.is_some() {
                        if let Some(scope) = scopes.last_mut() {
                            scope.guards.push(guard);
                        } else {
                            stmt_temps.push(guard);
                        }
                    } else {
                        stmt_temps.push(guard);
                    }
                } else if !tok.in_test
                    && IO_CALLS.contains(&text)
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && !(i > 0 && toks[i - 1].is_ident("fn"))
                {
                    let live = live_guards(&scopes, &stmt_temps);
                    if !live.is_empty() {
                        let function = fn_stack
                            .last()
                            .map(|(n, _)| n.clone())
                            .unwrap_or_else(|| String::from("<top>"));
                        // `audit:allow(guard-across-io): <reason>` on the
                        // call's line or the line directly above waives it.
                        let waived = [tok.line, tok.line - 1]
                            .into_iter()
                            .flat_map(|l| lexed.markers(l, "allow"))
                            .any(|(name, _)| name == "guard-across-io");
                        facts.smells.push(IoSmell {
                            file: file.to_string(),
                            line: tok.line,
                            function,
                            callee: text.to_string(),
                            guards: live,
                            waived,
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    facts
}

/// True when token `i` is a guard-producing method call: preceded by
/// `.`, named `lock`/`read`/`write`, and called with empty parentheses
/// (which is what filters out `io::Read::read(&mut buf)` and friends).
fn is_acquisition(toks: &[Token], i: usize) -> bool {
    GUARD_METHODS.contains(&toks[i].text.as_str())
        && i > 0
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
}

/// Walk the receiver chain backwards from the `.` before token `i`
/// (the method name). Returns the receiver's path segments in source
/// order plus the index of its first token.
fn walk_receiver(toks: &[Token], i: usize) -> (Vec<String>, usize) {
    let mut segments: Vec<String> = Vec::new();
    let mut start = i.saturating_sub(1);
    // j points at the token just before the `.`.
    let mut j = match i.checked_sub(2) {
        Some(j) => j as i64,
        None => return (segments, start),
    };
    loop {
        if j < 0 {
            break;
        }
        let tok = &toks[j as usize];
        if tok.is_punct(']') {
            // Indexing binds directly to what precedes it — no `.`
            // between `nodes` and `[i]` — so keep walking.
            match matching_open(toks, j as usize, '[', ']') {
                Some(open) => {
                    segments.push(String::from("[_]"));
                    start = open;
                    j = open as i64 - 1;
                    continue;
                }
                None => break,
            }
        } else if tok.is_punct(')') {
            match matching_open(toks, j as usize, '(', ')') {
                Some(open) if open > 0 && toks[open - 1].kind == TokKind::Ident => {
                    segments.push(format!("{}()", toks[open - 1].text));
                    start = open - 1;
                    j = open as i64 - 2;
                }
                _ => break,
            }
        } else if tok.kind == TokKind::Ident {
            segments.push(tok.text.clone());
            start = j as usize;
            j -= 1;
        } else {
            break;
        }
        // Ident and call segments continue only through a `.` chain.
        if j >= 0 && toks[j as usize].is_punct('.') {
            j -= 1;
        } else {
            break;
        }
    }
    segments.reverse();
    (segments, start)
}

/// Scan backwards from `close` to the matching opening bracket.
fn matching_open(toks: &[Token], close: usize, open_ch: char, close_ch: char) -> Option<usize> {
    let mut depth = 0usize;
    for j in (0..=close).rev() {
        if toks[j].is_punct(close_ch) {
            depth += 1;
        } else if toks[j].is_punct(open_ch) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Build the qualified lock name from receiver segments: drop a
/// leading `self`, drop chained guard-producing calls, substitute a
/// leading guard variable with the lock it holds, prefix the module.
fn lock_name(
    module: &str,
    mut segments: Vec<String>,
    scopes: &[Scope],
    stmt_temps: &[Guard],
) -> String {
    if segments.first().is_some_and(|s| s == "self") {
        segments.remove(0);
    }
    segments.retain(|s| !matches!(s.as_str(), "lock()" | "read()" | "write()"));
    if segments.is_empty() {
        return format!("{module}::<expr>");
    }
    // Guard-variable substitution: `nodes_guard[i].read()` names the
    // lock the guard came from, not the variable.
    let substituted = scopes
        .iter()
        .flat_map(|s| s.guards.iter())
        .chain(stmt_temps.iter())
        .find(|g| g.var.as_deref() == Some(segments[0].as_str()))
        .map(|g| g.lock.clone());
    let mut name = match substituted {
        Some(lock) => lock,
        None => format!("{module}::{}", segments[0]),
    };
    for seg in &segments[1..] {
        if seg.starts_with('[') {
            name.push_str(seg);
        } else {
            name.push('.');
            name.push_str(seg);
        }
    }
    name
}

/// Does the statement beginning at `stmt_start` bind this acquisition
/// to a variable (`let [mut] name = <recv>.lock();`)? Returns the
/// variable name when it does.
fn binding_var(
    toks: &[Token],
    stmt_start: usize,
    recv_start: usize,
    method_idx: usize,
) -> Option<String> {
    let mut k = stmt_start;
    if !toks.get(k)?.is_ident("let") {
        return None;
    }
    k += 1;
    if toks.get(k)?.is_ident("mut") {
        k += 1;
    }
    let var = toks.get(k)?;
    if var.kind != TokKind::Ident {
        return None;
    }
    k += 1;
    if !toks.get(k)?.is_punct('=') {
        return None;
    }
    // The receiver must start right after the `=`, and the statement
    // must end right after the call: anything else (`let g = a.lock()
    // .map(..)`, `let (a, b) = …`) is not a plain guard binding.
    if k + 1 != recv_start || !toks.get(method_idx + 3)?.is_punct(';') {
        return None;
    }
    Some(var.text.clone())
}

fn live_guards(scopes: &[Scope], stmt_temps: &[Guard]) -> Vec<String> {
    let mut live: Vec<String> = Vec::new();
    for g in scopes
        .iter()
        .flat_map(|s| s.guards.iter())
        .chain(stmt_temps.iter())
    {
        if !live.contains(&g.lock) {
            live.push(g.lock.clone());
        }
    }
    live
}

/// Run the analysis over every workspace source file under `root`.
pub fn analyze_workspace(root: &Path) -> Result<LockReport, String> {
    let files =
        crate::workspace_rs_files(root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
    let mut report = LockReport::default();
    for rel_path in files {
        let rel = crate::slash_path(&rel_path);
        let source = std::fs::read_to_string(root.join(&rel_path))
            .map_err(|e| format!("read {}: {e}", rel_path.display()))?;
        let facts = analyze_source(&rel, &module_name(&rel), &source);
        report.acquisitions.extend(facts.acquisitions);
        report.edges.extend(facts.edges);
        report.smells.extend(facts.smells);
        report.files += 1;
    }
    report.cycles = find_cycles(&report.edges);
    Ok(report)
}

/// Strongly connected components (iterative Tarjan) of the edge set;
/// components with more than one lock, or any self-edge, are cycles.
pub fn find_cycles(edges: &[LockEdge]) -> Vec<Cycle> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.held.as_str())
            .or_default()
            .insert(e.acquired.as_str());
        adj.entry(e.acquired.as_str()).or_default();
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let index_of: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let succ: Vec<Vec<usize>> = nodes
        .iter()
        .map(|n| adj[n].iter().map(|t| index_of[t]).collect())
        .collect();

    let n = nodes.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components: Vec<Vec<usize>> = Vec::new();

    // Iterative Tarjan: work items are (node, next neighbor position).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut work: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&(v, pos)) = work.last() {
            if pos == 0 && index[v] == usize::MAX {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if pos < succ[v].len() {
                if let Some(top) = work.last_mut() {
                    top.1 += 1;
                }
                let w = succ[v][pos];
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    components.push(comp);
                }
            }
        }
    }

    let mut cycles = Vec::new();
    for comp in components {
        let names: BTreeSet<&str> = comp.iter().map(|&i| nodes[i]).collect();
        let self_loop = comp.len() == 1
            && edges
                .iter()
                .any(|e| e.held == e.acquired && e.held == nodes[comp[0]]);
        if comp.len() > 1 || self_loop {
            let members: Vec<String> = names.iter().map(|s| s.to_string()).collect();
            let cycle_edges: Vec<LockEdge> = edges
                .iter()
                .filter(|e| names.contains(e.held.as_str()) && names.contains(e.acquired.as_str()))
                .cloned()
                .collect();
            cycles.push(Cycle {
                locks: members,
                edges: cycle_edges,
            });
        }
    }
    cycles.sort_by(|a, b| a.locks.cmp(&b.locks));
    cycles
}

/// Graphviz dump of the held-while-acquiring graph.
pub fn render_dot(report: &LockReport) -> String {
    let mut out = String::from(
        "digraph lock_order {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n",
    );
    let cyclic: BTreeSet<&str> = report
        .cycles
        .iter()
        .flat_map(|c| c.locks.iter().map(|s| s.as_str()))
        .collect();
    for name in report.lock_names() {
        let attrs = if cyclic.contains(name.as_str()) {
            " [color=red, penwidth=2]"
        } else {
            ""
        };
        out.push_str(&format!("  \"{name}\"{attrs};\n"));
    }
    for e in &report.edges {
        out.push_str(&format!(
            "  \"{}\" -> \"{}\" [label=\"{}:{}\"];\n",
            e.held, e.acquired, e.file, e.line
        ));
    }
    out.push_str("}\n");
    out
}

/// Human-readable report.
pub fn render_report(report: &LockReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "lock-order: {} files, {} acquisition sites, {} distinct locks, {} hold-edges\n",
        report.files,
        report.acquisitions.len(),
        report.lock_names().len(),
        report.edges.len(),
    ));
    if !report.edges.is_empty() {
        out.push_str("\nheld-while-acquiring edges:\n");
        let mut edges = report.edges.clone();
        edges.sort();
        for e in &edges {
            out.push_str(&format!(
                "  {} -> {}  ({}:{} in {})\n",
                e.held, e.acquired, e.file, e.line, e.function
            ));
        }
    }
    if report.cycles.is_empty() {
        out.push_str("\nno lock-order cycles.\n");
    } else {
        out.push_str(&format!("\nCYCLES ({}):\n", report.cycles.len()));
        for c in &report.cycles {
            out.push_str(&format!("  cycle: {}\n", c.locks.join(" <-> ")));
            for e in &c.edges {
                out.push_str(&format!(
                    "    {} -> {} at {}:{}\n",
                    e.held, e.acquired, e.file, e.line
                ));
            }
        }
    }
    let unwaived = report.unwaived_smells();
    let waived = report.smells.len() - unwaived.len();
    if report.smells.is_empty() {
        out.push_str("no guard-across-io smells.\n");
    } else {
        out.push_str(&format!(
            "guard-across-io smells: {} ({} waived)\n",
            report.smells.len(),
            waived
        ));
        for s in &report.smells {
            out.push_str(&format!(
                "  {} {}:{} `{}(..)` under [{}] in {}\n",
                if s.waived { "waived" } else { "SMELL " },
                s.file,
                s.line,
                s.callee,
                s.guards.join(", "),
                s.function
            ));
        }
    }
    out
}

/// JSON document for trend tracking (`ci.sh` writes it under `target/ci/`).
pub fn to_json(report: &LockReport) -> Json {
    let edge = |e: &LockEdge| {
        Json::Obj(vec![
            ("held".into(), Json::str(&e.held)),
            ("acquired".into(), Json::str(&e.acquired)),
            ("file".into(), Json::str(&e.file)),
            ("line".into(), Json::count(e.line)),
            ("function".into(), Json::str(&e.function)),
        ])
    };
    Json::Obj(vec![
        ("analysis".into(), Json::str("locks")),
        ("files".into(), Json::count(report.files)),
        (
            "acquisitions".into(),
            Json::count(report.acquisitions.len()),
        ),
        (
            "locks".into(),
            Json::Arr(report.lock_names().iter().map(Json::str).collect()),
        ),
        (
            "edges".into(),
            Json::Arr(report.edges.iter().map(edge).collect()),
        ),
        (
            "cycles".into(),
            Json::Arr(
                report
                    .cycles
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            (
                                "locks".into(),
                                Json::Arr(c.locks.iter().map(Json::str).collect()),
                            ),
                            (
                                "edges".into(),
                                Json::Arr(c.edges.iter().map(edge).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "smells".into(),
            Json::Arr(
                report
                    .smells
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("file".into(), Json::str(&s.file)),
                            ("line".into(), Json::count(s.line)),
                            ("function".into(), Json::str(&s.function)),
                            ("callee".into(), Json::str(&s.callee)),
                            (
                                "guards".into(),
                                Json::Arr(s.guards.iter().map(Json::str).collect()),
                            ),
                            ("waived".into(), Json::Bool(s.waived)),
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

    fn facts(src: &str) -> FileLockFacts {
        analyze_source("crates/x/src/m.rs", "x/m", src)
    }

    #[test]
    fn module_names() {
        assert_eq!(module_name("crates/net/src/tcp.rs"), "net/tcp");
        assert_eq!(
            module_name("crates/cli/src/bin/mendel.rs"),
            "cli/bin/mendel"
        );
    }

    #[test]
    fn bound_guard_lives_to_block_end() {
        let f = facts(
            "fn f(&self) {\n    let g = self.a.lock();\n    self.b.lock();\n}\nfn g(&self) {\n    self.b.lock();\n}",
        );
        assert_eq!(f.acquisitions.len(), 3);
        assert_eq!(f.edges.len(), 1);
        assert_eq!(f.edges[0].held, "x/m::a");
        assert_eq!(f.edges[0].acquired, "x/m::b");
        assert_eq!(f.edges[0].function, "f");
    }

    #[test]
    fn temporary_dies_at_statement_end() {
        let f = facts("fn f(&self) {\n    self.a.lock().touch();\n    self.b.lock();\n}");
        assert!(f.edges.is_empty());
    }

    #[test]
    fn drop_releases_a_bound_guard() {
        let f =
            facts("fn f(&self) {\n    let g = self.a.lock();\n    drop(g);\n    self.b.lock();\n}");
        assert!(f.edges.is_empty());
    }

    #[test]
    fn scrutinee_temporary_is_adopted_into_the_block() {
        // The classic parking_lot footgun: the `if let` scrutinee
        // temporary lives for the whole block.
        let f = facts(
            "fn f(&self) {\n    if let Some(v) = self.a.lock().get(k) {\n        self.b.lock();\n    }\n}",
        );
        assert_eq!(f.edges.len(), 1);
        assert_eq!(f.edges[0].held, "x/m::a");
    }

    #[test]
    fn block_confined_guard_does_not_leak() {
        let f = facts(
            "fn f(&self) {\n    let v = {\n        let g = self.a.write();\n        g.len()\n    };\n    self.b.lock();\n}",
        );
        assert!(f.edges.is_empty());
    }

    #[test]
    fn guard_variable_indexing_is_substituted() {
        let f = facts(
            "fn f(&self) {\n    let nodes = self.nodes.read();\n    let n = nodes[i].read();\n}",
        );
        assert_eq!(f.acquisitions.len(), 2);
        assert_eq!(f.acquisitions[1].lock, "x/m::nodes[_]");
        assert_eq!(f.edges.len(), 1);
        assert_eq!(f.edges[0].acquired, "x/m::nodes[_]");
    }

    #[test]
    fn read_with_arguments_is_not_an_acquisition() {
        let f = facts("fn f(&self) {\n    let n = file.read(&mut buf);\n    sock.write(&data);\n}");
        assert!(f.acquisitions.is_empty());
    }

    #[test]
    fn self_upgrade_is_a_cycle() {
        let f = facts("fn f(&self) {\n    let g = self.a.read();\n    let w = self.a.write();\n}");
        let cycles = find_cycles(&f.edges);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].locks, vec!["x/m::a"]);
    }

    #[test]
    fn ab_ba_is_a_cycle() {
        let f = facts(
            "fn f(&self) {\n    let g = self.a.lock();\n    self.b.lock();\n}\nfn g(&self) {\n    let g = self.b.lock();\n    self.a.lock();\n}",
        );
        let cycles = find_cycles(&f.edges);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].locks, vec!["x/m::a", "x/m::b"]);
    }

    #[test]
    fn consistent_order_is_no_cycle() {
        let f = facts(
            "fn f(&self) {\n    let g = self.a.lock();\n    self.b.lock();\n}\nfn g(&self) {\n    let g = self.a.lock();\n    self.b.lock();\n}",
        );
        assert!(find_cycles(&f.edges).is_empty());
    }

    #[test]
    fn io_under_guard_is_a_smell() {
        let f = facts("fn f(&self) {\n    let g = self.senders.read();\n    tx.send(env);\n}");
        assert_eq!(f.smells.len(), 1);
        assert!(!f.smells[0].waived);
        assert_eq!(f.smells[0].callee, "send");
    }

    #[test]
    fn waiver_marks_the_smell() {
        let f = facts(
            "fn f(&self) {\n    let g = self.senders.read();\n    // audit:allow(guard-across-io): unbounded channel send never blocks\n    tx.send(env);\n}",
        );
        assert_eq!(f.smells.len(), 1);
        assert!(f.smells[0].waived);
    }

    #[test]
    fn io_without_guard_is_fine() {
        let f = facts("fn f(&self) {\n    tx.send(env);\n}");
        assert!(f.smells.is_empty());
    }

    #[test]
    fn fn_definitions_are_not_calls() {
        let f = facts(
            "impl X {\n    fn a(&self) {\n        let g = self.m.lock();\n    }\n    fn send(&self, x: u32) {\n        x;\n    }\n}",
        );
        assert!(f.smells.is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let f = facts(
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let g = A.lock();\n        B.lock();\n    }\n}",
        );
        assert!(f.acquisitions.is_empty());
        assert!(f.edges.is_empty());
    }

    #[test]
    fn multiline_chain_acquisition_is_seen() {
        let f = facts(
            "fn f(&self) {\n    self.parked\n        .lock()\n        .retain(|_, _| true);\n}",
        );
        assert_eq!(f.acquisitions.len(), 1);
        assert_eq!(f.acquisitions[0].lock, "x/m::parked");
        assert_eq!(f.acquisitions[0].line, 3);
    }

    #[test]
    fn strings_and_comments_cannot_fake_locks() {
        let f = facts(
            "fn f(&self) {\n    let s = \"self.a.lock() while self.b.lock()\";\n    // self.c.lock()\n    let r = r#\"self.d.lock()\"#;\n}",
        );
        assert!(f.acquisitions.is_empty());
    }
}
