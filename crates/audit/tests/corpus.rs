//! Fixture-corpus tests for the concurrency and reachability analyses:
//! exact finding counts on known-deadlock, known-clean, adversarial and
//! dead-code sources, and zero false positives on the clean set.

use mendel_audit::locks::{self, find_cycles};
use mendel_audit::{atomics, reach};

const DEADLOCK: &str = include_str!("fixtures/deadlock.rs");
const CLEAN: &str = include_str!("fixtures/clean.rs");
const ADVERSARIAL: &str = include_str!("fixtures/adversarial.rs");
const PUBLICATION: &str = include_str!("fixtures/publication.rs");
const WORK_STEALING: &str = include_str!("fixtures/work_stealing.rs");
const REACH: &str = include_str!("fixtures/reach.rs");

fn lock_facts(name: &str, src: &str) -> locks::FileLockFacts {
    locks::analyze_source(
        &format!("crates/fix/src/{name}.rs"),
        &format!("fix/{name}"),
        src,
    )
}

#[test]
fn deadlock_fixture_has_the_seeded_cycle() {
    let facts = lock_facts("deadlock", DEADLOCK);
    // forward: routes -> peers; backward: peers -> routes;
    // drain: no second acquisition.
    assert_eq!(facts.acquisitions.len(), 5);
    assert_eq!(facts.edges.len(), 2);
    let cycles = find_cycles(&facts.edges);
    assert_eq!(cycles.len(), 1, "exactly one cycle: {cycles:?}");
    assert_eq!(
        cycles[0].locks,
        vec!["fix/deadlock::peers", "fix/deadlock::routes"]
    );
    assert_eq!(cycles[0].edges.len(), 2);
}

#[test]
fn deadlock_fixture_has_the_unwaived_recv_smell() {
    let facts = lock_facts("deadlock", DEADLOCK);
    let unwaived: Vec<_> = facts.smells.iter().filter(|s| !s.waived).collect();
    assert_eq!(unwaived.len(), 1);
    assert_eq!(unwaived[0].callee, "recv_timeout");
    assert_eq!(unwaived[0].function, "drain");
    assert_eq!(unwaived[0].guards, vec!["fix/deadlock::peers"]);
}

#[test]
fn clean_fixture_has_zero_lock_findings() {
    let facts = lock_facts("clean", CLEAN);
    // plan: topology -> nodes is the only hold-edge; that edge is
    // consistent (never reversed), so there is no cycle.
    let cycles = find_cycles(&facts.edges);
    assert!(cycles.is_empty(), "false-positive cycles: {cycles:?}");
    assert!(facts.smells.iter().all(|s| s.waived), "{:?}", facts.smells);
    assert_eq!(facts.smells.len(), 1, "only the waived broadcast send");
}

#[test]
fn clean_fixture_has_zero_atomic_findings() {
    let sites = atomics::scan_source("crates/fix/src/clean.rs", CLEAN);
    assert_eq!(sites.len(), 3);
    assert!(
        sites.iter().all(|s| s.annotated()),
        "unannotated: {:?}",
        sites.iter().filter(|s| !s.annotated()).collect::<Vec<_>>()
    );
}

#[test]
fn adversarial_fixture_exact_counts() {
    let facts = lock_facts("adversarial", ADVERSARIAL);
    assert_eq!(
        facts.acquisitions.len(),
        3,
        "acquisitions: {:?}",
        facts.acquisitions
    );
    assert_eq!(facts.edges.len(), 1, "edges: {:?}", facts.edges);
    assert_eq!(facts.edges[0].held, "fix/adversarial::a");
    assert_eq!(facts.edges[0].acquired, "fix/adversarial::b");
    assert_eq!(facts.edges[0].function, "nested");
    assert!(find_cycles(&facts.edges).is_empty());
    assert!(facts.smells.is_empty(), "{:?}", facts.smells);
}

#[test]
fn adversarial_fixture_atomics_exact_counts() {
    let sites = atomics::scan_source("crates/fix/src/adversarial.rs", ADVERSARIAL);
    // One real site (annotated); cmp::Ordering, strings, comments and
    // the test region contribute nothing.
    assert_eq!(sites.len(), 1, "sites: {sites:?}");
    assert!(sites[0].annotated());
    assert_eq!(sites[0].ordering, "Relaxed");
}

#[test]
fn publication_fixture_all_sites_unannotated() {
    let sites = atomics::scan_source("crates/fix/src/publication.rs", PUBLICATION);
    assert_eq!(sites.len(), 4, "sites: {sites:?}");
    let unannotated = sites.iter().filter(|s| !s.annotated()).count();
    assert_eq!(unannotated, 4, "wrong-ordering marker must not annotate");
    let orderings: Vec<&str> = sites.iter().map(|s| s.ordering.as_str()).collect();
    assert_eq!(orderings, vec!["Relaxed", "Release", "Acquire", "Relaxed"]);
}

#[test]
fn work_stealing_fixture_exact_counts() {
    let facts = lock_facts("work_stealing", WORK_STEALING);
    // push/pop/steal: one lock each; the two hold-and-steal functions:
    // two each.
    assert_eq!(
        facts.acquisitions.len(),
        7,
        "acquisitions: {:?}",
        facts.acquisitions
    );
    assert_eq!(facts.edges.len(), 2, "edges: {:?}", facts.edges);
    let cycles = find_cycles(&facts.edges);
    assert_eq!(cycles.len(), 1, "exactly one cycle: {cycles:?}");
    assert_eq!(
        cycles[0].locks,
        vec!["fix/work_stealing::own", "fix/work_stealing::victim"]
    );
}

#[test]
fn work_stealing_correct_protocol_contributes_no_edges() {
    let facts = lock_facts("work_stealing", WORK_STEALING);
    // Every hold-edge comes from the seeded hold-and-steal pair; the
    // correct one-lock-at-a-time protocol is invisible to the cycle
    // finder, and the lock-free idle wait raises no guard smell.
    for e in &facts.edges {
        assert!(
            e.function.starts_with("steal_holding"),
            "unexpected edge from {}: {e:?}",
            e.function
        );
    }
    assert!(facts.smells.is_empty(), "{:?}", facts.smells);
}

#[test]
fn publication_fixture_has_no_lock_findings() {
    let facts = lock_facts("publication", PUBLICATION);
    assert!(facts.acquisitions.is_empty());
    assert!(facts.edges.is_empty());
    assert!(facts.smells.is_empty());
}

/// Split a multi-file fixture on its `// ==> <path>` lines.
fn fixture_files(src: &str) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = Vec::new();
    for line in src.lines() {
        if let Some(path) = line.strip_prefix("// ==> ") {
            files.push((path.to_string(), String::new()));
        } else if let Some((_, body)) = files.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    files
}

#[test]
fn reach_fixture_exact_counts() {
    let report = reach::analyze(&fixture_files(REACH));
    let names = |idxs: &[usize]| -> Vec<&str> {
        idxs.iter()
            .map(|&i| report.items[i].name.as_str())
            .collect()
    };
    // The library file and the example; the `tests/` file is not read.
    assert_eq!(report.files, 2);
    assert_eq!(report.items.len(), 10, "items: {:?}", report.items);
    assert_eq!(
        names(&report.unreached),
        [
            "uncalled",
            "dead_helper",
            "test_only",
            "OnlyImpl",
            "reexported"
        ]
    );
    assert_eq!(names(&report.stale_waivers), ["stale_waiver"]);
    assert_eq!(report.waived(), 2);
    assert!(!report.is_clean());
    let waived = report.items.iter().find(|i| i.name == "waived").unwrap();
    assert_eq!(
        waived.waiver.as_deref(),
        Some("kept for the fixture's waiver case")
    );
}

#[test]
fn reach_report_names_every_finding_with_its_line() {
    let report = reach::analyze(&fixture_files(REACH));
    let text = reach::render_report(&report);
    for expected in [
        "crates/fix/src/lib.rs:4: pub fn uncalled",
        "crates/fix/src/lib.rs:19: pub struct OnlyImpl",
        "crates/fix/src/lib.rs:46: pub fn stale_waiver",
    ] {
        assert!(text.contains(expected), "missing {expected:?} in:\n{text}");
    }
    assert!(!text.contains("from_example"), "{text}");
}
