#!/usr/bin/env bash
# Offline CI gate for the Mendel workspace. Run from the repo root:
#
#   ./ci.sh          # full gate
#   ./ci.sh quick    # skip the release build and strict-invariants pass
#
# Every step works without network access. A missing rustfmt skips the
# format check with a notice; a missing clippy fails the gate, because
# clippy carries the workspace's lint rules (step 3).
set -u

cd "$(dirname "$0")"

MODE="${1:-full}"
FAILED=0
DIRTY_BEFORE="$(git status --porcelain -uno)"

step() {
    echo
    echo "==> $1"
    shift
    if "$@"; then
        echo "    ok"
    else
        echo "    FAILED: $*"
        FAILED=1
    fi
}

# 1. Formatting. The tree is kept rustfmt-clean; drift fails the gate.
if cargo fmt --version >/dev/null 2>&1; then
    step "cargo fmt --check" cargo fmt --check
else
    echo "==> rustfmt unavailable; skipping format check"
fi

# 2. Dead-code audit (DESIGN.md §8.1): every pub fn, type and const is
#    named outside its own definition and tests, or carries a waiver
#    naming its reader. Like every audit step below, it has no baseline:
#    any unwaived finding fails the gate.
step "mendel-audit reach" cargo run -q -p mendel-audit -- reach

# 3. Clippy with the workspace lint table ([workspace.lints.clippy]),
#    the root and per-crate clippy.toml, and clippy's default groups
#    (`clippy::all`) denied (DESIGN.md §8.1): no unwrap, expect or panic
#    outside test code, no std::sync lock, no stray print, no `#[allow]`
#    without a reason, no raw wall-clock read or sleep in an
#    instrumented crate, and no new style, complexity, perf or
#    suspicious finding. `--all-features` also lints the
#    strict-invariants code. Without clippy these rules go unchecked, so
#    its absence fails the gate.
clippy_gate() {
    cargo clippy --version >/dev/null 2>&1 || {
        echo "    clippy is not installed; the lint rules cannot run"
        return 1
    }
    cargo clippy --workspace --all-targets --all-features -q -- -D clippy::all
}
step "cargo clippy (clippy::all denied)" clippy_gate

#    Rustdoc with warnings denied: a dangling or private intra-doc link
#    (one a deletion left behind, say) fails the gate. Library targets
#    only: the `mendel` binary's docs would land on the `mendel` library's.
step "cargo doc (warnings denied)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib -q

# 4. Lock-order analysis (DESIGN.md §13): the held-while-acquiring
#    graph over every parking_lot acquisition must stay acyclic, and
#    every guard held across a blocking call must carry a waiver.
#    The JSON reports are build outputs: they go under target/ci/, not
#    into tracked files.
mkdir -p target/ci
step "mendel-audit locks" \
    cargo run -q -p mendel-audit -- locks --json target/ci/audit_locks.json

# 5. Atomic-ordering audit (DESIGN.md §13): every `Ordering::*` site
#    needs an `audit:ordering(<Ord>): <reason>` annotation; any site
#    without one fails the gate.
step "mendel-audit atomics" \
    cargo run -q -p mendel-audit -- atomics --json target/ci/audit_atomics.json

# 6. Deterministic two-thread interleaving stress for Histogram,
#    FlightRecorder, and the work-stealing scheduler's deques (lockstep
#    alternation + free-running invariants). Plain run always; under
#    ThreadSanitizer and Miri when the toolchain has them (nightly
#    rust-src for TSan's -Zbuild-std, the miri component for Miri) —
#    skipped with a notice otherwise.
step "interleaving stress (plain)" cargo test -p mendel-obs --test interleave -q
step "scheduler interleave stress (plain)" cargo test -p mendel-sched --test interleave -q
if rustup component list --toolchain nightly 2>/dev/null | grep -q "^rust-src (installed)"; then
    HOST="$(rustc -vV | sed -n 's/^host: //p')"
    step "interleaving stress (tsan)" \
        env RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$HOST" \
        -p mendel-obs --test interleave -q
    step "scheduler interleave stress (tsan)" \
        env RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$HOST" \
        -p mendel-sched --test interleave -q
else
    echo "==> nightly rust-src unavailable; skipping ThreadSanitizer pass"
fi
if cargo +nightly miri --version >/dev/null 2>&1; then
    step "interleaving stress (miri)" \
        cargo +nightly miri test -p mendel-obs --test interleave
    step "scheduler interleave stress (miri)" \
        cargo +nightly miri test -p mendel-sched --test interleave
else
    echo "==> miri unavailable; skipping Miri pass"
fi

# 7. Tier-1 verify (ROADMAP.md): release build + default test suite.
if [ "$MODE" != "quick" ]; then
    step "cargo build --release" cargo build --release -q
fi
step "cargo test" cargo test -q

#    The crates' own unit tests (`src/**` `#[cfg(test)]` modules: the
#    cluster, node, ledger, vp-tree, store, ... tests) without
#    `strict-invariants`. `cargo test` above runs only the root package;
#    step 8 runs these only with the feature on, so a test that passes
#    under the checkers alone would otherwise go unseen.
step "crate unit tests" cargo test --workspace --lib -q

#    The five examples assert their own claims (the true source ranks
#    first, replication masks a failure, scale-out keeps the answers);
#    `cargo test` only compiles them. Run each in release; a non-zero
#    exit fails the gate.
run_examples() {
    local example
    for example in quickstart metagenomics protein_homology cluster_ops translated_search; do
        cargo run --release -q --example "$example" >/dev/null || return 1
    done
}
if [ "$MODE" != "quick" ]; then
    step "examples run to a zero exit (release)" run_examples
fi

#    The vp-tree crate in release, where its served-size cases run
#    (~100 k points per tree): the served search budgets must find as much
#    of the exhaustive answer as the old depth-first search at 4,096, and
#    the identity filter's distance ceiling must stay no search radius.
#    Too slow for a debug build, where only their small twins run.
if [ "$MODE" != "quick" ]; then
    step "served-size search frontier (release)" \
        cargo test --release -p mendel-vptree -q
fi

#    The lane kernels of the vp-tree leaf scan against per-pair `dist`:
#    the debug suite compares 2,000 generated leaves, this release run
#    40,000 (the sweep ignores itself in debug builds).
if [ "$MODE" != "quick" ]; then
    step "lane-kernel differential sweep (release)" \
        cargo test --release -p mendel-seq -q
fi

#    The banded gapped-extension kernels against their reference copy:
#    the dispatched (SSE4.1 `i16` lane), kill-switch and forced scalar
#    paths on every case, 2,000 in the debug suite and 50,000 in this
#    release run (the sweep ignores itself in debug builds). It also fails
#    if a benchmark-shaped half runs scalar while `active_kernel()`
#    reports `sse4.1`, so the sweep cannot quietly compare scalar with
#    scalar.
if [ "$MODE" != "quick" ]; then
    step "gapped-extension differential sweep (release)" \
        cargo test --release -p mendel-align -q
fi

#    The SHA-1 compression kernels: the dispatched (SHA-NI) path against
#    the scalar rounds on 2,000 random messages at random split points in
#    the debug suite, 100,000 in this release run (the sweep ignores
#    itself in debug builds). It fails if a CPU with the SHA extensions
#    dispatched scalar, so it cannot quietly compare scalar with scalar.
if [ "$MODE" != "quick" ]; then
    step "SHA-1 kernel differential sweep (release)" \
        cargo test --release -p mendel-dht -q
fi

#    The placement ledger at served size: a protein-long-shaped member
#    build (60 families × 6 members × 800 residues) must keep its ledger
#    within 4 bytes per block key, 8 per sequence and 4 KiB, and place
#    every block of the corpus (the test ignores itself in debug builds).
if [ "$MODE" != "quick" ]; then
    step "served-size ledger footprint (release)" \
        cargo test --release -p mendel --test footprint -q
fi

# 8. Structural invariant checkers asserted at every mutation site
#    (see DESIGN.md §8.2).
if [ "$MODE" != "quick" ]; then
    step "cargo test --features strict-invariants" \
        cargo test --workspace --features strict-invariants -q
fi

# 9. Observability suite (DESIGN.md §11): exact counter assertions
#    (distance calls, fan-out, gapped-extension work, identical deltas
#    for identical runs) under the invariant checkers.
if [ "$MODE" != "quick" ]; then
    step "observability suite (strict-invariants)" \
        cargo test --test observability --features strict-invariants -q
fi

# 10. Causal-tracing suite (DESIGN.md §12): the seeded chaos-flavoured
#    run exports byte-identical chrome trace JSON twice, the export
#    passes the trace-event schema check, the hand-built scatter-gather
#    DAG yields the hand-computed critical path, and envelopes
#    round-trip over both wire encodings.
if [ "$MODE" != "quick" ]; then
    step "trace determinism + schema" cargo test --test tracing -q
fi

# 11. Seeded chaos suite (DESIGN.md §9): seeded query drops and a
#    crash/restart schedule driving fail_node/recover_node on a logical
#    clock, the wire's suspect set across lossy queries (each answer
#    equal to a crash-only twin's), re-replication repair and exact
#    same-seed replay, under the invariant checkers. No threads, no
#    sleeps; the seed that fails at the served search budget stays
#    behind `--ignored`.
if [ "$MODE" != "quick" ]; then
    step "chaos suite (strict-invariants)" \
        cargo test --test chaos --features strict-invariants -q
fi

# 12. Durability gate (DESIGN.md §14): the store-level crash-point
#    matrix (kill after every VFS op, recover, committed-prefix check,
#    under every fsync policy) plus the cluster-level kill-and-recover
#    suite.
step "crash-point matrix" cargo test -p mendel-store --test crash_matrix -q
if [ "$MODE" != "quick" ]; then
    step "durability suite" cargo test --test durability -q
fi

# 13. Real serving layer (DESIGN.md §16): frame-codec hostile-input +
#    property tests, transport conformance of the TCP backend (per-peer
#    FIFO, reply pairing, typed timeouts, a restarted peer redialed,
#    crossing dials, and the churn case: 50 connect-and-close cycles
#    must leave the connection table empty and no descriptor open),
#    then the multi-process loopback cluster — three `mendel serve` OS
#    processes, HTTP-ingested, answering byte-identical to the
#    in-process twin, with SIGKILL degradation matching fail_node and
#    the survivors' links to the dead peer pruned; a SIGSTOPped member
#    waited out once (500 ms) and then only asked, each later query
#    under 250 ms with the same bytes, one suspect skip and a whole
#    query's frames, and back within two queries of SIGCONT; a
#    SIGKILLed member costing one refused dial (a dead letter in place
#    of a frame) per send and no reconnect; `/healthz` answering in
#    under 200 ms while a query waits out a SIGSTOPped member's
#    deadline, and a second `/ingest` answering 409, with `/healthz`
#    200, before that query returns — and, in the same suite,
#    the cross-process tracing and live-telemetry cases of DESIGN.md §17
#    (spans from all three processes stitched into one tree; slowlog,
#    federated metrics and verbose healthz answer), `serve`'s refusal of
#    unknown keys, and `mendel query` printing the hits an in-process
#    build of serve's preset answers at three groups.
#    The suite skips itself with a notice when the sandbox forbids
#    loopback sockets and retries spawn rounds on port collisions; the
#    SIGSTOP cases keep `--rpc-timeout-ms 1000`, and a child left
#    stopped is SIGKILLed by its guard. A hard timeout keeps a wedged
#    child from hanging the gate.
step "frame codec + transport conformance" \
    cargo test -p mendel-net --test frame_props --test transport_conformance -q
if [ "$MODE" != "quick" ]; then
    if command -v timeout >/dev/null 2>&1; then
        step "multi-process serve suite (loopback)" \
            timeout --kill-after=30 300 cargo test -p mendel-cli --test serve -q
    else
        step "multi-process serve suite (loopback)" \
            cargo test -p mendel-cli --test serve -q
    fi
fi

# 14. The benchmark package (benchmark/README.md) is outside the
#    workspace, so nothing above compiles it: build its binaries and run
#    its unit tests against this tree, so a refactor that breaks the
#    frozen probe API `layers` links fails here instead of at the next
#    benchmark run. Its build lands in target/benchmark/
#    (benchmark/.cargo/config.toml). `--locked`: a change to the
#    workspace's dependency edges fails here instead of silently
#    rewriting benchmark/Cargo.lock.
bench_package() {
    (cd benchmark && cargo build --offline --locked --bins -q && cargo test --offline --locked -q)
}
if [ "$MODE" != "quick" ]; then
    step "benchmark package builds + tests against the tree" bench_package
fi

# 15. The alternating-pairs A/B runner (ab.sh) is a measurement tool,
#    not a gate step — a ten-pair run takes most of an hour — so the
#    gate only keeps it parsing and answering `--help`.
ab_script() { bash -n ab.sh && ./ab.sh --help >/dev/null; }
step "ab.sh parses and prints its usage" ab_script
#    Likewise the line counter CHANGES.md size tables are made with
#    (loc.sh): it must parse and count the tree.
loc_script() { bash -n loc.sh && ./loc.sh | grep -q '^total'; }
step "loc.sh parses and counts the tree" loc_script
#    And the per-process ingest probe (ingest.sh): in full mode it brings
#    up three `mendel serve` processes per workload for one round,
#    ingests them and reaps them, and must print every node's row.
ingest_script() {
    bash -n ingest.sh && ./ingest.sh --rounds 1 >target/ci/ingest.txt &&
        [ "$(grep -c '^| [0-2] | tree |' target/ci/ingest.txt)" -eq 6 ]
}
if [ "$MODE" != "quick" ]; then
    step "ingest.sh brings up, ingests and reaps a cluster" ingest_script
fi

# 16. The gate reads the tree; it must not rewrite it. Any tracked file
#    that differs from its state when the gate started (a step that
#    regenerates a checked-in report, say) fails the run.
step "gate left tracked files untouched" test "$(git status --porcelain -uno)" = "$DIRTY_BEFORE"

echo
if [ "$FAILED" -ne 0 ]; then
    echo "CI gate FAILED"
    exit 1
fi
echo "CI gate passed"
