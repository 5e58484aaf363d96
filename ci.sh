#!/usr/bin/env bash
# Offline CI gate for the Mendel workspace. Run from the repo root:
#
#   ./ci.sh          # full gate
#   ./ci.sh quick    # skip the release build and strict-invariants pass
#
# Every step works without network access; steps whose tool is absent
# from the toolchain (rustfmt, clippy) are skipped with a notice rather
# than failing the gate.
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

# 2. Source audit: no new panics / std::sync locks / stray prints /
#    unjustified allows versus audit-baseline.txt (see DESIGN.md §8.1).
step "mendel-audit lint" cargo run -q -p mendel-audit -- lint

# 3. Clippy with the workspace lint table ([workspace.lints.clippy]).
if cargo clippy --version >/dev/null 2>&1; then
    step "cargo clippy" cargo clippy --workspace --all-targets -q
else
    echo "==> clippy unavailable; skipping lint check"
fi

# 4. Lock-order analysis (DESIGN.md §13): the held-while-acquiring
#    graph over every parking_lot acquisition must stay acyclic, and
#    every guard held across a blocking call must carry a waiver.
#    The JSON reports are build outputs: they go under target/ci/, not
#    into tracked files.
mkdir -p target/ci
step "mendel-audit locks" \
    cargo run -q -p mendel-audit -- locks --json target/ci/audit_locks.json

# 5. Atomic-ordering audit (DESIGN.md §13): every `Ordering::*` site
#    needs an `audit:ordering(<Ord>): <reason>` annotation or a
#    baseline entry; atomics-baseline.txt only ever shrinks.
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

# 8. Structural invariant checkers asserted at every mutation site
#    (see DESIGN.md §8.2).
if [ "$MODE" != "quick" ]; then
    step "cargo test --features strict-invariants" \
        cargo test --workspace --features strict-invariants -q
fi

# 9. Kernel/arena perf harness self-checks (DESIGN.md §10): tiny sizes,
#    asserts the report JSON is well-formed and that bounded kNN returns
#    bit-identical results to the unbounded baseline (the SIMD kernels
#    likewise identical to scalar).
if [ "$MODE" != "quick" ]; then
    step "kernel_bench --smoke" \
        cargo run --release -q -p mendel-bench --bin kernel_bench -- --smoke
fi

# 10. Observability suite (DESIGN.md §11): exact counter assertions
#    (distance calls, fan-out, fault-verdict replay) under the invariant
#    checkers.
if [ "$MODE" != "quick" ]; then
    step "observability suite (strict-invariants)" \
        cargo test --test observability --features strict-invariants -q
fi

# 11. Causal-tracing suite (DESIGN.md §12): the seeded chaos-flavoured
#    run exports byte-identical chrome trace JSON twice, the export
#    passes the trace-event schema check, the hand-built scatter-gather
#    DAG yields the hand-computed critical path, and envelopes
#    round-trip over both wire encodings.
if [ "$MODE" != "quick" ]; then
    step "trace determinism + schema" cargo test --test tracing -q
fi

# 12. Seeded chaos suite (DESIGN.md §9): deterministic fault injection,
#    heartbeat failover, and re-replication repair under the invariant
#    checkers. Fast fixed seeds only; the multi-seed sweep stays behind
#    `--ignored`.
if [ "$MODE" != "quick" ]; then
    step "chaos suite (strict-invariants)" \
        cargo test --test chaos --features strict-invariants -q
fi

# 13. Durability gate (DESIGN.md §14): the store-level crash-point
#    matrix (kill after every VFS op, recover, committed-prefix check)
#    plus the cluster-level kill-and-recover suite, then the smoke
#    bench re-runs the matrix across fsync policies (its report goes to
#    the system temp dir).
step "crash-point matrix" cargo test -p mendel-store --test crash_matrix -q
if [ "$MODE" != "quick" ]; then
    step "durability suite" cargo test --test durability -q
    step "durability_bench --smoke" \
        cargo run --release -q -p mendel-bench --bin durability_bench -- --smoke
fi

# 14. Real serving layer (DESIGN.md §16): frame-codec hostile-input +
#    property tests, transport conformance against both the simulated
#    and TCP backends, then the multi-process loopback cluster — three
#    `mendel serve` OS processes, HTTP-ingested, answering byte-identical
#    to the in-process twin, with SIGKILL degradation matching
#    fail_node — and, in the same suite, the cross-process tracing and
#    live-telemetry cases of DESIGN.md §17 (spans from all three
#    processes stitched into one tree; slowlog, federated metrics and
#    verbose healthz answer). The suite skips itself with a notice when
#    the sandbox forbids loopback sockets and retries spawn rounds on
#    port collisions; a hard timeout keeps a wedged child from hanging
#    the gate.
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

# 15. The benchmark package (benchmark/README.md) is outside the
#    workspace, so nothing above compiles it: build its binaries and run
#    its unit tests against this tree, so a refactor that breaks the
#    frozen probe API `layers` links fails here instead of at the next
#    benchmark run. Its build lands in target/benchmark/
#    (benchmark/.cargo/config.toml).
bench_package() {
    (cd benchmark && cargo build --offline --bins -q && cargo test --offline -q)
}
if [ "$MODE" != "quick" ]; then
    step "benchmark package builds + tests against the tree" bench_package
fi

# 16. The alternating-pairs A/B runner (ab.sh) is a measurement tool,
#    not a gate step — a ten-pair run takes most of an hour — so the
#    gate only keeps it parsing and answering `--help`.
ab_script() { bash -n ab.sh && ./ab.sh --help >/dev/null; }
step "ab.sh parses and prints its usage" ab_script
#    Likewise the line counter CHANGES.md size tables are made with
#    (loc.sh): it must parse and count the tree.
loc_script() { bash -n loc.sh && ./loc.sh | grep -q '^total'; }
step "loc.sh parses and counts the tree" loc_script

# 17. The gate reads the tree; it must not rewrite it. Any tracked file
#    that differs from its state when the gate started (a step that
#    regenerates a checked-in report, say) fails the run.
step "gate left tracked files untouched" test "$(git status --porcelain -uno)" = "$DIRTY_BEFORE"

echo
if [ "$FAILED" -ne 0 ]; then
    echo "CI gate FAILED"
    exit 1
fi
echo "CI gate passed"
