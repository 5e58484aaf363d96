#!/usr/bin/env bash
# One command for the whole benchmark: builds the `mendel` executable and
# the benchmark from source, runs the workloads, checks every answer and
# prints each metric as `workload metric value unit`; the last line of
# stdout is the result object BENCHMARK.json's contract prescribes.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds N]
#                    [--trace 0|1 | --traced] [--smoke]
#
# Without --workload it runs every workload of BENCHMARK.json in turn.
# --smoke (Q/10, P = 2) is for trying the harness; its output goes to
# benchmark/out-smoke/ and is never a source of reported numbers.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

workloads=()
traced=0
out="$here/out"
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads=("${2:?--workload needs a name}"); shift 2 ;;
        --trace) traced="${2:?--trace needs 0 or 1}"; shift 2 ;;
        --traced) traced=1; shift ;;
        --seed | --seconds) pass+=("$1" "${2:?$1 needs a value}"); shift 2 ;;
        --smoke) pass+=("$1"); out="$here/out-smoke"; shift ;;
        -h | --help) sed -n '2,12p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'; exit 0 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates/cli" ]; then
    echo "run.sh: no Mendel source tree beside $here: there is no program to build and measure" >&2
    exit 2
fi

if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c 'import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]: print(w["name"])' "$root/BENCHMARK.json")
    if [ ${#workloads[@]} -eq 0 ]; then
        echo "run.sh: cannot read the workload list from $root/BENCHMARK.json" >&2
        exit 2
    fi
fi

# Cargo resolves a relative CARGO_TARGET_DIR against its own working
# directory, and the two builds below run in different ones.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
    mendel_bin="$CARGO_TARGET_DIR/release/mendel"
    bench_bins="$CARGO_TARGET_DIR/release"
else
    mendel_bin="$root/target/release/mendel"
    bench_bins="$root/target/benchmark/release" # benchmark/.cargo/config.toml
fi

# Build only what is older than its sources. Calling cargo every time
# would do: it rebuilds `mendel-cli` (and the benchmark after it) on every
# call in a checkout that is not a git repository, because that crate's
# build script watches `.git/HEAD` and a watched file that does not exist
# counts as changed; that costs more than a quarter of a run.
stale() { # stale BUILT SOURCE...
    [ ! -x "$1" ] || [ -n "$(find "${@:2}" -type f -newer "$1" -print -quit)" ]
}
program=("$root/Cargo.toml" "$root/Cargo.lock" "$root/crates" "$root/vendor")
harness=("$here/Cargo.toml" "$here/Cargo.lock" "$here/src")
if stale "$mendel_bin" "${program[@]}"; then
    (cd "$root" && cargo build --release --offline --quiet -p mendel-cli) >&2
fi
# The e2e driver must build whatever happens to the crates' Rust APIs; the
# layer probes, which link them, are built only for a traced run.
bins=(e2e)
if [ "$traced" = 1 ]; then bins+=(layers); fi
for bin in "${bins[@]}"; do
    if stale "$bench_bins/$bin" "${program[@]}" "${harness[@]}"; then
        (cd "$here" && cargo build --release --offline --quiet --bin "$bin") >&2
    fi
done

for workload in "${workloads[@]}"; do
    "$bench_bins/e2e" --workload "$workload" --mendel "$mendel_bin" --out "$out" --trace "$traced" "${pass[@]}"
done
