#!/usr/bin/env bash
# Alternating-pairs A/B runner: is this tree better, worse or the same as
# a parent commit, on the repository's benchmark?
#
#   ./ab.sh <parent-ref> [--pairs N] [--workload NAME] [--seed0 S]
#
# Exports <parent-ref> (git archive) into target/ab/parent, builds it and
# this working tree each into its own CARGO_TARGET_DIR under target/ab/,
# then makes N pairs of full benchmark/run.sh runs (default 10; pair i
# uses seed S+i on both sides, default S = 2000; even pairs run the
# parent first, odd pairs the change). For every workload x end-to-end
# metric of BENCHMARK.json it prints both medians, both quartile spreads
# ((Q3 - Q1) / median), how much worse the change's median is, the pairs
# the change won, and a verdict:
#
#   better      change won >= 9/10 of the pairs and the medians differ by
#               more than the parent's own Q3 - Q1
#   REGRESSED   change's median is worse than the parent's by more than
#               the metric's bound                      (exit status 1)
#   unresolved  either side's spread is wider than the bound, so "no
#               regression" cannot be told from noise
#   same        within the bound, and the bound is resolvable
#
# Each run's "# <workload> env" line is kept beside its result. A run of
# the wrong build stops the script with status 2: a change run's git_sha
# must be this checkout's HEAD, and a parent run's must be "unknown" (the
# parent is built below GIT_CEILING_DIRECTORIES=target/ab, where git finds
# no repository). A build cache copied from another checkout can run, or
# stamp, another commit; remove the directory named and run again.
#
# Everything it writes is under the ignored target/ab/ and benchmark/out/;
# the exported parent tree is removed on exit (the two build directories
# stay as caches, the parent's keyed by commit).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
usage() { sed -n '2,33p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'; }

parent_ref=""
pairs=10
seed0=2000
only=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="${2:?--pairs needs a count}"; shift 2 ;;
        --workload) only=("${2:?--workload needs a name}"); shift 2 ;;
        --seed0) seed0="${2:?--seed0 needs a seed}"; shift 2 ;;
        -h | --help) usage; exit 0 ;;
        -*) echo "ab.sh: unknown argument $1" >&2; exit 2 ;;
        *)
            [ -z "$parent_ref" ] || { echo "ab.sh: more than one parent ref" >&2; exit 2; }
            parent_ref="$1"; shift ;;
    esac
done
[ -n "$parent_ref" ] || { usage >&2; exit 2; }
sha="$(git -C "$root" rev-parse --verify --quiet "$parent_ref^{commit}")" \
    || { echo "ab.sh: $parent_ref is not a commit" >&2; exit 2; }
head="$(git -C "$root" rev-parse --short=12 HEAD)"

ab="$root/target/ab"
results="$ab/results"
rm -rf "$ab/parent" "$results"
mkdir -p "$ab/parent" "$results"
trap 'rm -rf "$ab/parent"' EXIT
git -C "$root" archive "$sha" | tar -x -C "$ab/parent"

seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
if [ ${#only[@]} -gt 0 ]; then
    workloads=("${only[@]}")
else
    mapfile -t workloads < <(python3 -c 'import json,sys; print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")
fi

run_side() { # run_side parent|change PAIR WORKLOAD SEED
    local tree="$root" target="$ab/target-change" want="$head" env=()
    if [ "$1" = parent ]; then
        tree="$ab/parent" target="$ab/target-${sha:0:12}" want=unknown
        env=(GIT_CEILING_DIRECTORIES="$ab")
    fi
    local out="$results/$1-$3-$2"
    echo "ab.sh: pair $(($2 + 1))/$pairs $1 $3 seed $4" >&2
    env "${env[@]}" CARGO_TARGET_DIR="$target" "$tree/benchmark/run.sh" \
        --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 >"$out.txt"
    grep '^# .* env ' "$out.txt" >"$out.env" || true
    tail -n 1 "$out.txt" >"$out.json"
    local got
    got="$(python3 -c 'import json, sys
line = open(sys.argv[1]).readline()
print(json.loads(line.split(" env ", 1)[1])["run"].get("git_sha", "none") if line else "none")' "$out.env")"
    if [ "$got" != "$want" ]; then
        echo "ab.sh: the $1 run of pair $(($2 + 1)) ran a build stamped $got, not $want; remove $target and run again" >&2
        exit 2
    fi
}

for i in $(seq 0 $((pairs - 1))); do
    order=(parent change)
    if [ $((i % 2)) -eq 1 ]; then order=(change parent); fi
    for workload in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            run_side "$side" "$i" "$workload" $((seed0 + i))
        done
    done
done

python3 - "$root/BENCHMARK.json" "$results" "$pairs" "${sha:0:12}" "${workloads[@]}" <<'PY'
import json, pathlib, statistics, sys

spec = json.load(open(sys.argv[1]))
results, pairs, sha, workloads = pathlib.Path(sys.argv[2]), int(sys.argv[3]), sys.argv[4], sys.argv[5:]

def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1

print(f"parent {sha} vs working tree, {pairs} alternating pairs, {spec['run_seconds']} s measured per run\n")
print("| workload | metric | unit | parent | change | change worse by | spread parent | spread change | pairs won | bound | verdict |")
print("|---|---|---|---:|---:|---:|---:|---:|---:|---:|---|")
bad = []
for w in workloads:
    runs = {}
    for side in ("parent", "change"):
        runs[side] = [json.loads((results / f"{side}-{w}-{i}.json").read_text()) for i in range(pairs)]
        wrong = sum(1 for r in runs[side] if not r["correct"] or r["failed"])
        if wrong:
            bad.append(f"{w}: {wrong} {side} runs were incorrect or had failed operations")
    for m in spec["end_to_end"]:
        p, c = ([r["metrics"][m["name"]]["value"] for r in runs[side]] for side in ("parent", "change"))
        mp, mc = statistics.median(p), statistics.median(c)
        lower = m["better"] == "lower"
        better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
        won = sum(1 for a, b in zip(c, p) if better(a, b))
        # How far the change's median is on the worse side of the parent's.
        worse_by = max(0.0, (mc - mp) / mp if lower else (mp - mc) / mp) if mp else 0.0
        spread_p, spread_c = (iqr(v) / statistics.median(v) if statistics.median(v) else 0.0 for v in (p, c))
        all_better = all(better(a, b) for a in c for b in p)
        if won * 10 >= pairs * 9 and abs(mc - mp) > iqr(p):
            verdict = "better"
        elif worse_by > m["bound"]:
            verdict = "REGRESSED"
            bad.append(f"{w}/{m['name']}: change worse by {worse_by:.1%}, bound {m['bound']:.0%}")
        elif max(spread_p, spread_c) > m["bound"] and not all_better:
            verdict = "unresolved"
        else:
            verdict = "same"
        print(f"| {w} | {m['name']} | {m['unit']} | {mp:.4g} | {mc:.4g} | {worse_by:.1%} | {spread_p:.1%} | {spread_c:.1%} "
              f"| {won}/{pairs} | {m['bound']:.0%} | {verdict} |")
for line in bad:
    print("ab.sh: " + line, file=sys.stderr)
sys.exit(1 if bad else 0)
PY
