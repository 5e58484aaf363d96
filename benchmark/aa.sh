#!/usr/bin/env bash
# A/A gate: two interleaved sets of full runs of the same commit must
# agree within the benchmark's own bounds.
#
#   benchmark/aa.sh [--runs N] [--seed0 S] [--write]
#
# For every workload of BENCHMARK.json it makes N runs per set (default
# 5, seeds S, S+1, …; set A and set B take turns: A1 B1 A2 B2 …), then
# prints per workload x end-to-end metric both medians, their relative
# gap in the metric's "worse" direction and the bound. Exit status 1 when
# a gap exceeds its bound. Each set's spread (distance between the
# quartiles over the median, as statistics.quantiles(n=4) gives them) is
# printed beside it as information: it tells how far a single run may
# land from the median. --write also saves the table as
# benchmark/AA_RESULTS.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs=5
seed0=1000
write=0
while [ $# -gt 0 ]; do
    case "$1" in
        --runs) runs="${2:?--runs needs a count}"; shift 2 ;;
        --seed0) seed0="${2:?--seed0 needs a seed}"; shift 2 ;;
        --write) write=1; shift ;;
        -h | --help) sed -n '2,15p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'; exit 0 ;;
        *) echo "aa.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

results="$here/out/aa"
rm -rf "$results"
mkdir -p "$results"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
mapfile -t workloads < <(python3 -c 'import json,sys; print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")

for i in $(seq 0 $((runs - 1))); do
    for set in A B; do
        for workload in "${workloads[@]}"; do
            seed=$((seed0 + i))
            echo "aa.sh: set $set run $((i + 1))/$runs $workload seed $seed" >&2
            "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
                | tail -n 1 >"$results/$set-$workload-$seed.json"
        done
    done
done

python3 - "$root/BENCHMARK.json" "$results" "$runs" "$seed0" "$write" "$here/AA_RESULTS.md" <<'PY'
import json, pathlib, statistics, subprocess, sys

spec = json.load(open(sys.argv[1]))
results, runs, seed0, write, out_path = pathlib.Path(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]), sys.argv[5] == "1", sys.argv[6]

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

rows, bad = [], []
for w in (w["name"] for w in spec["workloads"]):
    sets = {}
    for s in "AB":
        runs_of_set = [json.loads(p.read_text()) for p in sorted(results.glob(f"{s}-{w}-*.json"))]
        wrong = [r for r in runs_of_set if not r["correct"] or r["failed"]]
        if wrong or len(runs_of_set) != runs:
            bad.append(f"{w}: set {s} has {len(wrong)} incorrect and {runs - len(runs_of_set)} missing runs")
        sets[s] = runs_of_set
    for m in spec["end_to_end"]:
        a, b = ([r["metrics"][m["name"]]["value"] for r in sets[s]] for s in "AB")
        ma, mb = statistics.median(a), statistics.median(b)
        # How much worse is the worse set, as a share of the other's median.
        lo, hi = sorted((ma, mb))
        gap = (hi - lo) / lo if m["better"] == "lower" else (hi - lo) / hi
        sa, sb = spread(a), spread(b)
        ok = gap <= m["bound"]
        if not ok:
            bad.append(f"{w}/{m['name']}: gap {gap:.2%} above bound {m['bound']:.0%}")
        rows.append((w, m["name"], m["unit"], ma, mb, gap, sa, sb, m["bound"], "ok" if ok else "FAIL"))

sha = subprocess.run(["git", "-C", str(pathlib.Path(sys.argv[1]).parent), "rev-parse", "--short=12", "HEAD"],
                     capture_output=True, text=True).stdout.strip() or "unknown"
lines = [
    "# A/A results",
    "",
    f"Two interleaved sets of {runs} full runs each (seeds {seed0}..{seed0 + runs - 1}, {spec['run_seconds']} s measured per run)",
    f"of one build, parent commit `{sha}`. `gap` is the worse median's distance from the other, and a gap above",
    "the bound fails the gate; `spread` is (Q3 − Q1) / median over a set's runs, for information.",
    "",
    "| workload | metric | unit | median A | median B | gap | spread A | spread B | bound | |",
    "|---|---|---|---:|---:|---:|---:|---:|---:|---|",
]
for w, name, unit, ma, mb, gap, sa, sb, bound, verdict in rows:
    lines.append(f"| {w} | {name} | {unit} | {ma:.4g} | {mb:.4g} | {gap:.2%} | {sa:.2%} | {sb:.2%} | {bound:.0%} | {verdict} |")
text = "\n".join(lines) + "\n"
print(text)
if write:
    pathlib.Path(out_path).write_text(text)
for line in bad:
    print("aa.sh: " + line, file=sys.stderr)
sys.exit(1 if bad else 0)
PY
