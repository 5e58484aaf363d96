#!/usr/bin/env bash
# Per-process ingest probe: where each `mendel serve` process's
# `POST /ingest` goes, phase by phase, and the process's peak RSS.
#
#   ./ingest.sh [<ref>] [--rounds N]
#
# Generates both benchmark workloads' seed-1000 corpora with `mendel
# generate` (the flags of benchmark/src/workload.rs). Each round it brings
# up three `mendel serve` processes with the benchmark's flags on free
# loopback ports, ingests the corpus into node 0, 1 and 2 one after
# another, reads each reply's `ingest_ms` phases (total, parse, route,
# place, tree), the minor page faults the /ingest took (minflt of
# /proc/<pid>/stat, before and after), each process's VmHWM (its peak)
# and its VmRSS right after the /ingest returns (what the ingest left
# resident; /proc/<pid>/status), and stops the processes. It prints, per
# workload and node, the median of each over N rounds (default 3), the
# median of VmHWM - VmRSS (the ingest's transient), and the range
# (max - min) of VmHWM across them; then, per side, the median and range
# of the three processes' VmHWM summed, the quantity behind the
# benchmark's rss_mb (which reads it once the queries have run too).
#
# Given <ref>, it also exports that commit (git archive) and builds it
# into its own CARGO_TARGET_DIR, as ab.sh does, and alternates the two
# sides: even rounds run <ref> first, odd rounds this tree. Every process
# it starts is killed and reaped when it exits, on error too. Everything
# it writes is under the ignored target/ingest/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
usage() { sed -n '2,26p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'; }

ref=""
rounds=3
while [ $# -gt 0 ]; do
    case "$1" in
        --rounds) rounds="${2:?--rounds needs a count}"; shift 2 ;;
        -h | --help) usage; exit 0 ;;
        -*) echo "ingest.sh: unknown argument $1" >&2; exit 2 ;;
        *)
            [ -z "$ref" ] || { echo "ingest.sh: more than one ref" >&2; exit 2; }
            ref="$1"; shift ;;
    esac
done
case "$rounds" in
    '' | *[!0-9]* | 0) echo "ingest.sh: --rounds needs a positive count" >&2; exit 2 ;;
esac

work="$root/target/ingest"
mkdir -p "$work"
trap 'rm -rf "$work/parent"' EXIT

build() { # build TREE TARGET_DIR: the tree's `mendel` executable
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet -p mendel-cli) >&2
}

sides=("tree=$root/target/release/mendel")
build "$root" "$root/target"
if [ -n "$ref" ]; then
    sha="$(git -C "$root" rev-parse --verify --quiet "$ref^{commit}")" \
        || { echo "ingest.sh: $ref is not a commit" >&2; exit 2; }
    rm -rf "$work/parent"
    mkdir -p "$work/parent"
    git -C "$root" archive "$sha" | tar -x -C "$work/parent"
    build "$work/parent" "$work/target-${sha:0:12}"
    sides=("${sha:0:7}=$work/target-${sha:0:12}/release/mendel" "${sides[@]}")
fi

python3 - "$work" "$rounds" "${sides[@]}" <<'PY'
import ctypes, http.client, json, signal, socket, statistics, subprocess, sys, time

work, rounds, sides = sys.argv[1], int(sys.argv[2]), [s.split("=", 1) for s in sys.argv[3:]]
# benchmark/src/workload.rs: (name, generate flags, serve flags).
WORKLOADS = [
    ("protein-long", ["--families", "60", "--members", "6", "--min-len", "800", "--max-len", "800"],
     ["--groups", "1"]),
    ("dna-concurrent", ["--families", "60", "--members", "6", "--min-len", "1050", "--max-len", "1050", "--dna"],
     ["--groups", "3", "--dna"]),
]
NODES, SEED = 3, 1000
PHASES = ["total", "parse", "route", "place", "tree"]

live = []  # every serve process not yet reaped


def reap():
    for p in live:
        if p.poll() is None:
            p.kill()
    for p in live:
        p.wait()
    live.clear()


def die_with_parent():
    # PR_SET_PDEATHSIG = 1: the child is SIGKILLed if this script dies.
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)


def free_ports(n):
    socks = [socket.socket() for _ in range(n)]
    for s in socks:
        s.bind(("127.0.0.1", 0))
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def request(port, method, path, body=None, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body)
        reply = conn.getresponse()
        return reply.status, reply.read().decode()
    finally:
        conn.close()


def status_kb(pid, field):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(f"{field}:"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} for pid {pid}")


def minflt(pid):
    with open(f"/proc/{pid}/stat") as f:
        stat = f.read()
    # Fields after the parenthesised command: state is field 3, minflt 10.
    return int(stat[stat.rindex(")") + 2:].split()[7])


def ingest_round(mendel, fasta, serve_flags):
    """Three serve processes, ingested in node order: per node, its
    ingest_ms phases, the minor faults its /ingest took, VmRSS right after
    it and VmHWM (kB)."""
    ports = free_ports(2 * NODES)
    listen, web = ports[:NODES], ports[NODES:]
    peers = ",".join(f"{i}=127.0.0.1:{listen[i]}" for i in range(NODES))
    try:
        for i in range(NODES):
            args = [mendel, "serve", "--node", str(i), "--listen", f"127.0.0.1:{listen[i]}",
                    "--http", f"127.0.0.1:{web[i]}", "--peers", peers, "--nodes", str(NODES),
                    "--replication", "1", "--tracing", "false", "--trace-sample", "1", *serve_flags]
            live.append(subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                         stderr=subprocess.DEVNULL, preexec_fn=die_with_parent))
        deadline = time.monotonic() + 30
        for i in range(NODES):
            while True:
                try:
                    if request(web[i], "GET", "/healthz", timeout=1)[0] == 200:
                        break
                except OSError:
                    pass
                if live[i].poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"{mendel}: node {i} did not come up")
                time.sleep(0.02)
        out = []
        for i in range(NODES):
            faults = minflt(live[i].pid)
            status, body = request(web[i], "POST", "/ingest", body=fasta)
            if status != 200:
                raise RuntimeError(f"{mendel}: /ingest on node {i}: HTTP {status}: {body}")
            rss = status_kb(live[i].pid, "VmRSS")
            faults = minflt(live[i].pid) - faults
            phases = json.loads(body)["ingest_ms"]
            out.append({**{p: phases[p] for p in PHASES}, "minflt": faults,
                        "rss": rss, "hwm": status_kb(live[i].pid, "VmHWM")})
        return out
    finally:
        reap()


try:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    mendel = sides[-1][1]  # this tree's executable generates both corpora
    corpora = {}
    for name, flags, _ in WORKLOADS:
        path = f"{work}/{name}-{SEED}.fa"
        subprocess.run([mendel, "generate", "--out", path, *flags, "--seed", str(SEED)],
                       check=True, stdout=subprocess.DEVNULL)
        with open(path, "rb") as f:
            corpora[name] = f.read()
    # samples[workload][side] = one list of per-node readings per round
    samples = {name: {side: [] for side, _ in sides} for name, _, _ in WORKLOADS}
    for r in range(rounds):
        order = sides if r % 2 == 0 else sides[::-1]
        for name, _, serve_flags in WORKLOADS:
            for side, exe in order:
                print(f"ingest.sh: round {r + 1}/{rounds} {name} {side}", file=sys.stderr)
                samples[name][side].append(ingest_round(exe, corpora[name], serve_flags))
    for name, _, _ in WORKLOADS:
        print(f"\n{name}, seed {SEED}: median of {rounds} round(s); ms of /ingest's ingest_ms, "
              "its minor faults, VmHWM and VmRSS after the /ingest in MB\n")
        print("| node | side | " + " | ".join(PHASES)
              + " | minflt | VmHWM | VmRSS | VmHWM - VmRSS | VmHWM range |")
        print("|---|---|" + "---:|" * (len(PHASES) + 5))
        for node in range(NODES):
            for side, _ in sides:
                runs = [run[node] for run in samples[name][side]]
                cells = [f"{statistics.median(r[p] for r in runs):.2f}" for p in PHASES]
                cells.append(f"{statistics.median(r['minflt'] for r in runs):.0f}")
                hwm = [r["hwm"] / 1024 for r in runs]
                rss = [r["rss"] / 1024 for r in runs]
                transient = statistics.median((r["hwm"] - r["rss"]) / 1024 for r in runs)
                cells += [f"{statistics.median(hwm):.1f}", f"{statistics.median(rss):.1f}",
                          f"{transient:.1f}", f"{max(hwm) - min(hwm):.1f}"]
                print(f"| {node} | {side} | " + " | ".join(cells) + " |")
        print()
        for side, _ in sides:
            sums = [sum(r["hwm"] for r in run) / 1024 for run in samples[name][side]]
            print(f"{name} {side}: sum of VmHWM over the {NODES} nodes "
                  f"{statistics.median(sums):.1f} MB (range {min(sums):.1f}-{max(sums):.1f})")
finally:
    reap()
PY
