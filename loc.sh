#!/usr/bin/env bash
# Non-test Rust lines per crate: every .rs file under crates/<name>/, vendor/
# and src/ that is not in a tests/ directory, counted up to (not including) its
# first `#[cfg(test)]` line. The measure CHANGES.md size tables are stated in.
#
#   ./loc.sh          # the working tree
#   ./loc.sh <ref>    # the working tree, <ref>, and the delta
set -euo pipefail
cd "$(dirname "$0")"
[ "${1:-}" != "--help" ] || { sed -n '2,7s/^# \{0,1\}//p' "$0"; exit 0; }

# stdin: paths; $1: a ref, or empty for the working tree. stdout: "<crate> <lines>".
tally() {
    grep -E '^(crates/[^/]+|vendor|src)/.*\.rs$' | grep -v '/tests/' | while read -r f; do
        if [ -n "$1" ]; then git show "$1:$f"; elif [ -f "$f" ]; then cat "$f"; fi |
            awk -v c="$(echo "$f" | sed -E 's,^(crates/[^/]+|vendor|src)/.*,\1,')" \
                '/^[ \t]*#\[cfg\(test\)\]/ { exit } { n++ } END { print c, n + 0 }'
    done | awk '{ t[$1] += $2 } END { for (c in t) print c, t[c] }' | sort
}

now="$(git ls-files -co --exclude-standard | tally "")"
if [ -z "${1:-}" ]; then
    echo "$now" | awk '{ printf "%-20s %7d\n", $1, $2; s += $2 } END { printf "%-20s %7d\n", "total", s }'
else
    then="$(git ls-tree -r --name-only "$1" | tally "$1")"
    join -a1 -a2 -e0 -o0,1.2,2.2 <(echo "$then") <(echo "$now") | awk -v r="$1" '
        BEGIN { printf "%-20s %9s %9s %7s\n", "crate", r, "tree", "delta" }
        { printf "%-20s %9d %9d %+7d\n", $1, $2, $3, $3 - $2; a += $2; b += $3 }
        END { printf "%-20s %9d %9d %+7d\n", "total", a, b, b - a }'
fi
