#!/usr/bin/env bash
# A/B micro-benchmark of a committed revision against the working tree.
#
#   scripts/abtest.sh <rev> <pkg> <bench-regex> [rounds [test flags...]]
#
# Builds `go test -c` binaries of <pkg> (a package directory such as
# ./internal/rt) from <rev>, exported with `git archive` into a temporary
# directory, and from the working tree, uncommitted changes included. Then it
# runs the benchmarks matching <bench-regex> on the two binaries alternately,
# <rounds> times (default 5), the side that runs first alternating from round
# to round so that neither always starts on a warmer or cooler machine. Every
# benchmark line of every round is printed, then the median of each metric
# per side and the change of the working tree's against <rev>'s. Further
# arguments go to both binaries (e.g. -test.benchtime=100x).
set -euo pipefail
if [ $# -lt 3 ]; then
    echo "usage: $0 <rev> <pkg> <bench-regex> [rounds [test flags...]]" >&2
    exit 2
fi
rev=$1 pkg=$2 re=$3 rounds=${4:-5}
shift $(($# < 4 ? $# : 4))
cd "$(dirname "$0")/.."
root=$PWD
git rev-parse --verify -q "$rev^{commit}" >/dev/null \
    || { echo "abtest: $rev is not a commit of this checkout" >&2; exit 2; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$rev" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go test -c -o "$tmp/base.test" "$pkg")
go test -c -o "$tmp/work.test" "$pkg"

# run <side> <tree>: one pass of the side's binary, in its package directory
# (where `go test` would run it), its benchmark lines printed with the round
# and recorded as side, benchmark, unit, value.
run() {
    local side=$1 tree=$2 out
    shift 2
    out=$(cd "$tree/$pkg" && "$tmp/$side.test" -test.run '^$' -test.bench "$re" -test.benchmem -test.timeout=20m "$@")
    awk -v side="$side" -v round="$r" -v rec="$tmp/results" '/^Benchmark/ {
        printf "round %d %-4s %s\n", round, side, $0
        for (i = 3; i < NF; i += 2) printf "%s\t%s\t%s\t%s\n", side, $1, $(i + 1), $i >>rec
    }' <<<"$out"
}

for r in $(seq 1 "$rounds"); do
    if [ $((r % 2)) -eq 1 ]; then
        run base "$tmp/base" "$@"
        run work "$root" "$@"
    else
        run work "$root" "$@"
        run base "$tmp/base" "$@"
    fi
done

echo
echo "medians over $rounds round(s): base = $rev, work = working tree"
printf '%-44s %-10s %14s %14s %8s\n' benchmark unit base work change
sort -t $'\t' -k2,2 -k3,3 -k1,1 -k4,4g "$tmp/results" | awk -F '\t' '
    {
        k = $2 "\t" $3
        if (!(k in seen)) { seen[k] = 1; order[++nk] = k }
        v[k, $1, ++n[k, $1]] = $4
    }
    function median(k, s,   c) {
        c = n[k, s]
        if (c == 0) return ""
        return c % 2 ? v[k, s, (c + 1) / 2] : (v[k, s, c / 2] + v[k, s, c / 2 + 1]) / 2
    }
    END {
        for (i = 1; i <= nk; i++) {
            k = order[i]
            split(k, f, "\t")
            b = median(k, "base"); w = median(k, "work")
            ch = (b != "" && w != "" && b != 0) ? sprintf("%+.1f%%", 100 * (w - b) / b) : "-"
            printf "%-44s %-10s %14s %14s %8s\n", f[1], f[2], b, w, ch
        }
    }'
