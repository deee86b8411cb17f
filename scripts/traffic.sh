#!/usr/bin/env bash
# A census of what the benchmark reaches: runs one workload against an inkserve
# built with coverage instrumentation and prints the share of statements that
# ran, per package, then every function of the engine that no request reached.
# A path the benchmark never reaches is a candidate for deletion, or a shape a
# workload lacks.
#
#   scripts/traffic.sh <workload> [seconds]     # default 5 s timed window
#   scripts/traffic.sh all [seconds]            # every workload of BENCHMARK.json
#
# It builds as bench/run.sh does, into bench/out/ with the toolchain's caches
# there, then rebuilds bench/out/inkserve with -cover -coverpkg=inkfuse/...
# and runs bench/out/bench with GOCOVERDIR set, so every inkserve the harness
# starts (set-ups and the timed window) writes its counters. On exit it
# rebuilds the plain inkserve, so scripts/coldprofile.sh and bench/run.sh
# never meet the instrumented one. It edits nothing under bench/ but
# bench/out/, and writes the counters under $TRAFFIC_OUT (default: a fresh
# directory under $TMPDIR). `all` runs the workloads BENCHMARK.json names one
# after the other into that one directory and prints their merged census;
# runs with the same TRAFFIC_OUT merge the same way.
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:?usage: scripts/traffic.sh <workload|all> [seconds]}
secs=${2:-5}
workloads=$workload
if [ "$workload" = all ]; then
    # The names inside BENCHMARK.json's "workloads" list.
    workloads=$(sed -n '/"workloads"/,/]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json | xargs)
fi
out=${TRAFFIC_OUT:-$(mktemp -d "${TMPDIR:-/tmp}/traffic.XXXXXX")}
mkdir -p "$out/counters"

bench_out="$PWD/bench/out"
export GOCACHE="$bench_out/.gocache" GOPATH="$bench_out/.gopath" XDG_CONFIG_HOME="$bench_out/.config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

(cd bench && go build -o "$bench_out/bench" .)
trap '(cd bench && go build -o "$bench_out/inkserve" inkfuse/cmd/inkserve)' EXIT
(cd bench && go build -cover -coverpkg=inkfuse/... -o "$bench_out/inkserve" inkfuse/cmd/inkserve)

echo "env workloads=${workloads// /,} seconds=$secs cpus=$(nproc) go=$(go env GOVERSION) commit=$(git rev-parse --short HEAD 2>/dev/null || echo none) out=$out"
for w in $workloads; do
    GOCOVERDIR="$out/counters" "$bench_out/bench" --workload "$w" --seconds "$secs" --trace 0 \
        >"$out/bench-$w.out" 2>"$out/bench-$w.err" \
        || { echo "traffic: the benchmark failed; see $out/bench-$w.err" >&2; exit 1; }
    tail -1 "$out/bench-$w.out"
done

echo
echo "statements run, by package:"
go tool covdata percent -i "$out/counters" | sed 's/^/  /'
go tool covdata textfmt -i "$out/counters" -o "$out/cover.txt"
go tool cover -func "$out/cover.txt" >"$out/func.txt"
echo
grep '^total:' "$out/func.txt" | sed 's/^total:[[:space:]]*(statements)[[:space:]]*/total statements run: /'
echo
echo "functions no request reached:"
grep -v '^total:' "$out/func.txt" | awk '$NF == "0.0%" { print "  " $1 " " $2 }'
