#!/usr/bin/env bash
# Tier-1 verify: format, build, vet, race-test the whole module.
# Recorded in ROADMAP.md; run before every commit.
set -euo pipefail
cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$fmt" >&2
    exit 1
fi

go build ./...
go vet ./...

# inklint: the engine-invariant analyzers (hotpath allocation discipline,
# backend dispatch/enumeration completeness, typed boundary errors, shard-lock
# scope). Diagnostics print as file:line:col and fail the gate verbatim.
echo "inklint..."
go run ./cmd/inklint ./...
echo "inklint OK"

go test -race ./...

# The benchmark harness is a module of its own (bench/go.mod), so `./...`
# above does not reach it: vet and test it here, so that a change to an
# internal API it calls fails this gate and not the next benchmark run.
echo "bench module..."
(cd bench && GOFLAGS=-mod=mod go vet ./... && GOFLAGS=-mod=mod go test ./...)
echo "bench module OK"

# Tied-key ordering depends on parallel scheduling, and the compile-job
# lifetime tests race queries against a modelled compile latency; hammer both
# a few extra times so a flaky tie-break or a lost race cannot slip through
# one run.
for _ in 1 2 3; do
    go test -count=1 -run 'Determinism|JobLifetime' -race ./internal/exec/
done

# Differential fuzz seeds (batched table kernels against scalar builds and
# against an ordered reference model) under the race detector. Aggregation
# batches take no lock (a worker's table is its own) and join batches take
# each shard lock once per chunk; either way the fuzz pins batched output to
# scalar output byte for byte, so an ordering bug shows up here first.
go test -count=1 -race -run 'Fuzz(AggBatch|JoinBatch)' ./internal/rt/

# Benchmark smoke: one iteration of the morsel-loop, table-kernel,
# fused-program, compile-stack and dictionary-encoding benches so a compile
# error or panic in benchmark-only code cannot land unnoticed.
echo "bench smoke..."
go test -run XXX -bench DictEncode -benchtime 1x ./internal/storage/ >/dev/null
go test -run XXX -bench MorselLoop -benchtime 1x ./internal/exec/ >/dev/null
go test -run XXX -bench 'AggBuild|JoinProbe|JoinSeal|InList' -benchtime 1x ./internal/rt/ >/dev/null
go test -run XXX -bench FusedProgram -benchtime 1x ./internal/vm/ >/dev/null
go test -run XXX -bench CompileStack -benchtime 1x ./internal/tpch/ >/dev/null
echo "bench smoke OK"

# inkbench smoke: the paper-figure reproducer's flag wiring and its EXPLAIN
# ANALYZE mode have no test of their own, so run the built binary once per
# mode. A table must come with its env line and name the resolved worker
# count; -explain -trace must print a plan and a trace. (Here-strings, not
# pipes: `grep -q` exiting early would fail a pipe under pipefail.)
echo "inkbench smoke..."
go build -o /tmp/inkbench-smoke ./cmd/inkbench
out=$(/tmp/inkbench-smoke -exp table1 -sf 0.001 -runs 1)
grep -q '^# env: cpus=[0-9]* .* workers=[1-9]' <<<"$out" \
    || { echo "inkbench table1: env line missing or names 0 workers: $out" >&2; exit 1; }
grep -q '^# Table I .*, [1-9][0-9]* workers)$' <<<"$out" \
    || { echo "inkbench table1: heading missing or names 0 workers: $out" >&2; exit 1; }
out=$(/tmp/inkbench-smoke -explain -trace -backend hybrid -sf 0.001 -queries q3)
grep -q '^== explain analyze q3: backend=hybrid' <<<"$out" && grep -q '^pipeline p0:' <<<"$out" \
    || { echo "inkbench -explain: no plan: $out" >&2; exit 1; }
grep -q '^trace q3: backend=hybrid' <<<"$out" \
    || { echo "inkbench -explain -trace: no trace: $out" >&2; exit 1; }
echo "inkbench smoke OK"

# Alloc guard: the morsel loop must stay allocation-free per chunk with the
# flight recorder on (the observability layer's zero-cost contract), and a
# plan-cache hit must run on its instance's kept execution state (a warm
# execution allocates at most a tenth of a cold one's bytes, DESIGN.md §16),
# and a steady-state morsel through a fused program's selection cascade and
# key build allocates nothing (DESIGN.md §17), and a never-seen execution stays
# within 1.5 × the bytes and objects it allocated when its path was slimmed
# (DESIGN.md §18).
echo "alloc guard..."
go test -count=1 -run 'MorselLoopZeroAllocs|RecordNoAllocs|WarmExecutionAllocBudget|ColdExecutionAllocBudget|FusedProgramZeroAllocs' ./internal/exec/ ./internal/flight/ ./internal/vm/ >/dev/null
echo "alloc guard OK"

# inkserve smoke test: start the server on a random port with a tiny catalog,
# run one query over HTTP, and assert the /metrics exposition advanced (query
# counter and per-backend latency histogram).
echo "inkserve smoke test..."
go build -o /tmp/inkserve-smoke ./cmd/inkserve
/tmp/inkserve-smoke -addr 127.0.0.1:0 -sf 0.01 >/tmp/inkserve-smoke.out 2>/tmp/inkserve-smoke.log &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's|^inkserve: listening on http://||p' /tmp/inkserve-smoke.out)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "inkserve did not come up" >&2
    cat /tmp/inkserve-smoke.log >&2
    exit 1
fi
body=$(curl -sf "http://$addr/query" -d '{"query":"q6","backend":"vectorized"}')
echo "$body" | grep -q '"rows"' || { echo "query response malformed: $body" >&2; exit 1; }
metrics=$(curl -sf "http://$addr/metrics")
echo "$metrics" | grep -q '^inkfuse_queries_succeeded [1-9]' \
    || { echo "/metrics query counter did not advance" >&2; exit 1; }
echo "$metrics" | grep -q 'inkfuse_query_seconds_bucket{backend="vectorized",le="+Inf"} [1-9]' \
    || { echo "/metrics latency histogram did not advance" >&2; exit 1; }

# SQL path: prepare a parameterized statement, execute it twice with
# different parameter values, and assert the second run hit the plan cache
# (the /metrics plancache hit counter must be nonzero).
prep=$(curl -sf "http://$addr/prepare" \
    -d '{"sql":"select count(*) as n from lineitem where l_quantity < ?"}')
handle=$(echo "$prep" | sed -n 's/.*"handle": *"\([^"]*\)".*/\1/p')
[ -n "$handle" ] || { echo "prepare response malformed: $prep" >&2; exit 1; }
body=$(curl -sf "http://$addr/query" -d '{"prepared":"'"$handle"'","params":[30]}')
echo "$body" | grep -q '"plan_cache": *"miss"' \
    || { echo "first prepared execution should miss the plan cache: $body" >&2; exit 1; }
body=$(curl -sf "http://$addr/query" -d '{"prepared":"'"$handle"'","params":[11]}')
echo "$body" | grep -q '"plan_cache": *"hit"' \
    || { echo "second prepared execution should hit the plan cache: $body" >&2; exit 1; }
# Fetch the exposition once into a variable: piping curl straight into
# `grep -q` races pipefail (grep exits on match, curl fails on the closed
# pipe).
metrics=$(curl -sf "http://$addr/metrics")
echo "$metrics" | grep -q '^inkfuse_plancache_hits [1-9]' \
    || { echo "/metrics plancache hit counter did not advance" >&2; exit 1; }

# Prometheus text-format lint: every exposition line must be a comment or a
# well-formed `name{labels} value` sample (histogram buckets included), and
# every sample's family must be declared by exactly one preceding `# TYPE`
# line of kind counter, gauge or histogram.
bad=$(echo "$metrics" | grep -vE '^# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$' \
    | grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$' \
    | grep -vE '^$' || true)
if [ -n "$bad" ]; then
    echo "/metrics lines fail the Prometheus text-format lint:" >&2
    echo "$bad" >&2
    exit 1
fi
bad=$(echo "$metrics" | awk '
    $1 == "#" && $2 == "TYPE" {
        if ($3 in kind) print "more than one TYPE line for " $3
        if ($4 != "counter" && $4 != "gauge" && $4 != "histogram") print "unknown type " $4 " for " $3
        kind[$3] = $4
        next
    }
    /^#/ || /^$/ { next }
    {
        family = $1
        sub(/\{.*/, "", family)
        base = family
        sub(/_(bucket|sum|count)$/, "", base)
        if (kind[base] == "histogram") family = base
        if (!(family in kind)) print "no TYPE line before sample: " $0
    }')
if [ -n "$bad" ]; then
    echo "/metrics families fail the TYPE lint:" >&2
    echo "$bad" >&2
    exit 1
fi
echo "$metrics" | grep -q '^# TYPE inkfuse_query_seconds histogram$' \
    || { echo "/metrics histogram family missing TYPE metadata" >&2; exit 1; }

# Flight recorder smoke: the ring must have recorded the queries above, and
# SIGQUIT must dump it to stderr without killing the server or an in-flight
# query.
flight=$(curl -sf "http://$addr/debug/flight")
echo "$flight" | grep -q '^flight recorder: [1-9]' \
    || { echo "/debug/flight returned no events: $flight" >&2; exit 1; }
echo "$flight" | grep -q 'query_done' \
    || { echo "/debug/flight missing query lifecycle events" >&2; exit 1; }
: > /tmp/inkserve-smoke.quitcode
curl -s -o /dev/null -w '%{http_code}\n' --max-time 30 "http://$addr/query" \
    -d '{"query":"q1","backend":"vectorized"}' > /tmp/inkserve-smoke.quitcode &
quit_curl=$!
kill -QUIT "$serve_pid"
wait "$quit_curl"
grep -q '^200$' /tmp/inkserve-smoke.quitcode \
    || { echo "query concurrent with SIGQUIT failed: $(cat /tmp/inkserve-smoke.quitcode)" >&2; exit 1; }
kill -0 "$serve_pid" 2>/dev/null \
    || { echo "SIGQUIT killed inkserve" >&2; exit 1; }
for _ in $(seq 1 50); do
    grep -q 'flight recorder:' /tmp/inkserve-smoke.log && break
    sleep 0.1
done
grep -q 'flight recorder:' /tmp/inkserve-smoke.log \
    || { echo "SIGQUIT did not dump the flight recorder" >&2; cat /tmp/inkserve-smoke.log >&2; exit 1; }
curl -sf "http://$addr/healthz" >/dev/null \
    || { echo "inkserve unhealthy after SIGQUIT dump" >&2; exit 1; }

kill "$serve_pid"
trap - EXIT
echo "inkserve smoke test OK"

# Bounded parser fuzz: a few hundred mutations over the corpus seeds — the
# frontend must never panic and every failure must carry a source position.
echo "parser fuzz smoke..."
go test -run XXX -fuzz FuzzParseSQL -fuzztime 300x ./internal/sql/ >/dev/null
echo "parser fuzz smoke OK"

# Concurrent-load smoke: an admission-controlled server under 16 parallel
# clients must answer every request with 200 (served), 429 (shed) or 504
# (deadline) — never 500, never a hang — and shut down cleanly within the
# drain deadline on SIGTERM, logging the drain outcome.
echo "inkserve concurrent-load smoke..."
/tmp/inkserve-smoke -addr 127.0.0.1:0 -sf 0.01 -backend vectorized \
    -max-concurrent 2 -queue-depth 2 -drain 5s \
    >/tmp/inkserve-conc.out 2>/tmp/inkserve-conc.log &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's|^inkserve: listening on http://||p' /tmp/inkserve-conc.out)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "inkserve (concurrent smoke) did not come up" >&2
    cat /tmp/inkserve-conc.log >&2
    exit 1
fi
: > /tmp/inkserve-conc.codes
curl_pids=()
for _ in $(seq 1 16); do
    curl -s -o /dev/null -w '%{http_code}\n' --max-time 30 \
        "http://$addr/query" -d '{"query":"q1","backend":"vectorized"}' \
        >> /tmp/inkserve-conc.codes &
    curl_pids+=("$!")
done
wait "${curl_pids[@]}"
if [ "$(wc -l < /tmp/inkserve-conc.codes)" -ne 16 ]; then
    echo "concurrent smoke: not all 16 requests completed" >&2
    cat /tmp/inkserve-conc.codes >&2
    exit 1
fi
if grep -qvE '^(200|429|504)$' /tmp/inkserve-conc.codes; then
    echo "concurrent smoke: unexpected status under load:" >&2
    sort /tmp/inkserve-conc.codes | uniq -c >&2
    exit 1
fi
grep -q '^200$' /tmp/inkserve-conc.codes \
    || { echo "concurrent smoke: no request succeeded" >&2; exit 1; }
kill -TERM "$serve_pid"
for _ in $(seq 1 100); do
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
    echo "concurrent smoke: inkserve did not exit within the drain deadline" >&2
    kill -9 "$serve_pid" 2>/dev/null || true
    exit 1
fi
wait "$serve_pid" 2>/dev/null || true
trap - EXIT
grep -q 'engine drained' /tmp/inkserve-conc.log \
    || { echo "concurrent smoke: drain log line missing" >&2; cat /tmp/inkserve-conc.log >&2; exit 1; }
echo "inkserve concurrent-load smoke OK"
