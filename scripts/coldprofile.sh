#!/usr/bin/env bash
# Profiles the inkserve process the benchmark spawns for one workload — any of
# BENCHMARK.json's, a miss workload or a hit workload — and prints where its CPU
# and its allocations go: by layer, then the symbols of the never-seen path
# (DESIGN.md §18: copies, maps, the collector) and of the join and aggregation
# path (§19: row building, key hashing, aggregation lookups and merge, join
# insert and seal, the bloom pass, the bucket scan, probe-side gathers).
# It is the method behind the before/after tables of both sections: run it on
# a checkout of each commit.
#
#   bash bench/run.sh --workload join_sf05 --seed 1 --trace 0   # builds bench/out/
#   scripts/coldprofile.sh join_sf05 [seed] [profile-seconds]
#
# It runs the already built bench/out/bench, so the binaries are the ones the
# last bench/run.sh built from this checkout; it reads bench/ and writes only
# under $COLDPROFILE_OUT (default: a fresh directory under $TMPDIR).
#
# The harness starts several servers per run (set-ups, then the timed window
# on the last). Every server alive for long enough is profiled; the last
# complete profile wins, and the queries it covered are printed so an idle
# profile cannot pass for a loaded one.
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:?usage: scripts/coldprofile.sh <workload> [seed] [profile-seconds]}
seed=${2:-1}
secs=${3:-12}
bench=bench/out/bench
[ -x "$bench" ] && [ -x bench/out/inkserve ] \
    || { echo "coldprofile: $bench / bench/out/inkserve missing; run bash bench/run.sh once first" >&2; exit 2; }
out=${COLDPROFILE_OUT:-$(mktemp -d "${TMPDIR:-/tmp}/coldprofile.XXXXXX")}
mkdir -p "$out"

"$bench" --workload "$workload" --seed "$seed" --trace 0 >"$out/bench.out" 2>"$out/bench.err" &
bench_pid=$!
trap 'kill "$bench_pid" 2>/dev/null || true' EXIT

# listen_addr prints the loopback host:port a pid listens on, from its socket
# inodes and /proc/net/tcp (state 0A = LISTEN).
listen_addr() {
    local pid=$1 inodes port
    inodes=$(ls -l "/proc/$pid/fd" 2>/dev/null | sed -n 's/.*socket:\[\([0-9]*\)\].*/\1/p' | tr '\n' ' ')
    [ -n "$inodes" ] || return 1
    port=$(awk -v inodes="$inodes" '
        BEGIN { n = split(inodes, a, " "); for (i = 1; i <= n; i++) want[a[i]] = 1 }
        $4 == "0A" && ($10 in want) { split($2, hp, ":"); print hp[2]; exit }' /proc/net/tcp)
    [ -n "$port" ] || return 1
    echo "127.0.0.1:$((16#$port))"
}

# snapshot saves the server's /debug/vars.
snapshot() { curl -sf --max-time 5 "http://$1/debug/vars" -o "$2"; }

got=""
seen=" "
while kill -0 "$bench_pid" 2>/dev/null; do
    pid=$(pgrep -P "$bench_pid" -x inkserve | tail -1 || true)
    if [ -z "$pid" ] || [[ "$seen" == *" $pid "* ]]; then
        sleep 0.2
        continue
    fi
    # A server generates its catalog before it listens — seconds at SF 1 — so
    # wait for its listening socket, or for its end; then past the warm-up of
    # a set-up.
    addr=""
    while kill -0 "$pid" 2>/dev/null; do
        addr=$(listen_addr "$pid") && break
        sleep 0.2
    done
    seen="$seen$pid "
    [ -n "$addr" ] || continue
    sleep 3
    if snapshot "$addr" "$out/vars0.tmp" \
        && curl -sf --max-time $((secs + 10)) "http://$addr/debug/pprof/profile?seconds=$secs" -o "$out/cpu.tmp" \
        && snapshot "$addr" "$out/vars1.tmp" \
        && curl -sf --max-time 10 "http://$addr/debug/pprof/allocs" -o "$out/allocs.tmp"; then
        mv "$out/vars0.tmp" "$out/vars0.json"
        mv "$out/vars1.tmp" "$out/vars1.json"
        mv "$out/cpu.tmp" "$out/cpu.pb.gz"
        mv "$out/allocs.tmp" "$out/allocs.pb.gz"
        got=$pid
    fi
done
wait "$bench_pid" || true
trap - EXIT
[ -n "$got" ] || { echo "coldprofile: no server lived through a ${secs}s profile; see $out/bench.err" >&2; exit 1; }

echo "env workload=$workload seed=$seed profile_s=$secs cpus=$(nproc) go=$(go env GOVERSION) commit=$(git rev-parse --short HEAD)$(git diff --quiet || echo +dirty) out=$out"
grep -E "^$workload +(query_ms_p50_gmean|cpu_s_per_query|queries_per_s)" "$out/bench.out" || true

jq -rn --slurpfile a "$out/vars0.json" --slurpfile b "$out/vars1.json" --argjson secs "$secs" '
    ($a[0]) as $a | ($b[0]) as $b
    | ($b.inkfuse.queries_succeeded - $a.inkfuse.queries_succeeded) as $q
    | def per(x): if $q > 0 then x / $q else 0 end;
    "queries in profile      \($q)",
    "bytes/query             \(per($b.memstats.TotalAlloc - $a.memstats.TotalAlloc) | floor)",
    "mallocs/query           \(per($b.memstats.Mallocs - $a.memstats.Mallocs) | floor)",
    "GC cycles/s             \((($b.memstats.NumGC - $a.memstats.NumGC) / $secs * 100 | floor) / 100)",
    "compiles abandoned/query \(per(($b.inkfuse.compiles_abandoned // 0) - ($a.inkfuse.compiles_abandoned // 0)) * 100 | floor | . / 100)",
    (($b.inkfuse.morsels_jit - $a.inkfuse.morsels_jit) as $jit
     | ($b.inkfuse.morsels_vec - $a.inkfuse.morsels_vec) as $vec
     | "jit morsel share        \(if $jit + $vec > 0 then ($jit / ($jit + $vec) * 1000 | floor) / 1000 else 0 end)"),
    "materialized B/query    \(per($b.inkfuse.materialized_bytes - $a.inkfuse.materialized_bytes) | floor)"'

# CPU by layer: every sample is attributed to the layer of the function it was
# taken in (flat), so the rows add up to the profile's total.
echo
echo "CPU share by layer (flat):"
go tool pprof -top -nodecount=100000 "$out/cpu.pb.gz" 2>/dev/null | awk '
    /^ *flat +flat%/ { body = 1; next }
    !body { next }
    {
        pct = $2; sub(/%/, "", pct)
        sym = $6; for (i = 7; i <= NF; i++) sym = sym " " $i
        layer = "other"
        if (sym ~ /^inkfuse\/internal\/interp/) layer = "interp"
        else if (sym ~ /^inkfuse\/internal\/vm/) layer = "vm"
        else if (sym ~ /^inkfuse\/internal\/rt/) layer = "rt"
        else if (sym ~ /^inkfuse\/internal\/storage/) layer = "storage"
        else if (sym ~ /^inkfuse\//) layer = "engine-other"
        else if (sym ~ /^(runtime\.(memmove|memequal)|memeqbody|indexbody|cmpbody)/) layer = "runtime-mem"
        else if (sym ~ /^(internal\/runtime\/maps|runtime\.map|aeshash|runtime\.(strhash|memhash))/) layer = "runtime-map"
        else if (sym ~ /^runtime\.(gc|scan|grey|mark|sweep|wbBuf|findObject|spanOf|bgsweep|typePointers|tryDeferToSpanScan|bulkBarrier|heapBits|pollWork|getempty|putfull|handoff|trygetfull|\(\*(gcWork|gcBits|sweepLocked|gcControllerState|lfstack|limiterEvent|gcCPULimiterState|activeSweep)\)|\(\*mspan\)\.(mark|heapBits|typePointers|sweep)|\(\*mheap\)\.(reclaim|nextSpanForSweep))/) layer = "runtime-gc"
        else if (sym ~ /^runtime\.(malloc|memclr|nextFree|growslice|makeslice|newobject|newarray|profilealloc|deductAssistCredit|publicationBarrier|slicebytetostring|rawstring|concatstring|\(\*mcache\)|\(\*mcentral\)|\(\*mheap\)\.alloc|\(\*mspan\)\.init)/) layer = "runtime-alloc"
        else if (sym ~ /^runtime\./) layer = "runtime-other"
        share[layer] += pct
    }
    END {
        n = split("interp vm rt storage engine-other runtime-mem runtime-map runtime-gc runtime-alloc runtime-other other", order, " ")
        for (i = 1; i <= n; i++) printf "  %-16s %6.2f %%\n", order[i], share[order[i]]
    }'

# tracked prints the symbols matching the awk regex $1, by cumulative share.
tracked() {
    go tool pprof -top -cum -nodecount=100000 "$out/cpu.pb.gz" 2>/dev/null | awk -v re="$1" '
        /^ *flat +flat%/ { body = 1; next }
        !body { next }
        {
            sym = $6; for (i = 7; i <= NF; i++) sym = sym " " $i
            if (sym ~ re) printf "  %-72s flat %7s  cum %7s\n", sym, $2, $5
        }'
}

# The symbols DESIGN.md §18 tracks: the two backends' entry points (their cum
# shares are the interpreted and the compiled side of a workload), sink copies,
# maps, the collector.
echo
echo "CPU share of tracked symbols, never-seen path (cum):"
tracked 'interp\\.\\(\\*Run\\)\\.RunChunk$|vm\\.\\(\\*Program\\)\\.Run$|storage\\.\\(\\*Chunk\\)\\.(AppendFromVectors|TakeFromVectors)$|^runtime\\.memmove$|rt\\.\\(\\*InListState\\)\\.Match$|^runtime\\.mapaccess1_faststr$|^runtime\\.gcBgMarkWorker$|^runtime\\.gcAssistAlloc$|^runtime\\.mallocgc$|^runtime\\.wbBufFlush$|^runtime\\.memclrNoHeapPointers$'

# The symbols DESIGN.md §19 tracks. Row building: the statement-by-statement
# MakeRow / PackStr / SealKey closures (vm.(*compiler).stmt.funcN), packFixedOp
# and the scratch they drive. Key runs compiled to one operation: keyProbe,
# keyAggLookup and their kernels. The aggregation table: a worker's lookups
# (aggShard.findOrCreate, under AggTable.FindOrCreateBatch or, from the fused
# key build, FindOrCreateSeed) and the finalize merge of the workers' tables
# (AggTableState.MergeInto) — scan_agg_sf1's aggregation path. The join
# table: its insert (joinShard's insertBatch, under JoinTable.InsertBatch) and
# its seal. The probe itself: the bloom pass, the bucket scan (collect →
# MatchIter.Next, RowKey only where keys are not words) and the probe-side
# gathers.
echo
echo "CPU share of tracked symbols, join and aggregation path (cum):"
tracked 'vm\\.\\(\\*compiler\\)\\.(stmt|probe|keyProbe|keyAggLookup)\\.func[0-9]+$|packFixedOp|rt\\.\\(\\*RowScratch\\)\\.(Prepare|SealKey|AppendKeyString)|vm\\.(packKey|keyWord|hashWordKeys|appendKey|selectCode)( |$)|rt\\.\\(\\*aggShard\\)\\.findOrCreate( |$)|rt\\.\\(\\*AggTable\\)\\.(FindOrCreateBatch|FindOrCreateSeed)( |$)|rt\\.\\(\\*AggTableState\\)\\.MergeInto( |$)|rt\\.(Hash64|HashWord|HashBatch|RowKey)( |$)|rt\\.\\(\\*JoinTable\\)\\.(LookupBatch|Lookup|InsertBatch|SealTask|Touch)( |$)|rt\\.\\(\\*joinShard\\)\\.(insertBatch|seal)( |$)|rt\\.\\(\\*MatchIter\\)\\.Next|vm\\.\\(\\*probeScope\\)\\.(collect|run)$|storage\\.\\(\\*Vector\\)\\.Gather$|rt\\.GetString'

echo
echo "top 25 symbols (flat):"
go tool pprof -top -nodecount=25 "$out/cpu.pb.gz" 2>/dev/null | sed -n '/flat%/,$p'

echo
echo "top 15 allocation sites (alloc_space, flat; since process start, catalog generation included):"
go tool pprof -sample_index=alloc_space -top -nodecount=15 "$out/allocs.pb.gz" 2>/dev/null | sed -n '/flat%/,$p'
