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

# tracked prints the symbols matching the awk regex $1, by cumulative share,
# then every top-level alternative of $1 that matched no profiled symbol: a
# renamed kernel shows as missing instead of vanishing from the list.
tracked() {
    go tool pprof -top -cum -nodecount=100000 "$out/cpu.pb.gz" 2>/dev/null | awk -v re="$1" '
        BEGIN {
            # Split re at the bars outside parentheses and brackets.
            n = 1; depth = 0; inbr = 0
            for (i = 1; i <= length(re); i++) {
                c = substr(re, i, 1)
                if (c == "\\") { alt[n] = alt[n] c substr(re, i + 1, 1); i++; continue }
                if (inbr) { if (c == "]") inbr = 0 }
                else if (c == "[") inbr = 1
                else if (c == "(") depth++
                else if (c == ")") depth--
                else if (c == "|" && depth == 0) { n++; continue }
                alt[n] = alt[n] c
            }
        }
        /^ *flat +flat%/ { body = 1; next }
        !body { next }
        {
            sym = $6; for (i = 7; i <= NF; i++) sym = sym " " $i
            if (sym !~ re) next
            printf "  %-72s flat %7s  cum %7s\n", sym, $2, $5
            for (k = 1; k <= n; k++) if (sym ~ alt[k]) hit[k] = 1
        }
        END {
            for (k = 1; k <= n; k++) if (!hit[k]) printf "  no profiled symbol matches: %s\n", alt[k]
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
# of word keys (AggTable.FindOrCreateWord, under vm.lookupWords: the fused
# key build and the single-column agglookupfixed statement) and of packed
# keys (AggTable.FindOrCreateSeed, under AggTable.FindOrCreateBatch or called
# by the fused key build), a new group's creation (AggTable.insert), the
# rehash of a worker's table each time it doubles from its initial 64 slots
# (AggTable.grow: q13's orders build, aggregated ahead of its join since
# DESIGN.md §21, reaches ≈ 50 k groups per worker at SF 0.5; it is q13's
# one high-cardinality aggregation, since the per-customer counts above the
# join are projected, not regrouped) and the finalize merge of the workers'
# tables (AggTableState.MergeInto) — scan_agg_sf1's aggregation path. The join
# table: a worker's insert (joinShard's insert and nextBlock, under
# JoinTable.InsertBatch) and the seal (SealTask → joinShard.seal per shard,
# its per-block loops entryBlock.count / scatter / tag). The probe itself: the bloom pass, the bucket scan (collect →
# MatchIter.Next, RowKey only where keys are not words) and the probe-side
# gathers.
echo
echo "CPU share of tracked symbols, join and aggregation path (cum):"
tracked 'vm\\.\\(\\*compiler\\)\\.(stmt|probe|keyProbe|keyAggLookup)\\.func[0-9]+$|packFixedOp|rt\\.\\(\\*RowScratch\\)\\.(Prepare|SealKey|AppendKeyString)|vm\\.(packKey|keyWord|hashWordKeys|lookupWords|selectCode)( |$)|rt\\.\\(\\*AggTable\\)\\.(FindOrCreateBatch|FindOrCreateSeed|FindOrCreateWord|insert|grow)( |$)|rt\\.\\(\\*AggTableState\\)\\.MergeInto( |$)|rt\\.(Hash64|HashWord|HashBatch|RowKey)( |$)|rt\\.\\(\\*JoinTable\\)\\.(LookupBatch|Lookup|InsertBatch|SealTask|Touch)( |$)|rt\\.\\(\\*joinShard\\)\\.(insert|nextBlock|seal)( |$)|rt\\.\\(\\*entryBlock\\)\\.(count|scatter|tag)( |$)|rt\\.\\(\\*MatchIter\\)\\.Next|vm\\.\\(\\*probeScope\\)\\.(collect|run)$|storage\\.\\(\\*Vector\\)\\.Gather$|rt\\.GetString'

# The symbols of a small GROUP BY (DESIGN.md §17), scan_agg_sf1's q1: the
# group memo in front of the worker's table (groupMemo.resolve, its ordinal
# search on a miss, the key words' assembly wordKeys), the grouped updates
# (the operation groupedUpdates compiles, its counting sort sortRows and the
# register folds), the per-slot loops a call without ordinals runs
# (updateSlot), and a dense filter's copies (the filter's operation, selRuns
# and Vector.CopyRuns; a sparse one's Vector.Gather is listed above).
echo
echo "CPU share of tracked symbols, small GROUP BY path (cum):"
tracked 'vm\\.\\(\\*groupMemo\\)\\.(resolve|ordinal|sortRows)( |$)|vm\\.(wordKeys|foldSumF64|foldSumI64|updateSlot|selRuns)( |$)|vm\\.\\(\\*compiler\\)\\.(groupedUpdates|filter)\\.func[0-9]+$|storage\\.\\(\\*Vector\\)\\.CopyRuns$'

echo
echo "top 25 symbols (flat):"
go tool pprof -top -nodecount=25 "$out/cpu.pb.gz" 2>/dev/null | sed -n '/flat%/,$p'

echo
echo "top 15 allocation sites (alloc_space, flat; since process start, catalog generation included):"
go tool pprof -sample_index=alloc_space -top -nodecount=15 "$out/allocs.pb.gz" 2>/dev/null | sed -n '/flat%/,$p'
