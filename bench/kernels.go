package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"inkfuse/internal/rt"
)

// Kernel loops over internal/rt's exported API at fixed sizes (source c).
// Inputs are built outside the timed loop; every kernel runs kernelReps times
// on fresh tables and reports the median ns/row and the allocations per
// chunk.

const (
	kernelChunk = 1024    // rows per batch call, the engine's chunk size
	kernelRows  = 1 << 20 // rows per kernel run
	kernelReps  = 3
	morselRows  = 16384 // the engine's morsel size: local tables flush at this period
)

// keyChunks builds kernelRows 8-byte keys, key i holding draw(i), cut into
// chunks of kernelChunk over one backing array, and their hashes.
func keyChunks(draw func(i int) uint64) (keys [][][]byte, hashes [][]uint64) {
	flat := make([]byte, 8*kernelRows)
	for c := 0; c < kernelRows/kernelChunk; c++ {
		chunk := make([][]byte, kernelChunk)
		for j := range chunk {
			i := c*kernelChunk + j
			chunk[j] = flat[8*i : 8*i+8 : 8*i+8]
			binary.LittleEndian.PutUint64(chunk[j], draw(i))
		}
		keys = append(keys, chunk)
		hashes = append(hashes, rt.HashBatch(chunk, nil))
	}
	return keys, hashes
}

// timeKernel runs setup then body, which handles kernelRows rows, kernelReps
// times and returns the medians of body's ns/row and heap allocations per chunk.
func timeKernel(setup func(), body func()) (nsPerRow, allocsPerChunk float64) {
	var ns, allocs []float64
	var m0, m1 runtime.MemStats
	for rep := 0; rep < kernelReps; rep++ {
		setup()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		body()
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds())/kernelRows)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/(kernelRows/kernelChunk))
	}
	return median(ns), median(allocs)
}

// bump adds one to the first payload slot of every resolved group row, the
// work an aggregate-update primitive does after the lookup.
func bump(rows [][]byte) {
	for _, row := range rows {
		off := rt.RowPayloadOff(row)
		rt.PutI64(row, off, rt.GetI64(row, off)+1)
	}
}

// runKernels returns the source-c metrics and prints ns/row and allocs/chunk
// of every kernel.
func runKernels(seed int64) map[string]float64 {
	r := rand.New(rand.NewSource(seed))
	out := map[string]float64{}
	report := func(name string, setup func(), body func()) {
		ns, allocs := timeKernel(setup, body)
		out[name] = ns
		fmt.Printf("  kernel %-36s %8.2f ns/row %8.2f allocs/chunk\n", name, ns, allocs)
	}
	none := func() {}
	init8 := make([]byte, 8)

	// Key distributions: 4 groups (TPC-H q1), 1 M groups drawn uniformly
	// (q13's per-customer count), unique build keys and a disjoint probe set.
	lowKeys, lowHashes := keyChunks(func(int) uint64 { return uint64(r.Intn(4)) })
	highKeys, highHashes := keyChunks(func(int) uint64 { return uint64(r.Intn(1 << 20)) })
	perm := r.Perm(kernelRows)
	buildKeys, buildHashes := keyChunks(func(i int) uint64 { return uint64(perm[i]) })
	missKeys, missHashes := keyChunks(func(i int) uint64 { return uint64(kernelRows + perm[i]) })

	hashDst := make([]uint64, 0, kernelChunk)
	report("rt.hash_ns_per_row", none, func() {
		for _, chunk := range highKeys {
			hashDst = rt.HashBatch(chunk, hashDst)
		}
	})

	var (
		agg *rt.AggTable
		sc  rt.BatchScratch
		dst = make([][]byte, kernelChunk)
	)
	aggBuild := func(keys [][][]byte, hashes [][]uint64) func() {
		return func() {
			for c, chunk := range keys {
				agg.FindOrCreateBatch(chunk, nil, hashes[c], dst, &sc)
				bump(dst)
			}
		}
	}
	newAgg := func() { agg = rt.NewAggTable(init8, 16) }
	report("rt.agg_build_lowcard_ns_per_row", newAgg, aggBuild(lowKeys, lowHashes))
	report("rt.agg_build_highcard_ns_per_row", newAgg, aggBuild(highKeys, highHashes))

	var local *rt.LocalAggTable
	report("rt.local_agg_ns_per_row", func() {
		st := &rt.AggTableState{Init: init8, Shards: 16, Merge: []rt.AggMerge{{Op: rt.MergeSumI64}}}
		local = rt.NewLocalAggTable(st, st.NewInstance())
	}, func() {
		for c, chunk := range lowKeys {
			for j, key := range chunk {
				row, _, _ := local.FindOrCreate(key, lowHashes[c][j], nil) // 4 groups never fill the table
				off := rt.RowPayloadOff(row)
				rt.PutI64(row, off, rt.GetI64(row, off)+1)
			}
			if (c+1)*kernelChunk%morselRows == 0 {
				local.Flush()
			}
		}
	})

	var join *rt.JoinTable
	noPayload := make([][]byte, kernelChunk) // key-only build rows
	buildJoin := func() {
		join = rt.NewJoinTable(16)
		for c, chunk := range buildKeys {
			join.InsertBatch(chunk, noPayload, buildHashes[c], &sc)
		}
		join.Seal()
	}
	report("rt.join_insert_ns_per_row", none, buildJoin)
	sel := make([]int32, 0, kernelChunk)
	matches := 0
	report("rt.join_probe_hit_ns_per_row", none, func() {
		for c, chunk := range buildKeys {
			sel, _ = join.LookupBatch(buildHashes[c], sel[:0])
			for _, i := range sel {
				for it := join.Lookup(chunk[i], buildHashes[c][i]); it.Next() != nil; {
					matches++
				}
			}
		}
	})
	report("rt.join_probe_miss_ns_per_row", none, func() {
		for c, chunk := range missKeys {
			sel, _ = join.LookupBatch(missHashes[c], sel[:0])
			for _, i := range sel { // the few keys the bloom filter lets through
				for it := join.Lookup(chunk[i], missHashes[c][i]); it.Next() != nil; {
					matches++
				}
			}
		}
	})
	if matches != kernelReps*kernelRows {
		// Every build key is unique and probed once per repetition.
		panic(fmt.Sprintf("bench: join probe kernels matched %d rows, want %d", matches, kernelReps*kernelRows))
	}

	var writer *rt.ExchangeWriter
	report("rt.partition_route_ns_per_row", func() {
		writer = (&rt.ExchangeState{Partitions: 16}).NewWriter()
	}, func() {
		for c, chunk := range buildKeys {
			for j, row := range chunk {
				writer.Route(row, buildHashes[c][j])
			}
		}
	})
	return out
}
