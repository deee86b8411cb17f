package rt

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// Micro-benchmarks of the runtime system the generated code leans on.

func BenchmarkHash64(b *testing.B) {
	for _, size := range []int{8, 16, 32} {
		b.Run(kBytes(size), func(b *testing.B) {
			key := make([]byte, size)
			var acc uint64
			for i := 0; i < b.N; i++ {
				binary.LittleEndian.PutUint64(key, uint64(i))
				acc ^= Hash64(key)
			}
			sinkU64 = acc
		})
	}
}

var sinkU64 uint64

func kBytes(n int) string {
	return map[int]string{8: "8B", 16: "16B", 32: "32B"}[n]
}

func BenchmarkAggTableFindOrCreate(b *testing.B) {
	for _, groups := range []int{16, 1 << 10, 1 << 16} {
		b.Run(map[int]string{16: "16groups", 1 << 10: "1Kgroups", 1 << 16: "64Kgroups"}[groups], func(b *testing.B) {
			tbl := NewAggTable(make([]byte, 8), 16)
			key := make([]byte, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.LittleEndian.PutUint64(key, uint64(i%groups))
				row := tbl.FindOrCreate(key, Hash64(key))
				off := RowPayloadOff(row)
				PutI64(row, off, GetI64(row, off)+1)
			}
		})
	}
}

// BenchmarkAggTableVsMap compares against the naive Go-map aggregation an
// engine without packed rows would use.
func BenchmarkAggTableVsMap(b *testing.B) {
	const groups = 1 << 12
	b.Run("aggtable", func(b *testing.B) {
		tbl := NewAggTable(make([]byte, 8), 16)
		key := make([]byte, 8)
		for i := 0; i < b.N; i++ {
			binary.LittleEndian.PutUint64(key, uint64(i%groups))
			row := tbl.FindOrCreate(key, Hash64(key))
			off := RowPayloadOff(row)
			PutF64(row, off, GetF64(row, off)+1.5)
		}
	})
	b.Run("gomap", func(b *testing.B) {
		m := make(map[int64]float64, groups)
		for i := 0; i < b.N; i++ {
			m[int64(i%groups)] += 1.5
		}
	})
}

// BenchmarkJoinProbe probes a sealed table key at a time, hashes computed
// ahead: unique and dup4 over 4 096 8-byte keys with half the probes absent,
// and q13 (q13JoinTable) where a present key has about fifteen matches.
func BenchmarkJoinProbe(b *testing.B) {
	for _, dup := range []int{1, 4} {
		b.Run(map[int]string{1: "unique", 4: "dup4"}[dup], func(b *testing.B) {
			const keys = 1 << 12
			tbl := NewJoinTable(16)
			build := make([][]byte, 0, keys*dup)
			for k := 0; k < keys; k++ {
				for d := 0; d < dup; d++ {
					build = append(build, i64Key(int64(k)))
				}
			}
			insertJoinRows(tbl, build, make([][]byte, len(build)), 1024)
			tbl.Seal()
			probes := benchChunkKeys(2*keys, 2*keys, 0) // 50% misses
			benchProbe(b, tbl, probes, HashBatch(probes, nil))
		})
	}
	b.Run("q13", func(b *testing.B) {
		tbl, probes, hashes := q13JoinTable()
		benchProbe(b, tbl, probes, hashes)
	})
}

// benchProbe runs b.N probes over the keys in turn, reporting matches/probe.
func benchProbe(b *testing.B, tbl *JoinTable, probes [][]byte, hashes []uint64) {
	b.ReportAllocs()
	b.ResetTimer()
	matches := 0
	for i := 0; i < b.N; i++ {
		p := i % len(probes)
		it := tbl.Lookup(probes[p], hashes[p])
		for it.Next() != nil {
			matches++
		}
	}
	b.ReportMetric(float64(matches)/float64(b.N), "matches/probe")
}

// q13Join is built once per benchmark binary: q13JoinTable's table and probes.
var q13Join struct {
	tbl    *JoinTable
	probes [][]byte
	hashes []uint64
}

// q13JoinTable returns the shape of TPC-H q13's orders-side join table at SF
// 0.5: 740 k build rows over 50 k distinct 4-byte keys in random insertion
// order — a customer's orders scattered through the build — and 75 k probe
// keys, a third of them absent and the rest in random order.
func q13JoinTable() (*JoinTable, [][]byte, []uint64) {
	if q13Join.tbl != nil {
		return q13Join.tbl, q13Join.probes, q13Join.hashes
	}
	const rows, present, probes = 740_000, 50_000, 75_000
	r := rand.New(rand.NewSource(13))
	key := func(k int) []byte {
		b := make([]byte, 4)
		binary.LittleEndian.PutUint32(b, uint32(k))
		return b
	}
	build := make([][]byte, rows)
	for i := range build {
		build[i] = key(r.Intn(present))
	}
	tbl := NewJoinTable(16)
	insertJoinRows(tbl, build, make([][]byte, rows), 2048)
	tbl.Seal()
	keys := make([][]byte, probes)
	for i, k := range r.Perm(probes) {
		keys[i] = key(k) // k ≥ present is absent
	}
	q13Join.tbl, q13Join.probes, q13Join.hashes = tbl, keys, HashBatch(keys, nil)
	return q13Join.tbl, q13Join.probes, q13Join.hashes
}

// BenchmarkJoinSeal seals a built table again and again: the count, scatter
// and filter passes over q13JoinTable's 740 k rows, and over 64 k unique keys.
func BenchmarkJoinSeal(b *testing.B) {
	b.Run("q13", func(b *testing.B) {
		tbl, _, _ := q13JoinTable()
		benchSeal(b, tbl)
	})
	b.Run("unique64k", func(b *testing.B) {
		benchSeal(b, benchJoinTable(1<<16))
	})
}

func benchSeal(b *testing.B, tbl *JoinTable) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Seal()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tbl.Rows()), "ns/row")
}

var sinkInt int

// benchChunkKeys builds one chunk of 8-byte keys cycling through `groups`
// distinct values — the shape an aggregation build sees morsel after morsel.
func benchChunkKeys(chunk, groups, salt int) [][]byte {
	keys := make([][]byte, chunk)
	for i := range keys {
		k := make([]byte, 8)
		binary.LittleEndian.PutUint64(k, uint64((salt*chunk+i)%groups))
		keys[i] = k
	}
	return keys
}

// BenchmarkAggBuildScalar drives the per-tuple path: one hash and one shard
// dispatch per row.
func BenchmarkAggBuildScalar(b *testing.B) {
	for _, groups := range []int{16, 1 << 10, 1 << 16} {
		b.Run(map[int]string{16: "16groups", 1 << 10: "1Kgroups", 1 << 16: "64Kgroups"}[groups], func(b *testing.B) {
			const chunk = 1024
			tbl := NewAggTable(make([]byte, 8), 16)
			keys := benchChunkKeys(chunk, groups, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i%chunk]
				row := tbl.FindOrCreate(k, Hash64(k))
				off := RowPayloadOff(row)
				PutI64(row, off, GetI64(row, off)+1)
			}
		})
	}
}

// BenchmarkAggBuildBatched drives the same workload through the chunk
// kernels: HashBatch + FindOrCreateBatch.
func BenchmarkAggBuildBatched(b *testing.B) {
	for _, groups := range []int{16, 1 << 10, 1 << 16} {
		b.Run(map[int]string{16: "16groups", 1 << 10: "1Kgroups", 1 << 16: "64Kgroups"}[groups], func(b *testing.B) {
			const chunk = 1024
			tbl := NewAggTable(make([]byte, 8), 16)
			keys := benchChunkKeys(chunk, groups, 0)
			var sc BatchScratch
			hashes := make([]uint64, 0, chunk)
			dst := make([][]byte, chunk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += chunk {
				hashes = HashBatch(keys, hashes)
				tbl.FindOrCreateBatch(keys, nil, hashes, dst, &sc)
				for _, row := range dst {
					off := RowPayloadOff(row)
					PutI64(row, off, GetI64(row, off)+1)
				}
			}
		})
	}
}

// benchJoinTable builds and seals a unique-key table of `keys` 8-byte rows.
func benchJoinTable(keys int) *JoinTable {
	tbl := NewJoinTable(16)
	build := make([][]byte, keys)
	for i := range build {
		build[i] = i64Key(int64(i))
	}
	insertJoinRows(tbl, build, make([][]byte, keys), 1024)
	tbl.Seal()
	return tbl
}

// BenchmarkJoinProbeScalarPath probes tuple-at-a-time with 50% misses; every
// probe hashes, dispatches and walks its bucket individually.
func BenchmarkJoinProbeScalarPath(b *testing.B) {
	const keys = 1 << 12
	tbl := benchJoinTable(keys)
	probes := benchChunkKeys(1024, 2*keys, 0) // half the key space is absent
	b.ReportAllocs()
	b.ResetTimer()
	matches := 0
	for i := 0; i < b.N; i++ {
		k := probes[i%1024]
		it := tbl.Lookup(k, Hash64(k))
		for it.Next() != nil {
			matches++
		}
	}
	sinkInt = matches
}

// BenchmarkJoinProbeBatchedPath hashes the chunk as a vector and consults the
// bloom filter via LookupBatch, walking buckets only for possible matches.
func BenchmarkJoinProbeBatchedPath(b *testing.B) {
	const keys = 1 << 12
	const chunk = 1024
	tbl := benchJoinTable(keys)
	probes := benchChunkKeys(chunk, 2*keys, 0)
	hashes := make([]uint64, 0, chunk)
	sel := make([]int32, 0, chunk)
	b.ReportAllocs()
	b.ResetTimer()
	matches := 0
	for i := 0; i < b.N; i += chunk {
		hashes = HashBatch(probes, hashes)
		sel, _ = tbl.LookupBatch(hashes, sel[:0])
		for _, pi := range sel {
			it := tbl.Lookup(probes[pi], hashes[pi])
			for it.Next() != nil {
				matches++
			}
		}
	}
	sinkInt = matches
}

// BenchmarkJoinProbeBloom isolates the filter: probes drawn almost entirely
// from outside the build key space, so LookupBatch rejects them without
// touching bucket memory.
func BenchmarkJoinProbeBloom(b *testing.B) {
	const keys = 1 << 12
	const chunk = 1024
	tbl := benchJoinTable(keys)
	probes := make([][]byte, chunk)
	for i := range probes {
		k := make([]byte, 8)
		binary.LittleEndian.PutUint64(k, uint64(keys+1+i)) // all misses
		probes[i] = k
	}
	hashes := make([]uint64, 0, chunk)
	sel := make([]int32, 0, chunk)
	b.ReportAllocs()
	b.ResetTimer()
	skipped := 0
	for i := 0; i < b.N; i += chunk {
		var sk int
		hashes = HashBatch(probes, hashes)
		sel, sk = tbl.LookupBatch(hashes, sel[:0])
		for _, pi := range sel {
			it := tbl.Lookup(probes[pi], hashes[pi])
			for it.Next() != nil {
				skipped--
			}
		}
		skipped += sk
	}
	sinkInt = skipped
}

func BenchmarkLikeMatcher(b *testing.B) {
	m := NewLikeMatcher("%special%requests%")
	subjects := []string{
		"carefully final deposits sleep",
		"the special deposit requests sleep furiously",
		"requests special ironic theodolites",
	}
	hits := 0
	for i := 0; i < b.N; i++ {
		if m.Match(subjects[i%3]) {
			hits++
		}
	}
	sinkInt = hits
}

func BenchmarkRowScratchPack(b *testing.B) {
	s := NewRowScratch(12, 8)
	const batch = 1024
	for i := 0; i < b.N; i++ {
		s.Prepare(batch)
		for r := 0; r < batch; r++ {
			PutI64(s.Row(r), 4, int64(r))
			PutI32(s.Row(r), 12, int32(r))
			s.SealKey(r)
			PutF64(s.Row(r), s.PayloadOff(r), float64(r))
		}
	}
	b.SetBytes(batch * 24)
}
