package vm

import (
	"inkfuse/internal/rt"
)

// Chunk-batched table access for the compiled statements. Every backend —
// the vectorized interpreter's single-subop primitives and the fused
// programs alike — executes table statements through these kernels, so the
// batched path needs no new primitive IDs and the enumeration invariant
// holds unchanged: the same suboperator instantiations exist, their table
// access just happens a chunk at a time.

// tableBatch is the per-call-site scratch of one batched table statement:
// extracted key/seed views, the hash vector, the bloom candidates, and the
// shard-grouping scratch. One aux slot holds it, so steady-state chunks
// allocate nothing.
type tableBatch struct {
	keys   [][]byte // per-row key blobs (views into rows or keybuf)
	seeds  [][]byte // per-row creation extras / build payloads
	hashes []uint64
	keybuf []byte  // packed fixed-width key encodings
	pend   []int32 // bloom candidates
	sc     rt.BatchScratch
	// The fused key build (keybuild.go): the key columns bound to the current
	// execution, and a never-written (all-zero) byte run.
	cols  []keyCol
	zeros []byte
}

func (tb *tableBatch) retainedBytes() int64 {
	rows := cap(tb.keys) + cap(tb.seeds)
	return int64(rows)*24 + int64(cap(tb.hashes))*8 +
		int64(cap(tb.keybuf)+cap(tb.zeros)) + int64(cap(tb.pend))*4
}

func auxBatch(fr *frame, k int) *tableBatch {
	if fr.aux[k] == nil {
		fr.aux[k] = new(tableBatch)
	}
	return fr.aux[k].(*tableBatch)
}

func sizedRows(s *[][]byte, n int) [][]byte {
	if cap(*s) < n {
		*s = make([][]byte, n)
	}
	*s = (*s)[:n]
	return *s
}

func sizedU64(s *[]uint64, n int) []uint64 {
	if cap(*s) < n {
		*s = make([]uint64, n)
	}
	*s = (*s)[:n]
	return *s
}

func sizedBytes(s *[]byte, n int) []byte {
	if cap(*s) < n {
		*s = make([]byte, n)
	}
	*s = (*s)[:n]
	return *s
}

// aggBatchSeg bounds the rows a batched agg lookup hashes per pass.
// Upstream of an expanding join probe, fused programs hand the lookup the
// whole expanded chunk (an order of magnitude past the scan chunk size);
// hashing all of it before the first lookup pushes the hash vector and the
// keys out of cache. Segmenting keeps every pass inside the footprint the
// kernels were sized for.
const aggBatchSeg = 1024

// aggBatchLookup resolves one chunk of aggregation keys into d against the
// worker's own table, a segment at a time. seeds may be nil.
func aggBatchLookup(fr *frame, tb *tableBatch, st *rt.AggTableState, keys, seeds, d [][]byte) {
	tbl := fr.ctx.AggTable(st)
	for off := 0; off < len(keys); off += aggBatchSeg {
		end := min(off+aggBatchSeg, len(keys))
		var sseg [][]byte
		if seeds != nil {
			sseg = seeds[off:end]
		}
		tb.hashes = rt.HashBatch(keys[off:end], tb.hashes)
		tbl.FindOrCreateBatch(keys[off:end], sseg, tb.hashes, d[off:end], &tb.sc)
	}
}
