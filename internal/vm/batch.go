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
// extracted key/seed views, the hash vector, the pending (local-table miss)
// compaction buffers, and the shard-grouping scratch. One aux slot holds it,
// so steady-state chunks allocate nothing.
type tableBatch struct {
	keys   [][]byte // per-row key blobs (views into rows or keybuf)
	seeds  [][]byte // per-row creation extras / build payloads
	hashes []uint64
	keybuf []byte  // packed fixed-width key encodings
	pend   []int32 // rows the local table could not absorb / bloom candidates
	pkeys  [][]byte
	pseeds [][]byte
	phash  []uint64
	pout   [][]byte
	sc     rt.BatchScratch
	// The fused key build (keybuild.go): the key columns bound to the current
	// execution, and a never-written (all-zero) byte run.
	cols  []keyCol
	zeros []byte
}

func (tb *tableBatch) retainedBytes() int64 {
	rows := cap(tb.keys) + cap(tb.seeds) + cap(tb.pkeys) + cap(tb.pseeds) + cap(tb.pout)
	return int64(rows)*24 + int64(cap(tb.hashes)+cap(tb.phash))*8 +
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

// aggBatchSeg bounds the rows a batched agg lookup processes per pass.
// Upstream of an expanding join probe, fused programs hand the lookup the
// whole expanded chunk (an order of magnitude past the scan chunk size);
// hashing and scattering that in one sweep pushes the scratch vectors out
// of cache and loses to the scalar path. Segmenting keeps every pass inside
// the footprint the kernels were sized for.
const aggBatchSeg = 1024

// aggBatchLookup resolves one chunk of aggregation keys into d. Keys are
// first offered to the worker's thread-local pre-aggregation table (no shard
// lock; absorbs high-locality group-bys); the misses are compacted and
// resolved through the sharded table's batched path, one lock per
// (segment, shard). seeds may be nil.
func aggBatchLookup(fr *frame, tb *tableBatch, st *rt.AggTableState, keys, seeds, d [][]byte) {
	tbl := fr.ctx.AggTable(st)
	loc := fr.ctx.LocalAgg(st)
	// Between chunks the local table may flush a full interval (clustered
	// keys keep absorbing into fresh capacity) or disable itself outright
	// (non-repeating keys) — see LocalAggTable.MaybeFlush.
	fr.ctx.Counters.HTSpills += loc.MaybeFlush()
	for off := 0; off < len(keys); off += aggBatchSeg {
		end := min(off+aggBatchSeg, len(keys))
		var sseg [][]byte
		if seeds != nil {
			sseg = seeds[off:end]
		}
		aggBatchSegment(fr, tb, tbl, loc, keys[off:end], sseg, d[off:end])
	}
}

func aggBatchSegment(fr *frame, tb *tableBatch, tbl *rt.AggTable, loc *rt.LocalAggTable, keys, seeds, d [][]byte) {
	n := len(keys)
	tb.hashes = rt.HashBatch(keys, tb.hashes)
	hashes := tb.hashes
	if loc.Disabled() {
		tbl.FindOrCreateBatch(keys, seeds, hashes, d, &tb.sc)
		return
	}
	pend := tb.pend[:0]
	var hits int64
	var seed []byte
	for i := 0; i < n; i++ {
		if seeds != nil {
			seed = seeds[i]
		}
		row, hit, ok := loc.FindOrCreate(keys[i], hashes[i], seed)
		if !ok {
			pend = append(pend, int32(i))
			continue
		}
		d[i] = row
		if hit {
			hits++
		}
	}
	tb.pend = pend
	fr.ctx.Counters.HTLocalHits += hits
	if len(pend) == 0 {
		return
	}
	// Local-table overflow: compact the misses and resolve them against the
	// sharded table in one batch. A pending key is never resident locally, so
	// the same logical group is only ever updated through one row per flush
	// interval and the morsel-end merge reconciles the rest.
	pk := sizedRows(&tb.pkeys, len(pend))
	ph := sizedU64(&tb.phash, len(pend))
	po := sizedRows(&tb.pout, len(pend))
	var ps [][]byte
	if seeds != nil {
		ps = sizedRows(&tb.pseeds, len(pend))
	}
	for j, i := range pend {
		pk[j] = keys[i]
		ph[j] = hashes[i]
		if seeds != nil {
			ps[j] = seeds[i]
		}
	}
	tbl.FindOrCreateBatch(pk, ps, ph, po, &tb.sc)
	for j, i := range pend {
		d[i] = po[j]
	}
}
