package vm

import (
	"encoding/binary"
	"fmt"
	"math"

	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/types"
)

// The fused key build (DESIGN.md §17): the statement run
//
//	MakeRow → PackFixed/PackStr(key)* → SealKey → AggLookup
//
// compiled to one operation. Statement by statement the run makes five passes
// over an n-row scratch slab and rewrites a 24-byte row handle per tuple in
// each; fused, every tuple's key is packed into one reusable buffer, hashed
// and offered to the worker-local table on the spot. Only the keys the local
// table cannot take are kept (they stay in the buffer) and resolved against
// the sharded table in one batch per segment — the same local-first,
// batch-the-rest order aggBatchSegment follows, so the tables receive the
// same keys in the same order either way.

// keyField is one packed key column: its register and, for a fixed-width
// field, the state slot of its offset inside the key blob.
type keyField struct {
	slot    int
	kind    types.Kind
	stateID int
}

// keyCol is a keyField bound to one execution: the offset read from state and
// the column resolved to its typed slice.
type keyCol struct {
	kind types.Kind
	off  int
	b    []bool
	i32  []int32
	i64  []int64
	f64  []float64
	str  []string
}

// keyBuild compiles the run stmts (as matched by keyBuildRun).
func (c *compiler) keyBuild(stmts []ir.Stmt, blk *[]exec) error {
	layoutID := stmts[0].(ir.MakeRow).StateID
	look := stmts[len(stmts)-1].(ir.AggLookup)
	var fields []keyField
	for _, s := range stmts[1 : len(stmts)-2] {
		var val ir.Expr
		var stateID int
		switch s := s.(type) {
		case ir.PackFixed:
			val, stateID = s.Val, s.StateID
			if !val.Kind().Fixed() {
				return fmt.Errorf("pack fixed of kind %v", val.Kind())
			}
		case ir.PackStr:
			val, stateID = s.Val, s.StateID
			if val.Kind() != types.String {
				return fmt.Errorf("pack string of kind %v", val.Kind())
			}
		}
		vs, err := c.expr(val, blk)
		if err != nil {
			return err
		}
		fields = append(fields, keyField{slot: vs, kind: val.Kind(), stateID: stateID})
	}
	ds := c.bind(look.Dst)
	aggID := look.StateID
	ax := c.newAux()
	*blk = append(*blk, func(fr *frame, n int) {
		st := fr.state[aggID].(*rt.AggTableState)
		layout := fr.state[layoutID].(*rt.RowLayoutState)
		tb := auxBatch(fr, ax)
		cols := tb.cols[:0]
		for _, f := range fields {
			v := fr.vecs[f.slot]
			col := keyCol{kind: f.kind, b: v.B, i32: v.I32, i64: v.I64, f64: v.F64, str: v.Str}
			if f.kind != types.String {
				col.off = fr.state[f.stateID].(*rt.OffsetState).Off
			}
			cols = append(cols, col)
		}
		tb.cols = cols
		// Never written, so all zero: the key's fixed-width prefix before the
		// field writes fill it, and the payload region a sealed row seeds new
		// groups with (none for a key-only layout).
		zeros := sizedBytes(&tb.zeros, max(layout.KeyFixed, layout.PayloadFixed))
		prefix := zeros[:layout.KeyFixed]
		var seed []byte
		if layout.PayloadFixed > 0 {
			seed = zeros[:layout.PayloadFixed]
		}
		dv := fr.vecs[ds]
		dv.Resize(n)
		d := dv.Ptr[:n]
		if st.Partitions > 0 {
			// Exchange-partitioned table: no local table, no segmenting.
			keys, hashes := packKeys(tb, cols, prefix, 0, n)
			st.Parted.FindOrCreateBatch(keys, seedRows(tb, seed, n), hashes, d)
		} else {
			tbl := fr.ctx.AggTable(st)
			loc := fr.ctx.LocalAgg(st)
			fr.ctx.Counters.HTSpills += loc.MaybeFlush()
			for lo := 0; lo < n; lo += aggBatchSeg {
				hi := min(lo+aggBatchSeg, n)
				if loc.Disabled() {
					keys, hashes := packKeys(tb, cols, prefix, lo, hi)
					tbl.FindOrCreateBatch(keys, seedRows(tb, seed, hi-lo), hashes, d[lo:hi], &tb.sc)
					continue
				}
				fr.ctx.Counters.HTLocalHits += keyBuildSegment(tb, tbl, loc, cols, prefix, seed, lo, hi, d)
			}
		}
		fr.ctx.Counters.VMOps += int64(n)
		fr.ctx.Counters.HTProbes += int64(n)
	})
	return nil
}

// packKey appends row i's key blob to buf: the fixed fields at their offsets
// inside the (zero) fixed-width prefix, then the length-prefixed strings.
//
//inkfuse:hotpath
func packKey(buf []byte, cols []keyCol, prefix []byte, i int) []byte {
	start := len(buf)
	buf = append(buf, prefix...) //inklint:allow alloc — appends into the reused key buffer
	for c := range cols {
		col := &cols[c]
		switch col.kind {
		case types.String:
			buf = rt.AppendString(buf, col.str[i])
		case types.Int32, types.Date:
			binary.LittleEndian.PutUint32(buf[start+col.off:], uint32(col.i32[i]))
		case types.Int64:
			binary.LittleEndian.PutUint64(buf[start+col.off:], uint64(col.i64[i]))
		case types.Float64:
			binary.LittleEndian.PutUint64(buf[start+col.off:], math.Float64bits(col.f64[i]))
		default: // Bool
			rt.PutBool(buf, start+col.off, col.b[i])
		}
	}
	return buf
}

// keyBuildSegment resolves rows [lo, hi) against the worker-local table, tuple
// at a time, and the keys it bounced through the sharded table in one batch.
// It returns the number of local hits.
//
//inkfuse:hotpath
func keyBuildSegment(tb *tableBatch, tbl *rt.AggTable, loc *rt.LocalAggTable,
	cols []keyCol, prefix, seed []byte, lo, hi int, d [][]byte) int64 {
	buf, pend := tb.keybuf[:0], tb.pend[:0]
	pk, ph := tb.pkeys[:0], tb.phash[:0]
	var hits int64
	for i := lo; i < hi; i++ {
		start := len(buf)
		buf = packKey(buf, cols, prefix, i)
		key := buf[start:len(buf):len(buf)]
		h := rt.Hash64(key)
		row, hit, ok := loc.FindOrCreate(key, h, seed)
		if !ok {
			// Keep the key bytes (buf is not rewound) for the batch below.
			pend = append(pend, int32(i)) //inklint:allow alloc — grows to the segment size once; reused
			pk = append(pk, key)          //inklint:allow alloc — grows to the segment size once; reused
			ph = append(ph, h)            //inklint:allow alloc — grows to the segment size once; reused
			continue
		}
		buf = buf[:start]
		d[i] = row
		if hit {
			hits++
		}
	}
	tb.keybuf, tb.pend, tb.pkeys, tb.phash = buf, pend, pk, ph
	if len(pend) == 0 {
		return hits
	}
	po := sizedRows(&tb.pout, len(pend)) //inklint:allow call — grows to the segment size once; reused
	ps := seedRows(tb, seed, len(pend))  //inklint:allow call — nil unless the layout has payload
	tbl.FindOrCreateBatch(pk, ps, ph, po, &tb.sc)
	for j, i := range pend {
		d[i] = po[j]
	}
	return hits
}

// packKeys packs and hashes the keys of rows [lo, hi) into the batch scratch,
// for the paths that hand a whole segment to a batched table kernel.
func packKeys(tb *tableBatch, cols []keyCol, prefix []byte, lo, hi int) ([][]byte, []uint64) {
	buf := tb.keybuf[:0]
	keys := sizedRows(&tb.keys, hi-lo)
	for i := lo; i < hi; i++ {
		start := len(buf)
		buf = packKey(buf, cols, prefix, i)
		keys[i-lo] = buf[start:len(buf):len(buf)]
	}
	tb.keybuf = buf
	tb.hashes = rt.HashBatch(keys, tb.hashes)
	return keys, tb.hashes
}

// seedRows returns n references to seed for the batched kernels' per-row seed
// argument, or nil when there is no seed.
func seedRows(tb *tableBatch, seed []byte, n int) [][]byte {
	if seed == nil {
		return nil
	}
	rows := sizedRows(&tb.seeds, n)
	for i := range rows {
		rows[i] = seed
	}
	return rows
}
