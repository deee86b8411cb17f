package vm

import (
	"encoding/binary"
	"fmt"
	"math"

	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/types"
)

// The fused key build (DESIGN.md §17, §19): the statement run
//
//	MakeRow → PackFixed/PackStr(key)* → SealKey → AggLookup | ProbeStmt
//
// compiled to one operation. Statement by statement the run makes five passes
// over an n-row scratch slab and rewrites a 24-byte row handle per tuple in
// each; fused, every tuple's key is packed into one reusable buffer, hashed
// and looked up on the spot.
//
// A key of fixed-width columns that fits a machine word is assembled and
// hashed in a register on either path (wordWidth), and never packed ahead of
// an AggLookup.
//
// Ahead of an AggLookup a word key is resolved a segment at a time: the
// segment's words are assembled and hashed in one pass, then looked up in a
// second through the table's word entry point (rt.AggTable.FindOrCreateWord),
// which compares hashes alone while the table's keys are words of that width
// (DESIGN.md §10). A key with strings, or wider than a word, is packed into
// one reusable buffer, hashed and resolved on the spot, and the buffer
// rewound (the table copies a new group's key). Either way the table
// receives the same keys in the same order as through the statement run's
// batched lookup, so it comes out byte for byte the same.
//
// Ahead of a ProbeStmt only the key's hash is computed per tuple — the key is
// packed into the buffer, hashed and the buffer rewound; a key of fixed-width
// columns that fits a machine word is not packed at all but assembled and
// hashed in a register — and the chunk's hashes are screened by the join
// table's bloom filter in one pass. A definite miss — four probes in five on
// TPC-H's lineitem pipelines — is resolved there: dropped by an inner or semi
// join, emitted unmatched by an anti or outer join, and nothing was kept for
// it. A survivor's key is packed once more, to stay, for the scan of its
// bucket, which compares key bytes only where the table's keys are not words
// of the probe key's width (DESIGN.md §10).

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
	if probe, ok := stmts[len(stmts)-1].(ir.ProbeStmt); ok {
		c.p.rewrites.KeyProbes++
		return c.keyProbe(layoutID, fields, probe, blk)
	}
	c.p.rewrites.KeyBuilds++
	c.keyAggLookup(layoutID, fields, stmts[len(stmts)-1].(ir.AggLookup), blk)
	return nil
}

// bindKeyCols resolves the key fields against the frame's registers and state
// for one execution.
func bindKeyCols(fr *frame, tb *tableBatch, fields []keyField) []keyCol {
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
	return cols
}

// keyAggLookup emits the fused key build ending in look.
func (c *compiler) keyAggLookup(layoutID int, fields []keyField, look ir.AggLookup, blk *[]exec) {
	ds := c.bind(look.Dst)
	aggID := look.StateID
	ax := c.newAux()
	*blk = append(*blk, func(fr *frame, n int) {
		st := fr.state[aggID].(*rt.AggTableState)
		layout := fr.state[layoutID].(*rt.RowLayoutState)
		tb := auxBatch(fr, ax)
		cols := bindKeyCols(fr, tb, fields)
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
		tbl := fr.ctx.AggTable(st)
		if width := wordWidth(cols, layout); width > 0 {
			lookupWords(tbl, tb, cols, width, seed, d)
		} else {
			buf := tb.keybuf
			for i := range d {
				buf = packKey(buf[:0], cols, prefix, i)
				d[i] = tbl.FindOrCreateSeed(buf, rt.Hash64(buf), seed)
			}
			tb.keybuf = buf
		}
		fr.ctx.Counters.VMOps += int64(n)
		fr.ctx.Counters.HTProbes += int64(n)
	})
}

// keyProbe emits the fused key probe ending in s.
func (c *compiler) keyProbe(layoutID int, fields []keyField, s ir.ProbeStmt, blk *[]exec) error {
	ps, err := c.probeScope(s)
	if err != nil {
		return err
	}
	ax := c.newAux()
	*blk = append(*blk, func(fr *frame, n int) {
		tbl := fr.state[ps.stateID].(*rt.JoinTableState).Table
		layout := fr.state[layoutID].(*rt.RowLayoutState)
		tb := auxBatch(fr, ax)
		cols := bindKeyCols(fr, tb, fields)
		prefix := sizedBytes(&tb.zeros, layout.KeyFixed)
		width := wordWidth(cols, layout)
		hashes := sizedU64(&tb.hashes, n)
		words := sizedU64(&tb.words, n)
		buf := tb.keybuf[:0]
		if width > 0 {
			hashWordKeys(words, hashes, cols, width, 0)
		} else {
			for i := range hashes {
				buf = packKey(buf[:0], cols, prefix, i)
				hashes[i] = rt.Hash64(buf)
			}
		}
		cand, skips := tbl.LookupBatch(hashes, tb.pend[:0])
		tb.pend = cand
		// Only the survivors' key bytes are kept, for the bucket scan.
		keys := sizedRows(&tb.keys, n)
		buf = buf[:0]
		for _, ci := range cand {
			start := len(buf)
			if width > 0 {
				buf = binary.LittleEndian.AppendUint64(buf, words[ci])[:start+width]
			} else {
				buf = packKey(buf, cols, prefix, int(ci))
			}
			keys[ci] = buf[start:len(buf):len(buf)]
		}
		tb.keybuf = buf
		ps.run(fr, tbl, n, cand, skips, keys, hashes)
	})
	return nil
}

// wordWidth returns the width of the key blob when keyWord can assemble it —
// fixed-width columns, at most 8 bytes in all: every TPC-H join key, and q1's
// two dictionary-coded group keys — or 0. Such a key is assembled and hashed
// in a register (rt.HashWord is Hash64 of the blob).
func wordWidth(cols []keyCol, layout *rt.RowLayoutState) int {
	for c := range cols {
		if cols[c].kind == types.String {
			return 0
		}
	}
	if layout.KeyFixed > 8 {
		return 0
	}
	return layout.KeyFixed
}

// lookupWords resolves every tuple's word key (wordWidth > 0) against tbl
// into d, an aggBatchSeg segment at a time: the segment's words are
// assembled and hashed in one pass, then looked up in a second, so the hash
// arithmetic does not sit between one lookup's cache misses and the next's.
func lookupWords(tbl *rt.AggTable, tb *tableBatch, cols []keyCol, width int, seed []byte, d [][]byte) {
	seg := min(len(d), aggBatchSeg)
	words, hashes := sizedU64(&tb.words, seg), sizedU64(&tb.hashes, seg)
	for off := 0; off < len(d); off += aggBatchSeg {
		dst := d[off:min(off+aggBatchSeg, len(d))]
		hashWordKeys(words[:len(dst)], hashes[:len(dst)], cols, width, off)
		for i := range dst {
			dst[i] = tbl.FindOrCreateWord(words[i], width, hashes[i], seed)
		}
	}
}

// keyWord assembles row i's key blob — fixed-width columns, at most 8 bytes
// in all — in a register: byte k of the blob is byte k of the word.
//
//inkfuse:hotpath
func keyWord(cols []keyCol, i int) uint64 {
	var w uint64
	for c := range cols {
		col := &cols[c]
		switch col.kind {
		case types.Int32, types.Date:
			w |= uint64(uint32(col.i32[i])) << (8 * col.off)
		case types.Int64:
			w |= uint64(col.i64[i])
		case types.Float64:
			w |= math.Float64bits(col.f64[i])
		default: // Bool
			if col.b[i] {
				w |= 1 << (8 * col.off)
			}
		}
	}
	return w
}

// hashWordKeys assembles the word keys of the tuples from, from+1, … into
// words and their hashes into hashes. The one-integer-column key — most
// joins' and GROUP BYs' — gets a loop of its own: keyWord's walk over the
// columns costs as much per tuple as the hash.
//
//inkfuse:hotpath
func hashWordKeys(words, hashes []uint64, cols []keyCol, width, from int) {
	if len(cols) == 1 {
		switch col := &cols[0]; col.kind {
		case types.Int64:
			for i, v := range col.i64[from : from+len(hashes)] {
				words[i], hashes[i] = uint64(v), rt.HashWord(uint64(v), 8)
			}
			return
		case types.Int32, types.Date:
			for i, v := range col.i32[from : from+len(hashes)] {
				w := uint64(uint32(v))
				words[i], hashes[i] = w, rt.HashWord(w, 4)
			}
			return
		}
	}
	for i := range hashes {
		w := keyWord(cols, from+i)
		words[i], hashes[i] = w, rt.HashWord(w, width)
	}
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
