package vm

import (
	"encoding/binary"
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

// keyField is one key column: its value, the state slot of its offset inside
// the key blob (-1 for a string, and for a raw column at offset 0) and, once
// compiled, its register.
type keyField struct {
	val     ir.Expr
	kind    types.Kind
	stateID int
	slot    int
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

// keyBuild compiles a key run the pre-pass parsed; sc is the plan of a
// probe's scope.
func (c *compiler) keyBuild(k *keyRun, sc *scopePlan, blk *[]exec) error {
	fields := k.fields
	for i := range fields {
		var err error
		if fields[i].slot, err = c.expr(fields[i].val, blk); err != nil {
			return err
		}
	}
	switch look := k.look.(type) {
	case ir.ProbeStmt:
		return c.keyProbe(k, fields, look, sc, blk)
	case ir.AggLookup:
		c.keyAggLookup(k, fields, look.Dst, look.StateID, blk)
	case ir.AggLookupFixed:
		c.keyAggLookup(k, fields, look.Dst, look.StateID, blk)
	}
	return nil
}

// bindKeyCols resolves the key fields against the frame's registers and state
// for one execution.
func bindKeyCols(fr *frame, tb *tableBatch, fields []keyField) []keyCol {
	cols := tb.cols[:0]
	for _, f := range fields {
		v := fr.vecs[f.slot]
		col := keyCol{kind: f.kind, b: v.B, i32: v.I32, i64: v.I64, f64: v.F64, str: v.Str}
		if f.stateID >= 0 {
			col.off = fr.state[f.stateID].(*rt.OffsetState).Off
		}
		cols = append(cols, col)
	}
	tb.cols = cols
	return cols
}

// keyAggLookup emits the fused key build ending in the lookup of group
// register dst in aggregation state aggID. A raw column (AggLookupFixed) is
// a word key of its own width at offset 0, with no layout and no seed.
func (c *compiler) keyAggLookup(k *keyRun, fields []keyField, dst ir.Var, aggID int, blk *[]exec) {
	ds := c.bind(dst)
	layoutID, ax := k.layoutID, k.ax
	*blk = append(*blk, func(fr *frame, n int) {
		st := fr.state[aggID].(*rt.AggTableState)
		tb := auxBatch(fr, ax)
		cols := bindKeyCols(fr, tb, fields)
		var width int
		var prefix, seed []byte
		if layoutID < 0 {
			width = cols[0].kind.Width()
		} else {
			layout := fr.state[layoutID].(*rt.RowLayoutState)
			// Never written, so all zero: the key's fixed-width prefix before
			// the field writes fill it, and the payload region a sealed row
			// seeds new groups with (none for a key-only layout).
			zeros := sized(&tb.zeros, max(layout.KeyFixed, layout.PayloadFixed))
			prefix = zeros[:layout.KeyFixed]
			if layout.PayloadFixed > 0 {
				seed = zeros[:layout.PayloadFixed]
			}
			width = wordWidth(cols, layout)
		}
		dv := fr.vecs[ds]
		dv.Resize(n)
		d := dv.Ptr[:n]
		tbl := fr.ctx.AggTable(st)
		if width > 0 {
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
func (c *compiler) keyProbe(k *keyRun, fields []keyField, s ir.ProbeStmt, sc *scopePlan, blk *[]exec) error {
	ps, err := c.probeScope(s, sc)
	if err != nil {
		return err
	}
	layoutID, ax := k.layoutID, k.ax
	*blk = append(*blk, func(fr *frame, n int) {
		tbl := fr.state[ps.stateID].(*rt.JoinTableState).Table
		layout := fr.state[layoutID].(*rt.RowLayoutState)
		tb := auxBatch(fr, ax)
		cols := bindKeyCols(fr, tb, fields)
		prefix := sized(&tb.zeros, layout.KeyFixed)
		width := wordWidth(cols, layout)
		hashes := sized(&tb.hashes, n)
		words := sized(&tb.words, n)
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
		keys := sized(&tb.keys, n)
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
// into d. While the table holds at most memoGroups groups as the call begins,
// the keys resolve through the call's group memo (groupMemo.resolve) until
// the call meets more groups than that. The rest is resolved an aggBatchSeg
// segment at a time: the segment's words are assembled and hashed in one
// pass, then looked up in a second, so the hash arithmetic does not sit
// between one lookup's cache misses and the next's.
func lookupWords(tbl *rt.AggTable, tb *tableBatch, cols []keyCol, width int, seed []byte, d [][]byte) {
	seg := min(len(d), aggBatchSeg)
	words := sized(&tb.words, seg)
	if tb.memo == nil {
		tb.memo = new(groupMemo)
	}
	m := tb.memo
	m.valid = false
	done := 0 // rows resolved through the memo
	if len(tbl.Rows()) <= memoGroups {
		m.reset()
		for done < len(d) && m.valid {
			dst := d[done:min(done+aggBatchSeg, len(d))]
			wordKeys(words[:len(dst)], cols, done)
			n := done + len(dst)
			if cap(m.ords) < n {
				m.ords = append(make([]uint8, 0, n), m.ords...)
			}
			m.ords = m.ords[:n]
			done += m.resolve(tbl, words[:len(dst)], width, seed, dst, m.ords[done:])
		}
	}
	hashes := sized(&tb.hashes, seg)
	for off := done; off < len(d); off += aggBatchSeg {
		dst := d[off:min(off+aggBatchSeg, len(d))]
		hashWordKeys(words[:len(dst)], hashes[:len(dst)], cols, width, off)
		for i := range dst {
			dst[i] = tbl.FindOrCreateWord(words[i], width, hashes[i], seed)
		}
	}
}

// The group memo (DESIGN.md §10, §17). A GROUP BY over a handful of groups —
// q1 has four per worker — spends most of a lookup on hashing a key whose
// group the call met a few rows before. While the worker's table is small, a
// call resolves its word keys through a direct-mapped memo of memoGroups
// entries (word → group row), built fresh for the call; a miss hashes the
// word and asks the table exactly as the path without the memo does, so the
// table meets every key's first occurrence in row order and comes out byte
// for byte the same. On the way the memo numbers the call's distinct group
// rows: the ordinals a run of aggregate updates sorts the call's rows by
// (groupedUpdates, stmt.go). A call that meets more than memoGroups groups
// has no ordinals, and resolves its remaining rows without the memo.

// memoGroups is the group memo's size, and the table size up to which it is
// used.
const memoGroups = 16

// memoEntry is one word's group row and its ordinal in the call.
type memoEntry struct {
	w   uint64
	row []byte // nil: empty
	ord uint8
}

// groupMemo is one call site's memo and the ordinals of its last call.
type groupMemo struct {
	entries [memoGroups]memoEntry
	// groups lists the call's distinct group rows, an ordinal's row at its
	// index; ords holds the ordinal of every row the memo resolved, grown a
	// segment at a time, so a call that meets its 17th group early keeps
	// few. valid reports that they describe the whole last call: the memo
	// resolved it and met at most memoGroups groups.
	groups [][]byte
	ords   []uint8
	valid  bool
	// idx is groupedUpdates' scratch: one aggBatchSeg segment's row indices
	// sorted by ordinal.
	idx []int32
}

// memoSlot is a word's memo entry: the top bits of a multiplicative hash, far
// cheaper than HashWord and spreading small codes apart.
//
//inkfuse:hotpath
func memoSlot(w uint64) int { return int((w * 0x9e3779b97f4a7c15) >> 60) }

func (m *groupMemo) retainedBytes() int64 {
	if m == nil {
		return 0
	}
	return int64(len(m.entries))*40 + int64(cap(m.groups))*24 + int64(cap(m.ords)) + int64(cap(m.idx))*4
}

// reset readies the memo for a call.
func (m *groupMemo) reset() {
	clear(m.entries[:])
	m.groups, m.ords = m.groups[:0], m.ords[:0]
	m.valid = true
}

// resolve looks up the word keys words into d and their ordinals into ords.
// It returns how many it resolved: all of them, or up to the one that
// invalidated the call's ordinals.
//
//inkfuse:hotpath
func (m *groupMemo) resolve(tbl *rt.AggTable, words []uint64, width int, seed []byte, d [][]byte, ords []uint8) int {
	for i, w := range words {
		e := &m.entries[memoSlot(w)]
		if e.row == nil || e.w != w {
			row := tbl.FindOrCreateWord(w, width, rt.HashWord(w, width), seed)
			*e = memoEntry{w: w, row: row, ord: m.ordinal(row)}
			if !m.valid {
				d[i] = row
				return i + 1
			}
		}
		d[i], ords[i] = e.row, e.ord
	}
	return len(words)
}

// ordinal returns the call's ordinal of a group row, numbering a row the call
// has not met yet; a word evicted from its entry and met again finds its
// row's first ordinal here. A group past memoGroups invalidates the call's
// ordinals.
//
//inkfuse:hotpath
func (m *groupMemo) ordinal(row []byte) uint8 {
	for o, g := range m.groups {
		if &g[0] == &row[0] {
			return uint8(o)
		}
	}
	if len(m.groups) == memoGroups {
		m.valid = false
		return 0
	}
	m.groups = append(m.groups, row) //inklint:allow alloc — at most memoGroups rows, into capacity kept across calls
	return uint8(len(m.groups) - 1)
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

// wordKeys assembles the word keys of the tuples from, from+1, … into words.
// The one-integer-column key — most joins' and GROUP BYs' — and the key of
// two 4-byte columns — q1's two codes — get loops of their own: keyWord's
// walk over the columns costs as much per tuple as the hash.
//
//inkfuse:hotpath
func wordKeys(words []uint64, cols []keyCol, from int) {
	switch {
	case len(cols) == 1 && cols[0].kind == types.Int64:
		for i, v := range cols[0].i64[from : from+len(words)] {
			words[i] = uint64(v)
		}
	case len(cols) == 1 && word32(cols[0].kind):
		for i, v := range cols[0].i32[from : from+len(words)] {
			words[i] = uint64(uint32(v))
		}
	case len(cols) == 2 && word32(cols[0].kind) && word32(cols[1].kind):
		a, b := cols[0].i32[from:from+len(words)], cols[1].i32[from:from+len(words)]
		sa, sb := 8*cols[0].off, 8*cols[1].off
		for i := range words {
			words[i] = uint64(uint32(a[i]))<<sa | uint64(uint32(b[i]))<<sb
		}
	default:
		for i := range words {
			words[i] = keyWord(cols, from+i)
		}
	}
}

// word32 reports whether a key column is held in an I32 slice.
//
//inkfuse:hotpath
func word32(k types.Kind) bool { return k == types.Int32 || k == types.Date }

// hashWordKeys assembles the word keys of the tuples from, from+1, … into
// words and their hashes into hashes.
//
//inkfuse:hotpath
func hashWordKeys(words, hashes []uint64, cols []keyCol, width, from int) {
	wordKeys(words, cols, from)
	// A constant width lets the compiler fold HashWord's width arithmetic.
	switch width {
	case 8:
		for i, w := range words {
			hashes[i] = rt.HashWord(w, 8)
		}
	case 4:
		for i, w := range words {
			hashes[i] = rt.HashWord(w, 4)
		}
	default:
		for i, w := range words {
			hashes[i] = rt.HashWord(w, width)
		}
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
