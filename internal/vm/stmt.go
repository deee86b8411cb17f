package vm

import (
	"fmt"
	"slices"

	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
)

// block compiles a statement list. The pre-pass (analyze.go) names the
// statements that compile together with their single consumer; everything
// else compiles one statement at a time.
func (c *compiler) block(stmts []ir.Stmt) ([]exec, error) {
	plan := c.planBlock(stmts)
	var blk []exec
	// Only the last statement of a block in tail position is itself in tail
	// position (a scope's body inherits its statement's).
	tail := c.tail
	defer func() { c.tail = tail }()
	for i := 0; i < len(stmts); i++ {
		var err error
		c.tail = tail && i == len(stmts)-1
		if end, ok := plan.keyBuilds[i]; ok {
			err = c.keyBuild(stmts[i:end+1], &blk)
			i = end
		} else {
			err = c.stmt(stmts[i], plan, &blk)
		}
		if err != nil {
			return nil, err
		}
	}
	c.p.rewrites.Stmts += len(stmts)
	c.p.rewrites.Closures += len(blk)
	return blk, nil
}

// stmt compiles one IR statement into closures appended to blk.
//
//inklint:dispatch ir.Stmt
func (c *compiler) stmt(s ir.Stmt, plan blockPlan, blk *[]exec) error {
	switch s := s.(type) {
	case ir.Assign:
		if _, ok := plan.absorbed[s.Dst.ID]; ok {
			// Evaluated by the block's filter, as a selector of its cascade.
			return nil
		}
		slot, err := c.expr(s.E, blk)
		if err != nil {
			return err
		}
		if c.p.slotKinds[slot] != s.Dst.K {
			return fmt.Errorf("assign kind mismatch: %v into %s (%v)", c.p.slotKinds[slot], s.Dst, s.Dst.K)
		}
		c.slotOf[s.Dst.ID] = slot
		return nil

	case ir.Copy:
		src, err := c.slot(s.Src)
		if err != nil {
			return err
		}
		if !s.Sel.Valid() {
			c.slotOf[s.Dst.ID] = src
			return nil
		}
		// The probe-copy primitive: n is the selection's length; the source
		// column is bound whole, at the cardinality the probe ran at.
		sel, err := c.slot(s.Sel)
		if err != nil {
			return err
		}
		dst := c.bind(s.Dst)
		*blk = append(*blk, func(fr *frame, n int) {
			fr.vecs[src].Gather(fr.vecs[dst], fr.vecs[sel].I32[:n])
			fr.ctx.Counters.VMOps += int64(n)
		})
		return nil

	case ir.FilterStmt:
		return c.filter(s, plan, blk)

	case ir.MakeRow:
		ds := c.bind(s.Dst)
		id := s.StateID
		*blk = append(*blk, func(fr *frame, n int) {
			layout := fr.state[id].(*rt.RowLayoutState)
			sc := fr.ctx.Scratch(layout)
			sc.Prepare(n)
			dv := fr.vecs[ds]
			dv.Resize(n)
			d := dv.Ptr[:n]
			for i := range d {
				d[i] = sc.Row(i)
			}
			fr.ctx.Counters.VMOps += int64(n)
		})
		return nil

	case ir.PackFixed:
		rs, err := c.slot(s.Row)
		if err != nil {
			return err
		}
		vs, err := c.expr(s.Val, blk)
		if err != nil {
			return err
		}
		id := s.StateID
		payload := s.Region == ir.PayloadRegion
		var op exec
		switch k := s.Val.Kind(); k {
		case types.Bool:
			op = packFixedOp(rs, vs, id, payload, getB, rt.PutBool)
		case types.Int32, types.Date:
			op = packFixedOp(rs, vs, id, payload, getI32, rt.PutI32)
		case types.Int64:
			op = packFixedOp(rs, vs, id, payload, getI64, rt.PutI64)
		case types.Float64:
			op = packFixedOp(rs, vs, id, payload, getF64, rt.PutF64)
		default:
			return fmt.Errorf("pack fixed of kind %v", k)
		}
		*blk = append(*blk, op)
		// Fixed-width packing mutates in place: the row handle is unchanged.
		c.slotOf[s.Dst.ID] = rs
		return nil

	case ir.PackStr:
		rs, err := c.slot(s.Row)
		if err != nil {
			return err
		}
		vs, err := c.expr(s.Val, blk)
		if err != nil {
			return err
		}
		ds := c.bind(s.Dst)
		id := s.StateID
		key := s.Region == ir.KeyRegion
		*blk = append(*blk, func(fr *frame, n int) {
			layout := fr.state[id].(*rt.OffsetState).Layout
			sc := fr.ctx.Scratch(layout)
			v := fr.vecs[vs].Str[:n]
			for i := range v {
				if key {
					sc.AppendKeyString(i, v[i])
				} else {
					sc.AppendPayloadString(i, v[i])
				}
			}
			// Appending may reallocate: refresh the row handles.
			dv := fr.vecs[ds]
			dv.Resize(n)
			d := dv.Ptr[:n]
			for i := range d {
				d[i] = sc.Row(i)
			}
			_ = fr.vecs[rs] // rows were addressed through the scratch
			fr.ctx.Counters.VMOps += int64(n)
		})
		return nil

	case ir.SealKey:
		if _, err := c.slot(s.Row); err != nil {
			return err
		}
		ds := c.bind(s.Dst)
		id := s.StateID
		*blk = append(*blk, func(fr *frame, n int) {
			layout := fr.state[id].(*rt.RowLayoutState)
			sc := fr.ctx.Scratch(layout)
			dv := fr.vecs[ds]
			dv.Resize(n)
			d := dv.Ptr[:n]
			for i := range d {
				sc.SealKey(i)
				d[i] = sc.Row(i)
			}
			fr.ctx.Counters.VMOps += int64(n)
		})
		return nil

	case ir.AggLookup:
		rs, err := c.slot(s.Row)
		if err != nil {
			return err
		}
		ds := c.bind(s.Dst)
		id := s.StateID
		ax := c.newAux()
		*blk = append(*blk, func(fr *frame, n int) {
			st := fr.state[id].(*rt.AggTableState)
			tb := auxBatch(fr, ax)
			rows := fr.vecs[rs].Ptr[:n]
			keys := sizedRows(&tb.keys, n)
			seeds := sizedRows(&tb.seeds, n)
			for i, r := range rows {
				key := rt.RowKey(r)
				keys[i] = key
				// The probe row's payload region seeds new groups (it
				// carries preserved original key strings for collated keys,
				// paper §IV-D; empty otherwise).
				seeds[i] = r[4+len(key):]
			}
			dv := fr.vecs[ds]
			dv.Resize(n)
			aggBatchLookup(fr, tb, st, keys, seeds, dv.Ptr[:n])
			fr.ctx.Counters.VMOps += int64(n)
			fr.ctx.Counters.HTProbes += int64(n)
		})
		return nil

	case ir.AggLookupFixed:
		ks, err := c.slot(s.Key)
		if err != nil {
			return err
		}
		ds := c.bind(s.Dst)
		id := s.StateID
		ax := c.newAux()
		var op exec
		switch s.Key.K {
		case types.Bool:
			op = aggLookupFixedOp(ks, ds, id, ax, 1, getB, rt.PutBool)
		case types.Int32, types.Date:
			op = aggLookupFixedOp(ks, ds, id, ax, 4, getI32, rt.PutI32)
		case types.Int64:
			op = aggLookupFixedOp(ks, ds, id, ax, 8, getI64, rt.PutI64)
		case types.Float64:
			op = aggLookupFixedOp(ks, ds, id, ax, 8, getF64, rt.PutF64)
		default:
			return fmt.Errorf("direct lookup on kind %v", s.Key.K)
		}
		*blk = append(*blk, op)
		return nil

	case ir.AggUpdate:
		gs, err := c.slot(s.Group)
		if err != nil {
			return err
		}
		vs := -1
		if s.Val != nil {
			if vs, err = c.expr(s.Val, blk); err != nil {
				return err
			}
		}
		op, err := aggUpdateOp(s.Fn, gs, vs, s.StateID)
		if err != nil {
			return err
		}
		*blk = append(*blk, op)
		return nil

	case ir.JoinInsert:
		rs, err := c.slot(s.Row)
		if err != nil {
			return err
		}
		id := s.StateID
		ax := c.newAux()
		*blk = append(*blk, func(fr *frame, n int) {
			js := fr.state[id].(*rt.JoinTableState)
			tb := auxBatch(fr, ax)
			rows := fr.vecs[rs].Ptr[:n]
			keys := sizedRows(&tb.keys, n)
			pays := sizedRows(&tb.seeds, n)
			for i, r := range rows {
				key := rt.RowKey(r)
				keys[i] = key
				pays[i] = r[4+len(key):]
			}
			tb.hashes = rt.HashBatch(keys, tb.hashes)
			js.Table.InsertBatch(keys, pays, tb.hashes, &tb.sc)
			fr.ctx.Counters.VMOps += int64(n)
			fr.ctx.Counters.HTInserts += int64(n)
		})
		return nil

	case ir.Prefetch:
		rs, err := c.slot(s.Row)
		if err != nil {
			return err
		}
		id := s.StateID
		ax := c.newAux()
		*blk = append(*blk, func(fr *frame, n int) {
			tbl := fr.state[id].(*rt.JoinTableState).Table
			tb := auxBatch(fr, ax)
			rows := fr.vecs[rs].Ptr[:n]
			keys := sizedRows(&tb.keys, n)
			for i, r := range rows {
				keys[i] = rt.RowKey(r)
			}
			tb.hashes = rt.HashBatch(keys, tb.hashes)
			var acc byte
			for _, h := range tb.hashes {
				// Touch consults the bloom/tag filter first, so the staged
				// prefetch only streams bucket lines that the probe pass will
				// actually scan.
				acc ^= tbl.Touch(h)
			}
			fr.prefetchSink = acc
			fr.ctx.Counters.VMOps += int64(n)
		})
		return nil

	case ir.ProbeStmt:
		return c.probe(s, blk)

	case ir.EmitStmt:
		// The sink. Appending copies every emitted register into the tuple
		// buffer; a register this program owns and is done with is handed over
		// instead (storage.Chunk.TakeFromVectors — into an empty buffer, which
		// a primitive's always is and a fused program's accumulating one is
		// once). Done with: nothing executes after this emit. Owns: not an
		// input, whose array is the caller's (a view of a base-table column,
		// another tuple buffer), and not listed a second time.
		slots := make([]int, len(s.Cols))
		own := make([]bool, len(s.Cols))
		for i, v := range s.Cols {
			sl, err := c.slot(v)
			if err != nil {
				return err
			}
			slots[i] = sl
			own[i] = c.tail && !slices.Contains(c.p.insSlots, sl) && !slices.Contains(slots[:i], sl)
		}
		vecAux := c.newAux()
		*blk = append(*blk, func(fr *frame, n int) {
			vsp := auxSlice[*storage.Vector](fr, vecAux)
			vs := (*vsp)[:0]
			for _, sl := range slots {
				vs = append(vs, fr.vecs[sl])
			}
			*vsp = vs
			bytes := fr.out.TakeFromVectors(vs, own, n)
			fr.emitted += n
			fr.ctx.Counters.EmittedRows += int64(n)
			fr.ctx.Counters.MaterializedBytes += bytes
		})
		return nil

	default:
		return fmt.Errorf("unknown stmt %T", s)
	}
}

func packFixedOp[T any](rs, vs, stateID int, payload bool,
	get func(*storage.Vector) []T, put func([]byte, int, T)) exec {
	return func(fr *frame, n int) {
		off := fr.state[stateID].(*rt.OffsetState).Off
		rows := fr.vecs[rs].Ptr[:n]
		v := get(fr.vecs[vs])[:n]
		if payload {
			for i, r := range rows {
				put(r, rt.RowPayloadOff(r)+off, v[i])
			}
		} else {
			for i, r := range rows {
				put(r, 4+off, v[i])
			}
		}
		fr.ctx.Counters.VMOps += int64(n)
	}
}

// aggLookupFixedOp probes the aggregation table with a raw fixed-width
// column value, no packed-row scratch (paper §IV-D's single-column fast
// path). The whole chunk's keys are encoded into one stride buffer — the
// buffer is safe to reuse per chunk because the table copies the key on group
// creation.
func aggLookupFixedOp[T any](ks, ds, stateID, ax, width int,
	get func(*storage.Vector) []T, put func([]byte, int, T)) exec {
	return func(fr *frame, n int) {
		st := fr.state[stateID].(*rt.AggTableState)
		tb := auxBatch(fr, ax)
		vals := get(fr.vecs[ks])[:n]
		buf := sizedBytes(&tb.keybuf, n*width)
		keys := sizedRows(&tb.keys, n)
		for i, v := range vals {
			off := i * width
			put(buf, off, v)
			keys[i] = buf[off : off+width : off+width]
		}
		dv := fr.vecs[ds]
		dv.Resize(n)
		aggBatchLookup(fr, tb, st, keys, nil, dv.Ptr[:n])
		fr.ctx.Counters.VMOps += int64(n)
		fr.ctx.Counters.HTProbes += int64(n)
	}
}

// aggUpdateOp compiles one aggregate update: per row, fold the value into the
// slot at the group row's payload offset + the slot's runtime offset. One
// monomorphic loop per aggregate function, no per-row call.
func aggUpdateOp(fn ir.AggFunc, gs, vs, stateID int) (exec, error) {
	if fn > ir.AggMaxI32 {
		return nil, fmt.Errorf("unknown aggregate %v", fn)
	}
	return func(fr *frame, n int) {
		off := fr.state[stateID].(*rt.OffsetState).Off
		groups := fr.vecs[gs].Ptr[:n]
		switch fn {
		case ir.AggSumI64:
			aggSumI64(groups, off, fr.vecs[vs].I64[:n])
		case ir.AggSumF64:
			aggSumF64(groups, off, fr.vecs[vs].F64[:n])
		case ir.AggCount:
			aggCount(groups, off)
		case ir.AggCountIf:
			aggCountIf(groups, off, fr.vecs[vs].B[:n])
		case ir.AggMinF64:
			aggMinF64(groups, off, fr.vecs[vs].F64[:n])
		case ir.AggMaxF64:
			aggMaxF64(groups, off, fr.vecs[vs].F64[:n])
		case ir.AggMinI32:
			aggMinI32(groups, off, fr.vecs[vs].I32[:n])
		case ir.AggMaxI32:
			aggMaxI32(groups, off, fr.vecs[vs].I32[:n])
		}
		fr.ctx.Counters.VMOps += int64(n)
	}, nil
}

//inkfuse:hotpath
func aggSumI64(groups [][]byte, off int, v []int64) {
	for i, g := range groups {
		o := rt.RowPayloadOff(g) + off
		rt.PutI64(g, o, rt.GetI64(g, o)+v[i])
	}
}

//inkfuse:hotpath
func aggSumF64(groups [][]byte, off int, v []float64) {
	for i, g := range groups {
		o := rt.RowPayloadOff(g) + off
		rt.PutF64(g, o, rt.GetF64(g, o)+v[i])
	}
}

//inkfuse:hotpath
func aggCount(groups [][]byte, off int) {
	for _, g := range groups {
		o := rt.RowPayloadOff(g) + off
		rt.PutI64(g, o, rt.GetI64(g, o)+1)
	}
}

//inkfuse:hotpath
func aggCountIf(groups [][]byte, off int, v []bool) {
	for i, g := range groups {
		if v[i] {
			o := rt.RowPayloadOff(g) + off
			rt.PutI64(g, o, rt.GetI64(g, o)+1)
		}
	}
}

//inkfuse:hotpath
func aggMinF64(groups [][]byte, off int, v []float64) {
	for i, g := range groups {
		if o := rt.RowPayloadOff(g) + off; v[i] < rt.GetF64(g, o) {
			rt.PutF64(g, o, v[i])
		}
	}
}

//inkfuse:hotpath
func aggMaxF64(groups [][]byte, off int, v []float64) {
	for i, g := range groups {
		if o := rt.RowPayloadOff(g) + off; v[i] > rt.GetF64(g, o) {
			rt.PutF64(g, o, v[i])
		}
	}
}

//inkfuse:hotpath
func aggMinI32(groups [][]byte, off int, v []int32) {
	for i, g := range groups {
		if o := rt.RowPayloadOff(g) + off; v[i] < rt.GetI32(g, o) {
			rt.PutI32(g, o, v[i])
		}
	}
}

//inkfuse:hotpath
func aggMaxI32(groups [][]byte, off int, v []int32) {
	for i, g := range groups {
		if o := rt.RowPayloadOff(g) + off; v[i] > rt.GetI32(g, o) {
			rt.PutI32(g, o, v[i])
		}
	}
}

// gather is one column carried into a filter's or a probe's scope: the
// register it is read from, through the scope's selection, and the scope's
// register it lands in.
type gather struct{ src, dst int }

func (c *compiler) gathers(copies []ir.Copy) ([]gather, error) {
	out := make([]gather, 0, len(copies))
	for _, cp := range copies {
		src, err := c.slot(cp.Src)
		if err != nil {
			return nil, err
		}
		out = append(out, gather{src: src, dst: c.bind(cp.Dst)})
	}
	return out, nil
}

// probeScope is the part of a compiled ProbeStmt that does not depend on
// where the probe keys come from: the scope's registers, the columns carried
// into it and its body. Both compilations of a probe — from a register of
// packed key rows, and fused with the run that packs them (keybuild.go) —
// collect their matches through it.
type probeScope struct {
	stateID int
	mode    ir.JoinMode
	// sel is the match selection's register; build and matched are -1 for the
	// modes that do not bind them. The emitted rows are collected in these
	// registers' own arrays: a register the sink may hand over must not share
	// its array with a buffer the frame fills again.
	sel, build, matched int
	copies              []gather
	body                []exec
}

func (c *compiler) probeScope(s ir.ProbeStmt) (*probeScope, error) {
	ps := &probeScope{stateID: s.StateID, mode: s.Mode, build: -1, matched: -1}
	var err error
	if ps.copies, err = c.gathers(s.Copies); err != nil {
		return nil, err
	}
	ps.sel = c.bind(s.Sel)
	if s.Mode == ir.InnerJoin || s.Mode == ir.LeftOuterJoin {
		ps.build = c.bind(s.Build)
	}
	if s.Mode == ir.LeftOuterJoin {
		ps.matched = c.bind(s.Matched)
	}
	if ps.body, err = c.block(s.Body); err != nil {
		return nil, err
	}
	return ps, nil
}

// matches is the rows a probe emits, under collection: per row the position
// of its probe tuple, and where the mode binds them the matched build row
// (nil for an unmatched outer tuple) and the match marker.
type matches struct {
	sel     []int32
	build   [][]byte
	matched []bool
}

// run finishes a probe of n tuples whose hashes the bloom filter has screened
// (cand and bloomSkips are LookupBatch's results): it collects the emitted
// rows in the scope's registers, gathers the carried columns through the
// selection and executes the body at the scope's cardinality.
func (ps *probeScope) run(fr *frame, tbl *rt.JoinTable, n int, cand []int32, bloomSkips int, keys [][]byte, hashes []uint64) {
	m := ps.collect(fr, tbl, n, cand, keys, hashes)
	fr.vecs[ps.sel].I32 = m.sel
	if ps.build >= 0 {
		fr.vecs[ps.build].Ptr = m.build
	}
	if ps.matched >= 0 {
		fr.vecs[ps.matched].B = m.matched
	}
	for _, g := range ps.copies {
		fr.vecs[g.src].Gather(fr.vecs[g.dst], m.sel)
	}
	out := len(m.sel)
	fr.ctx.Counters.VMOps += int64(n)
	fr.ctx.Counters.HTProbes += int64(n)
	fr.ctx.Counters.HTBloomSkips += int64(bloomSkips)
	fr.ctx.Counters.HTMatches += int64(out)
	runBlock(ps.body, fr, out)
}

func (c *compiler) probe(s ir.ProbeStmt, blk *[]exec) error {
	prs, err := c.slot(s.ProbeRow)
	if err != nil {
		return err
	}
	ps, err := c.probeScope(s)
	if err != nil {
		return err
	}
	batchAux := c.newAux()
	*blk = append(*blk, func(fr *frame, n int) {
		tbl := fr.state[ps.stateID].(*rt.JoinTableState).Table
		tb := auxBatch(fr, batchAux)
		keys := sizedRows(&tb.keys, n)
		for i, pr := range fr.vecs[prs].Ptr[:n] {
			keys[i] = rt.RowKey(pr)
		}
		tb.hashes = rt.HashBatch(keys, tb.hashes)
		cand, skips := tbl.LookupBatch(tb.hashes, tb.pend[:0])
		tb.pend = cand
		ps.run(fr, tbl, n, cand, skips, keys, tb.hashes)
	})
	return nil
}

// collect gathers the rows a probe of n tuples emits, in the scope's (emptied)
// registers. The bloom/tag filter has screened the whole chunk: cand lists,
// ascending, the tuples that may have a match, and only those walk bucket
// memory, with keys[i] and hashes[i] (keys is read at candidates only). For
// anti and outer joins a filter miss is itself the answer — unmatched — so the
// tuples between two candidates are emitted without any table access at all.
func (ps *probeScope) collect(fr *frame, tbl *rt.JoinTable, n int, cand []int32, keys [][]byte, hashes []uint64) matches {
	m := matches{sel: fr.vecs[ps.sel].I32[:0]}
	if ps.build >= 0 {
		m.build = fr.vecs[ps.build].Ptr[:0]
	}
	if ps.matched >= 0 {
		m.matched = fr.vecs[ps.matched].B[:0]
	}
	// pairs: the mode emits a row per match and binds its build row;
	// otherwise (semi, anti) only whether there is one counts.
	pairs := ps.build >= 0
	misses := ps.mode == ir.AntiJoin || ps.mode == ir.LeftOuterJoin
	next := 0 // the first tuple not yet accounted for (misses only)
	for _, ci := range cand {
		i := int(ci)
		if misses {
			for ; next < i; next++ {
				m.unmatched(next, pairs)
			}
			next = i + 1
		}
		hit := false
		it := tbl.Lookup(keys[i], hashes[i])
		for r := it.Next(); r != nil; r = it.Next() {
			hit = true
			if !pairs {
				break
			}
			m.sel = append(m.sel, ci)
			m.build = append(m.build, r)
			if ps.matched >= 0 {
				m.matched = append(m.matched, true)
			}
		}
		switch {
		case hit && ps.mode == ir.SemiJoin:
			m.sel = append(m.sel, ci)
		case !hit && misses:
			m.unmatched(i, pairs)
		}
	}
	if misses {
		for ; next < n; next++ {
			m.unmatched(next, pairs)
		}
	}
	return m
}

// unmatched emits tuple i without a match: an anti join's output row, or —
// outer — an outer join's, with no build row and a false marker.
func (m *matches) unmatched(i int, outer bool) {
	m.sel = append(m.sel, int32(i))
	if outer {
		m.build = append(m.build, nil)
		m.matched = append(m.matched, false)
	}
}
