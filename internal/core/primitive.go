package core

import (
	"fmt"

	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/types"
)

// BuildPrimitive wraps a single suboperator between a tuple-buffer source and
// sink and runs it through the regular compilation stack, yielding the
// suboperator's vectorized primitive (paper §III, step (2)-(3)). The
// vectorized interpreter is generated this way for every enumerated
// suboperator at engine startup.
func BuildPrimitive(op SubOp) (*ir.Func, error) {
	id := op.PrimitiveID()
	if id == "" {
		return nil, fmt.Errorf("core: suboperator has no primitive form")
	}
	d := op.Desc()
	g := NewGen("prim_" + id)
	for _, iu := range d.Inputs() {
		g.BindInput(iu)
	}
	// The filter-copy primitive embeds its branch: the scope suboperator has
	// no primitive of its own (paper §IV-B).
	if fc, ok := op.(*FilterCopy); ok {
		if err := g.consume(&FilterScope{Cond: fc.Cond}); err != nil {
			return nil, err
		}
	}
	if err := g.consume(op); err != nil {
		return nil, fmt.Errorf("core: primitive %s: %w", id, err)
	}
	f, _, err := g.Finish(d.Outputs())
	return f, err
}

// Enumerate returns one prototype instance of every possible suboperator
// instantiation — the concrete witness of the enumeration invariant
// (paper §IV-A). The engine generates the complete vectorized interpreter by
// building a primitive for each returned suboperator.
//
//inklint:enumerate core.SubOp
func Enumerate() []SubOp {
	var out []SubOp

	iu := func(k types.Kind) *IU { return NewIU(k, "p") }
	dummyConst := func(k types.Kind) *rt.ConstState { return &rt.ConstState{Kind: k} }

	// Source materialization: one scan primitive per kind, plus the packed
	// group rows of aggregate scans.
	scanKinds := append([]types.Kind{}, types.ScalarKinds...)
	scanKinds = append(scanKinds, types.Ptr)
	for _, k := range scanKinds {
		out = append(out, &ScanCol{Src: iu(k), Dst: iu(k)})
	}

	// Arithmetic: op x kind x operand sides (column/column, column/constant,
	// constant/column).
	arithKinds := []types.Kind{types.Int32, types.Int64, types.Float64}
	for _, op := range []ir.BinOp{ir.Add, ir.Sub, ir.Mul, ir.Div} {
		for _, k := range arithKinds {
			out = append(out,
				&Arith{Op: op, L: Col(iu(k)), R: Col(iu(k)), Out: iu(k)},
				&Arith{Op: op, L: Col(iu(k)), R: ConstOf(dummyConst(k)), Out: iu(k)},
				&Arith{Op: op, L: ConstOf(dummyConst(k)), R: Col(iu(k)), Out: iu(k)},
			)
		}
	}

	// Comparisons.
	cmpKinds := []types.Kind{types.Int32, types.Int64, types.Float64, types.Date, types.String}
	for op := ir.Lt; op <= ir.Gt; op++ {
		for _, k := range cmpKinds {
			out = append(out,
				&Cmp{Op: op, L: Col(iu(k)), R: Col(iu(k)), Out: iu(types.Bool)},
				&Cmp{Op: op, L: Col(iu(k)), R: ConstOf(dummyConst(k)), Out: iu(types.Bool)},
				&Cmp{Op: op, L: ConstOf(dummyConst(k)), R: Col(iu(k)), Out: iu(types.Bool)},
			)
		}
	}

	// Boolean connectives.
	out = append(out,
		&Logic{Op: ir.And, L: iu(types.Bool), R: iu(types.Bool), Out: iu(types.Bool)},
		&Logic{Op: ir.Or, L: iu(types.Bool), R: iu(types.Bool), Out: iu(types.Bool)},
		&Not{In: iu(types.Bool), Out: iu(types.Bool)},
	)

	// Casts.
	for _, c := range [][2]types.Kind{
		{types.Int32, types.Int64},
		{types.Int32, types.Float64},
		{types.Int64, types.Float64},
		{types.Int64, types.Int32},
	} {
		out = append(out, &Cast{In: iu(c[0]), Out: iu(c[1])})
	}

	// String predicates and normalization.
	out = append(out,
		&Like{In: iu(types.String), State: &rt.LikeState{M: rt.NewLikeMatcher("%")}, Out: iu(types.Bool)},
		&Like{In: iu(types.String), State: &rt.LikeState{M: rt.NewLikeMatcher("%")}, Negate: true, Out: iu(types.Bool)},
		&InList{In: iu(types.String), State: rt.NewInList(), Out: iu(types.Bool)},
		&ToLower{In: iu(types.String), Out: iu(types.String)},
	)

	// Dictionary codes: constant predicates as a code → bool table, and the
	// decode back to the string.
	out = append(out,
		&CodeMatch{In: iu(types.Int32), State: &rt.CodeTableState{}, Out: iu(types.Bool)},
		&Decode{In: iu(types.Int32), State: &rt.DictState{}, Out: iu(types.String)},
	)

	// CASE WHEN: kind x then/else operand sides. Fresh IUs per prototype:
	// a prototype's inputs must be distinct.
	for _, k := range types.ScalarKinds {
		side := func(isCol bool) Operand {
			if isCol {
				return Col(iu(k))
			}
			return ConstOf(dummyConst(k))
		}
		for _, tCol := range []bool{true, false} {
			for _, eCol := range []bool{true, false} {
				out = append(out, &Case{Cond: iu(types.Bool), Then: side(tCol), Else: side(eCol), Out: iu(k)})
			}
		}
	}

	// Filter copies: one per copied kind (paper Fig 4).
	fcKinds := append([]types.Kind{}, types.ScalarKinds...)
	fcKinds = append(fcKinds, types.Ptr)
	for _, k := range fcKinds {
		out = append(out, &FilterCopy{Cond: iu(types.Bool), Src: iu(k), Dst: iu(k)})
	}

	// Packed-row building.
	layout := &rt.RowLayoutState{}
	out = append(out,
		&MakeRow{Anchor: iu(types.Int64), Layout: layout, Out: iu(types.Ptr)},
		&SealKey{Row: iu(types.Ptr), Layout: layout, Out: iu(types.Ptr)},
	)
	for _, region := range []ir.Region{ir.KeyRegion, ir.PayloadRegion} {
		for _, k := range types.FixedKinds {
			out = append(out, &PackFixed{Row: iu(types.Ptr), Val: iu(k), Region: region,
				Off: &rt.OffsetState{Layout: layout}, Out: iu(types.Ptr)})
		}
		out = append(out, &PackStr{Row: iu(types.Ptr), Val: iu(types.String), Region: region,
			Off: &rt.OffsetState{Layout: layout}, Out: iu(types.Ptr)})
	}

	// Aggregation, including the single-column key fast path.
	out = append(out, &AggLookup{Row: iu(types.Ptr), State: &rt.AggTableState{}, Out: iu(types.Ptr)})
	for _, k := range types.FixedKinds {
		out = append(out, &AggLookupFixed{Key: iu(k), State: &rt.AggTableState{}, Out: iu(types.Ptr)})
	}
	for fn := ir.AggSumI64; fn <= ir.AggMaxI32; fn++ {
		u := &AggUpdate{Group: iu(types.Ptr), Fn: fn, Off: &rt.OffsetState{}}
		if vk := fn.ValueKind(); vk != types.Invalid {
			u.Val = iu(vk)
		}
		out = append(out, u)
	}

	// Joins.
	jt := &rt.JoinTableState{}
	out = append(out,
		&JoinInsert{Row: iu(types.Ptr), State: jt},
		&Prefetch{Row: iu(types.Ptr), State: jt},
	)
	for _, mode := range []ir.JoinMode{ir.InnerJoin, ir.SemiJoin, ir.LeftOuterJoin, ir.AntiJoin} {
		out = append(out, &JoinProbe{
			Row: iu(types.Ptr), State: jt, Mode: mode,
			BuildOut: iu(types.Ptr), SelOut: iu(types.Int32), MatchedOut: iu(types.Bool),
		})
	}
	// Probe copies: one per kind a probe-side column can have (packed rows
	// never cross a probe: their columns are unpacked first).
	for _, k := range types.ScalarKinds {
		out = append(out, &ProbeCopy{Sel: iu(types.Int32), Src: iu(k), Dst: iu(k)})
	}

	// Unpacking.
	for _, region := range []ir.Region{ir.KeyRegion, ir.PayloadRegion} {
		for _, k := range types.FixedKinds {
			out = append(out, &UnpackFixed{Row: iu(types.Ptr), Region: region,
				Off: &rt.OffsetState{}, Out: iu(k)})
		}
		out = append(out, &UnpackStr{Row: iu(types.Ptr), Region: region,
			Slot: &rt.VarSlotState{}, Out: iu(types.String)})
	}

	return out
}
