package vm

import (
	"math"
	"testing"
	"testing/quick"

	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/rt/rttest"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
)

func fvec(vals ...float64) *storage.Vector {
	v := storage.NewVector(types.Float64, len(vals))
	copy(v.F64, vals)
	return v
}

func ivec(vals ...int64) *storage.Vector {
	v := storage.NewVector(types.Int64, len(vals))
	copy(v.I64, vals)
	return v
}

func svec(vals ...string) *storage.Vector {
	v := storage.NewVector(types.String, len(vals))
	copy(v.Str, vals)
	return v
}

// runExpr compiles a one-expression function over the inputs and returns the
// emitted column.
func runExpr(t *testing.T, ins []ir.Var, e ir.Expr, state []any, vecs []*storage.Vector, n int) *storage.Vector {
	t.Helper()
	dst := ir.Var{ID: 100, K: e.Kind(), Name: "out"}
	f := &ir.Func{
		Name: "test",
		Ins:  ins,
		Body: []ir.Stmt{
			ir.Assign{Dst: dst, E: e},
			ir.EmitStmt{Cols: []ir.Var{dst}},
		},
		OutKinds:  []types.Kind{e.Kind()},
		NumStates: len(state),
	}
	p, err := Compile(f)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	out := storage.NewChunk([]types.Kind{e.Kind()})
	ctx := NewCtx()
	if got := p.Run(ctx, state, vecs, n, out); got != n {
		t.Fatalf("emitted %d rows, want %d", got, n)
	}
	return out.Cols[0]
}

func TestArithColCol(t *testing.T) {
	a := ir.Var{ID: 1, K: types.Float64, Name: "a"}
	b := ir.Var{ID: 2, K: types.Float64, Name: "b"}
	for _, c := range []struct {
		op   ir.BinOp
		want []float64
	}{
		{ir.Add, []float64{5, 10}},
		{ir.Sub, []float64{-3, 6}},
		{ir.Mul, []float64{4, 16}},
		{ir.Div, []float64{0.25, 4}},
	} {
		out := runExpr(t, []ir.Var{a, b},
			ir.BinExpr{Op: c.op, L: ir.Ref(a), R: ir.Ref(b)},
			nil, []*storage.Vector{fvec(1, 8), fvec(4, 2)}, 2)
		if out.F64[0] != c.want[0] || out.F64[1] != c.want[1] {
			t.Fatalf("%v: got %v want %v", c.op, out.F64, c.want)
		}
	}
}

func TestArithConstSides(t *testing.T) {
	a := ir.Var{ID: 1, K: types.Int64, Name: "a"}
	state := []any{rt.ConstI64(10)}
	// col - const
	out := runExpr(t, []ir.Var{a},
		ir.BinExpr{Op: ir.Sub, L: ir.Ref(a), R: ir.ConstRef{StateID: 0, K: types.Int64}},
		state, []*storage.Vector{ivec(3, 25)}, 2)
	if out.I64[0] != -7 || out.I64[1] != 15 {
		t.Fatalf("col-const: %v", out.I64)
	}
	// const - col
	out = runExpr(t, []ir.Var{a},
		ir.BinExpr{Op: ir.Sub, L: ir.ConstRef{StateID: 0, K: types.Int64}, R: ir.Ref(a)},
		state, []*storage.Vector{ivec(3, 25)}, 2)
	if out.I64[0] != 7 || out.I64[1] != -15 {
		t.Fatalf("const-col: %v", out.I64)
	}
}

func TestCmpAllOpsProperty(t *testing.T) {
	a := ir.Var{ID: 1, K: types.Int64, Name: "a"}
	b := ir.Var{ID: 2, K: types.Int64, Name: "b"}
	f := func(x, y int64) bool {
		for op := ir.Lt; op <= ir.Gt; op++ {
			out := runExprQuick(a, b, op, x, y)
			var want bool
			switch op {
			case ir.Lt:
				want = x < y
			case ir.Le:
				want = x <= y
			case ir.Eq:
				want = x == y
			case ir.Ne:
				want = x != y
			case ir.Ge:
				want = x >= y
			case ir.Gt:
				want = x > y
			}
			if out != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func runExprQuick(a, b ir.Var, op ir.CmpOp, x, y int64) bool {
	dst := ir.Var{ID: 100, K: types.Bool}
	f := &ir.Func{Ins: []ir.Var{a, b}, Body: []ir.Stmt{
		ir.Assign{Dst: dst, E: ir.CmpExpr{Op: op, L: ir.Ref(a), R: ir.Ref(b)}},
		ir.EmitStmt{Cols: []ir.Var{dst}},
	}}
	p := MustCompile(f)
	out := storage.NewChunk([]types.Kind{types.Bool})
	p.Run(NewCtx(), nil, []*storage.Vector{ivec(x), ivec(y)}, 1, out)
	return out.Cols[0].B[0]
}

func TestStringCompare(t *testing.T) {
	a := ir.Var{ID: 1, K: types.String, Name: "a"}
	state := []any{rt.ConstStr("BUILDING")}
	out := runExpr(t, []ir.Var{a},
		ir.CmpExpr{Op: ir.Eq, L: ir.Ref(a), R: ir.ConstRef{StateID: 0, K: types.String}},
		state, []*storage.Vector{svec("BUILDING", "AUTO", "BUILDING")}, 3)
	if !out.B[0] || out.B[1] || !out.B[2] {
		t.Fatalf("string eq: %v", out.B)
	}
}

func TestLogicNotCase(t *testing.T) {
	a := ir.Var{ID: 1, K: types.Bool, Name: "a"}
	b := ir.Var{ID: 2, K: types.Bool, Name: "b"}
	bvec := func(vals ...bool) *storage.Vector {
		v := storage.NewVector(types.Bool, len(vals))
		copy(v.B, vals)
		return v
	}
	and := runExpr(t, []ir.Var{a, b}, ir.LogicExpr{Op: ir.And, L: ir.Ref(a), R: ir.Ref(b)},
		nil, []*storage.Vector{bvec(true, true, false), bvec(true, false, true)}, 3)
	if !and.B[0] || and.B[1] || and.B[2] {
		t.Fatalf("and: %v", and.B)
	}
	or := runExpr(t, []ir.Var{a, b}, ir.LogicExpr{Op: ir.Or, L: ir.Ref(a), R: ir.Ref(b)},
		nil, []*storage.Vector{bvec(false, true, false), bvec(false, false, true)}, 3)
	if or.B[0] || !or.B[1] || !or.B[2] {
		t.Fatalf("or: %v", or.B)
	}
	not := runExpr(t, []ir.Var{a}, ir.NotExpr{E: ir.Ref(a)},
		nil, []*storage.Vector{bvec(true, false)}, 2)
	if not.B[0] || !not.B[1] {
		t.Fatalf("not: %v", not.B)
	}

	// CASE with const then-arm.
	v := ir.Var{ID: 3, K: types.Float64, Name: "v"}
	state := []any{rt.ConstF64(0)}
	sel := runExpr(t, []ir.Var{a, v},
		ir.CondExpr{Cond: ir.Ref(a), Then: ir.Ref(v), Else: ir.ConstRef{StateID: 0, K: types.Float64}},
		state, []*storage.Vector{bvec(true, false), fvec(3.5, 7.5)}, 2)
	if sel.F64[0] != 3.5 || sel.F64[1] != 0 {
		t.Fatalf("case: %v", sel.F64)
	}
}

func TestCasts(t *testing.T) {
	a32 := ir.Var{ID: 1, K: types.Int32, Name: "a"}
	v32 := storage.NewVector(types.Int32, 2)
	v32.I32[0], v32.I32[1] = -5, 7
	out := runExpr(t, []ir.Var{a32}, ir.CastExpr{To: types.Int64, E: ir.Ref(a32)},
		nil, []*storage.Vector{v32}, 2)
	if out.I64[0] != -5 || out.I64[1] != 7 {
		t.Fatalf("i32->i64: %v", out.I64)
	}
	outF := runExpr(t, []ir.Var{a32}, ir.CastExpr{To: types.Float64, E: ir.Ref(a32)},
		nil, []*storage.Vector{v32}, 2)
	if outF.F64[0] != -5 {
		t.Fatalf("i32->f64: %v", outF.F64)
	}
	a64 := ir.Var{ID: 2, K: types.Int64, Name: "b"}
	outF2 := runExpr(t, []ir.Var{a64}, ir.CastExpr{To: types.Float64, E: ir.Ref(a64)},
		nil, []*storage.Vector{ivec(9)}, 1)
	if outF2.F64[0] != 9 {
		t.Fatalf("i64->f64: %v", outF2.F64)
	}
}

func TestLikeAndInList(t *testing.T) {
	s := ir.Var{ID: 1, K: types.String, Name: "s"}
	state := []any{
		&rt.LikeState{M: rt.NewLikeMatcher("PROMO%")},
		rt.NewInList("AIR", "RAIL"),
	}
	like := runExpr(t, []ir.Var{s}, ir.LikeExpr{S: ir.Ref(s), StateID: 0},
		state, []*storage.Vector{svec("PROMO TIN", "STANDARD", "PROMOX")}, 3)
	if !like.B[0] || like.B[1] || !like.B[2] {
		t.Fatalf("like: %v", like.B)
	}
	nlike := runExpr(t, []ir.Var{s}, ir.LikeExpr{S: ir.Ref(s), StateID: 0, Negate: true},
		state, []*storage.Vector{svec("PROMO TIN", "STANDARD")}, 2)
	if nlike.B[0] || !nlike.B[1] {
		t.Fatalf("notlike: %v", nlike.B)
	}
	in := runExpr(t, []ir.Var{s}, ir.InListExpr{S: ir.Ref(s), StateID: 1},
		state, []*storage.Vector{svec("AIR", "SHIP", "RAIL")}, 3)
	if !in.B[0] || in.B[1] || !in.B[2] {
		t.Fatalf("inlist: %v", in.B)
	}
}

func TestFilterCompaction(t *testing.T) {
	a := ir.Var{ID: 1, K: types.Int64, Name: "a"}
	cond := ir.Var{ID: 2, K: types.Bool, Name: "c"}
	inner := ir.Var{ID: 3, K: types.Int64, Name: "a2"}
	f := &ir.Func{
		Ins: []ir.Var{a},
		Body: []ir.Stmt{
			ir.Assign{Dst: cond, E: ir.CmpExpr{Op: ir.Gt, L: ir.Ref(a), R: ir.ConstRef{StateID: 0, K: types.Int64}}},
			ir.FilterStmt{
				Cond:   cond,
				Copies: []ir.Copy{{Dst: inner, Src: a}},
				Body:   []ir.Stmt{ir.EmitStmt{Cols: []ir.Var{inner}}},
			},
		},
		NumStates: 1,
	}
	p := MustCompile(f)
	out := storage.NewChunk([]types.Kind{types.Int64})
	n := p.Run(NewCtx(), []any{rt.ConstI64(10)}, []*storage.Vector{ivec(5, 15, 10, 30)}, 4, out)
	if n != 2 || out.Cols[0].I64[0] != 15 || out.Cols[0].I64[1] != 30 {
		t.Fatalf("filter: n=%d %v", n, out.Cols[0].I64)
	}
	// All-false filter emits nothing.
	out.Reset()
	n = p.Run(NewCtx(), []any{rt.ConstI64(100)}, []*storage.Vector{ivec(5, 15)}, 2, out)
	if n != 0 {
		t.Fatalf("all-false filter emitted %d", n)
	}
}

func TestAggPipelineEndToEnd(t *testing.T) {
	// Pack key (i64), lookup, sum + count; then verify table contents.
	key := ir.Var{ID: 1, K: types.Int64, Name: "k"}
	val := ir.Var{ID: 2, K: types.Float64, Name: "v"}
	row0 := ir.Var{ID: 3, K: types.Ptr, Name: "r0"}
	row1 := ir.Var{ID: 4, K: types.Ptr, Name: "r1"}
	row2 := ir.Var{ID: 5, K: types.Ptr, Name: "r2"}
	grp := ir.Var{ID: 6, K: types.Ptr, Name: "g"}

	layout := &rt.RowLayoutState{KeyFixed: 8}
	init := make([]byte, 16)
	agg := &rt.AggTableState{Init: init, Shards: 2, Merge: []rt.AggMerge{
		{Op: rt.MergeSumF64, Off: 0}, {Op: rt.MergeSumI64, Off: 8},
	}}
	f := &ir.Func{
		Ins: []ir.Var{key, val},
		Body: []ir.Stmt{
			ir.MakeRow{Dst: row0, StateID: 0},
			ir.PackFixed{Dst: row1, Row: row0, Region: ir.KeyRegion, StateID: 1, Val: ir.Ref(key)},
			ir.SealKey{Dst: row2, Row: row1, StateID: 0},
			ir.AggLookup{Dst: grp, Row: row2, StateID: 2},
			ir.AggUpdate{Group: grp, Fn: ir.AggSumF64, StateID: 3, Val: ir.Ref(val)},
			ir.AggUpdate{Group: grp, Fn: ir.AggCount, StateID: 4},
		},
		NumStates: 5,
	}
	state := []any{layout, &rt.OffsetState{Off: 0, Layout: layout}, agg,
		&rt.OffsetState{Off: 0}, &rt.OffsetState{Off: 8}}
	p := MustCompile(f)
	ctx := NewCtx()
	p.Run(ctx, state, []*storage.Vector{ivec(1, 2, 1, 1), fvec(1.5, 2.5, 3.5, 4.5)}, 4, nil)
	tbl := ctx.AggTable(agg)
	if tbl.Groups() != 2 {
		t.Fatalf("groups = %d", tbl.Groups())
	}
	for _, row := range tbl.Snapshot() {
		k := rt.GetI64(rt.RowKey(row), 0)
		sum := rt.GetF64(row, rt.RowPayloadOff(row))
		cnt := rt.GetI64(row, rt.RowPayloadOff(row)+8)
		switch k {
		case 1:
			if math.Abs(sum-9.5) > 1e-12 || cnt != 3 {
				t.Fatalf("key 1: sum=%v cnt=%d", sum, cnt)
			}
		case 2:
			if sum != 2.5 || cnt != 1 {
				t.Fatalf("key 2: sum=%v cnt=%d", sum, cnt)
			}
		default:
			t.Fatalf("unexpected key %d", k)
		}
	}

	// Reset keeps the table for the plan instance's next execution, emptied:
	// until that execution touches the aggregation the worker has built
	// nothing, and then it builds into the same table.
	if ctx.BuiltAggTable(agg) != tbl {
		t.Fatal("the scheduler must be handed the table the worker built")
	}
	ctx.Reset()
	if ctx.BuiltAggTable(agg) != nil || ctx.Counters.HTProbes != 0 {
		t.Fatal("after Reset the worker has built nothing")
	}
	p.Run(ctx, state, []*storage.Vector{ivec(7), fvec(1)}, 1, nil)
	if got := ctx.BuiltAggTable(agg); got != tbl || got.Groups() != 1 {
		t.Fatalf("second execution must rebuild in the kept table, emptied: %d groups", got.Groups())
	}
}

func buildJoinTable(keys []int64) *rt.JoinTableState {
	jt := &rt.JoinTableState{Table: rt.NewJoinTable(2)}
	for _, k := range keys {
		blob := make([]byte, 8)
		rt.PutI64(blob, 0, k)
		payload := make([]byte, 8)
		rt.PutI64(payload, 0, k*100)
		rttest.InsertJoin(jt.Table, blob, payload)
	}
	jt.Table.Seal()
	return jt
}

// probeFunc builds a probe step: pack probe key, probe, carry the key column
// into the match scope, unpack build payload.
func probeFunc(mode ir.JoinMode, jtState, layoutState, offState, unpackState int) *ir.Func {
	key := ir.Var{ID: 1, K: types.Int64, Name: "k"}
	r0 := ir.Var{ID: 2, K: types.Ptr, Name: "r0"}
	r1 := ir.Var{ID: 3, K: types.Ptr, Name: "r1"}
	r2 := ir.Var{ID: 4, K: types.Ptr, Name: "r2"}
	build := ir.Var{ID: 5, K: types.Ptr, Name: "build"}
	sel := ir.Var{ID: 6, K: types.Int32, Name: "sel"}
	matched := ir.Var{ID: 7, K: types.Bool, Name: "m"}
	pv := ir.Var{ID: 8, K: types.Int64, Name: "pv"}
	pk := ir.Var{ID: 9, K: types.Int64, Name: "pk"}

	var body, probeBody []ir.Stmt
	emit := []ir.Var{pk}
	if mode != ir.SemiJoin {
		probeBody = append(probeBody,
			ir.Assign{Dst: pv, E: ir.UnpackFixed{Row: ir.Ref(build), Region: ir.PayloadRegion, StateID: unpackState, K: types.Int64}})
		emit = append(emit, pv)
	}
	if mode == ir.LeftOuterJoin {
		emit = append(emit, matched)
	}
	probeBody = append(probeBody, ir.EmitStmt{Cols: emit})
	body = append(body,
		ir.MakeRow{Dst: r0, StateID: layoutState},
		ir.PackFixed{Dst: r1, Row: r0, Region: ir.KeyRegion, StateID: offState, Val: ir.Ref(key)},
		ir.SealKey{Dst: r2, Row: r1, StateID: layoutState},
		ir.ProbeStmt{StateID: jtState, Mode: mode, ProbeRow: r2,
			Build: build, Sel: sel, Matched: matched,
			Copies: []ir.Copy{{Dst: pk, Src: key}}, Body: probeBody},
	)
	kinds := []types.Kind{types.Int64}
	if mode != ir.SemiJoin {
		kinds = append(kinds, types.Int64)
	}
	if mode == ir.LeftOuterJoin {
		kinds = append(kinds, types.Bool)
	}
	return &ir.Func{Ins: []ir.Var{key}, Body: body, OutKinds: kinds, NumStates: 4}
}

func TestJoinProbeModes(t *testing.T) {
	jt := buildJoinTable([]int64{1, 1, 3}) // key 1 twice, key 3 once
	layout := &rt.RowLayoutState{KeyFixed: 8}
	state := []any{jt, layout, &rt.OffsetState{Off: 0, Layout: layout}, &rt.OffsetState{Off: 0}}

	run := func(mode ir.JoinMode) *storage.Chunk {
		f := probeFunc(mode, 0, 1, 2, 3)
		p := MustCompile(f)
		out := storage.NewChunk(f.OutKinds)
		p.Run(NewCtx(), state, []*storage.Vector{ivec(1, 2, 3)}, 3, out)
		return out
	}

	inner := run(ir.InnerJoin)
	if inner.Rows() != 3 { // key1 x2 + key3 x1
		t.Fatalf("inner rows = %d", inner.Rows())
	}
	for i := 0; i < inner.Rows(); i++ {
		k := inner.Cols[0].I64[i]
		if inner.Cols[1].I64[i] != k*100 {
			t.Fatalf("inner payload mismatch at %d", i)
		}
	}

	semi := run(ir.SemiJoin)
	if semi.Rows() != 2 || semi.Cols[0].I64[0] != 1 || semi.Cols[0].I64[1] != 3 {
		t.Fatalf("semi rows: %v", semi.Cols[0].I64[:semi.Rows()])
	}

	outer := run(ir.LeftOuterJoin)
	if outer.Rows() != 4 { // 2 matches for 1, null for 2, 1 match for 3
		t.Fatalf("outer rows = %d", outer.Rows())
	}
	nulls := 0
	for i := 0; i < outer.Rows(); i++ {
		if !outer.Cols[2].B[i] {
			nulls++
			if outer.Cols[0].I64[i] != 2 || outer.Cols[1].I64[i] != 0 {
				t.Fatalf("unmatched row wrong: %v %v", outer.Cols[0].I64[i], outer.Cols[1].I64[i])
			}
		}
	}
	if nulls != 1 {
		t.Fatalf("unmatched count = %d", nulls)
	}
}

func TestPrefetchStmt(t *testing.T) {
	jt := buildJoinTable([]int64{1, 2})
	layout := &rt.RowLayoutState{KeyFixed: 8}
	key := ir.Var{ID: 1, K: types.Int64}
	r0 := ir.Var{ID: 2, K: types.Ptr}
	r1 := ir.Var{ID: 3, K: types.Ptr}
	r2 := ir.Var{ID: 4, K: types.Ptr}
	f := &ir.Func{
		Ins: []ir.Var{key},
		Body: []ir.Stmt{
			ir.MakeRow{Dst: r0, StateID: 1},
			ir.PackFixed{Dst: r1, Row: r0, Region: ir.KeyRegion, StateID: 2, Val: ir.Ref(key)},
			ir.SealKey{Dst: r2, Row: r1, StateID: 1},
			ir.Prefetch{Row: r2, StateID: 0},
		},
		NumStates: 3,
	}
	p := MustCompile(f)
	state := []any{jt, layout, &rt.OffsetState{Off: 0, Layout: layout}}
	// Must simply not crash and count ops.
	ctx := NewCtx()
	p.Run(ctx, state, []*storage.Vector{ivec(1, 2, 99)}, 3, nil)
	if ctx.Counters.VMOps == 0 {
		t.Fatal("prefetch counted no ops")
	}
}

func TestCompileErrors(t *testing.T) {
	unbound := ir.Var{ID: 9, K: types.Int64}
	f := &ir.Func{Body: []ir.Stmt{ir.EmitStmt{Cols: []ir.Var{unbound}}}}
	if _, err := Compile(f); err == nil {
		t.Fatal("expected error for unbound var")
	}
	bad := &ir.Func{Body: []ir.Stmt{
		ir.Assign{Dst: ir.Var{ID: 1, K: types.Int64},
			E: ir.BinExpr{Op: ir.Add,
				L: ir.Ref(ir.Var{ID: 2, K: types.String}),
				R: ir.Ref(ir.Var{ID: 3, K: types.String})}},
	}}
	if _, err := Compile(bad); err == nil {
		t.Fatal("expected error for string arithmetic")
	}
}

func TestProgramSharedAcrossCtxs(t *testing.T) {
	// The same compiled Program must be usable from multiple worker
	// contexts without interference (the primitive cache is shared).
	a := ir.Var{ID: 1, K: types.Float64}
	dst := ir.Var{ID: 2, K: types.Float64}
	f := &ir.Func{Ins: []ir.Var{a}, Body: []ir.Stmt{
		ir.Assign{Dst: dst, E: ir.BinExpr{Op: ir.Mul, L: ir.Ref(a), R: ir.ConstRef{StateID: 0, K: types.Float64}}},
		ir.EmitStmt{Cols: []ir.Var{dst}},
	}, NumStates: 1}
	p := MustCompile(f)
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func(w int) {
			ctx := NewCtx()
			state := []any{rt.ConstF64(float64(w + 1))}
			ok := true
			for i := 0; i < 500; i++ {
				out := storage.NewChunk([]types.Kind{types.Float64})
				p.Run(ctx, state, []*storage.Vector{fvec(2)}, 1, out)
				if out.Cols[0].F64[0] != 2*float64(w+1) {
					ok = false
				}
			}
			done <- ok
		}(w)
	}
	for w := 0; w < 4; w++ {
		if !<-done {
			t.Fatal("cross-context interference")
		}
	}
}
