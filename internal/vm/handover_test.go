package vm

// The sink hands result registers over to an empty tuple buffer instead of
// copying them (DESIGN.md §18). These tests pin the cases where it must not:
// a register listed twice, an input passed straight through, a buffer that
// already holds rows, an emit that is not the last thing the program does —
// and that handing over survives empty and shrinking chunks.

import (
	"slices"
	"testing"

	"inkfuse/internal/ir"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
)

// sumProgram emits a+b in every column listed in cols (0 = the sum, 1 = the
// input a).
func sumProgram(t *testing.T, cols ...int) *Program {
	t.Helper()
	a := ir.Var{ID: 1, K: types.Int64, Name: "a"}
	b := ir.Var{ID: 2, K: types.Int64, Name: "b"}
	sum := ir.Var{ID: 3, K: types.Int64, Name: "sum"}
	emit := ir.EmitStmt{}
	f := &ir.Func{Name: "sum", Ins: []ir.Var{a, b}}
	for _, c := range cols {
		emit.Cols = append(emit.Cols, []ir.Var{sum, a}[c])
		f.OutKinds = append(f.OutKinds, types.Int64)
	}
	f.Body = []ir.Stmt{ir.Assign{Dst: sum, E: ir.BinExpr{Op: ir.Add, L: ir.Ref(a), R: ir.Ref(b)}}, emit}
	p, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func int64Chunk(cols int) *storage.Chunk {
	return storage.NewChunk(slices.Repeat([]types.Kind{types.Int64}, cols))
}

func TestEmitSameRegisterTwice(t *testing.T) {
	p := sumProgram(t, 0, 0)
	ctx, out := NewCtx(), int64Chunk(2)
	for round, in := range [][2][]int64{{{1, 2, 3}, {10, 20, 30}}, {{4, 5}, {40, 50}}} {
		out.Reset()
		n := len(in[0])
		if got := p.Run(ctx, nil, []*storage.Vector{ivec(in[0]...), ivec(in[1]...)}, n, out); got != n || out.Rows() != n {
			t.Fatalf("round %d: emitted %d, chunk holds %d, want %d", round, got, out.Rows(), n)
		}
		for i := 0; i < n; i++ {
			want := in[0][i] + in[1][i]
			if out.Cols[0].I64[i] != want || out.Cols[1].I64[i] != want {
				t.Fatalf("round %d row %d: columns %v / %v, want %d in both", round, i, out.Cols[0].I64, out.Cols[1].I64, want)
			}
		}
		// Two columns, two arrays: writing one must not show in the other.
		out.Cols[0].I64[0] = -1
		if out.Cols[1].I64[0] == -1 {
			t.Fatalf("round %d: the two emitted columns share an array", round)
		}
	}
}

func TestEmitInputStraightToSink(t *testing.T) {
	p := sumProgram(t, 1, 0)
	// The input is a view into a longer column, as a morsel loop binds it: the
	// sink must copy it — handed over, the tuple buffer would own (and later
	// append into) the column's array.
	column := ivec(7, 8, 9, 100, 200, 300)
	view := &storage.Vector{}
	column.SliceInto(view, 0, 3)
	ctx, out := NewCtx(), int64Chunk(2)
	for round := 0; round < 3; round++ {
		out.Reset()
		p.Run(ctx, nil, []*storage.Vector{view, ivec(1, 1, 1)}, 3, out)
		if !slices.Equal(out.Cols[0].I64, []int64{7, 8, 9}) || !slices.Equal(out.Cols[1].I64, []int64{8, 9, 10}) {
			t.Fatalf("round %d: emitted %v / %v", round, out.Cols[0].I64, out.Cols[1].I64)
		}
		// Grow the buffer past the view: had it taken the view's array, this
		// would overwrite the rows behind it.
		out.Cols[0].AppendFrom(ivec(-1, -2, -3, -4), 0, 4)
		out.Cols[0].I64[0] = -9
		if !slices.Equal(column.I64, []int64{7, 8, 9, 100, 200, 300}) || view.Len() != 3 {
			t.Fatalf("round %d: the sink wrote through its input: column %v, view of %d rows", round, column.I64, view.Len())
		}
	}
}

func TestEmitIntoNonEmptyBufferAppends(t *testing.T) {
	// A fused program's output accumulates over the morsel: every call after
	// the first finds rows in it and must append behind them.
	p := sumProgram(t, 0)
	ctx, out := NewCtx(), int64Chunk(1)
	for i := int64(0); i < 4; i++ {
		p.Run(ctx, nil, []*storage.Vector{ivec(i, i), ivec(10, 20)}, 2, out)
	}
	if want := []int64{10, 20, 11, 21, 12, 22, 13, 23}; !slices.Equal(out.Cols[0].I64, want) || out.Rows() != 8 {
		t.Fatalf("accumulated %v (%d rows), want %v", out.Cols[0].I64, out.Rows(), want)
	}
}

func TestEmitEmptyAndShrinkingChunks(t *testing.T) {
	p := sumProgram(t, 0)
	ctx, out := NewCtx(), int64Chunk(1)
	for _, n := range []int{64, 0, 5, 64, 1, 0, 0, 33} {
		a, b := storage.NewVector(types.Int64, n), storage.NewVector(types.Int64, n)
		for i := 0; i < n; i++ {
			a.I64[i], b.I64[i] = int64(i), int64(n)
		}
		out.Reset()
		if got := p.Run(ctx, nil, []*storage.Vector{a, b}, n, out); got != n || out.Rows() != n || out.Cols[0].Len() != n {
			t.Fatalf("n=%d: emitted %d, chunk %d rows, column %d", n, got, out.Rows(), out.Cols[0].Len())
		}
		for i := 0; i < n; i++ {
			if out.Cols[0].I64[i] != int64(i+n) {
				t.Fatalf("n=%d row %d: %d", n, i, out.Cols[0].I64[i])
			}
		}
	}
}

// An emit that is not the last statement executed keeps its registers: what
// runs after it may still read them.
func TestEmitBeforeLaterUseCopies(t *testing.T) {
	a := ir.Var{ID: 1, K: types.Int64, Name: "a"}
	twice := ir.Var{ID: 2, K: types.Int64, Name: "twice"}
	cond := ir.Var{ID: 3, K: types.Bool, Name: "cond"}
	kept := ir.Var{ID: 4, K: types.Int64, Name: "kept"}
	f := &ir.Func{
		Name: "emit_then_filter", Ins: []ir.Var{a}, OutKinds: []types.Kind{types.Int64},
		Body: []ir.Stmt{
			ir.Assign{Dst: twice, E: ir.BinExpr{Op: ir.Add, L: ir.Ref(a), R: ir.Ref(a)}},
			ir.EmitStmt{Cols: []ir.Var{twice}},
			ir.Assign{Dst: cond, E: ir.CmpExpr{Op: ir.Gt, L: ir.Ref(twice), R: ir.Ref(a)}},
			ir.FilterStmt{Cond: cond, Copies: []ir.Copy{{Src: twice, Dst: kept}},
				Body: []ir.Stmt{ir.EmitStmt{Cols: []ir.Var{kept}}}},
		},
	}
	p, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	out := int64Chunk(1)
	if n := p.Run(NewCtx(), nil, []*storage.Vector{ivec(-1, 2, 3)}, 3, out); n != 5 {
		t.Fatalf("emitted %d rows, want 3 + 2", n)
	}
	if want := []int64{-2, 4, 6, 4, 6}; !slices.Equal(out.Cols[0].I64, want) {
		t.Fatalf("emitted %v, want %v", out.Cols[0].I64, want)
	}
}

// Two uses of one primitive share a frame: what the first handed to its tuple
// buffer must survive the second run. The probe's build rows are the case
// that needed care — they used to live in a frame buffer the register aliased.
func TestHandedOverRegistersSurviveTheNextRun(t *testing.T) {
	p := sumProgram(t, 0)
	ctx := NewCtx()
	first, second := int64Chunk(1), int64Chunk(1)
	p.Run(ctx, nil, []*storage.Vector{ivec(1, 2, 3), ivec(1, 1, 1)}, 3, first)
	p.Run(ctx, nil, []*storage.Vector{ivec(50, 60, 70), ivec(5, 5, 5)}, 3, second)
	if !slices.Equal(first.Cols[0].I64, []int64{2, 3, 4}) || !slices.Equal(second.Cols[0].I64, []int64{55, 65, 75}) {
		t.Fatalf("first %v, second %v", first.Cols[0].I64, second.Cols[0].I64)
	}
}
