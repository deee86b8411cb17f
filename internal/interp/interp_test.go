package interp

import (
	"strings"
	"testing"

	"inkfuse/internal/core"
	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/rt/rttest"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
	"inkfuse/internal/vm"
)

func registry(t *testing.T) *Registry {
	t.Helper()
	reg, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestRegistryComplete(t *testing.T) {
	reg := registry(t)
	// Every enumerated suboperator must resolve (this is the executable form
	// of "the engine can be sure a suitable primitive was generated ahead of
	// time", paper §V-A).
	for _, op := range core.Enumerate() {
		if _, ok := reg.Get(op.PrimitiveID()); !ok {
			t.Errorf("no primitive for %q", op.PrimitiveID())
		}
		if _, ok := reg.Func(op.PrimitiveID()); !ok {
			t.Errorf("no IR for %q", op.PrimitiveID())
		}
	}
	// The benchmark reports this number as interp.primitives: adding or
	// removing a primitive is a deliberate act that updates it here.
	if reg.Len() != 229 {
		t.Fatalf("registry holds %d primitives, want 229", reg.Len())
	}
	if len(reg.IDs()) != reg.Len() {
		t.Fatal("IDs() inconsistent")
	}
}

func TestRegistryPrimitivesAreC(t *testing.T) {
	reg := registry(t)
	f, ok := reg.Func("expr_add_f64_cc")
	if !ok {
		t.Fatal("missing canonical primitive")
	}
	c := ir.EmitC(f)
	if !strings.Contains(c, "(p_") || !strings.Contains(c, "for (int64_t i") {
		t.Fatalf("unexpected C:\n%s", c)
	}
}

func TestRunSimpleExpression(t *testing.T) {
	reg := registry(t)
	a := core.NewIU(types.Float64, "a")
	b := core.NewIU(types.Float64, "b")
	sum := core.NewIU(types.Float64, "sum")
	dbl := core.NewIU(types.Float64, "dbl")
	two := rt.ConstF64(2)
	ops := []core.SubOp{
		&core.Arith{Op: ir.Add, L: core.Col(a), R: core.Col(b), Out: sum},
		&core.Arith{Op: ir.Mul, L: core.Col(sum), R: core.ConstOf(two), Out: dbl},
	}
	run, err := NewRun(reg, []*core.IU{a, b}, ops, []*core.IU{dbl})
	if err != nil {
		t.Fatal(err)
	}
	av := storage.NewVector(types.Float64, 3)
	bv := storage.NewVector(types.Float64, 3)
	copy(av.F64, []float64{1, 2, 3})
	copy(bv.F64, []float64{10, 20, 30})
	out := storage.NewChunk([]types.Kind{types.Float64})
	ctx := vm.NewCtx()
	n := run.RunChunk(ctx, []*storage.Vector{av, bv}, 3, out)
	if n != 3 || out.Cols[0].F64[0] != 22 || out.Cols[0].F64[2] != 66 {
		t.Fatalf("interp result: n=%d %v", n, out.Cols[0].F64)
	}
	if ctx.Counters.PrimitiveCalls == 0 || ctx.Counters.MaterializedBytes == 0 {
		t.Fatal("interp did not account primitive calls / materialization")
	}
}

func TestRunFilterCardinality(t *testing.T) {
	reg := registry(t)
	a := core.NewIU(types.Int64, "a")
	cond := core.NewIU(types.Bool, "cond")
	inner := core.NewIU(types.Int64, "inner")
	thr := rt.ConstI64(5)
	ops := []core.SubOp{
		&core.Cmp{Op: ir.Gt, L: core.Col(a), R: core.ConstOf(thr), Out: cond},
		&core.FilterScope{Cond: cond},
		&core.FilterCopy{Cond: cond, Src: a, Dst: inner},
	}
	run, err := NewRun(reg, []*core.IU{a}, ops, []*core.IU{inner})
	if err != nil {
		t.Fatal(err)
	}
	av := storage.NewVector(types.Int64, 4)
	copy(av.I64, []int64{3, 7, 5, 9})
	out := storage.NewChunk([]types.Kind{types.Int64})
	n := run.RunChunk(vm.NewCtx(), []*storage.Vector{av}, 4, out)
	if n != 2 || out.Cols[0].I64[0] != 7 || out.Cols[0].I64[1] != 9 {
		t.Fatalf("filter interp: n=%d %v", n, out.Cols[0].I64)
	}
}

func TestRunExplodingJoinGrowsOutput(t *testing.T) {
	// One probe row with many matches: the output chunk must grow past the
	// input cardinality (the exponentially growing sink, paper §IV-E), and the
	// probe copy gathers a 2-row column through a 1000-entry selection.
	reg := registry(t)
	jt := &rt.JoinTableState{Table: rt.NewJoinTable(2)}
	key := make([]byte, 8)
	rt.PutI64(key, 0, 1)
	for i := 0; i < 1000; i++ {
		payload := make([]byte, 8)
		rt.PutI64(payload, 0, int64(i))
		rttest.InsertJoin(jt.Table, key, payload)
	}
	jt.Table.Seal()

	k := core.NewIU(types.Int64, "k")
	layout := &rt.RowLayoutState{KeyFixed: 8}
	r0 := core.NewIU(types.Ptr, "r0")
	r1 := core.NewIU(types.Ptr, "r1")
	r2 := core.NewIU(types.Ptr, "r2")
	build := core.NewIU(types.Ptr, "build")
	sel := core.NewIU(types.Int32, "sel")
	kIn := core.NewIU(types.Int64, "k")
	val := core.NewIU(types.Int64, "val")
	ops := []core.SubOp{
		&core.MakeRow{Anchor: k, Layout: layout, Out: r0},
		&core.PackFixed{Row: r0, Val: k, Region: ir.KeyRegion, Off: &rt.OffsetState{Layout: layout}, Out: r1},
		&core.SealKey{Row: r1, Layout: layout, Out: r2},
		&core.JoinProbe{Row: r2, State: jt, Mode: ir.InnerJoin, BuildOut: build, SelOut: sel, MatchedOut: core.NewIU(types.Bool, "m")},
		&core.ProbeCopy{Sel: sel, Src: k, Dst: kIn},
		&core.UnpackFixed{Row: build, Region: ir.PayloadRegion, Off: &rt.OffsetState{}, Out: val},
	}
	run, err := NewRun(reg, []*core.IU{k}, ops, []*core.IU{val, kIn})
	if err != nil {
		t.Fatal(err)
	}
	kv := storage.NewVector(types.Int64, 2)
	kv.I64[0], kv.I64[1] = 2, 1 // key 2 has no matches
	out := storage.NewChunk([]types.Kind{types.Int64, types.Int64})
	n := run.RunChunk(vm.NewCtx(), []*storage.Vector{kv}, 2, out)
	if n != 1000 {
		t.Fatalf("exploding join produced %d rows, want 1000", n)
	}
	seen := map[int64]bool{}
	for i := 0; i < n; i++ {
		seen[out.Cols[0].I64[i]] = true
		if out.Cols[1].I64[i] != 1 {
			t.Fatalf("row %d carries probe key %d, want 1", i, out.Cols[1].I64[i])
		}
	}
	if len(seen) != 1000 {
		t.Fatalf("distinct payloads = %d", len(seen))
	}
}

func TestNewRunRejectsUnknownInputs(t *testing.T) {
	reg := registry(t)
	a := core.NewIU(types.Int64, "a")
	orphan := core.NewIU(types.Int64, "orphan")
	out := core.NewIU(types.Int64, "out")
	ops := []core.SubOp{&core.Arith{Op: ir.Add, L: core.Col(a), R: core.Col(orphan), Out: out}}
	if _, err := NewRun(reg, []*core.IU{a}, ops, []*core.IU{out}); err == nil {
		t.Fatal("expected unmaterialized-IU error")
	}
}
