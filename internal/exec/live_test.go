package exec

import (
	"testing"

	"inkfuse/internal/core"
	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/types"
)

// TestSplitSteps checks the ROF staging-point liveness analysis: each step
// must read exactly what earlier steps materialized and materialize exactly
// what later steps (or the result) need.
func TestSplitSteps(t *testing.T) {
	a := core.NewIU(types.Int64, "a")
	b := core.NewIU(types.Float64, "b")
	c1 := core.NewIU(types.Float64, "c1") // a-derived
	c2 := core.NewIU(types.Float64, "c2") // consumed after split
	c3 := core.NewIU(types.Float64, "c3")
	dead := core.NewIU(types.Float64, "dead") // never consumed downstream

	konst := core.ConstOf(rt.ConstF64(2))
	op1 := &core.Arith{Op: ir.Mul, L: core.Col(b), R: konst, Out: c1}
	op2 := &core.Arith{Op: ir.Add, L: core.Col(c1), R: core.Col(b), Out: c2}
	opDead := &core.Arith{Op: ir.Mul, L: core.Col(b), R: core.ConstOf(rt.ConstF64(3)), Out: dead}
	op3 := &core.Arith{Op: ir.Add, L: core.Col(c2), R: core.Col(b), Out: c3}

	ops := []core.SubOp{op1, op2, opDead, op3}
	// Split before op3.
	steps := splitSteps([]*core.IU{a, b}, ops, []*core.IU{c3, a},
		func(i int, op core.SubOp) bool { return op == op3 })
	if len(steps) != 2 {
		t.Fatalf("steps = %d", len(steps))
	}
	// Step 1 must materialize exactly {a, b, c2}: a for the result, b and c2
	// for op3; c1 and dead must not cross the boundary.
	emit := map[string]bool{}
	for _, iu := range steps[0].emit {
		emit[iu.Name] = true
	}
	if !emit["a"] || !emit["b"] || !emit["c2"] || emit["c1"] || emit["dead"] {
		t.Fatalf("step 1 live set wrong: %v", steps[0].emit)
	}
	// Step 2 reads step 1's buffer and emits the result.
	if len(steps[1].source) != len(steps[0].emit) {
		t.Fatal("step 2 source != step 1 emit")
	}
	if len(steps[1].emit) != 2 || steps[1].emit[0] != c3 || steps[1].emit[1] != a {
		t.Fatalf("step 2 emit: %v", steps[1].emit)
	}
}

func TestSplitStepsNoSplits(t *testing.T) {
	a := core.NewIU(types.Int64, "a")
	out := core.NewIU(types.Int64, "o")
	ops := []core.SubOp{&core.Arith{Op: ir.Add, L: core.Col(a), R: core.ConstOf(rt.ConstI64(1)), Out: out}}
	steps := splitSteps([]*core.IU{a}, ops, []*core.IU{out},
		func(int, core.SubOp) bool { return false })
	if len(steps) != 1 || len(steps[0].ops) != 1 {
		t.Fatalf("steps: %+v", steps)
	}
}

func TestSplitStepsEveryOp(t *testing.T) {
	// Splitting before every suboperator = the vectorized interpreter's
	// slicing (paper §III): each step has exactly one suboperator.
	a := core.NewIU(types.Float64, "a")
	x1 := core.NewIU(types.Float64, "x1")
	x2 := core.NewIU(types.Float64, "x2")
	ops := []core.SubOp{
		&core.Arith{Op: ir.Add, L: core.Col(a), R: core.ConstOf(rt.ConstF64(1)), Out: x1},
		&core.Arith{Op: ir.Mul, L: core.Col(x1), R: core.ConstOf(rt.ConstF64(2)), Out: x2},
	}
	steps := splitSteps([]*core.IU{a}, ops, []*core.IU{x2},
		func(int, core.SubOp) bool { return true })
	if len(steps) != 2 {
		t.Fatalf("steps = %d", len(steps))
	}
	for i, st := range steps {
		if len(st.ops) != 1 {
			t.Fatalf("step %d has %d ops", i, len(st.ops))
		}
	}
}

// TestSplitStepsStagesCarriedColumns: ROF splits before the prefetch of a probe
// key. The probe-side columns the join carries are read after the split — by
// the probe copies, through the match selection — so liveness stages them as
// the columns they are, next to the packed key; the copies stay in the probe's
// step, where their sources have the cardinality the probe runs at.
func TestSplitStepsStagesCarriedColumns(t *testing.T) {
	k := core.NewIU(types.Int64, "k")
	v := core.NewIU(types.String, "v")
	unused := core.NewIU(types.Float64, "unused")
	layout := &rt.RowLayoutState{KeyFixed: 8}
	jt := &rt.JoinTableState{Table: rt.NewJoinTable(1)}
	r0, r1, r2 := core.NewIU(types.Ptr, "r0"), core.NewIU(types.Ptr, "r1"), core.NewIU(types.Ptr, "r2")
	build, sel := core.NewIU(types.Ptr, "build"), core.NewIU(types.Int32, "sel")
	kIn, vIn := core.NewIU(types.Int64, "k"), core.NewIU(types.String, "v")
	prefetch := &core.Prefetch{Row: r2, State: jt}
	ops := []core.SubOp{
		&core.MakeRow{Anchor: k, Layout: layout, Out: r0},
		&core.PackFixed{Row: r0, Val: k, Region: ir.KeyRegion, Off: &rt.OffsetState{Layout: layout}, Out: r1},
		&core.SealKey{Row: r1, Layout: layout, Out: r2},
		prefetch,
		&core.JoinProbe{Row: r2, State: jt, Mode: ir.InnerJoin, BuildOut: build, SelOut: sel},
		&core.ProbeCopy{Sel: sel, Src: k, Dst: kIn},
		&core.ProbeCopy{Sel: sel, Src: v, Dst: vIn},
	}
	steps := splitSteps([]*core.IU{k, v, unused}, ops, []*core.IU{kIn, vIn, build},
		func(_ int, op core.SubOp) bool { return op == prefetch })
	if len(steps) != 2 {
		t.Fatalf("steps = %d", len(steps))
	}
	staged := map[*core.IU]bool{}
	for _, iu := range steps[0].emit {
		staged[iu] = true
	}
	if len(staged) != 3 || !staged[k] || !staged[v] || !staged[r2] {
		t.Fatalf("staged %v, want the carried columns k and v and the sealed key", steps[0].emit)
	}
	if len(steps[1].ops) != 4 {
		t.Fatalf("the probe's step has %d ops, want prefetch, probe and both copies", len(steps[1].ops))
	}
}
