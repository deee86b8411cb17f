package core

import (
	"strings"
	"testing"

	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/types"
)

// TestEnumerationBuildsEveryPrimitive is the enumeration invariant made
// executable: every enumerated suboperator instantiation must yield a
// primitive through the regular compilation stack (paper §IV-A).
func TestEnumerationBuildsEveryPrimitive(t *testing.T) {
	ops := Enumerate()
	if len(ops) < 150 {
		t.Fatalf("suspiciously small enumeration: %d", len(ops))
	}
	seen := map[string]bool{}
	for _, op := range ops {
		id := op.PrimitiveID()
		if id == "" {
			t.Fatalf("enumerated suboperator %T has no primitive ID", op)
		}
		if seen[id] {
			t.Fatalf("duplicate primitive ID %q", id)
		}
		seen[id] = true
		f, err := BuildPrimitive(op)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		// The primitive's state array must line up with the suboperator's
		// state list: that alignment is what lets the interpreter inject
		// per-query state into shared pre-compiled code (paper Fig 8).
		if f.NumStates != len(op.Desc().States()) {
			t.Fatalf("%s: %d states generated, suboperator lists %d", id, f.NumStates, len(op.Desc().States()))
		}
		if len(f.Ins) != len(op.Desc().Inputs()) {
			t.Fatalf("%s: %d inputs generated, suboperator lists %d", id, len(f.Ins), len(op.Desc().Inputs()))
		}
	}
}

func TestEnumerationCoversExpectedFamilies(t *testing.T) {
	fams := map[string]bool{}
	for _, op := range Enumerate() {
		id := op.PrimitiveID()
		fam := id
		if i := strings.IndexByte(id, '_'); i > 0 {
			fam = id[:i]
		}
		fams[fam] = true
	}
	for _, want := range []string{
		"tscan", "expr", "cmp", "logic", "not", "cast", "like", "notlike",
		"inlist", "case", "filtercopy", "makerow", "sealkey", "pack",
		"packstr", "agglookup", "aggupdate", "joininsert", "joinprobe",
		"prefetch", "unpack", "unpackstr",
	} {
		if !fams[want] {
			t.Errorf("enumeration missing family %q", want)
		}
	}
}

func TestGenStepFusesScopes(t *testing.T) {
	// scan(a) -> a > const -> filter -> emit. The filter scope must nest the
	// emit inside the generated if.
	a := NewIU(types.Int64, "a")
	cond := NewIU(types.Bool, "cond")
	inner := NewIU(types.Int64, "a2")
	ops := []SubOp{
		&Cmp{Op: ir.Gt, L: Col(a), R: ConstOf(rt.ConstI64(5)), Out: cond},
		&FilterScope{Cond: cond},
		&FilterCopy{Cond: cond, Src: a, Dst: inner},
	}
	f, states, err := GenStep("t", []*IU{a}, ops, []*IU{inner})
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 {
		t.Fatalf("states = %d", len(states))
	}
	if len(f.Body) != 2 { // assign + filter
		t.Fatalf("body stmts = %d", len(f.Body))
	}
	fs, ok := f.Body[1].(ir.FilterStmt)
	if !ok {
		t.Fatalf("second stmt is %T", f.Body[1])
	}
	if len(fs.Copies) != 1 || len(fs.Body) != 1 {
		t.Fatalf("filter structure: %d copies, %d body", len(fs.Copies), len(fs.Body))
	}
	if _, ok := fs.Body[0].(ir.EmitStmt); !ok {
		t.Fatal("emit not nested inside the filter scope")
	}
}

func TestGenStepNestedScopes(t *testing.T) {
	// Two chained filters must nest, and close in LIFO order on Finish.
	a := NewIU(types.Int64, "a")
	c1 := NewIU(types.Bool, "c1")
	a1 := NewIU(types.Int64, "a1")
	c2 := NewIU(types.Bool, "c2")
	a2 := NewIU(types.Int64, "a2")
	ops := []SubOp{
		&Cmp{Op: ir.Gt, L: Col(a), R: ConstOf(rt.ConstI64(1)), Out: c1},
		&FilterScope{Cond: c1},
		&FilterCopy{Cond: c1, Src: a, Dst: a1},
		&Cmp{Op: ir.Lt, L: Col(a1), R: ConstOf(rt.ConstI64(10)), Out: c2},
		&FilterScope{Cond: c2},
		&FilterCopy{Cond: c2, Src: a1, Dst: a2},
	}
	f, _, err := GenStep("nested", []*IU{a}, ops, []*IU{a2})
	if err != nil {
		t.Fatal(err)
	}
	outer, ok := f.Body[len(f.Body)-1].(ir.FilterStmt)
	if !ok {
		t.Fatalf("no outer filter, got %T", f.Body[len(f.Body)-1])
	}
	foundInner := false
	for _, s := range outer.Body {
		if _, ok := s.(ir.FilterStmt); ok {
			foundInner = true
		}
	}
	if !foundInner {
		t.Fatal("inner filter not nested in outer")
	}
}

func TestConsumeBeforeProduceFails(t *testing.T) {
	a := NewIU(types.Int64, "a")
	b := NewIU(types.Int64, "b") // never produced
	out := NewIU(types.Int64, "out")
	ops := []SubOp{&Arith{Op: ir.Add, L: Col(a), R: Col(b), Out: out}}
	if _, _, err := GenStep("bad", []*IU{a}, ops, []*IU{out}); err == nil {
		t.Fatal("expected consume-before-produce error")
	}
}

func TestFilterCopyOutsideScopeFails(t *testing.T) {
	a := NewIU(types.Int64, "a")
	cond := NewIU(types.Bool, "c")
	dst := NewIU(types.Int64, "d")
	ops := []SubOp{
		&Cmp{Op: ir.Gt, L: Col(a), R: ConstOf(rt.ConstI64(5)), Out: cond},
		&FilterCopy{Cond: cond, Src: a, Dst: dst}, // no FilterScope
	}
	if _, _, err := GenStep("bad", []*IU{a}, ops, []*IU{dst}); err == nil {
		t.Fatal("expected scope error")
	}
}

func TestStateOrderMatchesStatesList(t *testing.T) {
	// For an op with two constants, the generated ConstRefs must index the
	// state array in the same order as States() lists them.
	c1, c2 := rt.ConstF64(1), rt.ConstF64(2)
	op := &Case{
		Cond: NewIU(types.Bool, "c"),
		Then: ConstOf(c1), Else: ConstOf(c2),
		Out: NewIU(types.Float64, "o"),
	}
	f, err := BuildPrimitive(op)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumStates != 2 {
		t.Fatalf("states = %d", f.NumStates)
	}
	sts := op.Desc().States()
	if sts[0] != c1 || sts[1] != c2 {
		t.Fatal("States() order wrong")
	}
	asgn := f.Body[0].(ir.Assign)
	cond := asgn.E.(ir.CondExpr)
	if cond.Then.(ir.ConstRef).StateID != 0 || cond.Else.(ir.ConstRef).StateID != 1 {
		t.Fatal("generated state indexes do not match States() order")
	}
}

func TestPrimitiveIDsEncodeParameters(t *testing.T) {
	a := NewIU(types.Float64, "a")
	o := NewIU(types.Float64, "o")
	cc := &Arith{Op: ir.Add, L: Col(a), R: Col(NewIU(types.Float64, "b")), Out: o}
	ck := &Arith{Op: ir.Add, L: Col(a), R: ConstOf(rt.ConstF64(1)), Out: o}
	if cc.PrimitiveID() == ck.PrimitiveID() {
		t.Fatal("const side not encoded in primitive ID")
	}
	if cc.PrimitiveID() != "expr_add_f64_cc" || ck.PrimitiveID() != "expr_add_f64_ck" {
		t.Fatalf("unexpected IDs: %s %s", cc.PrimitiveID(), ck.PrimitiveID())
	}
}

func TestPipelineGenFused(t *testing.T) {
	// A sink pipeline (no result) generates no emit.
	a := NewIU(types.Int64, "a")
	row0 := NewIU(types.Ptr, "r0")
	row1 := NewIU(types.Ptr, "r1")
	row2 := NewIU(types.Ptr, "r2")
	layout := &rt.RowLayoutState{KeyFixed: 8}
	jt := &rt.JoinTableState{Table: rt.NewJoinTable(2)}
	pipe := &Pipeline{
		Name:   "build",
		Source: &TableScan{IUs: []*IU{a}},
		Ops: []SubOp{
			&MakeRow{Anchor: a, Layout: layout, Out: row0},
			&PackFixed{Row: row0, Val: a, Region: ir.KeyRegion, Off: &rt.OffsetState{Layout: layout}, Out: row1},
			&SealKey{Row: row1, Layout: layout, Out: row2},
			&JoinInsert{Row: row2, State: jt},
		},
	}
	f, states, err := pipe.GenFused()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.OutKinds) != 0 {
		t.Fatal("sink pipeline should not emit")
	}
	if len(states) != 4 {
		t.Fatalf("states = %d", len(states))
	}
	c := ir.EmitC(f)
	if !strings.Contains(c, "ink_join_insert") {
		t.Fatalf("missing insert in:\n%s", c)
	}
}

func TestIUIdentity(t *testing.T) {
	a := NewIU(types.Int64, "x")
	b := NewIU(types.Int64, "x")
	if a.ID == b.ID {
		t.Fatal("IU IDs must be unique")
	}
	if a.String() == "" || a.K != types.Int64 {
		t.Fatal("IU fields")
	}
}
