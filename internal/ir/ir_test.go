package ir

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"inkfuse/internal/types"
)

// GetF64Test reads a little-endian float64 (local helper; the real readers
// live in internal/rt, which ir must not import).
func GetF64Test(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func sampleFunc() *Func {
	a := Var{ID: 1, K: types.Int64, Name: "a"}
	b := Var{ID: 2, K: types.Int64, Name: "b"}
	sum := Var{ID: 3, K: types.Int64, Name: "sum"}
	cond := Var{ID: 4, K: types.Bool, Name: "cond"}
	inner := Var{ID: 5, K: types.Int64, Name: "inner"}
	return &Func{
		Name: "sample",
		Ins:  []Var{a, b},
		Body: []Stmt{
			Assign{Dst: sum, E: BinExpr{Op: Add, L: Ref(a), R: Ref(b)}},
			Assign{Dst: cond, E: CmpExpr{Op: Gt, L: Ref(sum), R: ConstRef{StateID: 0, K: types.Int64}}},
			FilterStmt{Cond: cond, Copies: []Copy{{Dst: inner, Src: sum}},
				Body: []Stmt{EmitStmt{Cols: []Var{inner}}}},
		},
		OutKinds:  []types.Kind{types.Int64},
		NumStates: 1,
	}
}

func TestEmitCStructure(t *testing.T) {
	c := EmitC(sampleFunc())
	for _, want := range []string{
		"void sample(",
		"for (int64_t i = 0; i < n; ++i)",
		"(a_1 + b_2)",
		"((ink_const_t*)state[0])->i64",
		"if (cond_",
		"out->rows++;",
	} {
		if !strings.Contains(c, want) {
			t.Errorf("EmitC missing %q in:\n%s", want, c)
		}
	}
	// Balanced braces.
	if strings.Count(c, "{") != strings.Count(c, "}") {
		t.Fatalf("unbalanced braces:\n%s", c)
	}
}

func TestEmitCProbeModes(t *testing.T) {
	row := Var{ID: 1, K: types.Ptr, Name: "row"}
	build := Var{ID: 2, K: types.Ptr, Name: "b"}
	sel := Var{ID: 3, K: types.Int32, Name: "sel"}
	matched := Var{ID: 4, K: types.Bool, Name: "m"}
	val := Var{ID: 5, K: types.Int64, Name: "v"}
	carried := Var{ID: 6, K: types.Int64, Name: "cv"}
	for _, mode := range []JoinMode{InnerJoin, SemiJoin, LeftOuterJoin, AntiJoin} {
		f := &Func{Name: "probe", Ins: []Var{row, val}, NumStates: 1, Body: []Stmt{
			ProbeStmt{StateID: 0, Mode: mode, ProbeRow: row, Build: build, Sel: sel, Matched: matched,
				Copies: []Copy{{Dst: carried, Src: val}},
				Body:   []Stmt{EmitStmt{Cols: []Var{carried}}}},
		}}
		if err := Verify(f); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		c := EmitC(f)
		if strings.Count(c, "{") != strings.Count(c, "}") {
			t.Fatalf("%v: unbalanced braces:\n%s", mode, c)
		}
		// The carried value is a plain assignment inside the match scope — once
		// per scope body, and the outer join renders its body twice.
		wantCopies := 1
		if mode == LeftOuterJoin {
			wantCopies = 2
		}
		if got := strings.Count(c, "int64_t cv_6 = v_5;"); got != wantCopies {
			t.Fatalf("%v: %d carried-value assignments, want %d:\n%s", mode, got, wantCopies, c)
		}
		switch mode {
		case SemiJoin, AntiJoin:
			if !strings.Contains(c, "ink_join_exists") {
				t.Fatalf("%v emit:\n%s", mode, c)
			}
		case LeftOuterJoin:
			if !strings.Contains(c, "unmatched probe tuple") {
				t.Fatalf("outer emit:\n%s", c)
			}
		default:
			if !strings.Contains(c, "ink_match_next") {
				t.Fatalf("inner emit:\n%s", c)
			}
		}
	}
}

func TestEmitCAggAndPack(t *testing.T) {
	k := Var{ID: 1, K: types.Int64, Name: "k"}
	v := Var{ID: 2, K: types.Float64, Name: "v"}
	r0 := Var{ID: 3, K: types.Ptr, Name: "r0"}
	r1 := Var{ID: 4, K: types.Ptr, Name: "r1"}
	r2 := Var{ID: 5, K: types.Ptr, Name: "r2"}
	g := Var{ID: 6, K: types.Ptr, Name: "g"}
	f := &Func{Name: "agg", Ins: []Var{k, v}, Body: []Stmt{
		MakeRow{Dst: r0, StateID: 0},
		PackFixed{Dst: r1, Row: r0, Region: KeyRegion, StateID: 1, Val: Ref(k)},
		SealKey{Dst: r2, Row: r1, StateID: 0},
		AggLookup{Dst: g, Row: r2, StateID: 2},
		AggUpdate{Group: g, Fn: AggSumF64, StateID: 3, Val: Ref(v)},
		AggUpdate{Group: g, Fn: AggCount, StateID: 4},
		AggUpdate{Group: g, Fn: AggMinF64, StateID: 5, Val: Ref(v)},
	}, NumStates: 6}
	c := EmitC(f)
	for _, want := range []string{"ink_make_row", "ink_seal_key", "ink_agg_find_or_create", "+= v_2", "+= 1", "ink_min_f64"} {
		if !strings.Contains(c, want) {
			t.Errorf("missing %q in:\n%s", want, c)
		}
	}
}

func TestSizeMonotonic(t *testing.T) {
	small := &Func{Name: "s", Body: []Stmt{}}
	if Size(sampleFunc()) <= Size(small) {
		t.Fatal("size not monotonic with content")
	}
}

func TestSizeCoversAllNodes(t *testing.T) {
	row := Var{ID: 1, K: types.Ptr}
	exprs := []Expr{
		Ref(row), ConstRef{K: types.Int64},
		BinExpr{Op: Mul, L: ConstRef{K: types.Float64}, R: ConstRef{K: types.Float64}},
		CmpExpr{Op: Eq, L: ConstRef{K: types.Int64}, R: ConstRef{K: types.Int64}},
		LogicExpr{Op: Or, L: ConstRef{K: types.Bool}, R: ConstRef{K: types.Bool}},
		NotExpr{E: ConstRef{K: types.Bool}},
		CastExpr{To: types.Int64, E: ConstRef{K: types.Int32}},
		LikeExpr{S: ConstRef{K: types.String}},
		InListExpr{S: ConstRef{K: types.String}},
		CondExpr{Cond: ConstRef{K: types.Bool}, Then: ConstRef{K: types.Int64}, Else: ConstRef{K: types.Int64}},
		UnpackFixed{Row: Ref(row), K: types.Int64},
		UnpackStr{Row: Ref(row)},
	}
	weight := func(n node) int {
		var o Operands
		n.operands(&o)
		return o.Weight
	}
	for _, e := range exprs {
		if weight(e) < 1 {
			t.Errorf("expr %T has zero size", e)
		}
	}
	stmts := []Stmt{
		Assign{Dst: row, E: Ref(row)},
		Copy{Dst: row, Src: row},
		FilterStmt{}, MakeRow{}, PackFixed{Val: Ref(row)}, PackStr{Val: Ref(row)},
		SealKey{}, AggLookup{}, AggUpdate{}, JoinInsert{}, Prefetch{}, ProbeStmt{}, EmitStmt{},
	}
	for _, s := range stmts {
		if weight(s) < 1 {
			t.Errorf("stmt %T has zero size", s)
		}
	}
}

func TestAggFuncMetadata(t *testing.T) {
	if AggSumF64.ValueKind() != types.Float64 || AggCount.ValueKind() != types.Invalid {
		t.Fatal("value kinds wrong")
	}
	slot := make([]byte, 8)
	AggMinF64.InitSlot(slot)
	if GetF64Test(slot) <= 1e308 {
		t.Fatal("min init should be +Inf")
	}
	AggSumF64.InitSlot(slot)
	if GetF64Test(slot) != 0 {
		t.Fatal("sum init should be 0")
	}
}

// TestVerifyRejectsKindHoles: the operand kinds each node's description
// states are checked, including the four a hand-written verifier missed.
func TestVerifyRejectsKindHoles(t *testing.T) {
	i64 := Var{ID: 1, K: types.Int64, Name: "i"}
	str := Var{ID: 2, K: types.String, Name: "s"}
	cases := []struct {
		name string
		e    Expr
		dst  types.Kind
		want string
	}{
		{"IN over Int64", InListExpr{S: Ref(i64)}, types.Bool, "context needs String"},
		{"unpack-fixed from an Int64 row", UnpackFixed{Row: Ref(i64), K: types.Int64}, types.Int64, "context needs Ptr"},
		{"unpack-str from an Int64 row", UnpackStr{Row: Ref(i64)}, types.String, "context needs Ptr"},
		{"cast from String", CastExpr{To: types.Int64, E: Ref(str)}, types.Int64, "context needs numeric"},
	}
	for _, c := range cases {
		f := &Func{Name: "hole", Ins: []Var{i64, str}, NumStates: 1, Body: []Stmt{
			Assign{Dst: Var{ID: 3, K: c.dst}, E: c.e},
		}}
		err := Verify(f)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Verify returned %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}

func TestOpStrings(t *testing.T) {
	if Add.CSym() != "+" || Ne.CSym() != "!=" || And.CSym() != "&&" {
		t.Fatal("C symbols wrong")
	}
	if Mul.String() != "mul" || Ge.String() != "ge" || Or.String() != "or" {
		t.Fatal("op names wrong")
	}
	if InnerJoin.String() != "inner" || LeftOuterJoin.String() != "leftouter" {
		t.Fatal("mode names wrong")
	}
	if KeyRegion.String() != "key" || PayloadRegion.String() != "payload" {
		t.Fatal("region names wrong")
	}
}

func TestVarValidity(t *testing.T) {
	var v Var
	if v.Valid() {
		t.Fatal("zero var should be invalid")
	}
	if (Var{ID: 1, K: types.Int64}).Valid() == false {
		t.Fatal("bound var should be valid")
	}
	if (Var{ID: 2, K: types.Bool, Name: "x"}).String() != "x_2" {
		t.Fatal("var string")
	}
	if (Var{ID: 3, K: types.Bool}).String() != "v3" {
		t.Fatal("anon var string")
	}
}
