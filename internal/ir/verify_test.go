package ir

import "testing"

func TestVerifyAcceptsSample(t *testing.T) {
	if err := Verify(sampleFunc()); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsBadFuncs(t *testing.T) {
	a := Var{ID: 1, K: 3 /* Int64 */, Name: "a"}
	cases := map[string]*Func{
		"undefined var": {Body: []Stmt{EmitStmt{Cols: []Var{a}}}},
		"double define": {Ins: []Var{a}, Body: []Stmt{
			Assign{Dst: a, E: Ref(a)},
		}},
		"state out of range": {Ins: []Var{a}, Body: []Stmt{
			Assign{Dst: Var{ID: 2, K: a.K}, E: BinExpr{Op: Add, L: Ref(a), R: ConstRef{StateID: 3, K: a.K}}},
		}},
		"kind mismatch assign": {Ins: []Var{a}, Body: []Stmt{
			Assign{Dst: Var{ID: 2, K: 1 /* Bool */}, E: Ref(a)},
		}},
	}
	for name, f := range cases {
		if err := Verify(f); err == nil {
			t.Errorf("%s: Verify accepted a bad function", name)
		}
	}
}
