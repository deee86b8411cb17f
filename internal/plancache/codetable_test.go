package plancache_test

import (
	"testing"

	"inkfuse/internal/algebra"
	"inkfuse/internal/core"
	"inkfuse/internal/exec"
	"inkfuse/internal/plancache"
	"inkfuse/internal/types"
)

// TestCodedPredicateRebind: a predicate over a dictionary-coded column is a
// code → bool table filled when the plan is lowered (DESIGN.md §20). A cached
// instance rebound to a literal the dictionary does not hold must refill it —
// all false for =, IN and LIKE, all true for <> and NOT LIKE — and rebound back,
// answer as before, on the instance the cache hands back, on every backend.
func TestCodedPredicateRebind(t *testing.T) {
	li := cat.MustGet("lineitem")
	if li.Facts[li.Schema.IndexOf("l_shipmode")].Dict == nil {
		t.Fatal("l_shipmode is not dictionary-coded")
	}
	total, air := li.Rows(), 0
	for _, v := range li.Col("l_shipmode").Str {
		if v == "AIR" {
			air++
		}
	}
	mode := algebra.Col("l_shipmode")
	lit := algebra.Const{K: types.String, Str: "AIR", Ref: 1}
	for _, tc := range []struct {
		name          string
		pred          algebra.Expr
		rebind        func(*algebra.Params, string) error
		hit, absent   string
		want, wantAbs int // rows kept at hit and at absent
	}{
		{"eq", algebra.Eq(mode, lit), setStr, "AIR", "NOT A MODE", air, 0},
		{"ne", algebra.Ne(mode, lit), setStr, "AIR", "NOT A MODE", total - air, total},
		{"in", algebra.InListE{E: mode, Members: []string{"AIR"}, Ref: 1},
			func(p *algebra.Params, v string) error { return p.SetInList(1, []string{v, v + "?"}) },
			"AIR", "NOT A MODE", air, 0},
		{"like", algebra.LikeE{E: mode, Pattern: "AIR", Ref: 1},
			func(p *algebra.Params, v string) error { return p.SetLike(1, v) },
			"AIR", "NOT%A MODE", air, 0},
		{"notlike", algebra.LikeE{E: mode, Pattern: "AIR", Negate: true, Ref: 1},
			func(p *algebra.Params, v string) error { return p.SetLike(1, v) },
			"AIR", "NOT%A MODE", total - air, total},
	} {
		root := algebra.NewGroupBy(algebra.NewFilter(algebra.NewScan(li, "l_shipmode"), tc.pred),
			nil, algebra.Count("n"))
		plan, params, err := algebra.LowerWithParams(root, tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if !hasPrimitive(plan.Pipelines[0].Ops, "codematch") {
			t.Fatalf("%s: the predicate did not lower to a code table:\n%s", tc.name, plan.Describe())
		}
		fp, err := algebra.Fingerprint(root)
		if err != nil {
			t.Fatal(err)
		}
		c := plancache.New(plancache.Config{})
		c.Put(plancache.NewPrepared(fp, plan, params))
		for _, backend := range []exec.Backend{exec.BackendVectorized, exec.BackendCompiling, exec.BackendROF, exec.BackendHybrid} {
			for _, step := range []struct {
				lit  string
				want int
			}{{tc.hit, tc.want}, {tc.absent, tc.wantAbs}, {tc.hit, tc.want}} {
				prep := c.Acquire(fp)
				if prep == nil || prep.Plan() != plan {
					t.Fatalf("%s: the cache did not hand back the lowered plan", tc.name)
				}
				if err := tc.rebind(prep.Params(), step.lit); err != nil {
					t.Fatal(err)
				}
				if got := countRows(t, prep, backend); got != step.want {
					t.Fatalf("%s on %v bound to %q: %d rows, want %d", tc.name, backend, step.lit, got, step.want)
				}
				c.Put(prep)
			}
		}
	}
}

func setStr(p *algebra.Params, v string) error {
	return p.SetConst(1, algebra.Const{K: types.String, Str: v})
}

func hasPrimitive(ops []core.SubOp, id string) bool {
	for _, op := range ops {
		if op.PrimitiveID() == id {
			return true
		}
	}
	return false
}

// countRows executes the prepared COUNT(*) plan and returns its count.
func countRows(t *testing.T, prep *plancache.Prepared, backend exec.Backend) int {
	t.Helper()
	lat := exec.LatencyNone
	res, err := exec.Execute(prep.Plan(), exec.Options{
		Backend: backend, Workers: 2, Latency: &lat, Artifacts: prep.Artifacts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunk.Rows() != 1 {
		t.Fatalf("%d result rows", res.Chunk.Rows())
	}
	return int(res.Chunk.Row(0)[0].(int64))
}
