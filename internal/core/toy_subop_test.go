package core

import (
	"strings"
	"testing"

	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
)

// widenLookup is a suboperator defined in this file alone: it groups by an
// Int32 key widened to Int64, two IR statements over existing nodes. Its type,
// description and Consume are everything plan verification, primitive
// generation and plan-state collection need to know about it.
type widenLookup struct {
	Key   *IU
	State *rt.AggTableState
	Out   *IU
}

func (w *widenLookup) PrimitiveID() string { return "widenlookup" }

func (w *widenLookup) Desc() Desc {
	return Desc{
		In:    []Port{port("narrow key", w.Key, types.Is(types.Int32))},
		Out:   []Port{port("group row", w.Out, types.Is(types.Ptr))},
		State: []any{w.State},
	}
}

func (w *widenLookup) Consume(g *Gen) error {
	wide := g.Def(NewIU(types.Int64, "wide"))
	g.Append(ir.Assign{Dst: wide, E: ir.CastExpr{To: types.Int64, E: ir.Ref(g.in(w.Key))}})
	g.Append(ir.AggLookupFixed{Dst: g.Def(w.Out), Key: wide, StateID: g.AddState(w.State)})
	return nil
}

// toyPlan counts rows per key of an Int32 (or, to be rejected, String)
// column through widenLookup.
func toyPlan(keyKind types.Kind) (*Plan, *widenLookup) {
	tbl := storage.NewTable("t", types.Schema{{Name: "k", Kind: keyKind}})
	k := NewIU(keyKind, "k")
	agg := &rt.AggTableState{}
	toy := &widenLookup{Key: k, State: agg, Out: NewIU(types.Ptr, "group")}
	row, n := NewIU(types.Ptr, "row"), NewIU(types.Int64, "n")
	return &Plan{
		Name: "toy",
		Pipelines: []*Pipeline{
			{
				Name:   "build",
				Source: &TableScan{Table: tbl, Cols: []int{0}, IUs: []*IU{k}},
				Ops: []SubOp{
					toy,
					&AggUpdate{Group: toy.Out, Fn: ir.AggCount, Off: &rt.OffsetState{}},
				},
				MergeAggs: []*AggFinalize{{State: agg}},
			},
			{
				Name:   "read",
				Source: &AggRead{State: agg, Out: row},
				Ops:    []SubOp{&UnpackFixed{Row: row, Region: ir.PayloadRegion, Off: &rt.OffsetState{}, Out: n}},
				Result: []*IU{n},
			},
		},
	}, toy
}

func TestToySuboperator(t *testing.T) {
	_, toy := toyPlan(types.Int32)
	f, err := BuildPrimitive(toy)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatalf("primitive: %v", err)
	}
	if len(f.Ins) != 1 || f.NumStates != 1 {
		t.Fatalf("primitive has %d inputs and %d states, want 1 and 1", len(f.Ins), f.NumStates)
	}

	plan, toy := toyPlan(types.Int32)
	if err := VerifyPlan(plan); err != nil {
		t.Fatalf("plan with the toy rejected: %v", err)
	}
	fused, _, err := plan.Pipelines[0].GenFused()
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(fused); err != nil {
		t.Fatalf("fused pipeline: %v", err)
	}

	// The port rule the description declares is what rejects a String key.
	bad, _ := toyPlan(types.String)
	if err := VerifyPlan(bad); err == nil || !strings.Contains(err.Error(), "narrow key") {
		t.Fatalf("VerifyPlan on a String key returned %v, want the narrow key port's rule", err)
	}

	// The toy's table is per-execution state, found through its description.
	only := &Plan{Pipelines: []*Pipeline{{Ops: []SubOp{toy}}}}
	if ps := CollectPlanState(only); len(ps.states) != 1 || ps.states[0] != runState(toy.State) {
		t.Fatalf("CollectPlanState found %v, want the toy's aggregation", ps.states)
	}
}
