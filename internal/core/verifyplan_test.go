package core

import (
	"strings"
	"testing"

	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
)

// miniAggPlan builds a small valid two-pipeline plan: scan → filter →
// keyed aggregation build, then an aggregate read materializing one column.
func miniAggPlan() *Plan {
	tbl := storage.NewTable("t", types.Schema{
		{Name: "k", Kind: types.Int64},
		{Name: "v", Kind: types.Float64},
	})
	k := NewIU(types.Int64, "k")
	v := NewIU(types.Float64, "v")
	cond := NewIU(types.Bool, "cond")
	kf := NewIU(types.Int64, "k")
	vf := NewIU(types.Float64, "v")
	key0 := NewIU(types.Ptr, "key")
	key1 := NewIU(types.Ptr, "key")
	key2 := NewIU(types.Ptr, "key")
	group := NewIU(types.Ptr, "group")
	agg := &rt.AggTableState{}
	layout := &rt.RowLayoutState{}
	row := NewIU(types.Ptr, "row")
	sum := NewIU(types.Float64, "sum")
	return &Plan{
		Name: "mini",
		Pipelines: []*Pipeline{
			{
				Name:   "build",
				Source: &TableScan{Table: tbl, Cols: []int{0, 1}, IUs: []*IU{k, v}},
				Ops: []SubOp{
					&Cmp{Op: ir.Gt, L: Col(k), R: ConstOf(rt.ConstI64(0)), Out: cond},
					&FilterScope{Cond: cond},
					&FilterCopy{Cond: cond, Src: k, Dst: kf},
					&FilterCopy{Cond: cond, Src: v, Dst: vf},
					&MakeRow{Anchor: kf, Layout: layout, Out: key0},
					&PackFixed{Row: key0, Val: kf, Off: &rt.OffsetState{}, Out: key1},
					&SealKey{Row: key1, Layout: layout, Out: key2},
					&AggLookup{Row: key2, State: agg, Out: group},
					&AggUpdate{Group: group, Fn: ir.AggSumF64, Off: &rt.OffsetState{}, Val: vf},
				},
				MergeAggs: []*AggFinalize{{State: agg}},
			},
			{
				Name:   "read",
				Source: &AggRead{State: agg, Out: row},
				Ops: []SubOp{
					&UnpackFixed{Row: row, Off: &rt.OffsetState{}, Out: sum},
				},
				Result: []*IU{sum},
			},
		},
		ColNames: []string{"sum"},
		Sort:     &SortSpec{Keys: []int{0}},
	}
}

func TestVerifyPlanValid(t *testing.T) {
	if err := VerifyPlan(miniAggPlan()); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

// mutate applies f to a fresh mini plan and asserts VerifyPlan rejects it
// with an error mentioning want.
func mutate(t *testing.T, want string, f func(p *Plan)) {
	t.Helper()
	p := miniAggPlan()
	f(p)
	err := VerifyPlan(p)
	if err == nil {
		t.Fatalf("mutated plan (want %q) verified clean", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func TestVerifyPlanRejects(t *testing.T) {
	t.Run("undefined input", func(t *testing.T) {
		mutate(t, "used before any producer", func(p *Plan) {
			stray := NewIU(types.Float64, "stray")
			ops := p.Pipelines[0].Ops
			ops[len(ops)-1].(*AggUpdate).Val = stray
		})
	})
	t.Run("multiple producers", func(t *testing.T) {
		mutate(t, "multiple producers", func(p *Plan) {
			build := p.Pipelines[0]
			cmp := build.Ops[0].(*Cmp)
			dup := &Cmp{Op: ir.Lt, L: cmp.L, R: cmp.R, Out: cmp.Out}
			build.Ops = append(build.Ops, dup)
		})
	})
	t.Run("alias kind mismatch", func(t *testing.T) {
		mutate(t, "disagree on kind", func(p *Plan) {
			up := p.Pipelines[1].Ops[0].(*UnpackFixed)
			alias := &IU{ID: up.Out.ID, K: types.Int64, Name: "sum"}
			p.Pipelines[1].Result = []*IU{alias}
		})
	})
	t.Run("filter kind mismatch", func(t *testing.T) {
		mutate(t, "filter copies", func(p *Plan) {
			fc := p.Pipelines[0].Ops[3].(*FilterCopy)
			fc.Dst = &IU{ID: fc.Dst.ID, K: types.Int32, Name: fc.Dst.Name}
		})
	})
	t.Run("non-bool condition", func(t *testing.T) {
		mutate(t, "must be Bool", func(p *Plan) {
			k := p.Pipelines[0].Source.SourceIUs()[0]
			p.Pipelines[0].Ops[1].(*FilterScope).Cond = k
		})
	})
	t.Run("non-ptr key row", func(t *testing.T) {
		mutate(t, "must be a Ptr packed row", func(p *Plan) {
			mr := p.Pipelines[0].Ops[4].(*MakeRow)
			mr.Out = &IU{ID: mr.Out.ID, K: types.Int64, Name: "key"}
			// Keep downstream consistent so only the edge check fires.
			p.Pipelines[0].Ops[5].(*PackFixed).Row = mr.Out
		})
	})
	t.Run("probe before seal", func(t *testing.T) {
		mutate(t, "no earlier pipeline seals", func(p *Plan) {
			build := p.Pipelines[0]
			key := build.Ops[6].(*SealKey).Out
			build.Ops = append(build.Ops, &Prefetch{Row: key, State: &rt.JoinTableState{}})
		})
	})
	t.Run("build without seal", func(t *testing.T) {
		mutate(t, "never seals", func(p *Plan) {
			build := p.Pipelines[0]
			key := build.Ops[6].(*SealKey).Out
			build.Ops = append(build.Ops, &JoinInsert{Row: key, State: &rt.JoinTableState{}})
		})
	})
	t.Run("seal without build", func(t *testing.T) {
		mutate(t, "no JoinInsert in this pipeline builds", func(p *Plan) {
			p.Pipelines[0].SealJoins = []*rt.JoinTableState{{}}
		})
	})
	t.Run("aggread before merge", func(t *testing.T) {
		mutate(t, "no earlier pipeline merges", func(p *Plan) {
			p.Pipelines[0].MergeAggs = nil
			// The build pipeline now feeds an unmerged aggregate too; swap the
			// lookup out so only the AggRead violation remains.
			p.Pipelines[0].Ops = p.Pipelines[0].Ops[:7]
			p.Pipelines[0].SealJoins = nil
			jt := &rt.JoinTableState{}
			key := p.Pipelines[0].Ops[6].(*SealKey).Out
			p.Pipelines[0].Ops = append(p.Pipelines[0].Ops, &JoinInsert{Row: key, State: jt})
			p.Pipelines[0].SealJoins = []*rt.JoinTableState{jt}
		})
	})
	t.Run("double merge", func(t *testing.T) {
		mutate(t, "already merged", func(p *Plan) {
			st := p.Pipelines[0].MergeAggs[0].State
			p.Pipelines[1].MergeAggs = []*AggFinalize{{State: st, Keyless: true}}
		})
	})
	t.Run("sink without side effects", func(t *testing.T) {
		mutate(t, "neither result IUs nor table side effects", func(p *Plan) {
			p.Pipelines[0].MergeAggs = nil
			p.Pipelines[0].Ops = p.Pipelines[0].Ops[:7] // drop lookup + update
			// Pipeline 1 still reads the now-unmerged aggregate, but the sink
			// violation in pipeline 0 is reported first.
		})
	})
	t.Run("unmaterialized result", func(t *testing.T) {
		mutate(t, "never materialized", func(p *Plan) {
			p.Pipelines[1].Result = []*IU{NewIU(types.Float64, "ghost")}
		})
	})
	t.Run("sort key out of range", func(t *testing.T) {
		mutate(t, "outside", func(p *Plan) {
			p.Sort = &SortSpec{Keys: []int{4}}
		})
	})
	t.Run("colname arity", func(t *testing.T) {
		mutate(t, "column names", func(p *Plan) {
			p.ColNames = []string{"a", "b"}
		})
	})
	t.Run("no pipelines", func(t *testing.T) {
		mutate(t, "no pipelines", func(p *Plan) {
			p.Pipelines = nil
		})
	})
}

// TestVerifyPlanRejectsKindHoles: every port rule of a suboperator's
// description is checked — including the seven a hand-written per-type check
// list once missed. A primitive is chosen by the kinds its ID encodes, so
// each of these plans would have run a kernel over columns of another kind.
func TestVerifyPlanRejectsKindHoles(t *testing.T) {
	// kf is the filtered Int64 key, vf the filtered Float64 value.
	cols := func(p *Plan) (kf, vf *IU) {
		ops := p.Pipelines[0].Ops
		return ops[2].(*FilterCopy).Dst, ops[3].(*FilterCopy).Dst
	}
	add := func(p *Plan, op SubOp) { p.Pipelines[0].Ops = append(p.Pipelines[0].Ops, op) }
	cases := []struct {
		name, want string
		f          func(p *Plan)
	}{
		{"arith result of another kind", "result bad#", func(p *Plan) {
			kf, _ := cols(p)
			add(p, &Arith{Op: ir.Add, L: Col(kf), R: Col(kf), Out: NewIU(types.Float64, "bad")})
		}},
		{"non-bool CASE condition", "CASE condition", func(p *Plan) {
			kf, vf := cols(p)
			add(p, &Case{Cond: kf, Then: Col(vf), Else: ConstOf(rt.ConstF64(0)), Out: NewIU(types.Float64, "c")})
		}},
		{"LIKE over Int64", "LIKE input", func(p *Plan) {
			kf, _ := cols(p)
			add(p, &Like{In: kf, State: &rt.LikeState{M: rt.NewLikeMatcher("%")}, Out: NewIU(types.Bool, "l")})
		}},
		{"IN over Int64", "IN input", func(p *Plan) {
			kf, _ := cols(p)
			add(p, &InList{In: kf, State: rt.NewInList(), Out: NewIU(types.Bool, "in")})
		}},
		{"cast to String", "cast output", func(p *Plan) {
			_, vf := cols(p)
			add(p, &Cast{In: vf, Out: NewIU(types.String, "s")})
		}},
		{"sum_f64 fed an Int64", "aggregated value", func(p *Plan) {
			kf, _ := cols(p)
			p.Pipelines[0].Ops[8].(*AggUpdate).Val = kf
		}},
		{"unpack-fixed into a String", "unpacked value", func(p *Plan) {
			up := p.Pipelines[1].Ops[0].(*UnpackFixed)
			up.Out = NewIU(types.String, "sum")
			p.Pipelines[1].Result = []*IU{up.Out}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { mutate(t, c.want, c.f) })
	}
}
