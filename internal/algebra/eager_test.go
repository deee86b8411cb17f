package algebra_test

import (
	"slices"
	"testing"

	"inkfuse/internal/algebra"
	"inkfuse/internal/ir"
	"inkfuse/internal/storage"
	"inkfuse/internal/tpch"
	"inkfuse/internal/types"
)

// eagerTables returns a probe table p and a build table b whose key b_k
// repeats.
func eagerTables() (p, b *storage.Table) {
	p = storage.NewTable("p", types.Schema{
		{Name: "p_k", Kind: types.Int64}, {Name: "p_g", Kind: types.Int64}, {Name: "p_s", Kind: types.String},
	})
	b = storage.NewTable("b", types.Schema{
		{Name: "b_k", Kind: types.Int64}, {Name: "b_v", Kind: types.Int64}, {Name: "b_f", Kind: types.Float64},
	})
	for i := 0; i < 4; i++ {
		p.AppendRow(int64(i), int64(i%2), "x")
		b.AppendRow(int64(i%2), int64(i), float64(i))
	}
	return p, b
}

// eagerJoin joins build (keyed by b_k, carrying cols) against p on p_k.
func eagerJoin(p *storage.Table, build algebra.Node, mode ir.JoinMode, cols ...string) *algebra.HashJoin {
	j := &algebra.HashJoin{
		Build: build, Probe: algebra.NewScan(p),
		BuildKeys: []string{"b_k"}, ProbeKeys: []string{"p_k"}, BuildCols: cols, Mode: mode,
	}
	if mode == ir.LeftOuterJoin {
		j.MatchedAs = "m"
	}
	return j
}

// split returns the pre-aggregating GroupBy under the join g reads after
// EagerAggregate rewrote it, or nil when the rewrite left root alone.
func split(t *testing.T, root algebra.Node) (upper, pre *algebra.GroupBy) {
	t.Helper()
	got := algebra.EagerAggregate(root)
	if got == root {
		return nil, nil
	}
	if _, err := got.Schema(); err != nil {
		t.Fatalf("rewritten tree: %v", err)
	}
	for n := got; ; {
		switch x := n.(type) {
		case *algebra.Project:
			n = x.In
		case *algebra.GroupBy:
			if j, ok := x.In.(*algebra.HashJoin); ok {
				if pre, ok := j.Build.(*algebra.GroupBy); ok {
					return x, pre
				}
			}
			n = x.In
		default:
			t.Fatalf("rewritten tree has no pre-aggregated join: %T", n)
		}
	}
}

func aggFns(aggs []algebra.AggSpec) []algebra.AggFn {
	out := make([]algebra.AggFn, len(aggs))
	for i, a := range aggs {
		out[i] = a.Fn
	}
	return out
}

func sameFns(got []algebra.AggFn, want ...algebra.AggFn) bool { return slices.Equal(got, want) }

// TestEagerAggregateQ13: q13's inner GroupBy counts matched orders per
// customer over a left outer join; the rewrite counts orders per o_custkey
// below the join and sums the counts above it, and leaves the bound tree as
// the binder built it.
func TestEagerAggregateQ13(t *testing.T) {
	cat := tpch.Generate(0.001, 42)
	ordered, err := tpch.Build(cat, "q13")
	if err != nil {
		t.Fatal(err)
	}
	root := ordered.(*algebra.OrderBy).In // lowering rewrites below the ORDER BY
	before, err := algebra.Fingerprint(root)
	if err != nil {
		t.Fatal(err)
	}
	upper, pre := split(t, root)
	if upper == nil {
		t.Fatal("q13 was not rewritten")
	}
	if len(pre.Keys) != 1 || pre.Keys[0] != "o_custkey" || !sameFns(aggFns(pre.Aggs), algebra.AggCount) {
		t.Fatalf("pre-aggregation %v %v, want count(*) by o_custkey", pre.Keys, pre.Aggs)
	}
	if len(upper.Keys) != 1 || upper.Keys[0] != "c_custkey" || !sameFns(aggFns(upper.Aggs), algebra.AggSum) {
		t.Fatalf("upper aggregation %v %v, want sum by c_custkey", upper.Keys, upper.Aggs)
	}
	if after, _ := algebra.Fingerprint(root); after != before {
		t.Fatal("the rewrite modified the bound tree")
	}
}

// TestEagerAggregateFires: a left outer join's counted matches split into a
// count per build key that the upper GroupBy sums, with or without a second
// probe-side group key; two counts of the matches read one partial. A build
// side grouped by more than its key still holds a key more than once.
func TestEagerAggregateFires(t *testing.T) {
	p, b := eagerTables()
	outer := eagerJoin(p, algebra.NewScan(b), ir.LeftOuterJoin, "b_v")
	grouped := eagerJoin(p, algebra.NewGroupBy(algebra.NewScan(b), []string{"b_k", "b_v"}, algebra.Count("n")),
		ir.LeftOuterJoin, "b_v")
	cases := map[string]algebra.Node{
		"probe key":                algebra.NewGroupBy(outer, []string{"p_k"}, algebra.CountIf("m", "hits")),
		"probe key and another":    algebra.NewGroupBy(outer, []string{"p_g", "p_k"}, algebra.CountIf("m", "hits")),
		"uncollated string key":    algebra.NewGroupBy(outer, []string{"p_k", "p_s"}, algebra.CountIf("m", "hits")),
		"build grouped beyond key": algebra.NewGroupBy(grouped, []string{"p_k"}, algebra.CountIf("m", "hits")),
	}
	for name, root := range cases {
		upper, pre := split(t, root)
		if upper == nil {
			t.Errorf("%s: not rewritten", name)
			continue
		}
		if !slices.Equal(pre.Keys, []string{"b_k"}) || !sameFns(aggFns(pre.Aggs), algebra.AggCount) ||
			!sameFns(aggFns(upper.Aggs), algebra.AggSum) {
			t.Errorf("%s: partials %v %v, combined %v", name, pre.Keys, pre.Aggs, upper.Aggs)
		}
	}
	upper, pre := split(t, algebra.NewGroupBy(outer, []string{"p_k"},
		algebra.CountIf("m", "hits"), algebra.CountIf("m", "again")))
	if upper == nil || len(pre.Aggs) != 1 || upper.Aggs[0].Col != upper.Aggs[1].Col {
		t.Fatal("two counts of the matches do not share one partial")
	}
}

// TestEagerAggregateDeclines: every GroupBy the rewrite must not or need not
// split comes back as the same tree.
func TestEagerAggregateDeclines(t *testing.T) {
	p, b := eagerTables()
	inner := eagerJoin(p, algebra.NewScan(b), ir.InnerJoin, "b_v", "b_f")
	outer := eagerJoin(p, algebra.NewScan(b), ir.LeftOuterJoin, "b_v", "b_f")
	// A build side grouped by its key, under a filter and a projection,
	// holds each key once already.
	unique := eagerJoin(p, algebra.NewProject(algebra.NewFilter(
		algebra.NewGroupBy(algebra.NewScan(b), []string{"b_k"}, algebra.Sum("b_v", "b_v")),
		algebra.Gt(algebra.Col("b_v"), algebra.I64(0))), "b_k", "b_v"),
		ir.LeftOuterJoin, "b_v")
	cases := map[string]algebra.Node{
		"inner join":                    algebra.NewGroupBy(inner, []string{"p_k"}, algebra.Count("n")),
		"sum of a build column":         algebra.NewGroupBy(outer, []string{"p_k"}, algebra.CountIf("m", "hits"), algebra.Sum("b_v", "s")),
		"aggregate over a probe column": algebra.NewGroupBy(outer, []string{"p_k"}, algebra.CountIf("m", "hits"), algebra.Sum("p_g", "sp")),
		"count(*) over an outer join":   algebra.NewGroupBy(outer, []string{"p_k"}, algebra.CountIf("m", "hits"), algebra.Count("n")),
		"probe key not grouped":         algebra.NewGroupBy(outer, []string{"p_g"}, algebra.CountIf("m", "hits")),
		"build column grouped":          algebra.NewGroupBy(outer, []string{"p_k", "b_v"}, algebra.CountIf("m", "hits")),
		"avg":                           algebra.NewGroupBy(outer, []string{"p_k"}, algebra.CountIf("m", "hits"), algebra.Avg("b_f", "a")),
		"no aggregates":                 algebra.NewGroupBy(outer, []string{"p_k"}),
		"collated key": &algebra.GroupBy{In: outer, Keys: []string{"p_k", "p_s"},
			Aggs: []algebra.AggSpec{algebra.CountIf("m", "hits")}, NoCase: []string{"p_s"}},
		"build grouped by its key": algebra.NewGroupBy(unique, []string{"p_k"}, algebra.CountIf("m", "hits")),
	}
	for name, root := range cases {
		if _, err := root.Schema(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if upper, _ := split(t, root); upper != nil {
			t.Errorf("%s: rewritten", name)
		}
	}
}
