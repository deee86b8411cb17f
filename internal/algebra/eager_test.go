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

// split returns what the rewrite put over the join g read — the GroupBy that
// sums the counts, or the Map that names them under a projection — and the
// pre-aggregating GroupBy under that join; nils when the rewrite left root
// alone.
func split(t *testing.T, root algebra.Node) (upper algebra.Node, pre *algebra.GroupBy) {
	t.Helper()
	got := algebra.EagerAggregate(root)
	if got == root {
		return nil, nil
	}
	if _, err := got.Schema(); err != nil {
		t.Fatalf("rewritten tree: %v", err)
	}
	for n := got; ; {
		var in algebra.Node
		switch x := n.(type) {
		case *algebra.Project:
			n = x.In
			continue
		case *algebra.Map:
			in = x.In
		case *algebra.GroupBy:
			in = x.In
		default:
			t.Fatalf("rewritten tree has no pre-aggregated join: %T", n)
		}
		if j, ok := in.(*algebra.HashJoin); ok {
			if pre, ok := j.Build.(*algebra.GroupBy); ok {
				return n, pre
			}
		}
		n = in
	}
}

// projected reports whether upper names the counts under a projection, and
// checks that it names each of aggs once.
func projected(t *testing.T, upper algebra.Node, aggs ...string) bool {
	t.Helper()
	m, ok := upper.(*algebra.Map)
	if !ok {
		return false
	}
	var names []string
	for _, ne := range m.Exprs {
		if c, ok := ne.E.(algebra.ColRef); !ok || c.Name != "__eager_count" {
			t.Fatalf("projection computes %s := %v, want the count", ne.As, ne.E)
		}
		names = append(names, ne.As)
	}
	if !slices.Equal(names, aggs) {
		t.Fatalf("projection names %v, want %v", names, aggs)
	}
	return true
}

// summed reports whether upper sums the counts per group.
func summed(upper algebra.Node) bool {
	g, ok := upper.(*algebra.GroupBy)
	if !ok {
		return false
	}
	for _, a := range g.Aggs {
		if a.Fn != algebra.AggSum {
			return false
		}
	}
	return true
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
// below the join, and since c_custkey is strictly ascending in customer (each
// group holds one join row) names that count c_count instead of summing it.
// The bound tree stays as the binder built it.
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
	if !projected(t, upper, "c_count") {
		t.Fatalf("upper node %T, want the count named c_count under a projection", upper)
	}
	if after, _ := algebra.Fingerprint(root); after != before {
		t.Fatal("the rewrite modified the bound tree")
	}
}

// TestEagerAggregateFires: a left outer join's counted matches split into a
// count per build key. Where a group key is marked strictly ascending in the
// probe table (storage.Catalog.Add), every group holds one join row and the
// count is named under a projection; elsewhere the upper GroupBy sums the
// counts: a probe table never added to a catalog, a key that repeats once, a
// key a Map defines, a probe side that is itself a join. Two counts of the
// matches read one partial. A build side grouped by more than its key still
// holds a key more than once.
func TestEagerAggregateFires(t *testing.T) {
	p, b := eagerTables()
	marked, _ := eagerTables()
	repeats, _ := eagerTables()
	repeats.Col("p_k").I64[2] = 1 // 0 1 1 3: ascending, not strictly
	cat := storage.NewCatalog()
	cat.Add(marked)
	cat.Add(repeats)
	outer := eagerJoin(p, algebra.NewScan(b), ir.LeftOuterJoin, "b_v")
	grouped := eagerJoin(p, algebra.NewGroupBy(algebra.NewScan(b), []string{"b_k", "b_v"}, algebra.Count("n")),
		ir.LeftOuterJoin, "b_v")
	unique := eagerJoin(marked, algebra.NewScan(b), ir.LeftOuterJoin, "b_v")
	// Through a filter and a projection, p_k is still the scanned column.
	uniqueFiltered := eagerJoin(marked, algebra.NewScan(b), ir.LeftOuterJoin, "b_v")
	uniqueFiltered.Probe = algebra.NewProject(algebra.NewFilter(algebra.NewScan(marked),
		algebra.Gt(algebra.Col("p_g"), algebra.I64(0))), "p_k", "p_g")
	repeated := eagerJoin(repeats, algebra.NewScan(b), ir.LeftOuterJoin, "b_v")
	// p_k is defined by a Map over a scan that does not read the marked p_k.
	redefined := eagerJoin(marked, algebra.NewScan(b), ir.LeftOuterJoin, "b_v")
	redefined.Probe = algebra.NewMap(algebra.NewScan(marked, "p_g", "p_s"),
		algebra.NamedExpr{As: "p_k", E: algebra.Col("p_g")})
	// The marked table probes an inner join first: its rows repeat per match.
	joined := eagerJoin(marked, algebra.NewScan(b), ir.LeftOuterJoin, "b_v")
	joined.Probe = &algebra.HashJoin{
		Build: algebra.NewProject(algebra.NewScan(b), "b_k"), Probe: algebra.NewScan(marked),
		BuildKeys: []string{"b_k"}, ProbeKeys: []string{"p_g"}, Mode: ir.InnerJoin,
	}
	cases := map[string]struct {
		root    algebra.Node
		project []string // the aggregates a projection names; nil: summed
	}{
		"probe key":                {algebra.NewGroupBy(outer, []string{"p_k"}, algebra.CountIf("m", "hits")), nil},
		"probe key and another":    {algebra.NewGroupBy(outer, []string{"p_g", "p_k"}, algebra.CountIf("m", "hits")), nil},
		"uncollated string key":    {algebra.NewGroupBy(outer, []string{"p_k", "p_s"}, algebra.CountIf("m", "hits")), nil},
		"build grouped beyond key": {algebra.NewGroupBy(grouped, []string{"p_k"}, algebra.CountIf("m", "hits")), nil},
		"unique probe key": {algebra.NewGroupBy(unique, []string{"p_k"}, algebra.CountIf("m", "hits")),
			[]string{"hits"}},
		"unique probe key and another": {algebra.NewGroupBy(unique, []string{"p_g", "p_k"}, algebra.CountIf("m", "hits")),
			[]string{"hits"}},
		"unique key, two counts": {algebra.NewGroupBy(unique, []string{"p_k"},
			algebra.CountIf("m", "hits"), algebra.CountIf("m", "again")), []string{"hits", "again"}},
		"unique key under filter and projection": {algebra.NewGroupBy(uniqueFiltered, []string{"p_k"},
			algebra.CountIf("m", "hits")), []string{"hits"}},
		"count named like a probe column": {algebra.NewGroupBy(unique, []string{"p_k"}, algebra.CountIf("m", "p_g")), nil},
		"ascending key that repeats":      {algebra.NewGroupBy(repeated, []string{"p_k"}, algebra.CountIf("m", "hits")), nil},
		"key a map defines":               {algebra.NewGroupBy(redefined, []string{"p_k"}, algebra.CountIf("m", "hits")), nil},
		"probe side a join":               {algebra.NewGroupBy(joined, []string{"p_k"}, algebra.CountIf("m", "hits")), nil},
	}
	for name, c := range cases {
		upper, pre := split(t, c.root)
		if upper == nil {
			t.Errorf("%s: not rewritten", name)
			continue
		}
		if !slices.Equal(pre.Keys, []string{"b_k"}) || !sameFns(aggFns(pre.Aggs), algebra.AggCount) {
			t.Errorf("%s: partials %v %v", name, pre.Keys, pre.Aggs)
		}
		if c.project != nil && !projected(t, upper, c.project...) {
			t.Errorf("%s: %T over the join, want the counts named under a projection", name, upper)
		}
		if c.project == nil && !summed(upper) {
			t.Errorf("%s: %T over the join, want a GroupBy summing the counts", name, upper)
		}
	}
	upper, pre := split(t, algebra.NewGroupBy(outer, []string{"p_k"},
		algebra.CountIf("m", "hits"), algebra.CountIf("m", "again")))
	if upper == nil || len(pre.Aggs) != 1 || upper.(*algebra.GroupBy).Aggs[0].Col != upper.(*algebra.GroupBy).Aggs[1].Col {
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
