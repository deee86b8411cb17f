package algebra

import (
	"inkfuse/internal/ir"
	"inkfuse/internal/types"
)

// eagerAggregate returns root with every GroupBy that splitGroupBy accepts
// replaced by its split (DESIGN.md §21). It copies the nodes on the path to a
// rewrite and modifies none: the tree the binder built stays what the Volcano
// oracle runs and what Fingerprint digests.
func eagerAggregate(n Node) Node {
	switch x := n.(type) {
	case *Filter:
		if in := eagerAggregate(x.In); in != x.In {
			c := *x
			c.In = in
			return &c
		}
	case *Map:
		if in := eagerAggregate(x.In); in != x.In {
			c := *x
			c.In = in
			return &c
		}
	case *Project:
		if in := eagerAggregate(x.In); in != x.In {
			c := *x
			c.In = in
			return &c
		}
	case *HashJoin:
		b, p := eagerAggregate(x.Build), eagerAggregate(x.Probe)
		if b != x.Build || p != x.Probe {
			c := *x
			c.Build, c.Probe = b, p
			return &c
		}
	case *GroupBy:
		g := x
		if in := eagerAggregate(x.In); in != x.In {
			c := *x
			c.In = in
			g = &c
		}
		if split := splitGroupBy(g); split != nil {
			return split
		}
		return g
	}
	return n
}

// eagerCount is the column of a split's pre-aggregation: the number of build
// rows with the group's key.
const eagerCount = "__eager_count"

// splitGroupBy counts the build rows per key ahead of the left outer join g
// reads (eager aggregation, Yan & Larson), or returns nil when it may not or
// need not. It may when every probe key is a group key, every group key is a
// probe-side column and every aggregate counts the join's matches: each probe
// row then meets at most one pre-aggregated row, which carries the number of
// build rows it met before, and the upper GroupBy sums those numbers. An
// unmatched row reads the count as zero, as it added zero matches before. It
// need not when the build side already holds each key once
// (uniqueByGrouping): the split would be a pass that merges nothing.
//
// When a group key is unique in the probe input (uniqueInData), every group
// holds one join row, so there is nothing to sum: the upper GroupBy becomes a
// projection that names each aggregate as the row's count.
func splitGroupBy(g *GroupBy) Node {
	j, ok := g.In.(*HashJoin)
	if !ok || j.Mode != ir.LeftOuterJoin || j.MatchedAs == "" || len(g.Aggs) == 0 || len(g.NoCase) > 0 ||
		len(dedupe(j.BuildKeys)) != len(j.BuildKeys) {
		return nil
	}
	for _, a := range g.Aggs {
		if a.Fn != AggCountIf || a.Col != j.MatchedAs {
			return nil
		}
	}
	if _, err := g.Schema(); err != nil {
		return nil
	}
	probe, err := j.Probe.Schema()
	if err != nil {
		return nil
	}
	keys := toSet(g.Keys)
	for _, k := range j.ProbeKeys {
		if !keys[k] {
			return nil
		}
	}
	for _, k := range g.Keys {
		if probe.IndexOf(k) < 0 {
			return nil
		}
	}
	if uniqueByGrouping(j.Build, j.BuildKeys) {
		return nil
	}
	join := &HashJoin{
		Build:     NewGroupBy(j.Build, j.BuildKeys, AggSpec{Fn: AggCount, As: eagerCount}),
		Probe:     j.Probe,
		BuildKeys: j.BuildKeys, ProbeKeys: j.ProbeKeys,
		BuildCols: []string{eagerCount}, Mode: j.Mode,
	}
	if uniqueInData(j.Probe, g.Keys) && !namesProbeColumn(g.Aggs, probe) {
		counts := make([]NamedExpr, len(g.Aggs))
		cols := append([]string{}, g.Keys...)
		for i, a := range g.Aggs {
			counts[i] = NamedExpr{As: a.As, E: Col(eagerCount)}
			cols = append(cols, a.As)
		}
		return NewProject(NewMap(join, counts...), cols...)
	}
	upper := make([]AggSpec, len(g.Aggs))
	for i, a := range g.Aggs {
		upper[i] = AggSpec{Fn: AggSum, Col: eagerCount, As: a.As}
	}
	return &GroupBy{In: join, Keys: g.Keys, Aggs: upper}
}

// namesProbeColumn reports whether an aggregate is named like a column of the
// split join, which a Map naming it would shadow.
func namesProbeColumn(aggs []AggSpec, probe types.Schema) bool {
	for _, a := range aggs {
		if a.As == eagerCount || probe.IndexOf(a.As) >= 0 {
			return true
		}
	}
	return false
}

// uniqueInData reports whether n holds each value of one of keys once, as
// the data shows: below what keeps the keys (keyedInput), it is a Scan of a
// column its table marked strictly ascending at load
// (storage.ColumnFacts). Any other node, a join included, answers no.
func uniqueInData(n Node, keys []string) bool {
	s, ok := keyedInput(n, keys).(*Scan)
	if !ok {
		return false
	}
	for _, k := range keys {
		if i := s.Table.Schema.IndexOf(k); i >= 0 && s.Table.Facts[i].Ascending {
			return true
		}
	}
	return false
}

// uniqueByGrouping reports whether a build side holds each of its keys once
// by construction: below what keeps the keys (keyedInput), it is a GroupBy
// whose keys are all build keys.
func uniqueByGrouping(n Node, keys []string) bool {
	g, ok := keyedInput(n, keys).(*GroupBy)
	if !ok {
		return false
	}
	for _, k := range g.Keys {
		if !contains(keys, k) {
			return false
		}
	}
	return true
}

// keyedInput returns the first node under n that is not a filter, a
// projection or a map leaving keys alone — rows those keep or drop whole,
// and keys they pass through — or nil when a map defines one of keys.
func keyedInput(n Node, keys []string) Node {
	for {
		switch x := n.(type) {
		case *Filter:
			n = x.In
		case *Project:
			n = x.In
		case *Map:
			for _, ne := range x.Exprs {
				if contains(keys, ne.As) {
					return nil
				}
			}
			n = x.In
		default:
			return n
		}
	}
}
