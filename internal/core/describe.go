package core

import (
	"fmt"
	"strings"
)

// Describe renders the suboperator plan in the style of the paper's Fig 7:
// one block per pipeline showing the source, the suboperator DAG in
// execution order (with the primitive each would resolve to in the
// vectorized backend), and the sink.
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s: %d pipeline(s)\n", p.Name, len(p.Pipelines))
	for _, pipe := range p.Pipelines {
		b.WriteString(pipe.Describe())
	}
	if p.Sort != nil {
		fmt.Fprintf(&b, "post: order by %v desc=%v limit=%d\n", p.Sort.Keys, p.Sort.Desc, p.Sort.Limit)
	}
	return b.String()
}

// Describe renders one pipeline's block of the Fig 7 rendering; shared by
// Plan.Describe and the EXPLAIN ANALYZE renderer, which interleaves measured
// execution numbers between the blocks.
func (pipe *Pipeline) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline %s:\n", pipe.Name)
	switch s := pipe.Source.(type) {
	case *TableScan:
		cols := make([]string, len(s.IUs))
		for i, iu := range s.IUs {
			cols[i] = iu.Name
		}
		fmt.Fprintf(&b, "  source: scan %s(%s)\n", s.Table.Name, strings.Join(cols, ", "))
	case *AggRead:
		fmt.Fprintf(&b, "  source: aggregate groups -> %s\n", s.Out)
	default:
		fmt.Fprintf(&b, "  source: %T\n", s)
	}
	for _, op := range pipe.Ops {
		id := op.PrimitiveID()
		if id == "" {
			id = "(fused into copies)"
		}
		var outs []string
		for _, iu := range op.Desc().Outputs() {
			outs = append(outs, iu.String())
		}
		arrow := ""
		if len(outs) > 0 {
			arrow = " -> " + strings.Join(outs, ", ")
		}
		fmt.Fprintf(&b, "  %-28s%s\n", id, arrow)
	}
	switch {
	case pipe.Result != nil:
		var outs []string
		for _, iu := range pipe.Result {
			outs = append(outs, iu.Name)
		}
		fmt.Fprintf(&b, "  sink: result(%s)\n", strings.Join(outs, ", "))
	case len(pipe.SealJoins) > 0:
		fmt.Fprintf(&b, "  sink: join hash table build (seal on completion)\n")
	case len(pipe.MergeAggs) > 0:
		fmt.Fprintf(&b, "  sink: aggregation build (merge per-worker tables on completion)\n")
	default:
		fmt.Fprintf(&b, "  sink: none\n")
	}
	return b.String()
}
