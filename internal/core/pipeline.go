package core

import (
	"fmt"

	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
)

// Source is a pipeline's data origin. The execution backends bind its IUs to
// input vectors: fused programs read them directly; the vectorized
// interpreter materializes them through tscan primitives into the first
// tuple buffer (paper Fig 3).
type Source interface {
	SourceIUs() []*IU
	sourceMarker()
}

// TableScan reads columns of a base table, morsel by morsel. A
// dictionary-coded string column may be read as its Int32 codes instead of
// its strings (DESIGN.md §20).
type TableScan struct {
	Table *storage.Table
	Cols  []int  // column indexes into the table
	IUs   []*IU  // parallel to Cols
	Coded []bool // parallel to Cols (nil: none): read the column's codes
}

// Column returns the vector the i-th source IU reads: the table column, or
// its dictionary codes.
func (t *TableScan) Column(i int) *storage.Vector {
	if i < len(t.Coded) && t.Coded[i] {
		return t.Table.Dict(t.Cols[i]).Codes
	}
	return t.Table.Cols[t.Cols[i]]
}

// SourceIUs implements Source.
func (t *TableScan) SourceIUs() []*IU { return t.IUs }

func (*TableScan) sourceMarker() {}

// AggRead scans the groups of a completed aggregation: its IU is the packed
// group row from which key-unpack and aggregate-read suboperators recover
// columns.
type AggRead struct {
	State *rt.AggTableState
	Out   *IU // Ptr
}

// SourceIUs implements Source.
func (a *AggRead) SourceIUs() []*IU { return []*IU{a.Out} }

func (*AggRead) sourceMarker() {}

// AggFinalize tells the scheduler to merge the workers' aggregation tables
// into the global table when the pipeline completes. Keyless aggregations
// (no GROUP BY) guarantee one group even on empty input.
type AggFinalize struct {
	State   *rt.AggTableState
	Keyless bool
}

// Pipeline is one executable pipeline: a source, a linear sequence of
// suboperators (scopes nest monotonically), and a sink — either Result IUs
// (materialize output columns) or side effects (hash-table builds).
type Pipeline struct {
	Name   string
	Source Source
	Ops    []SubOp
	Result []*IU // nil => pure sink pipeline

	// SealJoins lists join tables this pipeline builds; the scheduler seals
	// them when the pipeline completes.
	SealJoins []*rt.JoinTableState
	// MergeAggs lists aggregations this pipeline feeds.
	MergeAggs []*AggFinalize
}

// ResultKinds returns the kinds of the result columns.
func (p *Pipeline) ResultKinds() []types.Kind {
	ks := make([]types.Kind, len(p.Result))
	for i, iu := range p.Result {
		ks[i] = iu.K
	}
	return ks
}

// GenFused runs the compilation stack over the whole pipeline, producing the
// single fused function of a traditional compiling engine (paper Fig 3
// left). The returned state array is shared with every other backend.
func (p *Pipeline) GenFused() (*ir.Func, []any, error) {
	return GenStep("pipeline_"+p.Name, p.Source.SourceIUs(), p.Ops, p.Result)
}

// SortSpec orders the final result (ORDER BY ... LIMIT ...). The supported
// plans all sort the final, already-aggregated result, so ordering is a
// post-processing step on the result buffer rather than a pipeline source.
type SortSpec struct {
	// Keys are result column indexes; Desc is parallel.
	Keys  []int
	Desc  []bool
	Limit int // 0 = no limit
}

// Plan is a fully lowered query: pipelines in execution order plus the
// result schema and optional ordering.
type Plan struct {
	Name      string
	Pipelines []*Pipeline
	ColNames  []string
	Sort      *SortSpec
}

// FinalKinds returns the result column kinds of the plan's last pipeline.
func (p *Plan) FinalKinds() ([]types.Kind, error) {
	if len(p.Pipelines) == 0 {
		return nil, fmt.Errorf("core: plan %s has no pipelines", p.Name)
	}
	last := p.Pipelines[len(p.Pipelines)-1]
	if last.Result == nil {
		return nil, fmt.Errorf("core: plan %s: final pipeline has no result", p.Name)
	}
	return last.ResultKinds(), nil
}
