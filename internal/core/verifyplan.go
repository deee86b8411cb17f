package core

import (
	"fmt"

	"inkfuse/internal/rt"
	"inkfuse/internal/types"
)

// VerifyPlan structurally checks a lowered plan's suboperator DAG before
// execution: every IU is defined before use and has a single producer,
// edge kinds are consistent, packed-row IUs are Ptr-typed, and the
// pipeline-breaker placement is sound (a join table is probed only after the
// pipeline that seals it; an aggregate is read only after the pipeline that
// merges it). Plan-construction tests call it directly, and
// exec.Options.VerifyIR runs it before every query.
//
// The per-backend IR (ir.Func) has its own verifier, ir.Verify; VerifyPlan
// checks the layer above — the suboperator graph all four backends consume.
func VerifyPlan(p *Plan) error {
	if p == nil {
		return fmt.Errorf("core: verify: nil plan")
	}
	if len(p.Pipelines) == 0 {
		return fmt.Errorf("core: verify %s: plan has no pipelines", p.Name)
	}

	v := &planVerifier{
		plan:       p,
		sealedAt:   map[*rt.JoinTableState]int{},
		mergedAt:   map[*rt.AggTableState]int{},
		pipeOfName: map[string]int{},
	}
	for i, pipe := range p.Pipelines {
		if err := v.pipeline(i, pipe); err != nil {
			return fmt.Errorf("core: verify %s/%s: %w", p.Name, pipe.Name, err)
		}
	}
	if err := v.final(); err != nil {
		return fmt.Errorf("core: verify %s: %w", p.Name, err)
	}
	return nil
}

type planVerifier struct {
	plan *Plan
	// sealedAt / mergedAt record the pipeline index that seals a join table /
	// merges an aggregation — the pipeline breakers of the plan.
	sealedAt   map[*rt.JoinTableState]int
	mergedAt   map[*rt.AggTableState]int
	pipeOfName map[string]int
}

func (v *planVerifier) pipeline(idx int, pipe *Pipeline) error {
	if pipe == nil {
		return fmt.Errorf("nil pipeline")
	}
	if prev, dup := v.pipeOfName[pipe.Name]; dup {
		return fmt.Errorf("duplicate pipeline name (also pipeline %d)", prev)
	}
	v.pipeOfName[pipe.Name] = idx

	// IU identity is the ID, not the pointer: lowering renames values across
	// projections by aliasing a fresh *IU onto an existing ID, and both the
	// fused-code generator and the VM key their bindings on it.
	defined := map[int]*IU{}
	use := func(iu *IU) error {
		prev, ok := defined[iu.ID]
		if !ok {
			return fmt.Errorf("input %s used before any producer defines it", iu)
		}
		if prev.K != iu.K {
			return fmt.Errorf("aliases %s and %s of IU %d disagree on kind", prev, iu, iu.ID)
		}
		return nil
	}
	if pipe.Source == nil {
		return fmt.Errorf("pipeline has no source")
	}
	switch s := pipe.Source.(type) {
	case *TableScan:
		if len(s.Cols) != len(s.IUs) {
			return fmt.Errorf("table scan binds %d columns to %d IUs", len(s.Cols), len(s.IUs))
		}
	case *AggRead:
		if s.Out == nil || s.Out.K != types.Ptr {
			return fmt.Errorf("aggregate read must produce a Ptr row IU")
		}
		at, ok := v.mergedAt[s.State]
		if !ok {
			return fmt.Errorf("reads an aggregate no earlier pipeline merges")
		}
		if at >= idx {
			return fmt.Errorf("reads an aggregate merged by pipeline %d, which does not run earlier", at)
		}
	}
	for _, iu := range pipe.Source.SourceIUs() {
		if iu == nil {
			return fmt.Errorf("nil source IU")
		}
		if _, dup := defined[iu.ID]; dup {
			return fmt.Errorf("source IU %s bound twice", iu)
		}
		defined[iu.ID] = iu
	}

	built := map[*rt.JoinTableState]bool{}
	fedAggs := map[*rt.AggTableState]bool{}
	// definedAt: the op that produces an IU (-1 for the source); probeAt: the
	// JoinProbe that produces a match selection. A probe copy reads its source
	// column through the selection, so the column must exist at the
	// cardinality the probe ran at — produced before the probe, not inside
	// its scope.
	definedAt := map[int]int{}
	for _, iu := range pipe.Source.SourceIUs() {
		definedAt[iu.ID] = -1
	}
	probeAt := map[int]int{}
	for oi, op := range pipe.Ops {
		if op == nil {
			return fmt.Errorf("op %d is nil", oi)
		}
		for _, in := range op.Inputs() {
			if in == nil {
				return fmt.Errorf("op %d (%T): nil input IU", oi, op)
			}
			if err := use(in); err != nil {
				return fmt.Errorf("op %d (%T): %w", oi, op, err)
			}
		}
		if err := opEdges(op); err != nil {
			return fmt.Errorf("op %d: %w", oi, err)
		}
		switch op := op.(type) {
		case *JoinInsert:
			built[op.State] = true
		case *Prefetch:
			if err := v.probeOrder(idx, op.State); err != nil {
				return fmt.Errorf("op %d (%T): %w", oi, op, err)
			}
		case *JoinProbe:
			if err := v.probeOrder(idx, op.State); err != nil {
				return fmt.Errorf("op %d (%T): %w", oi, op, err)
			}
			probeAt[op.SelOut.ID] = oi
		case *ProbeCopy:
			at, ok := probeAt[op.Sel.ID]
			if !ok {
				return fmt.Errorf("op %d (%T): selection %s is not a join probe's match selection", oi, op, op.Sel)
			}
			if definedAt[op.Src.ID] >= at {
				return fmt.Errorf("op %d (%T): source %s is produced inside the scope of the probe (op %d) whose selection gathers it", oi, op, op.Src, at)
			}
		case *AggLookup:
			fedAggs[op.State] = true
		case *AggLookupFixed:
			fedAggs[op.State] = true
		}
		for _, out := range op.Outputs() {
			if out == nil {
				return fmt.Errorf("op %d (%T): nil output IU", oi, op)
			}
			if _, dup := defined[out.ID]; dup {
				return fmt.Errorf("op %d (%T): IU %s has multiple producers", oi, op, out)
			}
			defined[out.ID] = out
			definedAt[out.ID] = oi
		}
	}

	// Pipeline breakers: seals and merges belong to the pipeline that builds
	// the state, exactly once plan-wide.
	for _, js := range pipe.SealJoins {
		if !built[js] {
			return fmt.Errorf("seals a join table no JoinInsert in this pipeline builds")
		}
		if at, dup := v.sealedAt[js]; dup {
			return fmt.Errorf("join table already sealed by pipeline %d", at)
		}
		v.sealedAt[js] = idx
	}
	for js := range built {
		if _, ok := v.sealedAt[js]; !ok {
			return fmt.Errorf("builds a join table this pipeline never seals")
		}
	}
	for _, fin := range pipe.MergeAggs {
		if fin == nil || fin.State == nil {
			return fmt.Errorf("nil aggregate finalize")
		}
		if !fedAggs[fin.State] && !fin.Keyless {
			return fmt.Errorf("merges an aggregate no lookup in this pipeline feeds")
		}
		if at, dup := v.mergedAt[fin.State]; dup {
			return fmt.Errorf("aggregate already merged by pipeline %d", at)
		}
		v.mergedAt[fin.State] = idx
	}
	for st := range fedAggs {
		if _, ok := v.mergedAt[st]; !ok {
			return fmt.Errorf("feeds an aggregate this pipeline never merges")
		}
	}

	// Sinks: a pipeline either materializes its Result IUs or exists for its
	// side effects (hash-table builds).
	if pipe.Result == nil {
		if len(pipe.SealJoins)+len(pipe.MergeAggs) == 0 {
			return fmt.Errorf("sink pipeline has neither result IUs nor table side effects")
		}
	} else {
		for _, iu := range pipe.Result {
			if iu == nil {
				return fmt.Errorf("nil result IU")
			}
			if err := use(iu); err != nil {
				if _, ok := defined[iu.ID]; !ok {
					return fmt.Errorf("result IU %s is never materialized", iu)
				}
				return err
			}
		}
	}
	return nil
}

// probeOrder checks a probe/prefetch reads a table sealed by a strictly
// earlier pipeline — the pipeline-breaker placement rule.
func (v *planVerifier) probeOrder(idx int, st *rt.JoinTableState) error {
	at, ok := v.sealedAt[st]
	if !ok {
		return fmt.Errorf("probes a join table no earlier pipeline seals")
	}
	if at >= idx {
		return fmt.Errorf("probes a join table sealed in the same pipeline (missing pipeline breaker)")
	}
	return nil
}

// opEdges checks the kind consistency the suboperator's primitive assumes.
func opEdges(op SubOp) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("(%T): %w", op, fmt.Errorf(format, args...))
	}
	wantBool := func(role string, iu *IU) error {
		if iu != nil && iu.K != types.Bool {
			return bad("%s %s must be Bool, got %v", role, iu, iu.K)
		}
		return nil
	}
	wantPtr := func(role string, iu *IU) error {
		if iu != nil && iu.K != types.Ptr {
			return bad("%s %s must be a Ptr packed row, got %v", role, iu, iu.K)
		}
		return nil
	}
	switch op := op.(type) {
	case *ScanCol:
		if op.Src.K != op.Dst.K {
			return bad("scan copies %v into %v", op.Src.K, op.Dst.K)
		}
	case *FilterScope:
		return wantBool("filter condition", op.Cond)
	case *FilterCopy:
		if err := wantBool("filter condition", op.Cond); err != nil {
			return err
		}
		if op.Src.K != op.Dst.K {
			return bad("filter copies %v into %v", op.Src.K, op.Dst.K)
		}
	case *Cmp:
		if op.L.Kind() != op.R.Kind() {
			return bad("comparison of %v against %v", op.L.Kind(), op.R.Kind())
		}
		return wantBool("comparison output", op.Out)
	case *Logic:
		for _, iu := range []*IU{op.L, op.R, op.Out} {
			if err := wantBool("logic operand", iu); err != nil {
				return err
			}
		}
	case *Not:
		if err := wantBool("not input", op.In); err != nil {
			return err
		}
		return wantBool("not output", op.Out)
	case *Arith:
		if op.L.Kind() != op.R.Kind() {
			return bad("arithmetic over %v and %v", op.L.Kind(), op.R.Kind())
		}
	case *MakeRow:
		return wantPtr("row output", op.Out)
	case *PackFixed:
		if err := wantPtr("row input", op.Row); err != nil {
			return err
		}
		return wantPtr("row output", op.Out)
	case *PackStr:
		if err := wantPtr("row input", op.Row); err != nil {
			return err
		}
		return wantPtr("row output", op.Out)
	case *SealKey:
		if err := wantPtr("row input", op.Row); err != nil {
			return err
		}
		return wantPtr("row output", op.Out)
	case *AggLookup:
		if err := wantPtr("key row", op.Row); err != nil {
			return err
		}
		return wantPtr("group row", op.Out)
	case *AggLookupFixed:
		return wantPtr("group row", op.Out)
	case *AggUpdate:
		return wantPtr("group row", op.Group)
	case *JoinInsert:
		return wantPtr("build row", op.Row)
	case *Prefetch:
		return wantPtr("probe row", op.Row)
	case *JoinProbe:
		if err := wantPtr("probe row", op.Row); err != nil {
			return err
		}
		if err := wantPtr("build match row", op.BuildOut); err != nil {
			return err
		}
		if op.SelOut == nil || op.SelOut.K != types.Int32 {
			return bad("match selection %v must be an Int32 IU", op.SelOut)
		}
		return wantBool("matched marker", op.MatchedOut)
	case *ProbeCopy:
		if op.Sel.K != types.Int32 {
			return bad("match selection %s must be Int32, got %v", op.Sel, op.Sel.K)
		}
		if op.Src.K != op.Dst.K {
			return bad("probe copies %v into %v", op.Src.K, op.Dst.K)
		}
	case *UnpackFixed:
		return wantPtr("row input", op.Row)
	case *UnpackStr:
		return wantPtr("row input", op.Row)
	}
	return nil
}

// final checks the plan-level sink: result schema and ordering.
func (v *planVerifier) final() error {
	kinds, err := v.plan.FinalKinds()
	if err != nil {
		return err
	}
	if len(v.plan.ColNames) != 0 && len(v.plan.ColNames) != len(kinds) {
		return fmt.Errorf("%d column names for %d result columns", len(v.plan.ColNames), len(kinds))
	}
	if s := v.plan.Sort; s != nil {
		if len(s.Desc) != 0 && len(s.Desc) != len(s.Keys) {
			return fmt.Errorf("sort has %d keys but %d desc flags", len(s.Keys), len(s.Desc))
		}
		for _, k := range s.Keys {
			if k < 0 || k >= len(kinds) {
				return fmt.Errorf("sort key %d outside the %d result columns", k, len(kinds))
			}
		}
	}
	return nil
}
