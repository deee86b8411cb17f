package core

import (
	"fmt"

	"inkfuse/internal/rt"
	"inkfuse/internal/types"
)

// VerifyPlan structurally checks a lowered plan's suboperator DAG before
// execution: every IU is defined before use and has a single producer,
// every port has a kind its suboperator's description admits, and the
// pipeline-breaker placement is sound (a join table is probed only after the
// pipeline that seals it; an aggregate is read only after the pipeline that
// merges it). The server runs it once per plan, after lowering and before
// the plan enters the plan cache; tests call it directly.
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
		for i := 0; i < len(s.Cols) && s.Table != nil; i++ {
			if ci := s.Cols[i]; ci < 0 || ci >= len(s.Table.Cols) {
				return fmt.Errorf("table scan reads column %d of %d", ci, len(s.Table.Cols))
			}
			if k := s.Column(i).Kind; s.IUs[i] != nil && s.IUs[i].K != k {
				return fmt.Errorf("table scan binds a %v column to %s", k, s.IUs[i])
			}
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
	checkOp := func(oi int, op SubOp) error {
		d := op.Desc()
		for _, p := range d.In {
			if p.IU == nil && p.Const == nil {
				return fmt.Errorf("nil %s IU", p.Role)
			}
			if p.IU != nil {
				if err := use(p.IU); err != nil {
					return err
				}
			}
			if err := p.check(); err != nil {
				return err
			}
		}
		for _, st := range d.State {
			switch st := st.(type) {
			case *rt.AggTableState:
				fedAggs[st] = true
			case *rt.JoinTableState:
				// A JoinInsert builds the table; any other suboperator probes it.
				if _, insert := op.(*JoinInsert); insert {
					built[st] = true
				} else if err := v.probeOrder(idx, st); err != nil {
					return err
				}
			}
		}
		for _, p := range d.Out {
			if p.IU == nil {
				return fmt.Errorf("nil %s IU", p.Role)
			}
			if err := p.check(); err != nil {
				return err
			}
			if _, dup := defined[p.IU.ID]; dup {
				return fmt.Errorf("IU %s has multiple producers", p.IU)
			}
			defined[p.IU.ID] = p.IU
			definedAt[p.IU.ID] = oi
		}
		switch op := op.(type) {
		case *JoinProbe:
			probeAt[op.SelOut.ID] = oi
		case *ProbeCopy:
			at, ok := probeAt[op.Sel.ID]
			if !ok {
				return fmt.Errorf("selection %s is not a join probe's match selection", op.Sel)
			}
			if definedAt[op.Src.ID] >= at {
				return fmt.Errorf("source %s is produced inside the scope of the probe (op %d) whose selection gathers it", op.Src, at)
			}
		}
		return nil
	}
	for oi, op := range pipe.Ops {
		if op == nil {
			return fmt.Errorf("op %d is nil", oi)
		}
		if err := checkOp(oi, op); err != nil {
			return fmt.Errorf("op %d (%T): %w", oi, op, err)
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

// check reports a port whose kind its rule does not admit.
func (p Port) check() error {
	k := p.Kind()
	if p.Want.Admits(k) {
		return nil
	}
	want := p.Want.String()
	if p.Want == isPtr {
		want = "a Ptr packed row"
	}
	if p.Like != "" {
		want += " like the " + p.Like
	}
	name := "constant"
	if p.IU != nil {
		name = p.IU.String()
	}
	return fmt.Errorf("%s %s must be %s, got %v", p.Role, name, want, k)
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
