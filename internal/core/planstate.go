package core

import "inkfuse/internal/rt"

// runState is a runtime state object that an execution fills and the next
// one must find empty: rt.JoinTableState, rt.AggTableState. It holds only a
// pointer to a table a worker context owns.
type runState interface {
	// Reset clears the pointer.
	Reset()
}

var (
	_ runState = (*rt.JoinTableState)(nil)
	_ runState = (*rt.AggTableState)(nil)
)

// PlanState lists the per-execution mutable state baked into a lowered plan —
// the pointers to its join tables and aggregation results — each object once.
// Compiled artifacts reference these same objects, so a plan instance is
// re-run by resetting them, never by replacing them. Collected once per plan
// instance (CollectPlanState); Reset is safe only while no execution
// references the plan.
type PlanState struct {
	states []runState
}

// CollectPlanState walks the plan once and gathers its resettable state.
func CollectPlanState(p *Plan) *PlanState {
	ps := &PlanState{}
	seen := make(map[runState]bool)
	add := func(st any) {
		if s, ok := st.(runState); ok && !seen[s] {
			seen[s] = true
			ps.states = append(ps.states, s)
		}
	}
	for _, pipe := range p.Pipelines {
		if src, ok := pipe.Source.(*AggRead); ok {
			add(src.State)
		}
		for _, op := range pipe.Ops {
			for _, st := range op.Desc().State {
				add(st)
			}
		}
		for _, jt := range pipe.SealJoins {
			add(jt)
		}
		for _, fin := range pipe.MergeAggs {
			add(fin.State)
		}
	}
	return ps
}

// Reset clears every state's table pointer, so the plan can run again
// (DESIGN.md §16). The tables are the worker contexts' to reset or drop.
func (ps *PlanState) Reset() {
	for _, s := range ps.states {
		s.Reset()
	}
}
