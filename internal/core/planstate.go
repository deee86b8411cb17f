package core

import "inkfuse/internal/rt"

// runState is a runtime state object that an execution fills and the next
// one must find empty: rt.JoinTableState, rt.AggTableState.
type runState interface {
	// Reset empties the state in place, keeping its memory.
	Reset()
	// Drop replaces the state's tables with fresh empty ones.
	Drop()
	RetainedBytes() int64
}

var (
	_ runState = (*rt.JoinTableState)(nil)
	_ runState = (*rt.AggTableState)(nil)
)

// PlanState lists the per-execution mutable state baked into a lowered plan —
// join tables, aggregation results — each object once.
// Compiled artifacts reference these same objects, so a plan instance is
// re-run by resetting them, never by replacing them. Collected once per plan
// instance (CollectPlanState); the methods are safe only while no execution
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

// Reset empties every state in place, keeping table memory, so the plan can
// run again on it (DESIGN.md §16).
func (ps *PlanState) Reset() {
	for _, s := range ps.states {
		s.Reset()
	}
}

// Drop replaces every state's tables with fresh empty ones, releasing their
// memory: the plan can run again, as cold as a newly lowered one.
func (ps *PlanState) Drop() {
	for _, s := range ps.states {
		s.Drop()
	}
}

// RetainedBytes returns the memory the states hold on to across Reset.
func (ps *PlanState) RetainedBytes() int64 {
	var n int64
	for _, s := range ps.states {
		n += s.RetainedBytes()
	}
	return n
}
