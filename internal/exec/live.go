package exec

import "inkfuse/internal/core"

// step is a slice of a pipeline between two materialization points: the ROF
// staging points (paper §III — "both are DAGs of operators, starting with a
// source and ending with a sink; only the scheduler needs to be aware of the
// distinction").
type step struct {
	source []*core.IU
	ops    []core.SubOp
	emit   []*core.IU // live IUs materialized into the staging buffer
}

// splitSteps cuts a pipeline's suboperator list before every index where
// splitBefore returns true and computes, per step, the source IUs it reads
// from the previous staging buffer and the live IUs it must materialize for
// later steps. The final step emits the pipeline result.
func splitSteps(source []*core.IU, ops []core.SubOp, result []*core.IU,
	splitBefore func(i int, op core.SubOp) bool) []step {
	var steps []step
	lo, prev := 0, source
	for hi := 1; hi < len(ops); hi++ {
		if splitBefore(hi, ops[hi]) {
			emit := liveAt(source, ops, hi, result)
			steps = append(steps, step{source: prev, ops: ops[lo:hi], emit: emit})
			lo, prev = hi, emit
		}
	}
	return append(steps, step{source: prev, ops: ops[lo:], emit: result})
}

// liveAt is the live set at a cut before ops[cut]: the IUs defined before it
// (the source, then op outputs) that an op at or after it, or the result,
// reads — in order of first definition, which keeps staging-buffer column
// order deterministic.
func liveAt(source []*core.IU, ops []core.SubOp, cut int, result []*core.IU) []*core.IU {
	needed := make(map[int]bool)
	for _, iu := range result {
		needed[iu.ID] = true
	}
	for _, op := range ops[cut:] {
		for _, iu := range op.Desc().Inputs() {
			needed[iu.ID] = true
		}
	}
	var live []*core.IU
	keep := func(ius []*core.IU) {
		for _, iu := range ius {
			if needed[iu.ID] {
				live = append(live, iu)
				delete(needed, iu.ID)
			}
		}
	}
	keep(source)
	for _, op := range ops[:cut] {
		keep(op.Desc().Outputs())
	}
	return live
}
