package vm

import (
	"fmt"

	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
)

// A filter compiles to a list of selectors (DESIGN.md §17). A selector narrows
// a selection vector: it reads the row indices in `in`, writes those whose row
// satisfies its predicate to the front of `out` (len(out) ≥ len(in); out may
// be the array in lives in — the write index never passes the read index) and
// returns how many it kept. The first selector of a filter reads the identity
// selection [0,n), every later one the survivors of its predecessor, so a
// conjunction costs Σ survivors instead of conjuncts × n, with no bool vector
// and no AND pass in between.
type selector func(fr *frame, in, out []int32) int

// Selection kernels: an unconditional store and a conditional increment per
// row, no data-dependent branch around the store.

//inkfuse:hotpath
func selectBool(in, out []int32, b []bool) int {
	j := 0
	for _, s := range in {
		out[j] = s
		if b[s] {
			j++
		}
	}
	return j
}

//inkfuse:hotpath
func selectCmpCC[T ordered](op ir.CmpOp, in, out []int32, a, b []T) int {
	j := 0
	switch op {
	case ir.Lt:
		for _, s := range in {
			out[j] = s
			if a[s] < b[s] {
				j++
			}
		}
	case ir.Le:
		for _, s := range in {
			out[j] = s
			if a[s] <= b[s] {
				j++
			}
		}
	case ir.Eq:
		for _, s := range in {
			out[j] = s
			if a[s] == b[s] {
				j++
			}
		}
	case ir.Ne:
		for _, s := range in {
			out[j] = s
			if a[s] != b[s] {
				j++
			}
		}
	case ir.Ge:
		for _, s := range in {
			out[j] = s
			if a[s] >= b[s] {
				j++
			}
		}
	default: // Gt
		for _, s := range in {
			out[j] = s
			if a[s] > b[s] {
				j++
			}
		}
	}
	return j
}

//inkfuse:hotpath
func selectCmpCK[T ordered](op ir.CmpOp, in, out []int32, a []T, k T) int {
	j := 0
	switch op {
	case ir.Lt:
		for _, s := range in {
			out[j] = s
			if a[s] < k {
				j++
			}
		}
	case ir.Le:
		for _, s := range in {
			out[j] = s
			if a[s] <= k {
				j++
			}
		}
	case ir.Eq:
		for _, s := range in {
			out[j] = s
			if a[s] == k {
				j++
			}
		}
	case ir.Ne:
		for _, s := range in {
			out[j] = s
			if a[s] != k {
				j++
			}
		}
	case ir.Ge:
		for _, s := range in {
			out[j] = s
			if a[s] >= k {
				j++
			}
		}
	default: // Gt
		for _, s := range in {
			out[j] = s
			if a[s] > k {
				j++
			}
		}
	}
	return j
}

// selectCode keeps the rows whose code the table maps to true: one load from
// a table of at most 2^16 entries per row, whatever the predicate it holds.
//
//inkfuse:hotpath
func selectCode(in, out []int32, codes []int32, tbl []bool) int {
	j := 0
	for _, s := range in {
		out[j] = s
		if tbl[codes[s]] {
			j++
		}
	}
	return j
}

// selectors compiles a filter's cascade (analyze.go) into its selector
// list, appending to blk whatever has to be materialized first (operands
// that are expressions, conjuncts that are not comparisons).
func (c *compiler) selectors(cascade []ir.Expr, blk *[]exec) ([]selector, error) {
	sels := make([]selector, 0, len(cascade))
	for _, e := range cascade {
		var sel selector
		var err error
		switch x := e.(type) {
		case ir.CmpExpr:
			switch k := x.L.Kind(); k {
			case types.Int32, types.Date:
				sel, err = cmpSelector(c, blk, x, getI32, constI32)
			case types.Int64:
				sel, err = cmpSelector(c, blk, x, getI64, constI64)
			case types.Float64:
				sel, err = cmpSelector(c, blk, x, getF64, constF64)
			case types.String:
				sel, err = cmpSelector(c, blk, x, getStr, constStr)
			default:
				err = fmt.Errorf("compare on kind %v", k)
			}
		case ir.CodeMatch:
			var cs int
			cs, err = c.expr(x.C, blk)
			id := x.StateID
			sel = func(fr *frame, in, out []int32) int {
				fr.ctx.Counters.VMOps += int64(len(in))
				return selectCode(in, out, fr.vecs[cs].I32, fr.state[id].(*rt.CodeTableState).T)
			}
		default:
			// Anything else is a bool register: the trivial selector.
			var bs int
			if bs, err = c.expr(e, blk); err == nil && c.p.slotKinds[bs] != types.Bool {
				err = fmt.Errorf("filter on %v condition", c.p.slotKinds[bs])
			}
			sel = func(fr *frame, in, out []int32) int {
				fr.ctx.Counters.VMOps += int64(len(in))
				return selectBool(in, out, fr.vecs[bs].B)
			}
		}
		if err != nil {
			return nil, err
		}
		sels = append(sels, sel)
	}
	return sels, nil
}

func cmpSelector[T ordered](c *compiler, blk *[]exec, x ir.CmpExpr,
	get func(*storage.Vector) []T, cget func(int) func([]any) T) (selector, error) {
	op, l, r, err := cmpOperands(c, blk, x, get, cget)
	if err != nil {
		return nil, err
	}
	if r.isConst() {
		return func(fr *frame, in, out []int32) int {
			fr.ctx.Counters.VMOps += int64(len(in))
			return selectCmpCK(op, in, out, l.get(fr.vecs[l.slot]), r.cget(fr.state))
		}, nil
	}
	return func(fr *frame, in, out []int32) int {
		fr.ctx.Counters.VMOps += int64(len(in))
		return selectCmpCC(op, in, out, l.get(fr.vecs[l.slot]), r.get(fr.vecs[r.slot]))
	}, nil
}

// filter compiles a FilterStmt: run the condition's selectors over the scope,
// copy the carried columns once through the final selection, run the body
// at the survivors' cardinality.
//
// A dense selection — one keeping at least 7/8 of the scope, like q1's 98 %
// — is a few long runs of consecutive rows: a filter with two copies or more
// (the plan's runCopies) finds the runs once and copies every column run by
// run (storage.Vector.CopyRuns) instead of element by element. A sparser one
// is gathered.
func (c *compiler) filter(s ir.FilterStmt, sc *scopePlan, blk *[]exec) error {
	sels, err := c.selectors(sc.cascade, blk)
	if err != nil {
		return err
	}
	pairs, err := c.gathers(s.Copies)
	if err != nil {
		return err
	}
	body, err := c.block(s.Body, sc.body)
	if err != nil {
		return err
	}
	runCopies := sc.runCopies
	selAux, runAux := c.newAux(), c.newAux()
	*blk = append(*blk, func(fr *frame, n int) {
		bp := auxSlice[int32](fr, selAux)
		if cap(*bp) < n {
			*bp = make([]int32, n)
		}
		buf := (*bp)[:n]
		sel := fr.ctx.identity(n)
		for _, s := range sels {
			sel = buf[:s(fr, sel, buf)]
		}
		if runCopies && len(sel)*8 >= n*7 {
			runs := selRuns(sel, auxSlice[int32](fr, runAux))
			for _, p := range pairs {
				fr.vecs[p.src].CopyRuns(fr.vecs[p.dst], runs, len(sel))
			}
		} else {
			for _, p := range pairs {
				fr.vecs[p.src].Gather(fr.vecs[p.dst], sel)
			}
		}
		runBlock(body, fr, len(sel))
	})
	return nil
}

// selRuns returns the runs of consecutive rows in the ascending selection
// sel as [lo, hi) pairs, in the buffer rp holds.
//
//inkfuse:hotpath
func selRuns(sel []int32, rp *[]int32) []int32 {
	runs := (*rp)[:0]
	for i := 0; i < len(sel); {
		lo := sel[i]
		j := i + 1
		for j < len(sel) && sel[j] == sel[j-1]+1 {
			j++
		}
		runs = append(runs, lo, sel[j-1]+1) //inklint:allow alloc — into the filter's run buffer, kept across calls
		i = j
	}
	*rp = runs
	return runs
}
