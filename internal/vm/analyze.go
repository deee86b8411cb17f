package vm

import (
	"fmt"
	"strings"

	"inkfuse/internal/ir"
)

// The closure compiler's pre-pass (DESIGN.md §17). Compile translates the IR
// statement by statement except where a value has exactly one consumer inside
// the function: then producer and consumer compile into one operation and the
// value never becomes an n-element register. Two patterns qualify —
//
//   - a filter condition: the single-use bool temporaries of a conjunction of
//     comparisons and code-table predicates become the selectors of a cascade
//     (selector.go);
//   - a key build: the run MakeRow → Pack*(key)* → SealKey → AggLookup or
//     ProbeStmt whose row handles feed only the next statement becomes one
//     pack-hash-lookup operation (keybuild.go).
//
// A value with a second consumer anywhere in the function (a filter copy, an
// emit, another expression) stays a register and its consumers read it as
// before, so single-statement primitives — which have nothing to fuse —
// compile exactly as they always did, through the same code.

// countUses returns, per IR variable, how many reads of it the function
// contains (all scopes).
func countUses(f *ir.Func) map[int]int {
	uses := make(map[int]int)
	_ = ir.Walk(f.Body, func(o *ir.Operands) error { // never fails: the visit returns nil
		for _, r := range o.Reads {
			uses[r.V.ID]++
		}
		return nil
	})
	return uses
}

// blockPlan is what the pre-pass decided for one statement list.
type blockPlan struct {
	// absorbed maps a bool variable to its defining expression when the
	// Assign compiles to nothing because the block's filter evaluates the
	// expression as part of its selection cascade.
	absorbed map[int]ir.Expr
	// keyBuilds maps the index of a MakeRow statement to the index of the
	// AggLookup or ProbeStmt ending the run that compiles to one fused key
	// build or key probe.
	keyBuilds map[int]int
}

// planBlock finds the block's fusable patterns. A block with neither a filter
// nor a MakeRow — every expression primitive — gets the zero plan.
func (c *compiler) planBlock(stmts []ir.Stmt) blockPlan {
	var p blockPlan
	for i, s := range stmts {
		switch s := s.(type) {
		case ir.FilterStmt:
			// Only a definition in this very block qualifies: its operands
			// are registers of the cardinality the filter runs at.
			defs := make(map[int]ir.Expr)
			for _, d := range stmts[:i] {
				if a, ok := d.(ir.Assign); ok {
					defs[a.Dst.ID] = a.E
				}
			}
			if p.absorbed == nil {
				p.absorbed = make(map[int]ir.Expr)
			}
			c.absorb(ir.Ref(s.Cond), defs, p.absorbed)
		case ir.MakeRow:
			if end, ok := c.keyBuildRun(stmts, i); ok {
				if p.keyBuilds == nil {
					p.keyBuilds = make(map[int]int)
				}
				p.keyBuilds[i] = end
			}
		}
	}
	return p
}

// absorb walks a filter condition top-down through conjunctions and marks
// every single-use bool temporary on the way whose definition the cascade can
// evaluate itself: a conjunction (its two sides become consecutive selectors)
// or a comparison or code-table predicate (one selector). Anything else — a
// disjunction, LIKE, a bool column, a temporary with a second consumer — stays
// a materialized bool and enters the cascade as the trivial selector.
func (c *compiler) absorb(e ir.Expr, defs, absorbed map[int]ir.Expr) {
	switch x := e.(type) {
	case ir.VarRef:
		def, ok := defs[x.V.ID]
		if !ok || c.uses[x.V.ID] != 1 {
			return
		}
		switch d := def.(type) {
		case ir.CmpExpr, ir.CodeMatch:
			absorbed[x.V.ID] = def
		case ir.LogicExpr:
			if d.Op == ir.And {
				absorbed[x.V.ID] = def
				c.absorb(def, defs, absorbed)
			}
		}
	case ir.LogicExpr:
		if x.Op == ir.And {
			c.absorb(x.L, defs, absorbed)
			c.absorb(x.R, defs, absorbed)
		}
	}
}

// keyBuildRun matches the statement run starting at the MakeRow stmts[at]:
// key-region packs, SealKey, then the AggLookup or ProbeStmt that looks the key
// up, back to back, each consuming the row handle the previous statement
// defined and nothing else consuming any of them (ROF's Prefetch is a second
// reader of a probe key: that probe compiles statement by statement). It
// returns the index of the lookup. A run that also packs payload (the seed of
// a collated key, a join's build row) does not match: its consumer follows the
// payload packs, not the seal.
func (c *compiler) keyBuildRun(stmts []ir.Stmt, at int) (int, bool) {
	row := stmts[at].(ir.MakeRow).Dst
	for i := at + 1; i < len(stmts); i++ {
		if c.uses[row.ID] != 1 {
			return 0, false
		}
		switch s := stmts[i].(type) {
		case ir.PackFixed:
			if s.Row.ID != row.ID || s.Region != ir.KeyRegion {
				return 0, false
			}
			row = s.Dst
		case ir.PackStr:
			if s.Row.ID != row.ID || s.Region != ir.KeyRegion {
				return 0, false
			}
			row = s.Dst
		case ir.SealKey:
			if s.Row.ID != row.ID || i+1 >= len(stmts) || c.uses[s.Dst.ID] != 1 {
				return 0, false
			}
			switch look := stmts[i+1].(type) {
			case ir.AggLookup:
				return i + 1, look.Row.ID == s.Dst.ID
			case ir.ProbeStmt:
				return i + 1, look.ProbeRow.ID == s.Dst.ID
			}
			return 0, false
		default:
			return 0, false
		}
	}
	return 0, false
}

// Rewrites reports what the closure compiler made of a function: how many IR
// statements it read and how many closures it emitted for them, and which of
// the §17 patterns fired.
type Rewrites struct {
	Stmts    int // IR statements, all scopes
	Closures int // executable operations emitted (selectors included)
	// Cascades holds the selector count of every filter that compiled to
	// more than the trivial selector over a materialized bool.
	Cascades  []int
	KeyBuilds int // MakeRow…AggLookup runs compiled to one operation
	KeyProbes int // MakeRow…ProbeStmt runs compiled to one operation
	// GroupedUpdates counts runs of aggregate updates compiled to one
	// grouped update (stmt.go), RunCopies filters whose copies may be made
	// run by run (selector.go).
	GroupedUpdates int
	RunCopies      int
}

func (r Rewrites) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d stmts -> %d closures", r.Stmts, r.Closures)
	if len(r.Cascades) > 0 {
		fmt.Fprintf(&b, ", cascades %v", r.Cascades)
	}
	if r.KeyBuilds > 0 {
		fmt.Fprintf(&b, ", %d fused key build(s)", r.KeyBuilds)
	}
	if r.KeyProbes > 0 {
		fmt.Fprintf(&b, ", %d fused key probe(s)", r.KeyProbes)
	}
	if r.GroupedUpdates > 0 {
		fmt.Fprintf(&b, ", %d grouped update run(s)", r.GroupedUpdates)
	}
	if r.RunCopies > 0 {
		fmt.Fprintf(&b, ", %d run-copy filter(s)", r.RunCopies)
	}
	return b.String()
}
