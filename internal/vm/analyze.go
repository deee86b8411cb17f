package vm

import (
	"fmt"
	"strings"

	"inkfuse/internal/ir"
	"inkfuse/internal/types"
)

// The closure compiler's pre-pass (DESIGN.md §17). Before any code is
// emitted, plan walks the whole function and decides, statement by statement,
// what fuses; the emitters only read its decisions. A value with exactly one
// consumer inside the function lets producer and consumer compile into one
// operation, so the value never becomes an n-element register:
//
//   - a filter condition: the single-use bool temporaries of a conjunction of
//     comparisons and code-table predicates become the selectors of a cascade
//     (selector.go);
//   - a key build: the run MakeRow → Pack*(key)* → SealKey → AggLookup or
//     ProbeStmt whose row handles feed only the next statement becomes one
//     pack-hash-lookup operation (keybuild.go), and so does the one-column
//     AggLookupFixed;
//   - a run of sum and count updates of the group register of a word-key
//     lookup becomes one grouped update (stmt.go).
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

// form is what the pre-pass decided a statement compiles to.
type form uint8

const (
	plain       form = iota // itself, by stmt
	absorbed                // an Assign its block's filter evaluates in its cascade: nothing
	keyHead                 // the head of a key build or key probe: the run, one operation
	groupedHead             // the head of a grouped-update run: the run, one operation
)

// blockPlan is the pre-pass's decision for every statement of a list, at the
// statement's index.
type blockPlan []stmtPlan

type stmtPlan struct {
	form form
	// handover marks an emit in tail position (nothing executes after it):
	// its registers may be handed over to the sink.
	handover bool
	end      int        // one past a run's last statement
	key      *keyRun    // keyHead: the run; groupedHead: the lookup it follows
	scope    *scopePlan // a filter's, a probe's, a keyHead's ending in a probe
}

// scopePlan is the plan of a filter or probe and its scope. cascade lists a
// filter's selector conditions in order: comparisons and code-table
// predicates, anything else a bool to materialize; runCopies marks a filter
// with two copies or more, whose copies may be made run by run.
type scopePlan struct {
	cascade   []ir.Expr
	runCopies bool
	body      blockPlan
}

// keyRun is a key build or key probe as the pre-pass parsed it.
type keyRun struct {
	layoutID int        // the key's row layout state; -1: AggLookupFixed's raw column
	fields   []keyField // the key columns, in pack order; keyBuild fills in their registers
	look     ir.Stmt    // the AggLookup, AggLookupFixed or ProbeStmt ending the run
	ax       int        // the aux slot of the run's tableBatch
	// group is an aggregation lookup's group register, and memo reports that
	// the lookup resolves a word key — fixed-width fields, at most 8 bytes —
	// through the group memo.
	group int
	memo  bool
}

// plan is the pre-pass over a statement list; tail reports that nothing
// executes after its last statement. It fills in the Rewrites the plan
// decides.
func (c *compiler) plan(stmts []ir.Stmt, tail bool) blockPlan {
	rw := &c.p.rewrites
	rw.Stmts += len(stmts)
	p := make(blockPlan, len(stmts))
	for i := 0; i < len(stmts); i++ {
		sp := &p[i]
		last := tail && i == len(stmts)-1
		switch s := stmts[i].(type) {
		case ir.EmitStmt:
			sp.handover = last
		case ir.FilterStmt:
			sc := &scopePlan{cascade: c.cascade(ir.Ref(s.Cond), stmts[:i], p, nil), runCopies: len(s.Copies) >= 2}
			if j := assignOf(stmts[:i], s.Cond.ID); j >= 0 && p[j].form == absorbed {
				rw.Cascades = append(rw.Cascades, len(sc.cascade))
			}
			rw.Closures += len(sc.cascade) // one selector each
			if sc.runCopies {
				rw.RunCopies++
			}
			sc.body = c.plan(s.Body, last)
			sp.scope = sc
		case ir.ProbeStmt:
			sp.scope = &scopePlan{body: c.plan(s.Body, last)}
		case ir.MakeRow, ir.AggLookupFixed:
			k, end := c.keyRunAt(stmts, i)
			if k == nil {
				continue
			}
			sp.form, sp.key, sp.end = keyHead, k, end
			switch look := k.look.(type) {
			case ir.ProbeStmt:
				rw.KeyProbes++
				// Out of tail position: an emit in its scope copies (DESIGN.md §17).
				sp.scope = &scopePlan{body: c.plan(look.Body, false)}
			case ir.AggLookup:
				rw.KeyBuilds++
			}
			i = end - 1
		case ir.AggUpdate:
			var lookup *keyRun // the word-key lookup of the group register
			for _, q := range p[:i] {
				if q.form == keyHead && q.key.memo && q.key.group == s.Group.ID {
					lookup = q.key
				}
			}
			if lookup == nil {
				continue
			}
			// The run is every consecutive update of the register; a min,
			// max or count_if in it keeps the whole run statement by
			// statement.
			end, grouped := i, true
			for ; end < len(stmts); end++ {
				u, ok := stmts[end].(ir.AggUpdate)
				if !ok || u.Group.ID != s.Group.ID {
					break
				}
				grouped = grouped && (u.Fn == ir.AggSumI64 || u.Fn == ir.AggSumF64 || u.Fn == ir.AggCount)
			}
			if grouped {
				sp.form, sp.end, sp.key = groupedHead, end, lookup
				rw.GroupedUpdates++
			}
			i = end - 1
		}
	}
	return p
}

// assignOf returns the index of the Assign defining variable id in stmts, or
// -1. Only a definition in the filter's own block qualifies for its cascade:
// its operands are registers of the cardinality the filter runs at.
func assignOf(stmts []ir.Stmt, id int) int {
	for j, s := range stmts {
		if a, ok := s.(ir.Assign); ok && a.Dst.ID == id {
			return j
		}
	}
	return -1
}

// cascade walks a filter condition top-down through conjunctions and appends
// its selector conditions to sels. A single-use bool temporary defined in
// stmts (the statements before the filter) whose definition the cascade can
// evaluate itself — a conjunction (its two sides become consecutive
// selectors) or a comparison or code-table predicate (one selector) — is
// marked absorbed in p. Anything else — a disjunction, LIKE, a bool column, a
// temporary with a second consumer — stays a materialized bool and enters the
// cascade as the trivial selector.
func (c *compiler) cascade(e ir.Expr, stmts []ir.Stmt, p blockPlan, sels []ir.Expr) []ir.Expr {
	switch x := e.(type) {
	case ir.VarRef:
		j := assignOf(stmts, x.V.ID)
		if j < 0 || c.uses[x.V.ID] != 1 {
			break
		}
		switch d := stmts[j].(ir.Assign).E.(type) {
		case ir.CmpExpr, ir.CodeMatch:
			p[j].form = absorbed
			return append(sels, d)
		case ir.LogicExpr:
			if d.Op == ir.And {
				p[j].form = absorbed
				return c.cascade(d, stmts, p, sels)
			}
		}
	case ir.LogicExpr:
		if x.Op == ir.And {
			return c.cascade(x.R, stmts, p, c.cascade(x.L, stmts, p, sels))
		}
	}
	return append(sels, e)
}

// keyRunAt parses the key run starting at stmts[at] and returns it with the
// index one past its end, or nil. An AggLookupFixed is a run of its own: a
// one-column word key. Otherwise the run starts at a MakeRow: key-region
// packs, SealKey, then the AggLookup or ProbeStmt that looks the key up, back
// to back, each consuming the row handle the previous statement defined and
// nothing else consuming any of them (ROF's Prefetch is a second reader of a
// probe key: that probe compiles statement by statement). A run that also
// packs payload (the seed of a collated key, a join's build row) does not
// match: its consumer follows the payload packs, not the seal.
func (c *compiler) keyRunAt(stmts []ir.Stmt, at int) (*keyRun, int) {
	if s, ok := stmts[at].(ir.AggLookupFixed); ok {
		return &keyRun{layoutID: -1, fields: []keyField{{val: ir.Ref(s.Key), kind: s.Key.K, stateID: -1}}, look: s,
			ax: c.newAux(), group: s.Dst.ID, memo: true}, at + 1
	}
	k := &keyRun{layoutID: stmts[at].(ir.MakeRow).StateID}
	row := stmts[at].(ir.MakeRow).Dst
	for i := at + 1; i < len(stmts) && c.uses[row.ID] == 1; i++ {
		var pack ir.PackFixed
		switch s := stmts[i].(type) {
		case ir.PackFixed:
			pack = s
		case ir.PackStr:
			// The same fields; a string's place in the blob is no offset.
			pack, pack.StateID = ir.PackFixed(s), -1
		case ir.SealKey:
			if s.Row.ID != row.ID || i+1 >= len(stmts) || c.uses[s.Dst.ID] != 1 {
				return nil, 0
			}
			switch look := stmts[i+1].(type) {
			case ir.AggLookup:
				if look.Row.ID != s.Dst.ID {
					return nil, 0
				}
				k.group, k.memo = look.Dst.ID, wordKey(k.fields)
			case ir.ProbeStmt:
				if look.ProbeRow.ID != s.Dst.ID {
					return nil, 0
				}
			default:
				return nil, 0
			}
			k.look, k.ax = stmts[i+1], c.newAux()
			return k, i + 2
		default:
			return nil, 0
		}
		if pack.Row.ID != row.ID || pack.Region != ir.KeyRegion {
			return nil, 0
		}
		k.fields, row = append(k.fields, keyField{val: pack.Val, kind: pack.Val.Kind(), stateID: pack.StateID}), pack.Dst
	}
	return nil, 0
}

// wordKey reports whether a key of these columns is a word: fixed-width
// fields, 1 to 8 bytes in all.
func wordKey(fields []keyField) bool {
	width := 0
	for _, f := range fields {
		if f.kind == types.String {
			return false
		}
		width += f.kind.Width()
	}
	return width > 0 && width <= 8
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
