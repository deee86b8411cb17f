package algebra

import (
	"fmt"
	"strings"

	"inkfuse/internal/core"
	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/types"
)

// Dictionary codes in the lowering (DESIGN.md §20). A scan reads a
// dictionary-coded string column as its Int32 codes, and the codes flow as an
// ordinary Int32 column: through filter and probe copies, into group keys
// (fixed-width key fields, a one-column key's direct lookup) and join
// payloads, and out of the group rows again. l.dicts remembers which bound
// columns hold codes and of which dictionary. Where a string is needed — a
// result column, an expression over strings, a join key, a collated key — a
// Decode puts it back, a view of the dictionary's own string, so answers are
// byte-identical. A predicate of one coded column against constants becomes a
// code → bool table, evaluated once per dictionary entry here and again
// whenever a parameter it reads is rebound.

// plain returns the named column as the engine's string (or other) column: a
// coded column is decoded, once per scope.
func (l *lowerer) plain(name string) (*core.IU, error) {
	iu, ok := l.cols[name]
	if !ok {
		return nil, fmt.Errorf("algebra: column %q not bound in pipeline", name)
	}
	d := l.dicts[name]
	if d == nil {
		return iu, nil
	}
	if s, ok := l.decoded[iu.ID]; ok {
		return s, nil
	}
	out := core.NewIU(types.String, name)
	l.add(&core.Decode{In: iu, State: &rt.DictState{Values: d.Values}, Out: out})
	l.decoded[iu.ID] = out
	return out, nil
}

// codedPredicate reports the column e is a constant predicate over, when e is
// one the code tables answer: comparisons, LIKE and IN of one coded column
// against constants, combined by NOT, AND and OR. A dictionary with more
// entries than half its column's rows would save less than half the
// evaluations the rows take, and pay them serially on every rebind: such a
// column's predicates run on its strings.
func (l *lowerer) codedPredicate(e Expr) (string, bool) {
	col := ""
	var walk func(Expr) bool
	same := func(x Expr) bool {
		c, ok := x.(ColRef)
		if !ok || (col != "" && c.Name != col) {
			return false
		}
		col = c.Name
		return true
	}
	walk = func(e Expr) bool {
		switch x := e.(type) {
		case CmpE:
			if k, ok := x.R.(Const); ok && k.K == types.String {
				return same(x.L)
			}
			if k, ok := x.L.(Const); ok && k.K == types.String {
				return same(x.R)
			}
		case LikeE:
			return same(x.E)
		case InListE:
			return same(x.E)
		case NotE:
			return walk(x.E)
		case LogicE:
			return walk(x.L) && walk(x.R)
		}
		return false
	}
	if !walk(e) {
		return "", false
	}
	d := l.dicts[col]
	return col, d != nil && 2*len(d.Values) <= d.Codes.Len()
}

// lowerCodeMatch lowers the constant predicate e over the coded column col
// into one CodeMatch reading a code → bool table.
func (l *lowerer) lowerCodeMatch(e Expr, col string) (*core.IU, error) {
	var refs []int
	pred := l.stringPredicate(e, &refs)
	values := l.dicts[col].Values
	st := &rt.CodeTableState{T: make([]bool, len(values))}
	fill := func() {
		for c, v := range values {
			st.T[c] = pred(v)
		}
	}
	fill()
	l.params.addRefill(refs, fill)
	out := core.NewIU(types.Bool, "b_code")
	l.add(&core.CodeMatch{In: l.cols[col], State: st, Out: out})
	return out, nil
}

// stringPredicate compiles a predicate codedPredicate accepted into a
// function of the column's string. Its constants live in the same runtime
// states the suboperators would read, registered under their refs (collected
// into refs), so a rebound parameter is seen by the next fill.
func (l *lowerer) stringPredicate(e Expr, refs *[]int) func(string) bool {
	switch x := e.(type) {
	case CmpE:
		op, k := x.Op, x.R
		if c, ok := x.L.(Const); ok {
			op, k = mirror(op), c
		}
		c := k.(Const)
		st := l.constState(c)
		*refs = append(*refs, c.Ref)
		return func(v string) bool { return cmpHolds(op, strings.Compare(v, st.Str)) }
	case LikeE:
		st := &rt.LikeState{M: rt.NewLikeMatcher(x.Pattern)}
		l.params.addLike(x.Ref, st)
		*refs = append(*refs, x.Ref)
		neg := x.Negate
		return func(v string) bool { return st.M.Match(v) != neg }
	case InListE:
		st := rt.NewInList(x.Members...)
		l.params.addInList(x.Ref, st)
		*refs = append(*refs, x.Ref)
		return st.Contains
	case NotE:
		p := l.stringPredicate(x.E, refs)
		return func(v string) bool { return !p(v) }
	default:
		lg := e.(LogicE)
		lp, rp := l.stringPredicate(lg.L, refs), l.stringPredicate(lg.R, refs)
		if lg.Op == ir.And {
			return func(v string) bool { return lp(v) && rp(v) }
		}
		return func(v string) bool { return lp(v) || rp(v) }
	}
}

// cmpHolds reports whether op holds for two values that compare as c
// (strings.Compare).
func cmpHolds(op ir.CmpOp, c int) bool {
	switch op {
	case ir.Lt:
		return c < 0
	case ir.Le:
		return c <= 0
	case ir.Eq:
		return c == 0
	case ir.Ne:
		return c != 0
	case ir.Ge:
		return c >= 0
	default: // Gt
		return c > 0
	}
}

// mirror returns the operator that holds for (b, a) exactly when op holds for
// (a, b): k < col is col > k.
func mirror(op ir.CmpOp) ir.CmpOp {
	switch op {
	case ir.Lt:
		return ir.Gt
	case ir.Le:
		return ir.Ge
	case ir.Ge:
		return ir.Le
	case ir.Gt:
		return ir.Lt
	default: // Eq, Ne
		return op
	}
}
