package algebra

import (
	"fmt"

	"inkfuse/internal/core"
	"inkfuse/internal/rt"
	"inkfuse/internal/types"
)

// lowerExpr lowers a scalar expression into expression suboperators,
// returning the IU holding its value.
func (l *lowerer) lowerExpr(e Expr) (*core.IU, error) {
	if col, ok := l.codedPredicate(e); ok {
		return l.lowerCodeMatch(e, col)
	}
	switch x := e.(type) {
	case ColRef:
		return l.plain(x.Name)

	case Const:
		return nil, fmt.Errorf("algebra: bare constant expression (fold it into its consumer)")

	case Bin:
		lo, err := l.lowerOperand(x.L)
		if err != nil {
			return nil, err
		}
		ro, err := l.lowerOperand(x.R)
		if err != nil {
			return nil, err
		}
		if lo.IU == nil && ro.IU == nil {
			return nil, fmt.Errorf("algebra: arithmetic over two constants")
		}
		if lo.Kind() != ro.Kind() {
			return nil, fmt.Errorf("algebra: arithmetic kind mismatch %v vs %v", lo.Kind(), ro.Kind())
		}
		out := core.NewIU(lo.Kind(), "e_"+x.Op.String())
		l.add(&core.Arith{Op: x.Op, L: lo, R: ro, Out: out})
		return out, nil

	case CmpE:
		lo, err := l.lowerOperand(x.L)
		if err != nil {
			return nil, err
		}
		ro, err := l.lowerOperand(x.R)
		if err != nil {
			return nil, err
		}
		if lo.IU == nil && ro.IU == nil {
			return nil, fmt.Errorf("algebra: comparison over two constants")
		}
		if lo.Kind() != ro.Kind() {
			return nil, fmt.Errorf("algebra: comparison kind mismatch %v vs %v", lo.Kind(), ro.Kind())
		}
		out := core.NewIU(types.Bool, "c_"+x.Op.String())
		l.add(&core.Cmp{Op: x.Op, L: lo, R: ro, Out: out})
		return out, nil

	case LogicE:
		li, err := l.lowerExpr(x.L)
		if err != nil {
			return nil, err
		}
		ri, err := l.lowerExpr(x.R)
		if err != nil {
			return nil, err
		}
		out := core.NewIU(types.Bool, "b_"+x.Op.String())
		l.add(&core.Logic{Op: x.Op, L: li, R: ri, Out: out})
		return out, nil

	case NotE:
		in, err := l.lowerExpr(x.E)
		if err != nil {
			return nil, err
		}
		out := core.NewIU(types.Bool, "b_not")
		l.add(&core.Not{In: in, Out: out})
		return out, nil

	case LikeE:
		in, err := l.lowerExpr(x.E)
		if err != nil {
			return nil, err
		}
		st := &rt.LikeState{M: rt.NewLikeMatcher(x.Pattern)}
		l.params.addLike(x.Ref, st)
		out := core.NewIU(types.Bool, "b_like")
		l.add(&core.Like{In: in, State: st, Negate: x.Negate, Out: out})
		return out, nil

	case InListE:
		in, err := l.lowerExpr(x.E)
		if err != nil {
			return nil, err
		}
		st := rt.NewInList(x.Members...)
		l.params.addInList(x.Ref, st)
		out := core.NewIU(types.Bool, "b_in")
		l.add(&core.InList{In: in, State: st, Out: out})
		return out, nil

	case CaseE:
		cond, err := l.lowerExpr(x.Cond)
		if err != nil {
			return nil, err
		}
		t, err := l.lowerOperand(x.Then)
		if err != nil {
			return nil, err
		}
		e2, err := l.lowerOperand(x.Else)
		if err != nil {
			return nil, err
		}
		if t.Kind() != e2.Kind() {
			return nil, fmt.Errorf("algebra: CASE arm kinds %v vs %v", t.Kind(), e2.Kind())
		}
		out := core.NewIU(t.Kind(), "e_case")
		l.add(&core.Case{Cond: cond, Then: t, Else: e2, Out: out})
		return out, nil

	case CastE:
		in, err := l.lowerExpr(x.E)
		if err != nil {
			return nil, err
		}
		out := core.NewIU(x.To, "e_cast")
		l.add(&core.Cast{In: in, Out: out})
		return out, nil

	default:
		return nil, fmt.Errorf("algebra: cannot lower expression %T", e)
	}
}

// lowerOperand lowers an expression to an operand, keeping literals as
// runtime constants (paper §IV-C).
func (l *lowerer) lowerOperand(e Expr) (core.Operand, error) {
	if c, ok := e.(Const); ok {
		return core.ConstOf(l.constState(c)), nil
	}
	iu, err := l.lowerExpr(e)
	if err != nil {
		return core.Operand{}, err
	}
	return core.Col(iu), nil
}

func (l *lowerer) constState(c Const) *rt.ConstState {
	st := &rt.ConstState{Kind: c.K, B: c.B, I32: c.I32, I64: c.I64, F64: c.F64, Str: c.Str}
	l.params.addConst(c.Ref, st)
	return st
}
