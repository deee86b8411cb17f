package ir

import (
	"fmt"

	"inkfuse/internal/types"
)

// Verify checks structural invariants of a generated function: every
// variable is defined exactly once and before use, operand kinds line up,
// and state references stay within the state array. The compilation stack
// runs it on every generated step in tests and on demand.
func Verify(f *Func) error {
	v := &verifier{defined: map[int]types.Kind{}, numStates: f.NumStates}
	for _, in := range f.Ins {
		if err := v.define(in); err != nil {
			return fmt.Errorf("ir: %s: %w", f.Name, err)
		}
	}
	if err := v.stmts(f.Body); err != nil {
		return fmt.Errorf("ir: %s: %w", f.Name, err)
	}
	return nil
}

type verifier struct {
	defined   map[int]types.Kind
	numStates int
}

func (v *verifier) define(x Var) error {
	if !x.Valid() {
		return fmt.Errorf("definition of invalid var %s", x)
	}
	if _, ok := v.defined[x.ID]; ok {
		return fmt.Errorf("var %s defined twice", x)
	}
	v.defined[x.ID] = x.K
	return nil
}

func (v *verifier) use(x Var, want types.Kind) error {
	k, ok := v.defined[x.ID]
	if !ok {
		return fmt.Errorf("use of undefined var %s", x)
	}
	if k != x.K {
		return fmt.Errorf("var %s used with kind %v, defined as %v", x, x.K, k)
	}
	if want != types.Invalid && k != want {
		return fmt.Errorf("var %s has kind %v, context needs %v", x, k, want)
	}
	return nil
}

func (v *verifier) state(id int) error {
	if id < 0 || id >= v.numStates {
		return fmt.Errorf("state index %d outside [0,%d)", id, v.numStates)
	}
	return nil
}

func (v *verifier) stmts(list []Stmt) error {
	for _, s := range list {
		if err := v.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

// scopeCopies checks the copies a filter or probe scope lists: each reads a
// value of the enclosing scope through the scope's own selection, so none
// names one.
func (v *verifier) scopeCopies(copies []Copy) error {
	for _, c := range copies {
		if c.Sel.Valid() {
			return fmt.Errorf("scope copy of %s names a selection of its own (%s)", c.Src, c.Sel)
		}
		if err := v.use(c.Src, c.Dst.K); err != nil {
			return err
		}
		if err := v.define(c.Dst); err != nil {
			return err
		}
	}
	return nil
}

// stmt structurally checks one IR statement.
//
//inklint:dispatch ir.Stmt
func (v *verifier) stmt(s Stmt) error {
	switch s := s.(type) {
	case Assign:
		if err := v.expr(s.E); err != nil {
			return err
		}
		if s.Dst.K != s.E.Kind() {
			return fmt.Errorf("assign of %v expr into %v var %s", s.E.Kind(), s.Dst.K, s.Dst)
		}
		return v.define(s.Dst)
	case Copy:
		if s.Sel.Valid() {
			if err := v.use(s.Sel, types.Int32); err != nil {
				return err
			}
		}
		if err := v.use(s.Src, s.Dst.K); err != nil {
			return err
		}
		return v.define(s.Dst)
	case FilterStmt:
		if err := v.use(s.Cond, types.Bool); err != nil {
			return err
		}
		if err := v.scopeCopies(s.Copies); err != nil {
			return err
		}
		return v.stmts(s.Body)
	case MakeRow:
		if err := v.state(s.StateID); err != nil {
			return err
		}
		return v.define(s.Dst)
	case PackFixed:
		if err := v.use(s.Row, types.Ptr); err != nil {
			return err
		}
		if err := v.expr(s.Val); err != nil {
			return err
		}
		if !s.Val.Kind().Fixed() {
			return fmt.Errorf("pack-fixed of variable-size kind %v", s.Val.Kind())
		}
		if err := v.state(s.StateID); err != nil {
			return err
		}
		return v.define(s.Dst)
	case PackStr:
		if err := v.use(s.Row, types.Ptr); err != nil {
			return err
		}
		if err := v.expr(s.Val); err != nil {
			return err
		}
		if s.Val.Kind() != types.String {
			return fmt.Errorf("pack-str of %v", s.Val.Kind())
		}
		if err := v.state(s.StateID); err != nil {
			return err
		}
		return v.define(s.Dst)
	case SealKey:
		if err := v.use(s.Row, types.Ptr); err != nil {
			return err
		}
		if err := v.state(s.StateID); err != nil {
			return err
		}
		return v.define(s.Dst)
	case AggLookup:
		if err := v.use(s.Row, types.Ptr); err != nil {
			return err
		}
		if err := v.state(s.StateID); err != nil {
			return err
		}
		return v.define(s.Dst)
	case AggLookupFixed:
		if err := v.use(s.Key, types.Invalid); err != nil {
			return err
		}
		if !s.Key.K.Fixed() {
			return fmt.Errorf("direct lookup on variable-size key %s", s.Key)
		}
		if err := v.state(s.StateID); err != nil {
			return err
		}
		return v.define(s.Dst)
	case AggUpdate:
		if err := v.use(s.Group, types.Ptr); err != nil {
			return err
		}
		if s.Val != nil {
			if err := v.expr(s.Val); err != nil {
				return err
			}
			want := s.Fn.ValueKind()
			got := s.Val.Kind()
			// Date shares Int32's slot representation.
			if want != types.Invalid && got != want && !(want == types.Int32 && got == types.Date) {
				return fmt.Errorf("aggregate %v fed %v", s.Fn, got)
			}
		} else if s.Fn.ValueKind() != types.Invalid {
			return fmt.Errorf("aggregate %v missing its argument", s.Fn)
		}
		return v.state(s.StateID)
	case JoinInsert:
		if err := v.use(s.Row, types.Ptr); err != nil {
			return err
		}
		return v.state(s.StateID)
	case Prefetch:
		if err := v.use(s.Row, types.Ptr); err != nil {
			return err
		}
		return v.state(s.StateID)
	case ProbeStmt:
		if err := v.use(s.ProbeRow, types.Ptr); err != nil {
			return err
		}
		if err := v.state(s.StateID); err != nil {
			return err
		}
		// The copies read the enclosing scope: checked before the scope's own
		// variables exist, so none of those can be a copy's source.
		if err := v.scopeCopies(s.Copies); err != nil {
			return err
		}
		if s.Sel.K != types.Int32 {
			return fmt.Errorf("match selection %s has kind %v, needs %v", s.Sel, s.Sel.K, types.Int32)
		}
		if err := v.define(s.Sel); err != nil {
			return err
		}
		if s.Mode == InnerJoin || s.Mode == LeftOuterJoin {
			if err := v.define(s.Build); err != nil {
				return err
			}
		}
		if s.Mode == LeftOuterJoin {
			if err := v.define(s.Matched); err != nil {
				return err
			}
		}
		return v.stmts(s.Body)
	case EmitStmt:
		for _, c := range s.Cols {
			if err := v.use(c, types.Invalid); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown statement %T", s)
	}
}

// expr structurally checks one IR expression.
//
//inklint:dispatch ir.Expr
func (v *verifier) expr(e Expr) error {
	switch e := e.(type) {
	case VarRef:
		return v.use(e.V, types.Invalid)
	case ConstRef:
		return v.state(e.StateID)
	case BinExpr:
		if err := v.expr(e.L); err != nil {
			return err
		}
		if err := v.expr(e.R); err != nil {
			return err
		}
		if e.L.Kind() != e.R.Kind() || !e.L.Kind().Numeric() {
			return fmt.Errorf("arithmetic over %v and %v", e.L.Kind(), e.R.Kind())
		}
		return nil
	case CmpExpr:
		if err := v.expr(e.L); err != nil {
			return err
		}
		if err := v.expr(e.R); err != nil {
			return err
		}
		if e.L.Kind() != e.R.Kind() {
			return fmt.Errorf("comparison over %v and %v", e.L.Kind(), e.R.Kind())
		}
		return nil
	case LogicExpr:
		for _, sub := range []Expr{e.L, e.R} {
			if err := v.expr(sub); err != nil {
				return err
			}
			if sub.Kind() != types.Bool {
				return fmt.Errorf("logic over %v", sub.Kind())
			}
		}
		return nil
	case NotExpr:
		if err := v.expr(e.E); err != nil {
			return err
		}
		if e.E.Kind() != types.Bool {
			return fmt.Errorf("NOT over %v", e.E.Kind())
		}
		return nil
	case CastExpr:
		return v.expr(e.E)
	case LikeExpr:
		if err := v.expr(e.S); err != nil {
			return err
		}
		if e.S.Kind() != types.String {
			return fmt.Errorf("LIKE over %v", e.S.Kind())
		}
		return v.state(e.StateID)
	case InListExpr:
		if err := v.expr(e.S); err != nil {
			return err
		}
		return v.state(e.StateID)
	case StrLower:
		if err := v.expr(e.E); err != nil {
			return err
		}
		if e.E.Kind() != types.String {
			return fmt.Errorf("lower() over %v", e.E.Kind())
		}
		return nil
	case CondExpr:
		if err := v.expr(e.Cond); err != nil {
			return err
		}
		if e.Cond.Kind() != types.Bool {
			return fmt.Errorf("CASE condition is %v", e.Cond.Kind())
		}
		if err := v.expr(e.Then); err != nil {
			return err
		}
		if err := v.expr(e.Else); err != nil {
			return err
		}
		if e.Then.Kind() != e.Else.Kind() {
			return fmt.Errorf("CASE arms %v vs %v", e.Then.Kind(), e.Else.Kind())
		}
		return nil
	case UnpackFixed:
		if err := v.expr(e.Row); err != nil {
			return err
		}
		return v.state(e.StateID)
	case UnpackStr:
		if err := v.expr(e.Row); err != nil {
			return err
		}
		return v.state(e.StateID)
	default:
		return fmt.Errorf("unknown expression %T", e)
	}
}
