package core

import (
	"fmt"

	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/types"
)

// Operand is one expression input: a column IU or a runtime constant. The
// constant variants of the expression suboperators are what let the engine
// run queries with arbitrary literals while keeping the primitive set finite
// (paper §IV-C).
type Operand struct {
	IU    *IU
	Const *rt.ConstState
}

// Col makes a column operand.
func Col(iu *IU) Operand { return Operand{IU: iu} }

// ConstOf makes a constant operand.
func ConstOf(c *rt.ConstState) Operand { return Operand{Const: c} }

// Kind returns the operand's value kind (Invalid for an empty operand).
func (o Operand) Kind() types.Kind {
	switch {
	case o.IU != nil:
		return o.IU.K
	case o.Const != nil:
		return o.Const.Kind
	}
	return types.Invalid
}

func (o Operand) sideTag() string {
	if o.IU != nil {
		return "c"
	}
	return "k"
}

// expr lowers the operand to an IR expression inside g.
func (o Operand) expr(g *Gen) ir.Expr {
	if o.IU != nil {
		return ir.Ref(g.in(o.IU))
	}
	return ir.ConstRef{StateID: g.AddState(o.Const), K: o.Const.Kind}
}

// ---------------------------------------------------------------------------
// Expression suboperators (paper §III, §IV-C)

// ScanCol materializes a source column — the table-scan primitive that reads
// base-table (or hash-table snapshot) data into the first tuple buffer
// (paper Fig 3, step 1). Fused pipelines skip it: source IUs bind directly.
type ScanCol struct {
	Src, Dst *IU
}

// PrimitiveID implements SubOp.
func (s *ScanCol) PrimitiveID() string { return "tscan_" + s.Src.K.String() }

// Desc implements SubOp.
func (s *ScanCol) Desc() Desc {
	src := port("column the scan copies", s.Src, types.AnyKind)
	return Desc{In: []Port{src}, Out: []Port{sameAs("copy", Col(s.Dst), src)}}
}

// Consume implements SubOp.
func (s *ScanCol) Consume(g *Gen) error {
	g.Append(ir.Assign{Dst: g.Def(s.Dst), E: ir.Ref(g.in(s.Src))})
	return nil
}

// Arith computes a binary arithmetic expression.
type Arith struct {
	Op   ir.BinOp
	L, R Operand
	Out  *IU
}

// PrimitiveID implements SubOp.
func (a *Arith) PrimitiveID() string {
	return fmt.Sprintf("expr_%v_%v_%s%s", a.Op, a.Out.K, a.L.sideTag(), a.R.sideTag())
}

// Desc implements SubOp.
func (a *Arith) Desc() Desc {
	l := Port{Role: "left operand", Operand: a.L, Want: types.AnyNumeric}
	return Desc{
		In:  []Port{l, sameAs("right operand", a.R, l)},
		Out: []Port{sameAs("result", Col(a.Out), l)},
	}
}

// Consume implements SubOp.
func (a *Arith) Consume(g *Gen) error {
	l, r := a.L.expr(g), a.R.expr(g)
	g.Append(ir.Assign{Dst: g.Def(a.Out), E: ir.BinExpr{Op: a.Op, L: l, R: r}})
	return nil
}

// Cmp computes a comparison, producing a bool IU.
type Cmp struct {
	Op   ir.CmpOp
	L, R Operand
	Out  *IU
}

// PrimitiveID implements SubOp.
func (c *Cmp) PrimitiveID() string {
	return fmt.Sprintf("cmp_%v_%v_%s%s", c.Op, c.L.Kind(), c.L.sideTag(), c.R.sideTag())
}

// Desc implements SubOp.
func (c *Cmp) Desc() Desc {
	l := Port{Role: "left operand", Operand: c.L, Want: types.AnyKind}
	return Desc{
		In:  []Port{l, sameAs("right operand", c.R, l)},
		Out: []Port{port("comparison output", c.Out, isBool)},
	}
}

// Consume implements SubOp.
func (c *Cmp) Consume(g *Gen) error {
	l, r := c.L.expr(g), c.R.expr(g)
	g.Append(ir.Assign{Dst: g.Def(c.Out), E: ir.CmpExpr{Op: c.Op, L: l, R: r}})
	return nil
}

// Logic combines two bool IUs with AND/OR.
type Logic struct {
	Op   ir.LogicOp
	L, R *IU
	Out  *IU
}

// PrimitiveID implements SubOp.
func (l *Logic) PrimitiveID() string { return fmt.Sprintf("logic_%v", l.Op) }

// Desc implements SubOp.
func (l *Logic) Desc() Desc {
	return Desc{
		In:  []Port{port("logic operand", l.L, isBool), port("logic operand", l.R, isBool)},
		Out: []Port{port("logic output", l.Out, isBool)},
	}
}

// Consume implements SubOp.
func (l *Logic) Consume(g *Gen) error {
	e := ir.LogicExpr{Op: l.Op, L: ir.Ref(g.in(l.L)), R: ir.Ref(g.in(l.R))}
	g.Append(ir.Assign{Dst: g.Def(l.Out), E: e})
	return nil
}

// Not negates a bool IU.
type Not struct {
	In, Out *IU
}

// PrimitiveID implements SubOp.
func (n *Not) PrimitiveID() string { return "not" }

// Desc implements SubOp.
func (n *Not) Desc() Desc {
	return Desc{In: []Port{port("not input", n.In, isBool)}, Out: []Port{port("not output", n.Out, isBool)}}
}

// Consume implements SubOp.
func (n *Not) Consume(g *Gen) error {
	g.Append(ir.Assign{Dst: g.Def(n.Out), E: ir.NotExpr{E: ir.Ref(g.in(n.In))}})
	return nil
}

// Cast converts between numeric kinds.
type Cast struct {
	In, Out *IU
}

// PrimitiveID implements SubOp.
func (c *Cast) PrimitiveID() string { return fmt.Sprintf("cast_%v_%v", c.In.K, c.Out.K) }

// Desc implements SubOp.
func (c *Cast) Desc() Desc {
	return Desc{
		In:  []Port{port("cast input", c.In, types.AnyNumeric)},
		Out: []Port{port("cast output", c.Out, types.AnyNumeric)},
	}
}

// Consume implements SubOp.
func (c *Cast) Consume(g *Gen) error {
	g.Append(ir.Assign{Dst: g.Def(c.Out), E: ir.CastExpr{To: c.Out.K, E: ir.Ref(g.in(c.In))}})
	return nil
}

// Like evaluates a LIKE / NOT LIKE pattern against a string IU.
type Like struct {
	In     *IU
	State  *rt.LikeState
	Negate bool
	Out    *IU
}

// PrimitiveID implements SubOp.
func (l *Like) PrimitiveID() string {
	if l.Negate {
		return "notlike"
	}
	return "like"
}

// Desc implements SubOp.
func (l *Like) Desc() Desc {
	return Desc{
		In:    []Port{port("LIKE input", l.In, isString)},
		Out:   []Port{port("LIKE output", l.Out, isBool)},
		State: []any{l.State},
	}
}

// Consume implements SubOp.
func (l *Like) Consume(g *Gen) error {
	e := ir.LikeExpr{S: ir.Ref(g.in(l.In)), StateID: g.AddState(l.State), Negate: l.Negate}
	g.Append(ir.Assign{Dst: g.Def(l.Out), E: e})
	return nil
}

// InList tests string membership in a constant set (IN (...) predicates).
type InList struct {
	In    *IU
	State *rt.InListState
	Out   *IU
}

// PrimitiveID implements SubOp.
func (l *InList) PrimitiveID() string { return "inlist" }

// Desc implements SubOp.
func (l *InList) Desc() Desc {
	return Desc{
		In:    []Port{port("IN input", l.In, isString)},
		Out:   []Port{port("IN output", l.Out, isBool)},
		State: []any{l.State},
	}
}

// Consume implements SubOp.
func (l *InList) Consume(g *Gen) error {
	e := ir.InListExpr{S: ir.Ref(g.in(l.In)), StateID: g.AddState(l.State)}
	g.Append(ir.Assign{Dst: g.Def(l.Out), E: e})
	return nil
}

// CodeMatch evaluates a constant predicate over a dictionary-coded column by
// reading its code → bool table (rt.CodeTableState) at each row's code. Every
// predicate form the table was filled from — =, <>, IN, LIKE and their
// combinations over one column — is this one suboperator.
type CodeMatch struct {
	In    *IU // Int32 code
	State *rt.CodeTableState
	Out   *IU
}

// PrimitiveID implements SubOp.
func (c *CodeMatch) PrimitiveID() string { return "codematch" }

// Desc implements SubOp.
func (c *CodeMatch) Desc() Desc {
	return Desc{
		In:    []Port{port("dictionary code", c.In, isInt32)},
		Out:   []Port{port("predicate output", c.Out, isBool)},
		State: []any{c.State},
	}
}

// Consume implements SubOp.
func (c *CodeMatch) Consume(g *Gen) error {
	e := ir.CodeMatch{C: ir.Ref(g.in(c.In)), StateID: g.AddState(c.State)}
	g.Append(ir.Assign{Dst: g.Def(c.Out), E: e})
	return nil
}

// Decode turns a dictionary-coded column back into its strings, through the
// dictionary in rt.DictState: a view of the dictionary's own string, no copy.
// It sits only where a string is needed.
type Decode struct {
	In    *IU // Int32 code
	State *rt.DictState
	Out   *IU
}

// PrimitiveID implements SubOp.
func (d *Decode) PrimitiveID() string { return "decode" }

// Desc implements SubOp.
func (d *Decode) Desc() Desc {
	return Desc{
		In:    []Port{port("dictionary code", d.In, isInt32)},
		Out:   []Port{port("decoded string", d.Out, isString)},
		State: []any{d.State},
	}
}

// Consume implements SubOp.
func (d *Decode) Consume(g *Gen) error {
	e := ir.Decode{C: ir.Ref(g.in(d.In)), StateID: g.AddState(d.State)}
	g.Append(ir.Assign{Dst: g.Def(d.Out), E: e})
	return nil
}

// ToLower maps a string to its lowercase equivalence-class representative —
// the normalization step of case-insensitive collations (paper §IV-D).
type ToLower struct {
	In, Out *IU
}

// PrimitiveID implements SubOp.
func (l *ToLower) PrimitiveID() string { return "strlower" }

// Desc implements SubOp.
func (l *ToLower) Desc() Desc {
	return Desc{In: []Port{port("lower() input", l.In, isString)}, Out: []Port{port("lower() output", l.Out, isString)}}
}

// Consume implements SubOp.
func (l *ToLower) Consume(g *Gen) error {
	g.Append(ir.Assign{Dst: g.Def(l.Out), E: ir.StrLower{E: ir.Ref(g.in(l.In))}})
	return nil
}

// Case is a two-armed CASE WHEN expression.
type Case struct {
	Cond       *IU
	Then, Else Operand
	Out        *IU
}

// PrimitiveID implements SubOp.
func (c *Case) PrimitiveID() string {
	return fmt.Sprintf("case_%v_%s%s", c.Out.K, c.Then.sideTag(), c.Else.sideTag())
}

// Desc implements SubOp.
func (c *Case) Desc() Desc {
	then := Port{Role: "then arm", Operand: c.Then, Want: types.AnyKind}
	return Desc{
		In:  []Port{port("CASE condition", c.Cond, isBool), then, sameAs("else arm", c.Else, then)},
		Out: []Port{sameAs("result", Col(c.Out), then)},
	}
}

// Consume implements SubOp.
func (c *Case) Consume(g *Gen) error {
	cond := ir.Ref(g.in(c.Cond))
	t, e := c.Then.expr(g), c.Else.expr(g)
	g.Append(ir.Assign{Dst: g.Def(c.Out), E: ir.CondExpr{Cond: cond, Then: t, Else: e}})
	return nil
}
