package vm

import (
	"fmt"
	"strings"

	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
)

// Typed slice accessors: resolve the concrete array of a vector once per
// batch so the kernels below run over plain slices.

func getB(v *storage.Vector) []bool      { return v.B }
func getI32(v *storage.Vector) []int32   { return v.I32 }
func getI64(v *storage.Vector) []int64   { return v.I64 }
func getF64(v *storage.Vector) []float64 { return v.F64 }
func getStr(v *storage.Vector) []string  { return v.Str }

// Runtime-constant accessors (paper §IV-C: constants are resolved from state
// at execution time so primitives stay enumerable).

func constB(id int) func([]any) bool {
	return func(st []any) bool { return st[id].(*rt.ConstState).B }
}
func constI32(id int) func([]any) int32 {
	return func(st []any) int32 { return st[id].(*rt.ConstState).I32 }
}
func constI64(id int) func([]any) int64 {
	return func(st []any) int64 { return st[id].(*rt.ConstState).I64 }
}
func constF64(id int) func([]any) float64 {
	return func(st []any) float64 { return st[id].(*rt.ConstState).F64 }
}
func constStr(id int) func([]any) string {
	return func(st []any) string { return st[id].(*rt.ConstState).Str }
}

type number interface{ ~int32 | ~int64 | ~float64 }

type ordered interface {
	~int32 | ~int64 | ~float64 | ~string
}

// operand is a compiled expression operand: a register, or a runtime constant
// read from state once per kernel call and held in a machine register for the
// loop. One kernel family thereby covers the column/column, column/constant
// and constant/column primitive variants without ever broadcasting a constant
// into an n-element buffer (DESIGN.md §17).
type operand[T any] struct {
	slot int
	get  func(*storage.Vector) []T
	cget func([]any) T // nil for a register operand
}

func (o operand[T]) isConst() bool { return o.cget != nil }

func (o operand[T]) col(fr *frame, n int) []T { return o.get(fr.vecs[o.slot])[:n] }

// compileOperand compiles e either to a register or a constant accessor.
func compileOperand[T any](c *compiler, blk *[]exec, e ir.Expr,
	get func(*storage.Vector) []T, cget func(int) func([]any) T) (operand[T], error) {
	if cr, ok := e.(ir.ConstRef); ok {
		return operand[T]{cget: cget(cr.StateID)}, nil
	}
	s, err := c.expr(e, blk)
	if err != nil {
		return operand[T]{}, err
	}
	return operand[T]{slot: s, get: get}, nil
}

// binOperands compiles the two sides of a binary expression. At most one side
// stays a constant: with constants on both sides (no lowering produces that)
// the left one is materialized into a register.
func binOperands[T any](c *compiler, blk *[]exec, le, re ir.Expr,
	get func(*storage.Vector) []T, cget func(int) func([]any) T) (l, r operand[T], err error) {
	if l, err = compileOperand(c, blk, le, get, cget); err != nil {
		return
	}
	if r, err = compileOperand(c, blk, re, get, cget); err != nil {
		return
	}
	if l.isConst() && r.isConst() {
		var s int
		s, err = c.expr(le, blk)
		l = operand[T]{slot: s, get: get}
	}
	return
}

// Arithmetic kernels, one per operand shape. The operator switch runs once
// per call; every loop is monomorphic.

//inkfuse:hotpath
func arithCC[T number](op ir.BinOp, d, a, b []T) {
	a, b = a[:len(d)], b[:len(d)]
	switch op {
	case ir.Add:
		for i := range d {
			d[i] = a[i] + b[i]
		}
	case ir.Sub:
		for i := range d {
			d[i] = a[i] - b[i]
		}
	case ir.Mul:
		for i := range d {
			d[i] = a[i] * b[i]
		}
	default: // Div
		for i := range d {
			d[i] = a[i] / b[i]
		}
	}
}

//inkfuse:hotpath
func arithCK[T number](op ir.BinOp, d, a []T, k T) {
	a = a[:len(d)]
	switch op {
	case ir.Add:
		for i := range d {
			d[i] = a[i] + k
		}
	case ir.Sub:
		for i := range d {
			d[i] = a[i] - k
		}
	case ir.Mul:
		for i := range d {
			d[i] = a[i] * k
		}
	default: // Div
		for i := range d {
			d[i] = a[i] / k
		}
	}
}

//inkfuse:hotpath
func arithKC[T number](op ir.BinOp, d []T, k T, b []T) {
	b = b[:len(d)]
	switch op {
	case ir.Add:
		for i := range d {
			d[i] = k + b[i]
		}
	case ir.Sub:
		for i := range d {
			d[i] = k - b[i]
		}
	case ir.Mul:
		for i := range d {
			d[i] = k * b[i]
		}
	default: // Div
		for i := range d {
			d[i] = k / b[i]
		}
	}
}

// Comparison kernels producing a bool column. constant∘column is the mirrored
// operator over column∘constant (mirror).

//inkfuse:hotpath
func cmpCC[T ordered](op ir.CmpOp, d []bool, a, b []T) {
	a, b = a[:len(d)], b[:len(d)]
	switch op {
	case ir.Lt:
		for i := range d {
			d[i] = a[i] < b[i]
		}
	case ir.Le:
		for i := range d {
			d[i] = a[i] <= b[i]
		}
	case ir.Eq:
		for i := range d {
			d[i] = a[i] == b[i]
		}
	case ir.Ne:
		for i := range d {
			d[i] = a[i] != b[i]
		}
	case ir.Ge:
		for i := range d {
			d[i] = a[i] >= b[i]
		}
	default: // Gt
		for i := range d {
			d[i] = a[i] > b[i]
		}
	}
}

//inkfuse:hotpath
func cmpCK[T ordered](op ir.CmpOp, d []bool, a []T, k T) {
	a = a[:len(d)]
	switch op {
	case ir.Lt:
		for i := range d {
			d[i] = a[i] < k
		}
	case ir.Le:
		for i := range d {
			d[i] = a[i] <= k
		}
	case ir.Eq:
		for i := range d {
			d[i] = a[i] == k
		}
	case ir.Ne:
		for i := range d {
			d[i] = a[i] != k
		}
	case ir.Ge:
		for i := range d {
			d[i] = a[i] >= k
		}
	default: // Gt
		for i := range d {
			d[i] = a[i] > k
		}
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

// dst readies register ds for n values and returns them.
func dst[D any](fr *frame, ds, n int, get func(*storage.Vector) []D) []D {
	dv := fr.vecs[ds]
	dv.Resize(n)
	return get(dv)[:n]
}

func buildArith[T number](c *compiler, blk *[]exec, x ir.BinExpr, k types.Kind,
	get func(*storage.Vector) []T, cget func(int) func([]any) T) (int, error) {
	l, r, err := binOperands(c, blk, x.L, x.R, get, cget)
	if err != nil {
		return 0, err
	}
	ds, op := c.newSlot(k), x.Op
	switch {
	case l.isConst():
		*blk = append(*blk, func(fr *frame, n int) {
			arithKC(op, dst(fr, ds, n, get), l.cget(fr.state), r.col(fr, n))
			fr.ctx.Counters.VMOps += int64(n)
		})
	case r.isConst():
		*blk = append(*blk, func(fr *frame, n int) {
			arithCK(op, dst(fr, ds, n, get), l.col(fr, n), r.cget(fr.state))
			fr.ctx.Counters.VMOps += int64(n)
		})
	default:
		*blk = append(*blk, func(fr *frame, n int) {
			arithCC(op, dst(fr, ds, n, get), l.col(fr, n), r.col(fr, n))
			fr.ctx.Counters.VMOps += int64(n)
		})
	}
	return ds, nil
}

// cmpOperands compiles the two sides of a comparison into column∘column or
// column∘constant form, mirroring the operator when the constant is on the
// left.
func cmpOperands[T ordered](c *compiler, blk *[]exec, x ir.CmpExpr,
	get func(*storage.Vector) []T, cget func(int) func([]any) T) (ir.CmpOp, operand[T], operand[T], error) {
	l, r, err := binOperands(c, blk, x.L, x.R, get, cget)
	if l.isConst() {
		return mirror(x.Op), r, l, err
	}
	return x.Op, l, r, err
}

func buildCmp[T ordered](c *compiler, blk *[]exec, x ir.CmpExpr,
	get func(*storage.Vector) []T, cget func(int) func([]any) T) (int, error) {
	op, l, r, err := cmpOperands(c, blk, x, get, cget)
	if err != nil {
		return 0, err
	}
	ds := c.newSlot(types.Bool)
	if r.isConst() {
		*blk = append(*blk, func(fr *frame, n int) {
			cmpCK(op, dst(fr, ds, n, getB), l.col(fr, n), r.cget(fr.state))
			fr.ctx.Counters.VMOps += int64(n)
		})
	} else {
		*blk = append(*blk, func(fr *frame, n int) {
			cmpCC(op, dst(fr, ds, n, getB), l.col(fr, n), r.col(fr, n))
			fr.ctx.Counters.VMOps += int64(n)
		})
	}
	return ds, nil
}

// CASE WHEN kernels, one per shape of the two arms.

//inkfuse:hotpath
func selectCC[T any](d []T, cond []bool, t, e []T) {
	cond, t, e = cond[:len(d)], t[:len(d)], e[:len(d)]
	for i := range d {
		if cond[i] {
			d[i] = t[i]
		} else {
			d[i] = e[i]
		}
	}
}

//inkfuse:hotpath
func selectCK[T any](d []T, cond []bool, t []T, ek T) {
	cond, t = cond[:len(d)], t[:len(d)]
	for i := range d {
		if cond[i] {
			d[i] = t[i]
		} else {
			d[i] = ek
		}
	}
}

//inkfuse:hotpath
func selectKC[T any](d []T, cond []bool, tk T, e []T) {
	cond, e = cond[:len(d)], e[:len(d)]
	for i := range d {
		if cond[i] {
			d[i] = tk
		} else {
			d[i] = e[i]
		}
	}
}

//inkfuse:hotpath
func selectKK[T any](d []T, cond []bool, tk, ek T) {
	cond = cond[:len(d)]
	for i := range d {
		if cond[i] {
			d[i] = tk
		} else {
			d[i] = ek
		}
	}
}

func buildSelect[T any](c *compiler, blk *[]exec, x ir.CondExpr, k types.Kind,
	get func(*storage.Vector) []T, cget func(int) func([]any) T) (int, error) {
	cs, err := c.expr(x.Cond, blk)
	if err != nil {
		return 0, err
	}
	t, err := compileOperand(c, blk, x.Then, get, cget)
	if err != nil {
		return 0, err
	}
	e, err := compileOperand(c, blk, x.Else, get, cget)
	if err != nil {
		return 0, err
	}
	ds := c.newSlot(k)
	var kern func(fr *frame, d []T, cond []bool, n int)
	switch {
	case t.isConst() && e.isConst():
		kern = func(fr *frame, d []T, cond []bool, n int) { selectKK(d, cond, t.cget(fr.state), e.cget(fr.state)) }
	case t.isConst():
		kern = func(fr *frame, d []T, cond []bool, n int) { selectKC(d, cond, t.cget(fr.state), e.col(fr, n)) }
	case e.isConst():
		kern = func(fr *frame, d []T, cond []bool, n int) { selectCK(d, cond, t.col(fr, n), e.cget(fr.state)) }
	default:
		kern = func(fr *frame, d []T, cond []bool, n int) { selectCC(d, cond, t.col(fr, n), e.col(fr, n)) }
	}
	*blk = append(*blk, func(fr *frame, n int) {
		kern(fr, dst(fr, ds, n, get), fr.vecs[cs].B[:n], n)
		fr.ctx.Counters.VMOps += int64(n)
	})
	return ds, nil
}

// expr compiles an expression, appending its ops to blk, and returns the
// slot holding the dense result at the current scope cardinality.
//
//inklint:dispatch ir.Expr
func (c *compiler) expr(e ir.Expr, blk *[]exec) (int, error) {
	switch x := e.(type) {
	case ir.VarRef:
		return c.slot(x.V)

	case ir.ConstRef:
		// Standalone constant: broadcast into a fresh slot.
		ds := c.newSlot(x.K)
		id := x.StateID
		switch x.K {
		case types.Bool:
			cg := constB(id)
			*blk = append(*blk, func(fr *frame, n int) { fillVec(fr, ds, n, cg(fr.state), getB) })
		case types.Int32, types.Date:
			cg := constI32(id)
			*blk = append(*blk, func(fr *frame, n int) { fillVec(fr, ds, n, cg(fr.state), getI32) })
		case types.Int64:
			cg := constI64(id)
			*blk = append(*blk, func(fr *frame, n int) { fillVec(fr, ds, n, cg(fr.state), getI64) })
		case types.Float64:
			cg := constF64(id)
			*blk = append(*blk, func(fr *frame, n int) { fillVec(fr, ds, n, cg(fr.state), getF64) })
		case types.String:
			cg := constStr(id)
			*blk = append(*blk, func(fr *frame, n int) { fillVec(fr, ds, n, cg(fr.state), getStr) })
		default:
			return 0, fmt.Errorf("const of kind %v", x.K)
		}
		return ds, nil

	case ir.BinExpr:
		switch x.Kind() {
		case types.Int32:
			return buildArith(c, blk, x, types.Int32, getI32, constI32)
		case types.Int64:
			return buildArith(c, blk, x, types.Int64, getI64, constI64)
		case types.Float64:
			return buildArith(c, blk, x, types.Float64, getF64, constF64)
		default:
			return 0, fmt.Errorf("arith on kind %v", x.Kind())
		}

	case ir.CmpExpr:
		switch x.L.Kind() {
		case types.Int32, types.Date:
			return buildCmp(c, blk, x, getI32, constI32)
		case types.Int64:
			return buildCmp(c, blk, x, getI64, constI64)
		case types.Float64:
			return buildCmp(c, blk, x, getF64, constF64)
		case types.String:
			return buildCmp(c, blk, x, getStr, constStr)
		default:
			return 0, fmt.Errorf("compare on kind %v", x.L.Kind())
		}

	case ir.LogicExpr:
		ls, err := c.expr(x.L, blk)
		if err != nil {
			return 0, err
		}
		rs, err := c.expr(x.R, blk)
		if err != nil {
			return 0, err
		}
		ds := c.newSlot(types.Bool)
		and := x.Op == ir.And
		*blk = append(*blk, func(fr *frame, n int) {
			dv := fr.vecs[ds]
			dv.Resize(n)
			d := dv.B[:n]
			a := fr.vecs[ls].B[:n]
			b := fr.vecs[rs].B[:n]
			// Both sides are loaded before they are combined: on loaded values
			// the connective compiles to one AND/OR instruction, where
			// a[i] && b[i] is a data-dependent branch around the second load.
			if and {
				for i := range d {
					x, y := a[i], b[i]
					d[i] = x && y
				}
			} else {
				for i := range d {
					x, y := a[i], b[i]
					d[i] = x || y
				}
			}
			fr.ctx.Counters.VMOps += int64(n)
		})
		return ds, nil

	case ir.NotExpr:
		es, err := c.expr(x.E, blk)
		if err != nil {
			return 0, err
		}
		ds := c.newSlot(types.Bool)
		*blk = append(*blk, func(fr *frame, n int) {
			dv := fr.vecs[ds]
			dv.Resize(n)
			d := dv.B[:n]
			a := fr.vecs[es].B[:n]
			for i := range d {
				d[i] = !a[i]
			}
			fr.ctx.Counters.VMOps += int64(n)
		})
		return ds, nil

	case ir.CastExpr:
		es, err := c.expr(x.E, blk)
		if err != nil {
			return 0, err
		}
		from, to := x.E.Kind(), x.To
		ds := c.newSlot(to)
		var op exec
		switch {
		case (from == types.Int32 || from == types.Date) && to == types.Int64:
			op = func(fr *frame, n int) {
				dv := fr.vecs[ds]
				dv.Resize(n)
				d := dv.I64[:n]
				a := fr.vecs[es].I32[:n]
				for i := range d {
					d[i] = int64(a[i])
				}
				fr.ctx.Counters.VMOps += int64(n)
			}
		case (from == types.Int32 || from == types.Date) && to == types.Float64:
			op = func(fr *frame, n int) {
				dv := fr.vecs[ds]
				dv.Resize(n)
				d := dv.F64[:n]
				a := fr.vecs[es].I32[:n]
				for i := range d {
					d[i] = float64(a[i])
				}
				fr.ctx.Counters.VMOps += int64(n)
			}
		case from == types.Int64 && to == types.Float64:
			op = func(fr *frame, n int) {
				dv := fr.vecs[ds]
				dv.Resize(n)
				d := dv.F64[:n]
				a := fr.vecs[es].I64[:n]
				for i := range d {
					d[i] = float64(a[i])
				}
				fr.ctx.Counters.VMOps += int64(n)
			}
		case from == types.Int64 && to == types.Int32:
			op = func(fr *frame, n int) {
				dv := fr.vecs[ds]
				dv.Resize(n)
				d := dv.I32[:n]
				a := fr.vecs[es].I64[:n]
				for i := range d {
					d[i] = int32(a[i])
				}
				fr.ctx.Counters.VMOps += int64(n)
			}
		default:
			return 0, fmt.Errorf("unsupported cast %v -> %v", from, to)
		}
		*blk = append(*blk, op)
		return ds, nil

	case ir.LikeExpr:
		ss, err := c.expr(x.S, blk)
		if err != nil {
			return 0, err
		}
		ds := c.newSlot(types.Bool)
		id, neg := x.StateID, x.Negate
		*blk = append(*blk, func(fr *frame, n int) {
			m := fr.state[id].(*rt.LikeState).M
			dv := fr.vecs[ds]
			dv.Resize(n)
			d := dv.B[:n]
			s := fr.vecs[ss].Str[:n]
			for i := range d {
				d[i] = m.Match(s[i]) != neg
			}
			fr.ctx.Counters.VMOps += int64(n)
		})
		return ds, nil

	case ir.InListExpr:
		ss, err := c.expr(x.S, blk)
		if err != nil {
			return 0, err
		}
		ds := c.newSlot(types.Bool)
		id := x.StateID
		*blk = append(*blk, func(fr *frame, n int) {
			fr.state[id].(*rt.InListState).Match(dst(fr, ds, n, getB), fr.vecs[ss].Str[:n])
			fr.ctx.Counters.VMOps += int64(n)
		})
		return ds, nil

	case ir.CodeMatch:
		cs, err := c.expr(x.C, blk)
		if err != nil {
			return 0, err
		}
		ds := c.newSlot(types.Bool)
		id := x.StateID
		*blk = append(*blk, func(fr *frame, n int) {
			tbl := fr.state[id].(*rt.CodeTableState).T
			d := dst(fr, ds, n, getB)
			for i, code := range fr.vecs[cs].I32[:n] {
				d[i] = tbl[code]
			}
			fr.ctx.Counters.VMOps += int64(n)
		})
		return ds, nil

	case ir.Decode:
		cs, err := c.expr(x.C, blk)
		if err != nil {
			return 0, err
		}
		ds := c.newSlot(types.String)
		id := x.StateID
		*blk = append(*blk, func(fr *frame, n int) {
			vals := fr.state[id].(*rt.DictState).Values
			d := dst(fr, ds, n, getStr)
			for i, code := range fr.vecs[cs].I32[:n] {
				d[i] = vals[code]
			}
			fr.ctx.Counters.VMOps += int64(n)
		})
		return ds, nil

	case ir.StrLower:
		ss, err := c.expr(x.E, blk)
		if err != nil {
			return 0, err
		}
		ds := c.newSlot(types.String)
		*blk = append(*blk, func(fr *frame, n int) {
			dv := fr.vecs[ds]
			dv.Resize(n)
			d := dv.Str[:n]
			s := fr.vecs[ss].Str[:n]
			for i := range d {
				d[i] = strings.ToLower(s[i])
			}
			fr.ctx.Counters.VMOps += int64(n)
		})
		return ds, nil

	case ir.CondExpr:
		switch x.Kind() {
		case types.Bool:
			return buildSelect(c, blk, x, types.Bool, getB, constB)
		case types.Int32, types.Date:
			return buildSelect(c, blk, x, x.Kind(), getI32, constI32)
		case types.Int64:
			return buildSelect(c, blk, x, types.Int64, getI64, constI64)
		case types.Float64:
			return buildSelect(c, blk, x, types.Float64, getF64, constF64)
		case types.String:
			return buildSelect(c, blk, x, types.String, getStr, constStr)
		default:
			return 0, fmt.Errorf("case of kind %v", x.Kind())
		}

	case ir.UnpackFixed:
		rs, err := c.expr(x.Row, blk)
		if err != nil {
			return 0, err
		}
		ds := c.newSlot(x.K)
		id := x.StateID
		payload := x.Region == ir.PayloadRegion
		base := func(r []byte) int {
			if payload {
				return rt.RowPayloadOff(r)
			}
			return 4
		}
		var op exec
		switch x.K {
		case types.Bool:
			op = unpackOp(rs, ds, id, base, getB, rt.GetBool)
		case types.Int32, types.Date:
			op = unpackOp(rs, ds, id, base, getI32, rt.GetI32)
		case types.Int64:
			op = unpackOp(rs, ds, id, base, getI64, rt.GetI64)
		case types.Float64:
			op = unpackOp(rs, ds, id, base, getF64, rt.GetF64)
		default:
			return 0, fmt.Errorf("unpack fixed of kind %v", x.K)
		}
		*blk = append(*blk, op)
		return ds, nil

	case ir.UnpackStr:
		rs, err := c.expr(x.Row, blk)
		if err != nil {
			return 0, err
		}
		ds := c.newSlot(types.String)
		id := x.StateID
		key := x.Region == ir.KeyRegion
		*blk = append(*blk, func(fr *frame, n int) {
			st := fr.state[id].(*rt.VarSlotState)
			dv := fr.vecs[ds]
			dv.Resize(n)
			d := dv.Str[:n]
			rows := fr.vecs[rs].Ptr[:n]
			for i := range d {
				r := rows[i]
				if r == nil {
					d[i] = ""
					continue
				}
				var off int
				if key {
					off = rt.KeyStringOff(r, st.FixedWidth, st.VarIdx)
				} else {
					off = rt.PayloadStringOff(r, st.FixedWidth, st.VarIdx)
				}
				d[i] = rt.GetString(r, off)
			}
			fr.ctx.Counters.VMOps += int64(n)
		})
		return ds, nil

	default:
		return 0, fmt.Errorf("unknown expr %T", e)
	}
}

func fillVec[T any](fr *frame, ds, n int, v T, get func(*storage.Vector) []T) {
	dv := fr.vecs[ds]
	dv.Resize(n)
	d := get(dv)[:n]
	for i := range d {
		d[i] = v
	}
	fr.ctx.Counters.VMOps += int64(n)
}

func unpackOp[T any](rs, ds, stateID int, base func([]byte) int,
	get func(*storage.Vector) []T, read func([]byte, int) T) exec {
	return func(fr *frame, n int) {
		off := fr.state[stateID].(*rt.OffsetState).Off
		dv := fr.vecs[ds]
		dv.Resize(n)
		d := get(dv)[:n]
		rows := fr.vecs[rs].Ptr[:n]
		var zero T
		for i := range d {
			r := rows[i]
			if r == nil {
				d[i] = zero
				continue
			}
			d[i] = read(r, base(r)+off)
		}
		fr.ctx.Counters.VMOps += int64(n)
	}
}
