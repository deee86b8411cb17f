package ir

import (
	"fmt"
	"sync"

	"inkfuse/internal/types"
)

// Operands is one IR node's description: what it reads, which runtime state
// it references, what it defines and what it nests. Every node states it
// once (its operands method); Verify, Size and the VM's use counts walk it
// instead of switching over node types.
type Operands struct {
	Reads  []VarOp  // variables read, each with the kinds it may have
	Exprs  []ExprOp // sub-expressions read; a nil one is absent, allowed where Want admits types.Invalid
	States []int    // runtime-state indexes referenced
	Copies []Copy   // scope copies: each reads the enclosing scope and defines into the scope
	Defs   []VarOp  // variables defined, each with the kinds it may have
	Body   []Stmt   // statements of the scope the node opens
	Weight int      // the node's own Size; sub-expressions, copies and body add theirs
}

// VarOp is a variable operand and the kinds its position admits.
type VarOp struct {
	V    Var
	Want types.Rule
}

// ExprOp is a sub-expression operand and the kinds its position admits.
type ExprOp struct {
	E    Expr
	Want types.Rule
}

func (o *Operands) read(x Var, want types.Rule)  { o.Reads = append(o.Reads, VarOp{x, want}) }
func (o *Operands) expr(e Expr, want types.Rule) { o.Exprs = append(o.Exprs, ExprOp{e, want}) }
func (o *Operands) state(id int)                 { o.States = append(o.States, id) }
func (o *Operands) def(x Var, want types.Rule)   { o.Defs = append(o.Defs, VarOp{x, want}) }

// like is the rule admitting exactly e's kind: the operands of an
// arithmetic, a comparison or a CASE, and an assignment's destination, share
// one kind.
func like(e Expr) types.Rule {
	if e == nil {
		return types.AnyKind
	}
	return types.Is(e.Kind())
}

var (
	isBool   = types.Is(types.Bool)
	isInt32  = types.Is(types.Int32)
	isString = types.Is(types.String)
	isPtr    = types.Is(types.Ptr)
)

// node is what Walk descends through: a statement, an expression or a scope
// copy.
type node interface{ operands(o *Operands) }

// Walk visits the description of every node of body, depth first in the
// order its values come to exist: a node's sub-expressions and scope copies
// before the node itself, the statements it nests after it. It stops at the
// first error visit returns, prefixed with the types of the nodes on the
// path to the one that failed. The *Operands is valid only during the call.
func Walk(body []Stmt, visit func(*Operands) error) error {
	w := walkers.Get().(*walker)
	w.visit = visit
	var err error
	for _, s := range body {
		if err = w.walk(s, 0); err != nil {
			break
		}
	}
	w.visit = nil
	walkers.Put(w)
	return err
}

// walker keeps one Operands per nesting depth, reused by every node at that
// depth and, through walkers, by the next walk: describing a node allocates
// nothing once the buffers have grown.
type walker struct {
	visit func(*Operands) error
	bufs  []*Operands
}

var walkers = sync.Pool{New: func() any { return new(walker) }}

func (w *walker) walk(n node, depth int) error {
	if err := w.node(n, depth); err != nil {
		return fmt.Errorf("%T: %w", n, err)
	}
	return nil
}

func (w *walker) node(n node, depth int) error {
	if depth == len(w.bufs) {
		w.bufs = append(w.bufs, &Operands{})
	}
	o := w.bufs[depth]
	o.Reads, o.Exprs, o.States, o.Defs = o.Reads[:0], o.Exprs[:0], o.States[:0], o.Defs[:0]
	o.Copies, o.Body, o.Weight = nil, nil, 0
	n.operands(o)
	for _, e := range o.Exprs {
		if e.E != nil {
			if err := w.walk(e.E, depth+1); err != nil {
				return err
			}
		}
	}
	for i := range o.Copies {
		if err := w.walk(&o.Copies[i], depth+1); err != nil {
			return err
		}
	}
	if err := w.visit(o); err != nil {
		return err
	}
	for _, s := range o.Body {
		if err := w.walk(s, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// Size returns the number of IR nodes in a function, each weighted by its
// description. The execution layer's compile-latency model scales with it,
// mirroring how C/LLVM compilation time grows with the amount of generated
// code.
func Size(f *Func) int {
	n := 1 + len(f.Ins)
	_ = Walk(f.Body, func(o *Operands) error { // never fails: the visit returns nil
		n += o.Weight
		return nil
	})
	return n
}
