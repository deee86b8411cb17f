package core

import (
	"fmt"

	"inkfuse/internal/ir"
	"inkfuse/internal/types"
)

// SubOp is one suboperator. Suboperators implement the same produce/consume
// style code generation found in traditional operator-fusing engines
// (paper §V-A), but at a much finer granularity — and every implementation
// satisfies the enumeration invariant: PrimitiveID identifies the
// instantiation within a finite, enumerable set.
type SubOp interface {
	// PrimitiveID names this suboperator's instantiation in the enumerable
	// primitive set, e.g. "expr_add_f64_cc". Two suboperators with the same
	// PrimitiveID generate identical code (paper §IV-A).
	PrimitiveID() string
	// Desc describes the suboperator's operands: what plan verification,
	// primitive generation, liveness and plan-state collection read.
	Desc() Desc
	// Consume generates this suboperator's code into g. It reads its input
	// IUs' variables through g.in.
	Consume(g *Gen) error
}

// Desc is a suboperator's description: its ports, in canonical order — the
// order the generated primitive expects its input columns in and emits its
// output columns in — and its own runtime state objects. Nil states are
// allowed on prototype instances used for enumeration.
type Desc struct {
	In, Out []Port
	State   []any
}

// Port is one IU a suboperator reads or defines — for an expression input,
// possibly a runtime constant in its place — with the kinds its primitive
// assumes. VerifyPlan checks every port.
type Port struct {
	Role string // names the port in VerifyPlan's errors
	Operand
	Want types.Rule // the kinds the port admits
	Like string     // the role of the port Want copies its one kind from, if any
}

// port is an IU port admitting the kinds of want.
func port(role string, iu *IU, want types.Rule) Port {
	return Port{Role: role, Operand: Col(iu), Want: want}
}

// sameAs is a port whose kind must be ref's.
func sameAs(role string, o Operand, ref Port) Port {
	return Port{Role: role, Operand: o, Want: types.Is(ref.Kind()), Like: ref.Role}
}

var (
	isBool   = types.Is(types.Bool)
	isInt32  = types.Is(types.Int32)
	isString = types.Is(types.String)
	isPtr    = types.Is(types.Ptr)
)

// Inputs lists the IUs the suboperator consumes, in canonical order.
func (d Desc) Inputs() []*IU {
	var ius []*IU
	for _, p := range d.In {
		if p.Const == nil {
			ius = append(ius, p.IU)
		}
	}
	return ius
}

// Outputs lists the IUs the suboperator produces, in canonical order.
func (d Desc) Outputs() []*IU {
	ius := make([]*IU, len(d.Out))
	for i, p := range d.Out {
		ius[i] = p.IU
	}
	return ius
}

// States lists the runtime state objects in the order the generated code
// references them (paper Fig 8): the constants among the inputs, then the
// suboperator's own.
func (d Desc) States() []any {
	var sts []any
	for _, p := range d.In {
		if p.Const != nil {
			sts = append(sts, p.Const)
		}
	}
	return append(sts, d.State...)
}

// Gen is the code generation context of the compilation stack: it assembles
// the ir.Func for one step. The same Gen drives both uses of the stack —
// fusing a whole pipeline for the JIT backend, and wrapping a single
// suboperator between buffer source and sink to generate a vectorized
// primitive.
type Gen struct {
	fn     *ir.Func
	vars   map[int]ir.Var // IU ID -> bound variable
	nextID int
	states []any
	blocks []*[]ir.Stmt
	scopes []openScope
	err    error // the first input consumed before being produced
}

type openScope struct {
	filter *ir.FilterStmt
	probe  *ir.ProbeStmt
	parent int // index into blocks of the enclosing block
}

// NewGen creates a generation context for a step with the given name.
func NewGen(name string) *Gen {
	g := &Gen{fn: &ir.Func{Name: name}, vars: make(map[int]ir.Var)}
	g.blocks = []*[]ir.Stmt{&g.fn.Body}
	return g
}

// BindInput declares iu as a source-provided input of the step.
func (g *Gen) BindInput(iu *IU) {
	v := g.Def(iu)
	g.fn.Ins = append(g.fn.Ins, v)
}

// Def binds a fresh variable for an IU this suboperator defines.
func (g *Gen) Def(iu *IU) ir.Var {
	if _, ok := g.vars[iu.ID]; ok {
		panic(fmt.Sprintf("core: IU %s defined twice", iu))
	}
	g.nextID++
	v := ir.Var{ID: g.nextID, K: iu.K, Name: iu.Name}
	g.vars[iu.ID] = v
	return v
}

// Var returns the variable bound to an IU.
func (g *Gen) Var(iu *IU) (ir.Var, error) {
	v, ok := g.vars[iu.ID]
	if !ok {
		return ir.Var{}, fmt.Errorf("core: IU %s consumed before being produced", iu)
	}
	return v, nil
}

// in returns the variable bound to an input IU. An input nothing has
// produced yet fails the step: GenStep and BuildPrimitive return the error
// once the suboperator's Consume is done.
func (g *Gen) in(iu *IU) ir.Var {
	v, err := g.Var(iu)
	if err != nil && g.err == nil {
		g.err = err
	}
	return v
}

// consume generates one suboperator's code.
func (g *Gen) consume(op SubOp) error {
	if err := op.Consume(g); err != nil {
		return err
	}
	return g.err
}

// AddState registers a runtime state object and returns its index in the
// step's state array.
func (g *Gen) AddState(obj any) int {
	g.states = append(g.states, obj)
	return len(g.states) - 1
}

// Append adds a statement to the current (innermost) block.
func (g *Gen) Append(s ir.Stmt) {
	blk := g.blocks[len(g.blocks)-1]
	*blk = append(*blk, s)
}

// OpenFilter pushes a filtered scope; subsequent statements generate inside
// it until the step is finished (scopes close at the end of the step — the
// pipelines of the supported plans nest scopes monotonically).
func (g *Gen) OpenFilter(f *ir.FilterStmt) {
	g.scopes = append(g.scopes, openScope{filter: f, parent: len(g.blocks) - 1})
	g.blocks = append(g.blocks, &f.Body)
}

// CurrentFilter returns the innermost open filter scope (for filter-copy
// suboperators attaching their copies), or nil.
func (g *Gen) CurrentFilter() *ir.FilterStmt {
	if len(g.scopes) == 0 {
		return nil
	}
	return g.scopes[len(g.scopes)-1].filter
}

// OpenProbe pushes a join-probe scope.
func (g *Gen) OpenProbe(p *ir.ProbeStmt) {
	g.scopes = append(g.scopes, openScope{probe: p, parent: len(g.blocks) - 1})
	g.blocks = append(g.blocks, &p.Body)
}

// CurrentProbe returns the innermost open scope if it is a join probe's (for
// probe-copy suboperators attaching their copies), or nil.
func (g *Gen) CurrentProbe() *ir.ProbeStmt {
	if len(g.scopes) == 0 {
		return nil
	}
	return g.scopes[len(g.scopes)-1].probe
}

// Finish emits the step's sink (the listed IUs as output columns; nil for
// pure sinks like hash-table builds), closes all open scopes, and returns
// the completed function plus its runtime state array.
func (g *Gen) Finish(emit []*IU) (*ir.Func, []any, error) {
	if len(emit) > 0 {
		cols := make([]ir.Var, len(emit))
		for i, iu := range emit {
			v, err := g.Var(iu)
			if err != nil {
				return nil, nil, err
			}
			cols[i] = v
			g.fn.OutKinds = append(g.fn.OutKinds, iu.K)
		}
		g.Append(ir.EmitStmt{Cols: cols})
	}
	// Close scopes innermost-first: append each scope statement (whose body
	// is now complete) into its parent block.
	for i := len(g.scopes) - 1; i >= 0; i-- {
		sc := g.scopes[i]
		parent := g.blocks[sc.parent]
		if sc.filter != nil {
			*parent = append(*parent, *sc.filter)
		} else {
			*parent = append(*parent, *sc.probe)
		}
	}
	g.scopes = nil
	g.blocks = g.blocks[:1]
	g.fn.NumStates = len(g.states)
	return g.fn, g.states, nil
}

// GenStep runs the full compilation stack for one step: binds the source
// IUs, consumes each suboperator in order, and finishes with the sink.
// This single function is used for operator-fusing JIT compilation (ops =
// the whole pipeline) and for generating vectorized primitives (ops = one
// suboperator wrapped by the caller) — the paper's central engineering
// claim, §V-A: one compilation stack.
func GenStep(name string, sourceIUs []*IU, ops []SubOp, emit []*IU) (*ir.Func, []any, error) {
	g := NewGen(name)
	for _, iu := range sourceIUs {
		g.BindInput(iu)
	}
	for _, op := range ops {
		if err := g.consume(op); err != nil {
			return nil, nil, fmt.Errorf("core: %s: %w", op.PrimitiveID(), err)
		}
	}
	return g.Finish(emit)
}
