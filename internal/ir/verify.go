package ir

import (
	"fmt"

	"inkfuse/internal/types"
)

// Verify checks structural invariants of a generated function: every
// variable is defined exactly once and before use, every operand has a kind
// its node's description admits, and state references stay within the state
// array. The compilation stack runs it on every generated step in tests and
// on demand.
func Verify(f *Func) error {
	v := &verifier{defined: map[int]types.Kind{}, numStates: f.NumStates}
	for _, in := range f.Ins {
		if err := v.define(VarOp{V: in}); err != nil {
			return fmt.Errorf("ir: %s: %w", f.Name, err)
		}
	}
	if err := Walk(f.Body, v.node); err != nil {
		return fmt.Errorf("ir: %s: %w", f.Name, err)
	}
	return nil
}

type verifier struct {
	defined   map[int]types.Kind
	numStates int
}

// node checks one node's operands. Walk has checked its sub-expressions and
// scope copies already; its nested body comes after, so a scope's copies
// read the enclosing scope before the scope's own variables exist.
func (v *verifier) node(o *Operands) error {
	for _, r := range o.Reads {
		if err := v.use(r); err != nil {
			return err
		}
	}
	for _, e := range o.Exprs {
		switch {
		case e.E == nil && !e.Want.Admits(types.Invalid):
			return fmt.Errorf("missing operand, context needs %v", e.Want)
		case e.E != nil && !e.Want.Admits(e.E.Kind()):
			return fmt.Errorf("operand %T has kind %v, context needs %v", e.E, e.E.Kind(), e.Want)
		}
	}
	for _, id := range o.States {
		if id < 0 || id >= v.numStates {
			return fmt.Errorf("state index %d outside [0,%d)", id, v.numStates)
		}
	}
	for _, c := range o.Copies {
		if c.Sel.Valid() {
			return fmt.Errorf("scope copy of %s names a selection of its own (%s)", c.Src, c.Sel)
		}
	}
	for _, d := range o.Defs {
		if err := v.define(d); err != nil {
			return err
		}
	}
	return nil
}

func (v *verifier) define(d VarOp) error {
	x := d.V
	if !x.Valid() {
		return fmt.Errorf("definition of invalid var %s", x)
	}
	if !d.Want.Admits(x.K) {
		return fmt.Errorf("var %s defined with kind %v, context needs %v", x, x.K, d.Want)
	}
	if _, ok := v.defined[x.ID]; ok {
		return fmt.Errorf("var %s defined twice", x)
	}
	v.defined[x.ID] = x.K
	return nil
}

func (v *verifier) use(r VarOp) error {
	x := r.V
	k, ok := v.defined[x.ID]
	if !ok {
		return fmt.Errorf("use of undefined var %s", x)
	}
	if k != x.K {
		return fmt.Errorf("var %s used with kind %v, defined as %v", x, x.K, k)
	}
	if !r.Want.Admits(k) {
		return fmt.Errorf("var %s has kind %v, context needs %v", x, k, r.Want)
	}
	return nil
}
