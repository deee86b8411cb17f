package algebra

import (
	"fmt"

	"inkfuse/internal/rt"
)

// Params maps parameter refs (Const.Ref / LikeE.Ref / InListE.Ref) to the
// runtime state objects the lowering created for them. Runtime constants are
// read at execution time (paper §IV-C), so rewriting these states
// re-parameterizes an already-lowered — and already-compiled — plan without
// touching the suboperator DAG or its artifacts.
//
// One ref can map to several states: the lowering may duplicate a literal
// (e.g. a predicate pushed below both sides of an operator), and every copy
// must be patched together.
type Params struct {
	consts  map[int][]*rt.ConstState
	likes   map[int][]*rt.LikeState
	inlists map[int][]*rt.InListState
	// refills re-evaluates the code → bool tables that read a ref's states
	// (DESIGN.md §20), after the ref is rebound.
	refills map[int][]func()
}

func newParams() *Params {
	return &Params{
		consts:  make(map[int][]*rt.ConstState),
		likes:   make(map[int][]*rt.LikeState),
		inlists: make(map[int][]*rt.InListState),
		refills: make(map[int][]func()),
	}
}

func (p *Params) addConst(ref int, st *rt.ConstState) {
	if p != nil && ref > 0 {
		p.consts[ref] = append(p.consts[ref], st)
	}
}

func (p *Params) addLike(ref int, st *rt.LikeState) {
	if p != nil && ref > 0 {
		p.likes[ref] = append(p.likes[ref], st)
	}
}

func (p *Params) addInList(ref int, st *rt.InListState) {
	if p != nil && ref > 0 {
		p.inlists[ref] = append(p.inlists[ref], st)
	}
}

func (p *Params) addRefill(refs []int, fill func()) {
	for _, ref := range refs {
		if p != nil && ref > 0 {
			p.refills[ref] = append(p.refills[ref], fill)
		}
	}
}

func (p *Params) refill(ref int) {
	for _, fill := range p.refills[ref] {
		fill()
	}
}

// SetConst rebinds a scalar parameter. The value's kind must match the kind
// the plan was lowered with — the compiled artifacts bake in the typed
// primitive, only the value is free.
func (p *Params) SetConst(ref int, c Const) error {
	states, ok := p.consts[ref]
	if !ok {
		return fmt.Errorf("algebra: no scalar parameter with ref %d", ref)
	}
	for _, st := range states {
		if st.Kind != c.K {
			return fmt.Errorf("algebra: parameter %d is %v, got %v", ref, st.Kind, c.K)
		}
		st.B, st.I32, st.I64, st.F64, st.Str = c.B, c.I32, c.I64, c.F64, c.Str
	}
	p.refill(ref)
	return nil
}

// SetLike rebinds a LIKE pattern parameter, recompiling its matcher.
func (p *Params) SetLike(ref int, pattern string) error {
	states, ok := p.likes[ref]
	if !ok {
		return fmt.Errorf("algebra: no LIKE parameter with ref %d", ref)
	}
	m := rt.NewLikeMatcher(pattern)
	for _, st := range states {
		st.M = m
	}
	p.refill(ref)
	return nil
}

// SetInList rebinds an IN (...) member-list parameter.
func (p *Params) SetInList(ref int, members []string) error {
	states, ok := p.inlists[ref]
	if !ok {
		return fmt.Errorf("algebra: no IN-list parameter with ref %d", ref)
	}
	for _, st := range states {
		st.SetMembers(members)
	}
	p.refill(ref)
	return nil
}

// HasRef reports whether the lowering registered any state under ref. A ref
// can be absent when the expression holding it was pruned as unreferenced, in
// which case there is nothing to patch.
func (p *Params) HasRef(ref int) bool {
	_, c := p.consts[ref]
	_, l := p.likes[ref]
	_, i := p.inlists[ref]
	return c || l || i
}
