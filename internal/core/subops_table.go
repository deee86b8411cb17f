package core

import (
	"fmt"

	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/types"
)

// Suboperators that interact with the runtime system: filters (paper §IV-B),
// packed-row building and hash tables (paper §IV-D), and joins (paper §IV-E).
// Filters and join probes change cardinality the same way: a scope-opening
// suboperator (FilterScope, JoinProbe) and one copy suboperator per column
// that crosses into the scope (FilterCopy, ProbeCopy).

// FilterScope generates the branch on a boolean column (the first of the
// n+1 suboperators a relational filter breaks into, paper Fig 4). It has no
// parameters — filtering is always on a bool column — and no primitive of
// its own: the per-type FilterCopy primitives embed the branch.
//
//inklint:allow enumerate — FilterScope has no standalone primitive; the branch is fused into every FilterCopy instantiation
type FilterScope struct {
	Cond *IU
}

// PrimitiveID implements SubOp; the scope is fused into the copy primitives.
func (f *FilterScope) PrimitiveID() string { return "" }

// Desc implements SubOp.
func (f *FilterScope) Desc() Desc { return Desc{In: []Port{port("filter condition", f.Cond, isBool)}} }

// Consume implements SubOp.
func (f *FilterScope) Consume(g *Gen) error {
	g.OpenFilter(&ir.FilterStmt{Cond: g.in(f.Cond)})
	return nil
}

// FilterCopy carries one column into the filtered scope — dense-chunk
// compaction in the vectorized interpreter, a free register rebind in fused
// code (paper Fig 4: one copy suboperator per filtered column).
type FilterCopy struct {
	Cond     *IU // the scope's condition (input dependency on the branch)
	Src, Dst *IU
}

// PrimitiveID implements SubOp.
func (f *FilterCopy) PrimitiveID() string { return "filtercopy_" + f.Src.K.String() }

// Desc implements SubOp.
func (f *FilterCopy) Desc() Desc {
	src := port("value the filter copies", f.Src, types.AnyKind)
	return Desc{
		In:  []Port{port("filter condition", f.Cond, isBool), src},
		Out: []Port{sameAs("copy", Col(f.Dst), src)},
	}
}

// Consume implements SubOp.
func (f *FilterCopy) Consume(g *Gen) error {
	fs := g.CurrentFilter()
	if fs == nil {
		return fmt.Errorf("filter copy outside a filter scope")
	}
	src := g.in(f.Src)
	fs.Copies = append(fs.Copies, ir.Copy{Dst: g.Def(f.Dst), Src: src})
	return nil
}

// MakeRow allocates the packed row each tuple's key (and payload) is built
// into. Anchor ties the suboperator to its scope's cardinality.
type MakeRow struct {
	Anchor *IU
	Layout *rt.RowLayoutState
	Out    *IU
}

// PrimitiveID implements SubOp.
func (m *MakeRow) PrimitiveID() string { return "makerow" }

// Desc implements SubOp.
func (m *MakeRow) Desc() Desc {
	return Desc{
		In:    []Port{port("anchor", m.Anchor, types.AnyKind)},
		Out:   []Port{port("row output", m.Out, isPtr)},
		State: []any{m.Layout},
	}
}

// Consume implements SubOp.
func (m *MakeRow) Consume(g *Gen) error {
	g.in(m.Anchor) // only checked: the anchor ties the row to its scope
	g.Append(ir.MakeRow{Dst: g.Def(m.Out), StateID: g.AddState(m.Layout)})
	return nil
}

// PackFixed writes a fixed-width IU into a packed row at a runtime-resolved
// offset (paper Fig 6: key packing with offsets in suboperator state).
type PackFixed struct {
	Row    *IU
	Val    *IU
	Region ir.Region
	Off    *rt.OffsetState
	Out    *IU // refreshed row handle
}

// PrimitiveID implements SubOp.
func (p *PackFixed) PrimitiveID() string {
	return fmt.Sprintf("pack_%v_%v", p.Region, p.Val.K)
}

// Desc implements SubOp.
func (p *PackFixed) Desc() Desc {
	return Desc{
		In:    []Port{port("row input", p.Row, isPtr), port("packed value", p.Val, types.AnyFixed)},
		Out:   []Port{port("row output", p.Out, isPtr)},
		State: []any{p.Off},
	}
}

// Consume implements SubOp.
func (p *PackFixed) Consume(g *Gen) error {
	row, val := g.in(p.Row), g.in(p.Val)
	g.Append(ir.PackFixed{
		Dst: g.Def(p.Out), Row: row, Region: p.Region,
		StateID: g.AddState(p.Off), Val: ir.Ref(val),
	})
	return nil
}

// PackStr appends a string IU to a packed row region, length-prefixed.
type PackStr struct {
	Row    *IU
	Val    *IU
	Region ir.Region
	Off    *rt.OffsetState // carries the owning layout
	Out    *IU
}

// PrimitiveID implements SubOp.
func (p *PackStr) PrimitiveID() string { return fmt.Sprintf("packstr_%v", p.Region) }

// Desc implements SubOp.
func (p *PackStr) Desc() Desc {
	return Desc{
		In:    []Port{port("row input", p.Row, isPtr), port("packed value", p.Val, isString)},
		Out:   []Port{port("row output", p.Out, isPtr)},
		State: []any{p.Off},
	}
}

// Consume implements SubOp.
func (p *PackStr) Consume(g *Gen) error {
	row, val := g.in(p.Row), g.in(p.Val)
	g.Append(ir.PackStr{
		Dst: g.Def(p.Out), Row: row, Region: p.Region,
		StateID: g.AddState(p.Off), Val: ir.Ref(val),
	})
	return nil
}

// SealKey freezes a packed row's key blob and reserves its payload region.
type SealKey struct {
	Row    *IU
	Layout *rt.RowLayoutState
	Out    *IU
}

// PrimitiveID implements SubOp.
func (s *SealKey) PrimitiveID() string { return "sealkey" }

// Desc implements SubOp.
func (s *SealKey) Desc() Desc {
	return Desc{
		In:    []Port{port("row input", s.Row, isPtr)},
		Out:   []Port{port("row output", s.Out, isPtr)},
		State: []any{s.Layout},
	}
}

// Consume implements SubOp.
func (s *SealKey) Consume(g *Gen) error {
	row := g.in(s.Row)
	g.Append(ir.SealKey{Dst: g.Def(s.Out), Row: row, StateID: g.AddState(s.Layout)})
	return nil
}

// AggLookup finds-or-creates the aggregation group for a packed key. The
// hash table resolves collisions internally, so the suboperator — and the
// code it generates — is identical for the fused and vectorized backends
// (paper §IV-D).
type AggLookup struct {
	Row   *IU
	State *rt.AggTableState
	Out   *IU
}

// PrimitiveID implements SubOp.
func (a *AggLookup) PrimitiveID() string { return "agglookup" }

// Desc implements SubOp.
func (a *AggLookup) Desc() Desc {
	return Desc{
		In:    []Port{port("key row", a.Row, isPtr)},
		Out:   []Port{port("group row", a.Out, isPtr)},
		State: []any{a.State},
	}
}

// Consume implements SubOp.
func (a *AggLookup) Consume(g *Gen) error {
	row := g.in(a.Row)
	g.Append(ir.AggLookup{Dst: g.Def(a.Out), Row: row, StateID: g.AddState(a.State)})
	return nil
}

// AggLookupFixed is the single-column key fast path of the aggregation
// (paper §IV-D): when the grouping key is one fixed-width column, no packing
// happens — the raw column value probes the table directly.
type AggLookupFixed struct {
	Key   *IU
	State *rt.AggTableState
	Out   *IU
}

// PrimitiveID implements SubOp.
func (a *AggLookupFixed) PrimitiveID() string { return "agglookupfixed_" + a.Key.K.String() }

// Desc implements SubOp.
func (a *AggLookupFixed) Desc() Desc {
	return Desc{
		In:    []Port{port("key", a.Key, types.AnyFixed)},
		Out:   []Port{port("group row", a.Out, isPtr)},
		State: []any{a.State},
	}
}

// Consume implements SubOp.
func (a *AggLookupFixed) Consume(g *Gen) error {
	key := g.in(a.Key)
	g.Append(ir.AggLookupFixed{Dst: g.Def(a.Out), Key: key, StateID: g.AddState(a.State)})
	return nil
}

// AggUpdate folds one value into one aggregate slot of the group row.
type AggUpdate struct {
	Group *IU
	Fn    ir.AggFunc
	Off   *rt.OffsetState
	Val   *IU // nil for AggCount
}

// PrimitiveID implements SubOp.
func (a *AggUpdate) PrimitiveID() string { return fmt.Sprintf("aggupdate_%v", a.Fn) }

// Desc implements SubOp.
func (a *AggUpdate) Desc() Desc {
	in := []Port{port("group row", a.Group, isPtr)}
	if a.Val != nil {
		in = append(in, port("aggregated value", a.Val, a.Fn.ValueRule()))
	}
	return Desc{In: in, State: []any{a.Off}}
}

// Consume implements SubOp.
func (a *AggUpdate) Consume(g *Gen) error {
	grp := g.in(a.Group)
	var val ir.Expr
	if a.Val != nil {
		val = ir.Ref(g.in(a.Val))
	}
	g.Append(ir.AggUpdate{Group: grp, Fn: a.Fn, StateID: g.AddState(a.Off), Val: val})
	return nil
}

// JoinInsert inserts a packed build row into a join hash table.
type JoinInsert struct {
	Row   *IU
	State *rt.JoinTableState
}

// PrimitiveID implements SubOp.
func (j *JoinInsert) PrimitiveID() string { return "joininsert" }

// Desc implements SubOp.
func (j *JoinInsert) Desc() Desc {
	return Desc{In: []Port{port("build row", j.Row, isPtr)}, State: []any{j.State}}
}

// Consume implements SubOp.
func (j *JoinInsert) Consume(g *Gen) error {
	g.Append(ir.JoinInsert{Row: g.in(j.Row), StateID: g.AddState(j.State)})
	return nil
}

// Prefetch touches hash-table buckets for a staged chunk of probe keys — the
// dedicated ROF prefetch step (paper §VII, ROF backend).
type Prefetch struct {
	Row   *IU
	State *rt.JoinTableState
}

// PrimitiveID implements SubOp.
func (p *Prefetch) PrimitiveID() string { return "prefetch" }

// Desc implements SubOp.
func (p *Prefetch) Desc() Desc {
	return Desc{In: []Port{port("probe row", p.Row, isPtr)}, State: []any{p.State}}
}

// Consume implements SubOp.
func (p *Prefetch) Consume(g *Gen) error {
	g.Append(ir.Prefetch{Row: g.in(p.Row), StateID: g.AddState(p.State)})
	return nil
}

// JoinProbe probes a join hash table with the key of a packed probe row and
// opens a per-match scope. It returns the matched build row — in row layout,
// from which downstream unpack suboperators recover the build side's columns
// — and the match selection: per emitted row, the position of its probe tuple
// in the chunk that was probed. The probe side itself is never packed: every
// probe-side column needed downstream enters the scope through a ProbeCopy
// (paper §IV-E: "an explicit gather of probe-side columns"), the way a
// FilterCopy carries a column into a filter's scope. Because it operates on an
// abstract packed key it respects the enumeration invariant.
type JoinProbe struct {
	Row        *IU
	State      *rt.JoinTableState
	Mode       ir.JoinMode
	BuildOut   *IU // Inner/LeftOuter; nil row for an unmatched LeftOuter tuple
	SelOut     *IU // Int32: the match selection
	MatchedOut *IU // LeftOuter only
}

// PrimitiveID implements SubOp.
func (j *JoinProbe) PrimitiveID() string { return fmt.Sprintf("joinprobe_%v", j.Mode) }

// Desc implements SubOp. A semi or anti join emits only the selection.
func (j *JoinProbe) Desc() Desc {
	build := port("build match row", j.BuildOut, isPtr)
	sel := port("match selection", j.SelOut, isInt32)
	out := []Port{build, sel}
	switch j.Mode {
	case ir.SemiJoin, ir.AntiJoin:
		out = out[1:]
	case ir.LeftOuterJoin:
		out = append(out, port("matched marker", j.MatchedOut, isBool))
	}
	return Desc{In: []Port{port("probe row", j.Row, isPtr)}, Out: out, State: []any{j.State}}
}

// Consume implements SubOp.
func (j *JoinProbe) Consume(g *Gen) error {
	p := &ir.ProbeStmt{
		StateID:  g.AddState(j.State),
		Mode:     j.Mode,
		ProbeRow: g.in(j.Row),
		Sel:      g.Def(j.SelOut),
	}
	if j.Mode == ir.InnerJoin || j.Mode == ir.LeftOuterJoin {
		p.Build = g.Def(j.BuildOut)
	}
	if j.Mode == ir.LeftOuterJoin {
		p.Matched = g.Def(j.MatchedOut)
	}
	g.OpenProbe(p)
	return nil
}

// ProbeCopy carries one probe-side column into a join probe's match scope,
// through the probe's match selection — the twin of FilterCopy (paper §IV-E,
// Fig 4): a gather in the vectorized interpreter, a free register rebind in
// fused code. Its inputs live at two cardinalities: Sel at the scope's (one
// entry per emitted row; a 1:N probe makes that more rows than were probed),
// Src at the probed chunk's. Sel comes first, so the dense-chunk rule — the
// first input carries the cardinality — sizes the primitive's loop by the
// selection.
type ProbeCopy struct {
	Sel      *IU // the probe's SelOut
	Src, Dst *IU
}

// PrimitiveID implements SubOp.
func (p *ProbeCopy) PrimitiveID() string { return "probecopy_" + p.Src.K.String() }

// Desc implements SubOp.
func (p *ProbeCopy) Desc() Desc {
	src := port("value the probe copies", p.Src, types.AnyKind)
	return Desc{
		In:  []Port{port("match selection", p.Sel, isInt32), src},
		Out: []Port{sameAs("copy", Col(p.Dst), src)},
	}
}

// Consume implements SubOp. Inside the scope its probe opened the copy joins
// the scope's list, like a filter copy; wrapped on its own between a
// tuple-buffer source and sink — the primitive — it is a free-standing gather
// of the Src column through the Sel column.
func (p *ProbeCopy) Consume(g *Gen) error {
	sel, src := g.in(p.Sel), g.in(p.Src)
	switch ps := g.CurrentProbe(); {
	case ps != nil && ps.Sel.ID == sel.ID:
		ps.Copies = append(ps.Copies, ir.Copy{Dst: g.Def(p.Dst), Src: src})
	case len(g.scopes) > 0:
		return fmt.Errorf("probe copy outside the scope of the probe that produced its selection")
	default:
		g.Append(ir.Copy{Dst: g.Def(p.Dst), Src: src, Sel: sel})
	}
	return nil
}

// UnpackFixed reads a fixed-width column back out of a packed row.
type UnpackFixed struct {
	Row    *IU
	Region ir.Region
	Off    *rt.OffsetState
	Out    *IU
}

// PrimitiveID implements SubOp.
func (u *UnpackFixed) PrimitiveID() string {
	return fmt.Sprintf("unpack_%v_%v", u.Region, u.Out.K)
}

// Desc implements SubOp.
func (u *UnpackFixed) Desc() Desc {
	return Desc{
		In:    []Port{port("row input", u.Row, isPtr)},
		Out:   []Port{port("unpacked value", u.Out, types.AnyFixed)},
		State: []any{u.Off},
	}
}

// Consume implements SubOp.
func (u *UnpackFixed) Consume(g *Gen) error {
	row := g.in(u.Row)
	g.Append(ir.Assign{Dst: g.Def(u.Out), E: ir.UnpackFixed{
		Row: ir.Ref(row), Region: u.Region, StateID: g.AddState(u.Off), K: u.Out.K,
	}})
	return nil
}

// UnpackStr reads a variable-size column back out of a packed row.
type UnpackStr struct {
	Row    *IU
	Region ir.Region
	Slot   *rt.VarSlotState
	Out    *IU
}

// PrimitiveID implements SubOp.
func (u *UnpackStr) PrimitiveID() string { return fmt.Sprintf("unpackstr_%v", u.Region) }

// Desc implements SubOp.
func (u *UnpackStr) Desc() Desc {
	return Desc{
		In:    []Port{port("row input", u.Row, isPtr)},
		Out:   []Port{port("unpacked value", u.Out, isString)},
		State: []any{u.Slot},
	}
}

// Consume implements SubOp.
func (u *UnpackStr) Consume(g *Gen) error {
	row := g.in(u.Row)
	g.Append(ir.Assign{Dst: g.Def(u.Out), E: ir.UnpackStr{
		Row: ir.Ref(row), Region: u.Region, StateID: g.AddState(u.Slot),
	}})
	return nil
}
