package core

import (
	"fmt"

	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
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

// Inputs implements SubOp.
func (f *FilterScope) Inputs() []*IU { return []*IU{f.Cond} }

// Outputs implements SubOp.
func (f *FilterScope) Outputs() []*IU { return nil }

// States implements SubOp.
func (f *FilterScope) States() []any { return nil }

// Consume implements SubOp.
func (f *FilterScope) Consume(g *Gen) error {
	v, err := g.Var(f.Cond)
	if err != nil {
		return err
	}
	g.OpenFilter(&ir.FilterStmt{Cond: v})
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

// Inputs implements SubOp.
func (f *FilterCopy) Inputs() []*IU { return []*IU{f.Cond, f.Src} }

// Outputs implements SubOp.
func (f *FilterCopy) Outputs() []*IU { return []*IU{f.Dst} }

// States implements SubOp.
func (f *FilterCopy) States() []any { return nil }

// Consume implements SubOp.
func (f *FilterCopy) Consume(g *Gen) error {
	fs := g.CurrentFilter()
	if fs == nil {
		return fmt.Errorf("filter copy outside a filter scope")
	}
	src, err := g.Var(f.Src)
	if err != nil {
		return err
	}
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

// Inputs implements SubOp.
func (m *MakeRow) Inputs() []*IU { return []*IU{m.Anchor} }

// Outputs implements SubOp.
func (m *MakeRow) Outputs() []*IU { return []*IU{m.Out} }

// States implements SubOp.
func (m *MakeRow) States() []any { return []any{m.Layout} }

// Consume implements SubOp.
func (m *MakeRow) Consume(g *Gen) error {
	if _, err := g.Var(m.Anchor); err != nil {
		return err
	}
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

// Inputs implements SubOp.
func (p *PackFixed) Inputs() []*IU { return []*IU{p.Row, p.Val} }

// Outputs implements SubOp.
func (p *PackFixed) Outputs() []*IU { return []*IU{p.Out} }

// States implements SubOp.
func (p *PackFixed) States() []any { return []any{p.Off} }

// Consume implements SubOp.
func (p *PackFixed) Consume(g *Gen) error {
	row, err := g.Var(p.Row)
	if err != nil {
		return err
	}
	val, err := g.Var(p.Val)
	if err != nil {
		return err
	}
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

// Inputs implements SubOp.
func (p *PackStr) Inputs() []*IU { return []*IU{p.Row, p.Val} }

// Outputs implements SubOp.
func (p *PackStr) Outputs() []*IU { return []*IU{p.Out} }

// States implements SubOp.
func (p *PackStr) States() []any { return []any{p.Off} }

// Consume implements SubOp.
func (p *PackStr) Consume(g *Gen) error {
	row, err := g.Var(p.Row)
	if err != nil {
		return err
	}
	val, err := g.Var(p.Val)
	if err != nil {
		return err
	}
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

// Inputs implements SubOp.
func (s *SealKey) Inputs() []*IU { return []*IU{s.Row} }

// Outputs implements SubOp.
func (s *SealKey) Outputs() []*IU { return []*IU{s.Out} }

// States implements SubOp.
func (s *SealKey) States() []any { return []any{s.Layout} }

// Consume implements SubOp.
func (s *SealKey) Consume(g *Gen) error {
	row, err := g.Var(s.Row)
	if err != nil {
		return err
	}
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

// Inputs implements SubOp.
func (a *AggLookup) Inputs() []*IU { return []*IU{a.Row} }

// Outputs implements SubOp.
func (a *AggLookup) Outputs() []*IU { return []*IU{a.Out} }

// States implements SubOp.
func (a *AggLookup) States() []any { return []any{a.State} }

// Consume implements SubOp.
func (a *AggLookup) Consume(g *Gen) error {
	row, err := g.Var(a.Row)
	if err != nil {
		return err
	}
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

// Inputs implements SubOp.
func (a *AggLookupFixed) Inputs() []*IU { return []*IU{a.Key} }

// Outputs implements SubOp.
func (a *AggLookupFixed) Outputs() []*IU { return []*IU{a.Out} }

// States implements SubOp.
func (a *AggLookupFixed) States() []any { return []any{a.State} }

// Consume implements SubOp.
func (a *AggLookupFixed) Consume(g *Gen) error {
	key, err := g.Var(a.Key)
	if err != nil {
		return err
	}
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

// Inputs implements SubOp.
func (a *AggUpdate) Inputs() []*IU {
	if a.Val == nil {
		return []*IU{a.Group}
	}
	return []*IU{a.Group, a.Val}
}

// Outputs implements SubOp.
func (a *AggUpdate) Outputs() []*IU { return nil }

// States implements SubOp.
func (a *AggUpdate) States() []any { return []any{a.Off} }

// Consume implements SubOp.
func (a *AggUpdate) Consume(g *Gen) error {
	grp, err := g.Var(a.Group)
	if err != nil {
		return err
	}
	var val ir.Expr
	if a.Val != nil {
		v, err := g.Var(a.Val)
		if err != nil {
			return err
		}
		val = ir.Ref(v)
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

// Inputs implements SubOp.
func (j *JoinInsert) Inputs() []*IU { return []*IU{j.Row} }

// Outputs implements SubOp.
func (j *JoinInsert) Outputs() []*IU { return nil }

// States implements SubOp.
func (j *JoinInsert) States() []any { return []any{j.State} }

// Consume implements SubOp.
func (j *JoinInsert) Consume(g *Gen) error {
	row, err := g.Var(j.Row)
	if err != nil {
		return err
	}
	g.Append(ir.JoinInsert{Row: row, StateID: g.AddState(j.State)})
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

// Inputs implements SubOp.
func (p *Prefetch) Inputs() []*IU { return []*IU{p.Row} }

// Outputs implements SubOp.
func (p *Prefetch) Outputs() []*IU { return nil }

// States implements SubOp.
func (p *Prefetch) States() []any { return []any{p.State} }

// Consume implements SubOp.
func (p *Prefetch) Consume(g *Gen) error {
	row, err := g.Var(p.Row)
	if err != nil {
		return err
	}
	g.Append(ir.Prefetch{Row: row, StateID: g.AddState(p.State)})
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

// Inputs implements SubOp.
func (j *JoinProbe) Inputs() []*IU { return []*IU{j.Row} }

// Outputs implements SubOp.
func (j *JoinProbe) Outputs() []*IU {
	switch j.Mode {
	case ir.SemiJoin, ir.AntiJoin:
		return []*IU{j.SelOut}
	case ir.LeftOuterJoin:
		return []*IU{j.BuildOut, j.SelOut, j.MatchedOut}
	default:
		return []*IU{j.BuildOut, j.SelOut}
	}
}

// States implements SubOp.
func (j *JoinProbe) States() []any { return []any{j.State} }

// Consume implements SubOp.
func (j *JoinProbe) Consume(g *Gen) error {
	row, err := g.Var(j.Row)
	if err != nil {
		return err
	}
	p := &ir.ProbeStmt{
		StateID:  g.AddState(j.State),
		Mode:     j.Mode,
		ProbeRow: row,
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

// Inputs implements SubOp.
func (p *ProbeCopy) Inputs() []*IU { return []*IU{p.Sel, p.Src} }

// Outputs implements SubOp.
func (p *ProbeCopy) Outputs() []*IU { return []*IU{p.Dst} }

// States implements SubOp.
func (p *ProbeCopy) States() []any { return nil }

// Consume implements SubOp. Inside the scope its probe opened the copy joins
// the scope's list, like a filter copy; wrapped on its own between a
// tuple-buffer source and sink — the primitive — it is a free-standing gather
// of the Src column through the Sel column.
func (p *ProbeCopy) Consume(g *Gen) error {
	sel, err := g.Var(p.Sel)
	if err != nil {
		return err
	}
	src, err := g.Var(p.Src)
	if err != nil {
		return err
	}
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

// Inputs implements SubOp.
func (u *UnpackFixed) Inputs() []*IU { return []*IU{u.Row} }

// Outputs implements SubOp.
func (u *UnpackFixed) Outputs() []*IU { return []*IU{u.Out} }

// States implements SubOp.
func (u *UnpackFixed) States() []any { return []any{u.Off} }

// Consume implements SubOp.
func (u *UnpackFixed) Consume(g *Gen) error {
	row, err := g.Var(u.Row)
	if err != nil {
		return err
	}
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

// Inputs implements SubOp.
func (u *UnpackStr) Inputs() []*IU { return []*IU{u.Row} }

// Outputs implements SubOp.
func (u *UnpackStr) Outputs() []*IU { return []*IU{u.Out} }

// States implements SubOp.
func (u *UnpackStr) States() []any { return []any{u.Slot} }

// Consume implements SubOp.
func (u *UnpackStr) Consume(g *Gen) error {
	row, err := g.Var(u.Row)
	if err != nil {
		return err
	}
	g.Append(ir.Assign{Dst: g.Def(u.Out), E: ir.UnpackStr{
		Row: ir.Ref(row), Region: u.Region, StateID: g.AddState(u.Slot),
	}})
	return nil
}
