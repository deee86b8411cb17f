package algebra

import (
	"fmt"

	"inkfuse/internal/core"
	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
)

func (l *lowerer) lowerJoin(n *HashJoin, required []string) error {
	buildSchema, err := n.Build.Schema()
	if err != nil {
		return err
	}
	probeSchema, err := n.Probe.Schema()
	if err != nil {
		return err
	}
	reqSet := toSet(required)
	buildKeySet := toSet(n.BuildKeys)

	// Build-side columns carried through the hash table.
	var carry []string
	for _, c := range n.BuildCols {
		if reqSet[c] {
			carry = append(carry, c)
		}
	}

	// --- Build pipeline: pack key + payload, insert (paper §IV-E).
	lb := &lowerer{plan: l.plan, params: l.params}
	breq := dedupe(append(append([]string{}, n.BuildKeys...), carry...))
	if err := lb.lower(n.Build, breq); err != nil {
		return err
	}
	// Join keys are compared as strings, decoded where coded. A carried coded
	// column travels as its code, a fixed-width payload field — except through
	// an outer join, whose unmatched rows read every build column as its zero
	// value: the empty string, which code 0 need not stand for.
	bFields := make([]rt.Field, 0, len(n.BuildKeys)+len(carry))
	for _, k := range n.BuildKeys {
		i := buildSchema.IndexOf(k)
		bFields = append(bFields, rt.Field{Kind: buildSchema[i].Kind, Key: true})
	}
	carryVals := make([]*core.IU, len(carry))
	carryDicts := make([]*storage.Dict, len(carry))
	for j, c := range carry {
		if d := lb.dicts[c]; d != nil && n.Mode != ir.LeftOuterJoin {
			carryVals[j], carryDicts[j] = lb.cols[c], d
		} else if carryVals[j], err = lb.plain(c); err != nil {
			return err
		}
		bFields = append(bFields, rt.Field{Kind: carryVals[j].K})
	}
	bLayout := rt.NewLayout(bFields)
	bRL := &rt.RowLayoutState{KeyFixed: bLayout.KeyFixedWidth, PayloadFixed: bLayout.PayloadFixedWidth}
	jt := &rt.JoinTableState{}

	anchor, err := lb.anyBound(n.BuildKeys)
	if err != nil {
		return err
	}
	row := core.NewIU(types.Ptr, "build_row")
	lb.add(&core.MakeRow{Anchor: anchor, Layout: bRL, Out: row})
	keyLayoutView := &rt.Layout{ // key-field view for packKey
		FixedOff:      bLayout.FixedOff[:len(n.BuildKeys)],
		VarIdx:        bLayout.VarIdx[:len(n.BuildKeys)],
		KeyFixedWidth: bLayout.KeyFixedWidth,
	}
	row, err = lb.packKey(row, bRL, keyLayoutView, n.BuildKeys)
	if err != nil {
		return err
	}
	row, err = lb.packPayload(row, bRL, bLayout, len(n.BuildKeys), carryVals)
	if err != nil {
		return err
	}
	lb.add(&core.JoinInsert{Row: row, State: jt})
	lb.pipe.SealJoins = append(lb.pipe.SealJoins, jt)
	l.plan.Pipelines = append(l.plan.Pipelines, lb.pipe)

	// --- Probe side: continues the current pipeline. Only the probe key is
	// packed — the table compares key blobs — and nothing else of the probe
	// tuple: every probe-side column needed above the join, keys included,
	// enters the match scope through a ProbeCopy of the column it already is
	// (paper §IV-E), the way a filter carries its survivors.
	preq := append([]string{}, n.ProbeKeys...)
	for _, c := range required {
		if probeSchema.IndexOf(c) >= 0 {
			preq = append(preq, c)
		}
	}
	if err := l.lower(n.Probe, dedupe(preq)); err != nil {
		return err
	}
	pFields := make([]rt.Field, len(n.ProbeKeys))
	for i, k := range n.ProbeKeys {
		pFields[i] = rt.Field{Kind: probeSchema[probeSchema.IndexOf(k)].Kind, Key: true}
	}
	pLayout := rt.NewLayout(pFields)
	pRL := &rt.RowLayoutState{KeyFixed: pLayout.KeyFixedWidth}

	panchor, err := l.anyBound(n.ProbeKeys)
	if err != nil {
		return err
	}
	prow := core.NewIU(types.Ptr, "probe_key")
	l.add(&core.MakeRow{Anchor: panchor, Layout: pRL, Out: prow})
	prow, err = l.packKey(prow, pRL, pLayout, n.ProbeKeys)
	if err != nil {
		return err
	}

	probe := &core.JoinProbe{
		Row:        prow,
		State:      jt,
		Mode:       n.Mode,
		BuildOut:   core.NewIU(types.Ptr, "jbuild"),
		SelOut:     core.NewIU(types.Int32, "jsel"),
		MatchedOut: core.NewIU(types.Bool, "jmatched"),
	}
	l.add(probe)

	// --- Carry the probe side's columns into the match scope and unpack the
	// build side's from the matched row.
	newCols := make(map[string]*core.IU)
	newDicts := make(map[string]*storage.Dict)
	for _, c := range dedupe(required) {
		switch {
		case n.Mode == ir.LeftOuterJoin && c == n.MatchedAs:
			newCols[c] = probe.MatchedOut
		case probeSchema.IndexOf(c) >= 0:
			src, ok := l.cols[c]
			if !ok {
				return fmt.Errorf("algebra: join carries unknown probe column %q", c)
			}
			dst := core.NewIU(src.K, c)
			l.add(&core.ProbeCopy{Sel: probe.SelOut, Src: src, Dst: dst})
			newCols[c] = dst
			if d := l.dicts[c]; d != nil {
				newDicts[c] = d
			}
		case buildSchema.IndexOf(c) >= 0 && (n.Mode == ir.InnerJoin || n.Mode == ir.LeftOuterJoin):
			if !buildKeySet[c] && !contains(carry, c) {
				return fmt.Errorf("algebra: build column %q not carried through join", c)
			}
			iu, d, err := l.unpackJoinCol(probe.BuildOut, bFields, bLayout, n.BuildKeys, carry, carryDicts, c)
			if err != nil {
				return err
			}
			newCols[c] = iu
			if d != nil {
				newDicts[c] = d
			}
		default:
			return fmt.Errorf("algebra: join cannot provide column %q", c)
		}
	}
	l.cols, l.dicts = newCols, newDicts
	return nil
}

// packPayload emits payload packing for the carried values; fields[keyCount:]
// describe them in layout.
func (l *lowerer) packPayload(row *core.IU, rl *rt.RowLayoutState, layout *rt.Layout, keyCount int, carry []*core.IU) (*core.IU, error) {
	for j, val := range carry {
		fi := keyCount + j
		if layout.FixedOff[fi] < 0 {
			continue
		}
		out := core.NewIU(types.Ptr, row.Name)
		l.add(&core.PackFixed{Row: row, Val: val, Region: ir.PayloadRegion,
			Off: &rt.OffsetState{Off: layout.FixedOff[fi], Layout: rl}, Out: out})
		row = out
	}
	for j, val := range carry {
		fi := keyCount + j
		if layout.VarIdx[fi] < 0 {
			continue
		}
		out := core.NewIU(types.Ptr, row.Name)
		l.add(&core.PackStr{Row: row, Val: val, Region: ir.PayloadRegion,
			Off: &rt.OffsetState{Layout: rl}, Out: out})
		row = out
	}
	return row, nil
}

// unpackJoinCol recovers one build-side column from the matched build row,
// with its dictionary when it was carried as codes. fields describes the
// row: the keys, then the carried columns.
func (l *lowerer) unpackJoinCol(row *core.IU, fields []rt.Field, layout *rt.Layout,
	keys, carry []string, carryDicts []*storage.Dict, name string) (*core.IU, *storage.Dict, error) {
	for i, kn := range keys {
		if kn == name {
			iu, err := l.unpackField(row, ir.KeyRegion, fields[i].Kind, layout.FixedOff[i],
				layout.KeyFixedWidth, layout.VarIdx[i], name)
			return iu, nil, err
		}
	}
	for j, cn := range carry {
		if cn == name {
			fi := len(keys) + j
			iu, err := l.unpackField(row, ir.PayloadRegion, fields[fi].Kind, layout.FixedOff[fi],
				layout.PayloadFixedWidth, layout.VarIdx[fi], name)
			return iu, carryDicts[j], err
		}
	}
	return nil, nil, fmt.Errorf("algebra: column %q not packed in join row", name)
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
