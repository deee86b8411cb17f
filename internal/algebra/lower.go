package algebra

import (
	"fmt"

	"inkfuse/internal/core"
	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
)

// Lower turns a relational plan into the suboperator plan executed by the
// engine (paper Fig 7, step 2 → 3): one pass over the algebra tree that
// breaks every operator into enumerable suboperators, allocates runtime
// state (hash tables, layouts, constants), and splits the tree into
// pipelines.
func Lower(root Node, name string) (*core.Plan, error) {
	plan, _, err := LowerWithParams(root, name)
	return plan, err
}

// LowerWithParams lowers like Lower and additionally collects the runtime
// constant states created for Ref-tagged literals (Const.Ref, LikeE.Ref,
// InListE.Ref) into a Params map, so callers can rebind parameter values on
// the lowered plan without re-lowering (the plancache reuse path). Lowering
// first aggregates the build side of a join ahead of it where a GroupBy above
// allows (eagerAggregate, DESIGN.md §21).
func LowerWithParams(root Node, name string) (*core.Plan, *Params, error) {
	plan := &core.Plan{Name: name}

	node := root
	var order *OrderBy
	if ob, ok := node.(*OrderBy); ok {
		order = ob
		node = ob.In
	}
	node = eagerAggregate(node)
	finalSchema, err := node.Schema()
	if err != nil {
		return nil, nil, err
	}
	required := make([]string, len(finalSchema))
	for i, c := range finalSchema {
		required[i] = c.Name
	}

	params := newParams()
	l := &lowerer{plan: plan, params: params}
	if err := l.lower(node, required); err != nil {
		return nil, nil, err
	}
	for _, c := range finalSchema {
		iu, err := l.plain(c.Name) // a coded column leaves the engine decoded
		if err != nil {
			return nil, nil, fmt.Errorf("algebra: result column %q not produced", c.Name)
		}
		l.pipe.Result = append(l.pipe.Result, iu)
		plan.ColNames = append(plan.ColNames, c.Name)
	}
	plan.Pipelines = append(plan.Pipelines, l.pipe)

	if order != nil {
		spec := &core.SortSpec{Limit: order.Limit}
		for i, k := range order.Keys {
			idx := finalSchema.IndexOf(k)
			if idx < 0 {
				return nil, nil, fmt.Errorf("algebra: order key %q not in result", k)
			}
			spec.Keys = append(spec.Keys, idx)
			desc := false
			if i < len(order.Desc) {
				desc = order.Desc[i]
			}
			spec.Desc = append(spec.Desc, desc)
		}
		plan.Sort = spec
	}
	return plan, params, nil
}

type lowerer struct {
	plan *core.Plan
	pipe *core.Pipeline
	cols map[string]*core.IU
	// dicts names the columns of cols that hold dictionary codes, with their
	// dictionary; decoded maps a code IU to its string IU once decoded
	// (lower_dict.go).
	dicts   map[string]*storage.Dict
	decoded map[int]*core.IU
	npipe   int
	params  *Params
}

func (l *lowerer) newPipe(src core.Source) {
	l.npipe = len(l.plan.Pipelines)
	l.pipe = &core.Pipeline{Name: fmt.Sprintf("p%d", l.npipe), Source: src}
	l.cols = make(map[string]*core.IU)
	l.dicts = make(map[string]*storage.Dict)
	l.decoded = make(map[int]*core.IU)
}

func (l *lowerer) add(op core.SubOp) { l.pipe.Ops = append(l.pipe.Ops, op) }

// anyBound returns some currently bound IU (cardinality anchor).
func (l *lowerer) anyBound(prefer []string) (*core.IU, error) {
	for _, n := range prefer {
		if iu, ok := l.cols[n]; ok {
			return iu, nil
		}
	}
	for _, iu := range l.cols {
		return iu, nil
	}
	return nil, fmt.Errorf("algebra: no bound columns for anchor")
}

func (l *lowerer) lower(node Node, required []string) error {
	switch n := node.(type) {
	case *Scan:
		return l.lowerScan(n, required)
	case *Filter:
		return l.lowerFilter(n, required)
	case *Map:
		return l.lowerMap(n, required)
	case *Project:
		return l.lower(n.In, required)
	case *GroupBy:
		return l.lowerGroupBy(n, required)
	case *HashJoin:
		return l.lowerJoin(n, required)
	case *OrderBy:
		return fmt.Errorf("algebra: ORDER BY must be the plan root")
	default:
		return fmt.Errorf("algebra: cannot lower %T", node)
	}
}

func (l *lowerer) lowerScan(n *Scan, required []string) error {
	schema, err := n.Schema()
	if err != nil {
		return err
	}
	cols := dedupe(required)
	if len(cols) == 0 {
		// Always scan at least one column to carry cardinality.
		cols = []string{schema[0].Name}
	}
	src := &core.TableScan{Table: n.Table}
	l.newPipe(src)
	for _, c := range cols {
		i := n.Table.Schema.IndexOf(c)
		if i < 0 {
			return fmt.Errorf("algebra: table %s has no column %q", n.Table.Name, c)
		}
		if schema.IndexOf(c) < 0 {
			return fmt.Errorf("algebra: column %q not in scan list of %s", c, n.Table.Name)
		}
		// A coded column is read as its codes (lower_dict.go).
		k := n.Table.Schema[i].Kind
		if d := n.Table.Facts[i].Dict; d != nil {
			k = types.Int32
			l.dicts[c] = d
		}
		iu := core.NewIU(k, c)
		src.Cols = append(src.Cols, i)
		src.IUs = append(src.IUs, iu)
		l.cols[c] = iu
	}
	return nil
}

func (l *lowerer) lowerFilter(n *Filter, required []string) error {
	inReq := dedupe(append(n.Pred.Columns(nil), required...))
	if err := l.lower(n.In, inReq); err != nil {
		return err
	}
	cond, err := l.lowerExpr(n.Pred)
	if err != nil {
		return err
	}
	scope := &core.FilterScope{Cond: cond}
	l.add(scope)
	// One copy suboperator per surviving column (paper Fig 4); a coded column
	// is carried as its codes.
	newCols := make(map[string]*core.IU, len(required))
	newDicts := make(map[string]*storage.Dict)
	for _, c := range dedupe(required) {
		src, ok := l.cols[c]
		if !ok {
			return fmt.Errorf("algebra: filter carries unknown column %q", c)
		}
		dst := core.NewIU(src.K, c)
		l.add(&core.FilterCopy{Cond: cond, Src: src, Dst: dst})
		newCols[c] = dst
		if d := l.dicts[c]; d != nil {
			newDicts[c] = d
		}
	}
	l.cols, l.dicts = newCols, newDicts
	return nil
}

func (l *lowerer) lowerMap(n *Map, required []string) error {
	defined := make(map[string]bool)
	for _, ne := range n.Exprs {
		defined[ne.As] = true
	}
	// An expression is needed if its name is required, or if a later needed
	// expression references it (map expressions may build on one another).
	neededName := make(map[string]bool)
	for _, c := range required {
		if defined[c] {
			neededName[c] = true
		}
	}
	for i := len(n.Exprs) - 1; i >= 0; i-- {
		ne := n.Exprs[i]
		if !neededName[ne.As] {
			continue
		}
		for _, c := range ne.E.Columns(nil) {
			if defined[c] {
				neededName[c] = true
			}
		}
	}
	var needed []NamedExpr
	for _, ne := range n.Exprs {
		if neededName[ne.As] {
			needed = append(needed, ne)
		}
	}
	var inReq []string
	for _, c := range required {
		if !defined[c] {
			inReq = append(inReq, c)
		}
	}
	for _, ne := range needed {
		for _, c := range ne.E.Columns(nil) {
			if !defined[c] {
				inReq = append(inReq, c)
			}
		}
	}
	if err := l.lower(n.In, dedupe(inReq)); err != nil {
		return err
	}
	for _, ne := range needed {
		// A renamed coded column stays coded.
		if c, ok := ne.E.(ColRef); ok && l.dicts[c.Name] != nil {
			renamed := *l.cols[c.Name]
			renamed.Name = ne.As
			l.cols[ne.As], l.dicts[ne.As] = &renamed, l.dicts[c.Name]
			continue
		}
		iu, err := l.lowerExpr(ne.E)
		if err != nil {
			return fmt.Errorf("algebra: map %q: %w", ne.As, err)
		}
		// Rebind under the computed name.
		renamed := *iu
		renamed.Name = ne.As
		l.cols[ne.As] = &renamed
		delete(l.dicts, ne.As)
	}
	return nil
}

// aggSlot records where one ir-level aggregate lives in the payload. Logical
// aggregates that reduce to the same (fn, col) share one slot — one
// AggUpdate suboperator, one merge — and read it back independently.
type aggSlot struct {
	fn  ir.AggFunc
	off int
	col string // input column; "" for count
}

func (l *lowerer) lowerGroupBy(n *GroupBy, required []string) error {
	inSchema, err := n.In.Schema()
	if err != nil {
		return err
	}
	var inReq []string
	inReq = append(inReq, n.Keys...)
	for _, a := range n.Aggs {
		if a.Col != "" {
			inReq = append(inReq, a.Col)
		}
	}
	if len(inReq) == 0 {
		// Pure COUNT(*): no column is read, but the pipeline still needs one
		// bound column to carry cardinality (the MakeRow anchor).
		inReq = []string{inSchema[0].Name}
	}
	if err := l.lower(n.In, dedupe(inReq)); err != nil {
		return err
	}

	// Key layout. A coded key is a fixed-width Int32 field; a collated one is
	// decoded and normalized (below), so it is a string field.
	noCase := toSet(n.NoCase)
	keyFields := make([]rt.Field, len(n.Keys))
	keyDicts := make([]*storage.Dict, len(n.Keys))
	for i, k := range n.Keys {
		ki := inSchema.IndexOf(k)
		if ki < 0 {
			return fmt.Errorf("algebra: group key %q missing", k)
		}
		kind := inSchema[ki].Kind
		if d := l.dicts[k]; d != nil && !noCase[k] {
			kind, keyDicts[i] = types.Int32, d
		}
		keyFields[i] = rt.Field{Kind: kind, Key: true}
	}
	keyLayout := rt.NewLayout(keyFields)

	// Aggregate slots: map logical aggregates onto ir-level update functions.
	var slots []aggSlot
	resultSlots := make(map[string][]int)     // agg name -> slot indexes (avg: sum, count)
	resultKind := make(map[string]types.Kind) // agg name -> declared result kind
	for _, a := range n.Aggs {
		k, err := aggResultKind(a, inSchema)
		if err != nil {
			return err
		}
		resultKind[a.As] = k
	}
	// One slot per distinct (function, input column): sum(x) and avg(x) fold
	// the same values in the same order into what would be two equal slots,
	// and every avg and count(*) would keep a row count of its own — TPC-H
	// Q1's eight aggregates need 6 slots, not 11. Sharing changes no result
	// bit: a shared slot sees exactly the update sequence each copy saw.
	off := 0
	addSlot := func(fn ir.AggFunc, col string) int {
		for i, s := range slots {
			if s.fn == fn && s.col == col {
				return i
			}
		}
		slots = append(slots, aggSlot{fn: fn, off: off, col: col})
		off += 8 // all slots padded to 8 bytes
		return len(slots) - 1
	}
	for _, a := range n.Aggs {
		var ck types.Kind
		if a.Col != "" {
			ci := inSchema.IndexOf(a.Col)
			if ci < 0 {
				return fmt.Errorf("algebra: aggregate column %q missing", a.Col)
			}
			ck = inSchema[ci].Kind
		}
		switch a.Fn {
		case AggSum:
			fn := ir.AggSumF64
			if ck == types.Int64 {
				fn = ir.AggSumI64
			}
			resultSlots[a.As] = []int{addSlot(fn, a.Col)}
		case AggCount:
			resultSlots[a.As] = []int{addSlot(ir.AggCount, "")}
		case AggCountIf:
			resultSlots[a.As] = []int{addSlot(ir.AggCountIf, a.Col)}
		case AggMin:
			fn := ir.AggMinF64
			if ck == types.Int32 || ck == types.Date {
				fn = ir.AggMinI32
			}
			resultSlots[a.As] = []int{addSlot(fn, a.Col)}
		case AggMax:
			fn := ir.AggMaxF64
			if ck == types.Int32 || ck == types.Date {
				fn = ir.AggMaxI32
			}
			resultSlots[a.As] = []int{addSlot(fn, a.Col)}
		case AggAvg:
			resultSlots[a.As] = []int{addSlot(ir.AggSumF64, a.Col), addSlot(ir.AggCount, "")}
		default:
			return fmt.Errorf("algebra: unknown aggregate %v", a.Fn)
		}
	}

	// Payload template and merge spec.
	init := make([]byte, off)
	var merges []rt.AggMerge
	for _, s := range slots {
		s.fn.InitSlot(init[s.off : s.off+8])
		merges = append(merges, rt.AggMerge{Op: mergeOp(s.fn), Off: s.off})
	}
	st := &rt.AggTableState{Init: init, Merge: merges}

	// Build-side suboperators: pack the compound key, look up the group,
	// update every aggregate (paper Fig 6). A single fixed-width key skips
	// packing and probes with the raw column (paper §IV-D fast path).
	// Case-insensitive keys pack their lowercase representative and preserve
	// an original in the group payload (paper §IV-D collations).
	group := core.NewIU(types.Ptr, "agg_group")
	if len(n.Keys) == 1 && keyFields[0].Kind.Fixed() {
		key, ok := l.cols[n.Keys[0]]
		if !ok {
			return fmt.Errorf("algebra: key column %q not bound", n.Keys[0])
		}
		l.add(&core.AggLookupFixed{Key: key, State: st, Out: group})
	} else {
		layout := &rt.RowLayoutState{KeyFixed: keyLayout.KeyFixedWidth}
		anchor, err := l.anyBound(inReq)
		if err != nil {
			return err
		}
		keyVals := make([]*core.IU, len(n.Keys))
		for i, k := range n.Keys {
			val, ok := l.cols[k]
			if !ok {
				return fmt.Errorf("algebra: key column %q not bound", k)
			}
			if noCase[k] {
				if val, err = l.plain(k); err != nil {
					return err
				}
				norm := core.NewIU(types.String, k+"_norm")
				l.add(&core.ToLower{In: val, Out: norm})
				val = norm
			}
			keyVals[i] = val
		}
		row := core.NewIU(types.Ptr, "agg_key")
		l.add(&core.MakeRow{Anchor: anchor, Layout: layout, Out: row})
		row, err = l.packKeyIUs(row, layout, keyLayout, keyVals)
		if err != nil {
			return err
		}
		// Preserve the original strings of collated keys in the probe row's
		// payload: AggLookup seeds new groups with it.
		for _, k := range n.Keys {
			if !noCase[k] {
				continue
			}
			orig, err := l.plain(k)
			if err != nil {
				return err
			}
			out := core.NewIU(types.Ptr, row.Name)
			l.add(&core.PackStr{Row: row, Val: orig, Region: ir.PayloadRegion,
				Off: &rt.OffsetState{Layout: layout}, Out: out})
			row = out
		}
		l.add(&core.AggLookup{Row: row, State: st, Out: group})
	}
	for _, s := range slots {
		u := &core.AggUpdate{Group: group, Fn: s.fn, Off: &rt.OffsetState{Off: s.off}}
		if s.col != "" {
			u.Val = l.cols[s.col]
		}
		l.add(u)
	}
	l.pipe.MergeAggs = append(l.pipe.MergeAggs, &core.AggFinalize{State: st, Keyless: len(n.Keys) == 0})
	l.plan.Pipelines = append(l.plan.Pipelines, l.pipe)

	// Reading pipeline: scan the groups, unpack keys and aggregates.
	rowIU := core.NewIU(types.Ptr, "agg_row")
	l.newPipe(&core.AggRead{State: st, Out: rowIU})
	reqSet := toSet(required)
	collatedIdx := 0
	collatedSlot := make(map[string]int)
	for _, k := range n.Keys {
		if noCase[k] {
			collatedSlot[k] = collatedIdx
			collatedIdx++
		}
	}
	for i, k := range n.Keys {
		if !reqSet[k] {
			continue
		}
		var iu *core.IU
		var err error
		if noCase[k] {
			// The displayed value is the preserved original from the group
			// payload, after the fixed aggregate slots.
			iu, err = l.unpackField(rowIU, ir.PayloadRegion, types.String, -1,
				len(init), collatedSlot[k], k)
		} else {
			iu, err = l.unpackField(rowIU, ir.KeyRegion, keyFields[i].Kind, keyLayout.FixedOff[i],
				keyLayout.KeyFixedWidth, keyLayout.VarIdx[i], k)
		}
		if err != nil {
			return err
		}
		l.cols[k] = iu
		if keyDicts[i] != nil {
			l.dicts[k] = keyDicts[i]
		}
	}
	for _, a := range n.Aggs {
		if !reqSet[a.As] {
			continue
		}
		si := resultSlots[a.As]
		switch a.Fn {
		case AggAvg:
			sum, err := l.unpackField(rowIU, ir.PayloadRegion, types.Float64, slots[si[0]].off, 0, -1, a.As+"_sum")
			if err != nil {
				return err
			}
			cnt, err := l.unpackField(rowIU, ir.PayloadRegion, types.Int64, slots[si[1]].off, 0, -1, a.As+"_cnt")
			if err != nil {
				return err
			}
			cntF := core.NewIU(types.Float64, a.As+"_cntf")
			l.add(&core.Cast{In: cnt, Out: cntF})
			avg := core.NewIU(types.Float64, a.As)
			l.add(&core.Arith{Op: ir.Div, L: core.Col(sum), R: core.Col(cntF), Out: avg})
			l.cols[a.As] = avg
		default:
			// Unpack with the declared result kind (Date aggregates share
			// the Int32 slot representation).
			iu, err := l.unpackField(rowIU, ir.PayloadRegion, resultKind[a.As], slots[si[0]].off, 0, -1, a.As)
			if err != nil {
				return err
			}
			l.cols[a.As] = iu
		}
	}
	return nil
}

func mergeOp(fn ir.AggFunc) rt.MergeOp {
	switch fn {
	case ir.AggSumF64:
		return rt.MergeSumF64
	case ir.AggMinF64:
		return rt.MergeMinF64
	case ir.AggMaxF64:
		return rt.MergeMaxF64
	case ir.AggMinI32:
		return rt.MergeMinI32
	case ir.AggMaxI32:
		return rt.MergeMaxI32
	default:
		return rt.MergeSumI64
	}
}

// packKey emits the key-packing chain for the named columns into row. Join
// keys are compared as strings: a coded key is decoded.
func (l *lowerer) packKey(row *core.IU, layout *rt.RowLayoutState, keyLayout *rt.Layout, keys []string) (*core.IU, error) {
	vals := make([]*core.IU, len(keys))
	for i, k := range keys {
		val, err := l.plain(k)
		if err != nil {
			return nil, err
		}
		vals[i] = val
	}
	return l.packKeyIUs(row, layout, keyLayout, vals)
}

// packKeyIUs is packKey over already-resolved key values (collated keys pack
// a normalized IU rather than the named column, paper §IV-D).
func (l *lowerer) packKeyIUs(row *core.IU, layout *rt.RowLayoutState, keyLayout *rt.Layout, vals []*core.IU) (*core.IU, error) {
	// Fixed fields first (they write into the pre-sized key area), then
	// variable-size fields, then the seal.
	for i, val := range vals {
		if keyLayout.FixedOff[i] < 0 {
			continue
		}
		out := core.NewIU(types.Ptr, row.Name)
		l.add(&core.PackFixed{Row: row, Val: val, Region: ir.KeyRegion,
			Off: &rt.OffsetState{Off: keyLayout.FixedOff[i], Layout: layout}, Out: out})
		row = out
	}
	for i, val := range vals {
		if keyLayout.VarIdx[i] < 0 {
			continue
		}
		out := core.NewIU(types.Ptr, row.Name)
		l.add(&core.PackStr{Row: row, Val: val, Region: ir.KeyRegion,
			Off: &rt.OffsetState{Layout: layout}, Out: out})
		row = out
	}
	sealed := core.NewIU(types.Ptr, row.Name)
	l.add(&core.SealKey{Row: row, Layout: layout, Out: sealed})
	return sealed, nil
}

// unpackField emits the unpack suboperator for one packed-row field.
func (l *lowerer) unpackField(row *core.IU, region ir.Region, k types.Kind,
	fixedOff, fixedWidth, varIdx int, name string) (*core.IU, error) {
	out := core.NewIU(k, name)
	if k == types.String {
		l.add(&core.UnpackStr{Row: row, Region: region,
			Slot: &rt.VarSlotState{FixedWidth: fixedWidth, VarIdx: varIdx}, Out: out})
	} else {
		l.add(&core.UnpackFixed{Row: row, Region: region,
			Off: &rt.OffsetState{Off: fixedOff}, Out: out})
	}
	return out, nil
}

func dedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := make([]string, 0, len(in))
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func toSet(in []string) map[string]bool {
	m := make(map[string]bool, len(in))
	for _, s := range in {
		m[s] = true
	}
	return m
}
