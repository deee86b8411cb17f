package vm

// The closure compiler's rewrites (DESIGN.md §17), each pinned against the
// statement-by-statement compilation of the same IR: a second consumer of the
// value a pattern would fuse away — here a free ir.Copy — makes the compiler
// fall back, which gives every test its reference program.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/rt/rttest"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
)

// cascadeFunc filters on a ≥ k0 AND k1 > b AND a < b AND like(s) and emits the
// surviving a. With keep, the middle comparison's bool is emitted too, so it
// has two consumers.
func cascadeFunc(keep bool) *ir.Func {
	a := ir.Var{ID: 1, K: types.Int64, Name: "a"}
	b := ir.Var{ID: 2, K: types.Int64, Name: "b"}
	s := ir.Var{ID: 3, K: types.String, Name: "s"}
	c1 := ir.Var{ID: 4, K: types.Bool, Name: "c1"}
	c2 := ir.Var{ID: 5, K: types.Bool, Name: "c2"}
	c3 := ir.Var{ID: 6, K: types.Bool, Name: "c3"}
	c4 := ir.Var{ID: 7, K: types.Bool, Name: "c4"}
	and1 := ir.Var{ID: 8, K: types.Bool, Name: "and1"}
	and2 := ir.Var{ID: 9, K: types.Bool, Name: "and2"}
	and3 := ir.Var{ID: 10, K: types.Bool, Name: "and3"}
	a2 := ir.Var{ID: 11, K: types.Int64, Name: "a2"}
	c2in := ir.Var{ID: 12, K: types.Bool, Name: "c2in"}
	filter := ir.FilterStmt{
		Cond:   and3,
		Copies: []ir.Copy{{Dst: a2, Src: a}},
		Body:   []ir.Stmt{ir.EmitStmt{Cols: []ir.Var{a2}}},
	}
	out := []types.Kind{types.Int64}
	if keep {
		filter.Copies = append(filter.Copies, ir.Copy{Dst: c2in, Src: c2})
		filter.Body = []ir.Stmt{ir.EmitStmt{Cols: []ir.Var{a2, c2in}}}
		out = append(out, types.Bool)
	}
	return &ir.Func{
		Name: "cascade",
		Ins:  []ir.Var{a, b, s},
		Body: []ir.Stmt{
			ir.Assign{Dst: c1, E: ir.CmpExpr{Op: ir.Ge, L: ir.Ref(a), R: ir.ConstRef{StateID: 0, K: types.Int64}}},
			ir.Assign{Dst: c2, E: ir.CmpExpr{Op: ir.Gt, L: ir.ConstRef{StateID: 1, K: types.Int64}, R: ir.Ref(b)}},
			ir.Assign{Dst: and1, E: ir.LogicExpr{Op: ir.And, L: ir.Ref(c1), R: ir.Ref(c2)}},
			ir.Assign{Dst: c3, E: ir.CmpExpr{Op: ir.Lt, L: ir.Ref(a), R: ir.Ref(b)}},
			ir.Assign{Dst: and2, E: ir.LogicExpr{Op: ir.And, L: ir.Ref(and1), R: ir.Ref(c3)}},
			ir.Assign{Dst: c4, E: ir.LikeExpr{S: ir.Ref(s), StateID: 2}},
			ir.Assign{Dst: and3, E: ir.LogicExpr{Op: ir.And, L: ir.Ref(and2), R: ir.Ref(c4)}},
			filter,
		},
		OutKinds:  out,
		NumStates: 3,
	}
}

func TestSelectionCascade(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const n = 3000
	av, bv, sv := storage.NewVector(types.Int64, n), storage.NewVector(types.Int64, n), storage.NewVector(types.String, n)
	for i := 0; i < n; i++ {
		av.I64[i], bv.I64[i] = int64(r.Intn(100)), int64(r.Intn(100))
		sv.Str[i] = []string{"PROMO A", "plain"}[r.Intn(2)]
	}
	like := &rt.LikeState{M: rt.NewLikeMatcher("PROMO%")}
	for _, k := range []struct{ k0, k1 int64 }{{20, 70}, {0, 100}, {1000, 70} /* first conjunct: no survivor */} {
		state := []any{rt.ConstI64(k.k0), rt.ConstI64(k.k1), like}
		var want []int64
		for i := 0; i < n; i++ {
			if av.I64[i] >= k.k0 && k.k1 > bv.I64[i] && av.I64[i] < bv.I64[i] && sv.Str[i] == "PROMO A" {
				want = append(want, av.I64[i])
			}
		}
		for _, keep := range []bool{false, true} {
			p := MustCompile(cascadeFunc(keep))
			// Four selectors either way: three comparisons and LIKE as a
			// materialized bool when every temporary has one consumer; with
			// the second comparison's bool also copied into the scope, that
			// conjunct is the materialized one.
			if got := p.Rewrites().Cascades; !reflect.DeepEqual(got, []int{4}) {
				t.Fatalf("keep=%v: cascades %v, want [4]", keep, got)
			}
			out := storage.NewChunk(p.Fn.OutKinds)
			ctx := NewCtx()
			p.Run(ctx, state, []*storage.Vector{av, bv, sv}, n, out)
			if got := out.Cols[0].I64; len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%v keep=%v: %d rows, want %d", k, keep, out.Rows(), len(want))
			}
			if keep {
				for _, c2 := range out.Cols[1].B {
					if !c2 {
						t.Fatalf("k=%v: a surviving row carries a false conjunct", k)
					}
				}
			}
		}
	}

	// The cascade visits fewer rows than conjuncts × n; VMOps counts visits.
	p := MustCompile(cascadeFunc(false))
	ctx := NewCtx()
	p.Run(ctx, []any{rt.ConstI64(1000), rt.ConstI64(70), like}, []*storage.Vector{av, bv, sv}, n, storage.NewChunk(p.Fn.OutKinds))
	// LIKE is materialized over all n rows, the first selector visits n and
	// leaves nothing for the other three.
	if ctx.Counters.VMOps != 2*n {
		t.Fatalf("VMOps = %d with an empty first selection, want %d", ctx.Counters.VMOps, 2*n)
	}
}

// TestCodeMatchSelector: a predicate over dictionary codes (DESIGN.md §20) is
// one selector of the cascade, reading its code → bool table per surviving
// row; with its bool emitted too it stays a register, and both forms keep the
// same rows.
func TestCodeMatchSelector(t *testing.T) {
	a := ir.Var{ID: 1, K: types.Int64, Name: "a"}
	code := ir.Var{ID: 2, K: types.Int32, Name: "code"}
	c1 := ir.Var{ID: 3, K: types.Bool, Name: "c1"}
	c2 := ir.Var{ID: 4, K: types.Bool, Name: "c2"}
	and := ir.Var{ID: 5, K: types.Bool, Name: "and"}
	a2 := ir.Var{ID: 6, K: types.Int64, Name: "a2"}
	c2in := ir.Var{ID: 7, K: types.Bool, Name: "c2in"}
	fn := func(keep bool) *ir.Func {
		filter := ir.FilterStmt{Cond: and, Copies: []ir.Copy{{Dst: a2, Src: a}}, Body: []ir.Stmt{ir.EmitStmt{Cols: []ir.Var{a2}}}}
		out := []types.Kind{types.Int64}
		if keep {
			filter.Copies = append(filter.Copies, ir.Copy{Dst: c2in, Src: c2})
			filter.Body = []ir.Stmt{ir.EmitStmt{Cols: []ir.Var{a2, c2in}}}
			out = append(out, types.Bool)
		}
		return &ir.Func{
			Name: "codematch", Ins: []ir.Var{a, code}, OutKinds: out, NumStates: 2,
			Body: []ir.Stmt{
				ir.Assign{Dst: c1, E: ir.CmpExpr{Op: ir.Ge, L: ir.Ref(a), R: ir.ConstRef{StateID: 0, K: types.Int64}}},
				ir.Assign{Dst: c2, E: ir.CodeMatch{C: ir.Ref(code), StateID: 1}},
				ir.Assign{Dst: and, E: ir.LogicExpr{Op: ir.And, L: ir.Ref(c1), R: ir.Ref(c2)}},
				filter,
			},
		}
	}
	r := rand.New(rand.NewSource(1))
	const n = 3000
	av, cv := storage.NewVector(types.Int64, n), storage.NewVector(types.Int32, n)
	for i := 0; i < n; i++ {
		av.I64[i], cv.I32[i] = int64(r.Intn(100)), int32(r.Intn(5))
	}
	table := &rt.CodeTableState{T: []bool{true, false, false, true, false}}
	var want []int64
	for i := 0; i < n; i++ {
		if av.I64[i] >= 30 && table.T[cv.I32[i]] {
			want = append(want, av.I64[i])
		}
	}
	for _, keep := range []bool{false, true} {
		p := MustCompile(fn(keep))
		if got, wantSels := p.Rewrites().Cascades, []int{2}; !reflect.DeepEqual(got, wantSels) {
			t.Fatalf("keep=%v: cascades %v, want %v", keep, got, wantSels)
		}
		out := storage.NewChunk(p.Fn.OutKinds)
		p.Run(NewCtx(), []any{rt.ConstI64(30), table}, []*storage.Vector{av, cv}, n, out)
		if !reflect.DeepEqual(out.Cols[0].I64, want) {
			t.Fatalf("keep=%v: %d rows, want %d", keep, out.Rows(), len(want))
		}
	}
}

// TestCascadeUseCountGuard: a conjunction whose own bool has a second consumer
// is not a cascade at all — it and its operands stay registers.
func TestCascadeUseCountGuard(t *testing.T) {
	a := ir.Var{ID: 1, K: types.Int64, Name: "a"}
	c1 := ir.Var{ID: 2, K: types.Bool, Name: "c1"}
	c2 := ir.Var{ID: 3, K: types.Bool, Name: "c2"}
	and := ir.Var{ID: 4, K: types.Bool, Name: "and"}
	a2 := ir.Var{ID: 5, K: types.Int64, Name: "a2"}
	and2 := ir.Var{ID: 6, K: types.Bool, Name: "and2"}
	f := &ir.Func{
		Ins: []ir.Var{a},
		Body: []ir.Stmt{
			ir.Assign{Dst: c1, E: ir.CmpExpr{Op: ir.Gt, L: ir.Ref(a), R: ir.ConstRef{StateID: 0, K: types.Int64}}},
			ir.Assign{Dst: c2, E: ir.CmpExpr{Op: ir.Lt, L: ir.Ref(a), R: ir.ConstRef{StateID: 1, K: types.Int64}}},
			ir.Assign{Dst: and, E: ir.LogicExpr{Op: ir.And, L: ir.Ref(c1), R: ir.Ref(c2)}},
			ir.FilterStmt{
				Cond:   and,
				Copies: []ir.Copy{{Dst: a2, Src: a}, {Dst: and2, Src: and}},
				Body:   []ir.Stmt{ir.EmitStmt{Cols: []ir.Var{a2, and2}}},
			},
		},
		OutKinds:  []types.Kind{types.Int64, types.Bool},
		NumStates: 2,
	}
	p := MustCompile(f)
	if rw := p.Rewrites(); len(rw.Cascades) != 0 {
		t.Fatalf("a condition with two consumers compiled to a cascade: %v", rw)
	}
	out := storage.NewChunk(f.OutKinds)
	p.Run(NewCtx(), []any{rt.ConstI64(3), rt.ConstI64(8)}, []*storage.Vector{ivec(1, 5, 9, 7, 3)}, 5, out)
	if !reflect.DeepEqual(out.Cols[0].I64, []int64{5, 7}) || !reflect.DeepEqual(out.Cols[1].B, []bool{true, true}) {
		t.Fatalf("got %v %v", out.Cols[0].I64, out.Cols[1].B)
	}
}

// keyBuildFunc groups by (date, string, int64) and sums; with fuse=false a
// Copy of the sealed row handle gives it a second consumer.
func keyBuildFunc(fuse bool) *ir.Func {
	d := ir.Var{ID: 1, K: types.Date, Name: "d"}
	s := ir.Var{ID: 2, K: types.String, Name: "s"}
	k := ir.Var{ID: 3, K: types.Int64, Name: "k"}
	v := ir.Var{ID: 4, K: types.Float64, Name: "v"}
	row := func(i int) ir.Var { return ir.Var{ID: 10 + i, K: types.Ptr, Name: "row"} }
	grp := ir.Var{ID: 20, K: types.Ptr, Name: "g"}
	body := []ir.Stmt{
		ir.MakeRow{Dst: row(0), StateID: 0},
		ir.PackFixed{Dst: row(1), Row: row(0), Region: ir.KeyRegion, StateID: 1, Val: ir.Ref(d)},
		ir.PackFixed{Dst: row(2), Row: row(1), Region: ir.KeyRegion, StateID: 2, Val: ir.Ref(k)},
		ir.PackStr{Dst: row(3), Row: row(2), Region: ir.KeyRegion, StateID: 3, Val: ir.Ref(s)},
		ir.SealKey{Dst: row(4), Row: row(3), StateID: 0},
		ir.AggLookup{Dst: grp, Row: row(4), StateID: 4},
	}
	if !fuse {
		body = append(body, ir.Copy{Dst: row(5), Src: row(4)})
	}
	body = append(body,
		ir.AggUpdate{Group: grp, Fn: ir.AggSumF64, StateID: 5, Val: ir.Ref(v)},
		ir.AggUpdate{Group: grp, Fn: ir.AggCount, StateID: 6})
	return &ir.Func{Name: "keybuild", Ins: []ir.Var{d, s, k, v}, Body: body, NumStates: 7}
}

// keyBuildState returns keyBuildFunc's states and its aggregation state.
func keyBuildState() ([]any, *rt.AggTableState) {
	layout := &rt.RowLayoutState{KeyFixed: 12}
	agg := &rt.AggTableState{Init: make([]byte, 16), Shards: 4, Merge: []rt.AggMerge{
		{Op: rt.MergeSumF64, Off: 0}, {Op: rt.MergeSumI64, Off: 8}}}
	return []any{layout, &rt.OffsetState{Off: 0, Layout: layout}, &rt.OffsetState{Off: 4, Layout: layout},
		&rt.OffsetState{Layout: layout}, agg, &rt.OffsetState{Off: 0}, &rt.OffsetState{Off: 8}}, agg
}

// TestKeyBuildFusion runs the fused and the statement-by-statement key build
// over the same chunks and requires the worker tables to come out identical —
// same group rows, same bytes, same order — and the same probe counts, at
// three key cardinalities: 7 groups, 6 000 groups, and every key unique.
func TestKeyBuildFusion(t *testing.T) {
	for _, distinct := range []int{7, 6000, 1 << 30} {
		t.Run(fmt.Sprint(distinct), func(t *testing.T) {
			var tables [2][][]byte
			var probes [2]int64
			for pi, fuse := range []bool{true, false} {
				p := MustCompile(keyBuildFunc(fuse))
				if got := p.Rewrites().KeyBuilds; (got == 1) != fuse {
					t.Fatalf("fuse=%v: %d fused key builds", fuse, got)
				}
				state, agg := keyBuildState()
				ctx := NewCtx()
				r := rand.New(rand.NewSource(9))
				next := 0
				for chunk := 0; chunk < 6; chunk++ {
					const n = 5000
					dv, sv := storage.NewVector(types.Date, n), storage.NewVector(types.String, n)
					kv, vv := storage.NewVector(types.Int64, n), storage.NewVector(types.Float64, n)
					for i := 0; i < n; i++ {
						g := r.Intn(distinct)
						if distinct == 1<<30 {
							g, next = next, next+1 // never repeats
						}
						dv.I32[i], kv.I64[i] = int32(g%97), int64(g)
						sv.Str[i] = fmt.Sprintf("s%d", g%13)
						vv.F64[i] = float64(r.Intn(1000)) / 8
					}
					p.Run(ctx, state, []*storage.Vector{dv, sv, kv, vv}, n, nil)
				}
				tables[pi] = ctx.AggTable(agg).Rows()
				probes[pi] = ctx.Counters.HTProbes
			}
			if probes[0] != probes[1] {
				t.Fatalf("probes: fused %d, unfused %d", probes[0], probes[1])
			}
			if len(tables[0]) != len(tables[1]) {
				t.Fatalf("fused built %d groups, unfused %d", len(tables[0]), len(tables[1]))
			}
			for i := range tables[0] {
				if !bytes.Equal(tables[0][i], tables[1][i]) {
					t.Fatalf("group %d differs:\n fused   %x\n unfused %x", i, tables[0][i], tables[1][i])
				}
			}
		})
	}
}

// TestAggTableHoldsEveryGroupWithoutFlush: an aggregation writes straight
// into the worker's table, so after several chunks — with no morsel-boundary
// step in between or after — Ctx.AggTable's snapshot holds every group with
// its full count and sum, fused and statement by statement alike.
func TestAggTableHoldsEveryGroupWithoutFlush(t *testing.T) {
	for _, fuse := range []bool{true, false} {
		p := MustCompile(keyBuildFunc(fuse))
		state, agg := keyBuildState()
		ctx := NewCtx()
		const groups, n = 5, 1000
		for chunk := 0; chunk < 3; chunk++ {
			dv, sv := storage.NewVector(types.Date, n), storage.NewVector(types.String, n)
			kv, vv := storage.NewVector(types.Int64, n), storage.NewVector(types.Float64, n)
			for i := 0; i < n; i++ {
				g := i % groups
				dv.I32[i], kv.I64[i], sv.Str[i], vv.F64[i] = int32(g), int64(g), fmt.Sprintf("s%d", g), 1
			}
			p.Run(ctx, state, []*storage.Vector{dv, sv, kv, vv}, n, nil)
		}
		rows := ctx.AggTable(agg).Rows()
		if len(rows) != groups {
			t.Fatalf("fuse=%v: snapshot holds %d groups, want %d", fuse, len(rows), groups)
		}
		for _, row := range rows {
			off := rt.RowPayloadOff(row)
			if sum, cnt := rt.GetF64(row, off), rt.GetI64(row, off+8); sum != 3*n/groups || cnt != 3*n/groups {
				t.Fatalf("fuse=%v: group %x: sum %v count %d, want %d each", fuse, rt.RowKey(row), sum, cnt, 3*n/groups)
			}
		}
	}
}

// TestKeyBuildNotFusedAcrossPayload: a run that packs payload after the seal
// (a collated key's original) is left alone.
func TestKeyBuildNotFusedAcrossPayload(t *testing.T) {
	f := keyBuildFunc(true)
	seal := f.Body[4].(ir.SealKey)
	look := f.Body[5].(ir.AggLookup)
	seeded := ir.Var{ID: 30, K: types.Ptr, Name: "row"}
	look.Row = seeded
	body := append([]ir.Stmt{}, f.Body[:5]...)
	body = append(body, ir.PackStr{Dst: seeded, Row: seal.Dst, Region: ir.PayloadRegion, StateID: 3, Val: ir.Ref(f.Ins[1])}, look)
	f.Body = append(body, f.Body[6:]...)
	if got := MustCompile(f).Rewrites().KeyBuilds; got != 0 {
		t.Fatalf("%d fused key builds across a payload pack", got)
	}
}

// keyProbeFunc probes a join table with a key of the given kinds packed from
// the function's first inputs, carries the first key column and a payload
// column v into the match scope and emits them with, where the mode binds
// them, the matched row's int64 payload and the match marker. With fuse=false
// a Copy of the sealed key handle gives it a second consumer, as ROF's
// Prefetch does.
func keyProbeFunc(mode ir.JoinMode, kinds []types.Kind, fuse bool) *ir.Func {
	f := &ir.Func{Name: "keyprobe", NumStates: 2}
	id := 0
	newVar := func(k types.Kind, name string) ir.Var { id++; return ir.Var{ID: id, K: k, Name: name} }
	for _, k := range kinds {
		f.Ins = append(f.Ins, newVar(k, "k"))
	}
	v := newVar(types.Float64, "v")
	f.Ins = append(f.Ins, v)
	row := newVar(types.Ptr, "row")
	f.Body = append(f.Body, ir.MakeRow{Dst: row, StateID: 0})
	// Fixed fields first, then strings: each PackFixed gets its OffsetState.
	for pass := 0; pass < 2; pass++ {
		for i, k := range kinds {
			if (k == types.String) != (pass == 1) {
				continue
			}
			next := newVar(types.Ptr, "row")
			if pass == 0 {
				f.Body = append(f.Body, ir.PackFixed{Dst: next, Row: row, Region: ir.KeyRegion, StateID: f.NumStates, Val: ir.Ref(f.Ins[i])})
			} else {
				f.Body = append(f.Body, ir.PackStr{Dst: next, Row: row, Region: ir.KeyRegion, StateID: f.NumStates, Val: ir.Ref(f.Ins[i])})
			}
			f.NumStates++
			row = next
		}
	}
	sealed := newVar(types.Ptr, "row")
	f.Body = append(f.Body, ir.SealKey{Dst: sealed, Row: row, StateID: 0})
	if !fuse {
		f.Body = append(f.Body, ir.Copy{Dst: newVar(types.Ptr, "row"), Src: sealed})
	}
	probe := ir.ProbeStmt{StateID: 1, Mode: mode, ProbeRow: sealed, Sel: newVar(types.Int32, "sel")}
	k0, vIn := newVar(kinds[0], "k0"), newVar(types.Float64, "vin")
	probe.Copies = []ir.Copy{{Dst: k0, Src: f.Ins[0]}, {Dst: vIn, Src: v}}
	emit := []ir.Var{k0, vIn}
	if mode == ir.InnerJoin || mode == ir.LeftOuterJoin {
		probe.Build = newVar(types.Ptr, "build")
		pay := newVar(types.Int64, "pay")
		probe.Body = append(probe.Body, ir.Assign{Dst: pay, E: ir.UnpackFixed{
			Row: ir.Ref(probe.Build), Region: ir.PayloadRegion, StateID: f.NumStates, K: types.Int64}})
		f.NumStates++
		emit = append(emit, pay)
	}
	if mode == ir.LeftOuterJoin {
		probe.Matched = newVar(types.Bool, "m")
		emit = append(emit, probe.Matched)
	}
	probe.Body = append(probe.Body, ir.EmitStmt{Cols: emit})
	f.Body = append(f.Body, probe)
	for _, e := range emit {
		f.OutKinds = append(f.OutKinds, e.K)
	}
	return f
}

// TestKeyProbeFusion runs the fused and the statement-by-statement key probe
// over the same chunks against the same sealed table and requires identical
// rows in identical order and identical counters, in all four modes, for a key
// hashed in a register (one column, two columns in a word) and a key that is
// packed (wider than a word, with a string) — over chunks that match 1:N, that
// the bloom filter rejects whole, and that are empty.
func TestKeyProbeFusion(t *testing.T) {
	shapes := map[string][]types.Kind{
		"i64":         {types.Int64},
		"date+i32":    {types.Date, types.Int32},
		"date+i64":    {types.Date, types.Int64},
		"i64+str+i32": {types.Int64, types.String, types.Int32},
	}
	for name, kinds := range shapes {
		// The layout the lowering would compute: fixed fields packed densely
		// in declaration order.
		layout := &rt.RowLayoutState{}
		var offs []any
		for _, k := range kinds {
			if k.Fixed() {
				offs = append(offs, &rt.OffsetState{Off: layout.KeyFixed, Layout: layout})
				layout.KeyFixed += k.Width()
			}
		}
		for _, k := range kinds {
			if !k.Fixed() {
				offs = append(offs, &rt.OffsetState{Layout: layout})
			}
		}
		// Column g of a tuple with key number x: every column a function of x,
		// so two tuples agree on the key iff they agree on x.
		fill := func(vecs []*storage.Vector, i int, x int64) {
			for g, k := range kinds {
				switch k {
				case types.Int64:
					vecs[g].I64[i] = x * 1_000_003
				case types.Int32, types.Date:
					vecs[g].I32[i] = int32(x)*7 - int32(g)
				case types.String:
					vecs[g].Str[i] = fmt.Sprintf("key-%d", x%11)
				}
			}
		}
		newVecs := func(n int) []*storage.Vector {
			vecs := make([]*storage.Vector, len(kinds)+1)
			for g, k := range kinds {
				vecs[g] = storage.NewVector(k, n)
			}
			vecs[len(kinds)] = storage.NewVector(types.Float64, n)
			return vecs
		}
		// Build side: keys 0..199, key x inserted x%4 times (so 0, 4, … are
		// absent but inside the range), each with a serial number as payload.
		jt := &rt.JoinTableState{Table: rt.NewJoinTable(4)}
		vecs := newVecs(1)
		var cols []keyCol
		fixed := 0
		for g, k := range kinds {
			v := vecs[g]
			col := keyCol{kind: k, i32: v.I32, i64: v.I64, str: v.Str}
			if k.Fixed() {
				col.off = offs[fixed].(*rt.OffsetState).Off
				fixed++
			}
			cols = append(cols, col)
		}
		serial := int64(0)
		for x := int64(0); x < 200; x++ {
			fill(vecs, 0, x)
			key := packKey(nil, cols, make([]byte, layout.KeyFixed), 0)
			for d := int64(0); d < x%4; d++ {
				payload := make([]byte, 8)
				serial++
				rt.PutI64(payload, 0, serial)
				rttest.InsertJoin(jt.Table, key, payload)
			}
		}
		jt.Table.Seal()
		for _, mode := range []ir.JoinMode{ir.InnerJoin, ir.SemiJoin, ir.LeftOuterJoin, ir.AntiJoin} {
			t.Run(fmt.Sprintf("%s/%v", name, mode), func(t *testing.T) {
				var outs [2]*storage.Chunk
				var counters [2][4]int64
				for pi, fuse := range []bool{true, false} {
					f := keyProbeFunc(mode, kinds, fuse)
					if err := ir.Verify(f); err != nil {
						t.Fatal(err)
					}
					p := MustCompile(f)
					if got := p.Rewrites().KeyProbes; (got == 1) != fuse {
						t.Fatalf("fuse=%v: %d fused key probes", fuse, got)
					}
					state := append([]any{layout, jt}, offs...)
					state = append(state, &rt.OffsetState{Off: 0})
					ctx := NewCtx()
					out := storage.NewChunk(f.OutKinds)
					r := rand.New(rand.NewSource(5))
					for _, chunk := range []struct{ n, lo, span int }{
						{3000, 0, 260},  // hits 1:N, absent keys inside and past the range
						{0, 0, 1},       // empty
						{700, 5000, 50}, // every key past the build's range
						{2500, 100, 40}, // all present but the multiples of four
						{1, 3, 1},       // one tuple, three matches
					} {
						vecs := newVecs(chunk.n)
						for i := 0; i < chunk.n; i++ {
							fill(vecs, i, int64(chunk.lo+r.Intn(chunk.span)))
							vecs[len(kinds)].F64[i] = float64(i)
						}
						p.Run(ctx, state, vecs, chunk.n, out)
					}
					outs[pi] = out
					c := &ctx.Counters
					counters[pi] = [4]int64{c.HTProbes, c.HTBloomSkips, c.HTMatches, c.EmittedRows}
				}
				if counters[0] != counters[1] {
					t.Fatalf("probes / bloom skips / matches / emitted: fused %v, unfused %v", counters[0], counters[1])
				}
				if counters[0][1] == 0 || counters[0][2] == 0 {
					t.Fatalf("counters %v: the chunks must exercise both the bloom filter and the table", counters[0])
				}
				if outs[0].Rows() != outs[1].Rows() {
					t.Fatalf("fused emitted %d rows, unfused %d", outs[0].Rows(), outs[1].Rows())
				}
				for i := 0; i < outs[0].Rows(); i++ {
					if got, want := fmt.Sprint(outs[0].Row(i)), fmt.Sprint(outs[1].Row(i)); got != want {
						t.Fatalf("row %d: fused %s, unfused %s", i, got, want)
					}
				}
			})
		}
	}
}

// TestKeyProbeNotFusedWithSecondReader: ROF stages a Prefetch of the sealed key
// ahead of the probe; the handle then has two readers and the run compiles
// statement by statement.
func TestKeyProbeNotFusedWithSecondReader(t *testing.T) {
	f := keyProbeFunc(ir.InnerJoin, []types.Kind{types.Int64}, true)
	probe := f.Body[len(f.Body)-1].(ir.ProbeStmt)
	f.Body = append(f.Body[:len(f.Body)-1:len(f.Body)-1], ir.Prefetch{Row: probe.ProbeRow, StateID: 1}, probe)
	if rw := MustCompile(f).Rewrites(); rw.KeyProbes != 0 {
		t.Fatalf("fused a key probe whose key a prefetch reads too: %v", rw)
	}
}
