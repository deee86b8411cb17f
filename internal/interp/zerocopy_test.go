package interp

// The interpreter binds its source as views and lets every primitive hand its
// result to its tuple buffer (DESIGN.md §18). These tests pin what that must
// never cost: a source written through, a result lost to the next primitive
// sharing its frame, a wrong cardinality after an empty or shorter chunk, the
// scan steps missing from the profile.

import (
	"slices"
	"testing"

	"inkfuse/internal/core"
	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/rt/rttest"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
	"inkfuse/internal/vm"
)

// viewsOf binds one chunk [lo, hi) of the columns, as a morsel loop does.
func viewsOf(cols []*storage.Vector, lo, hi int) []*storage.Vector {
	views := make([]*storage.Vector, len(cols))
	for i, c := range cols {
		views[i] = &storage.Vector{}
		c.SliceInto(views[i], lo, hi)
	}
	return views
}

func TestSourceColumnStraightToResult(t *testing.T) {
	reg := registry(t)
	a := core.NewIU(types.Int64, "a")
	s := core.NewIU(types.String, "s")
	inc := core.NewIU(types.Int64, "inc")
	ops := []core.SubOp{&core.Arith{Op: ir.Add, L: core.Col(a), R: core.ConstOf(rt.ConstI64(1)), Out: inc}}
	// Both source columns go to the result untouched, next to a computed one.
	run, err := NewRun(reg, []*core.IU{a, s}, ops, []*core.IU{s, a, inc})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 100
	av, sv := storage.NewVector(types.Int64, rows), storage.NewVector(types.String, rows)
	for i := 0; i < rows; i++ {
		av.I64[i], sv.Str[i] = int64(i), string(rune('a'+i%26))
	}
	wantA, wantS := slices.Clone(av.I64), slices.Clone(sv.Str)
	out := storage.NewChunk([]types.Kind{types.String, types.Int64, types.Int64})
	ctx := vm.NewCtx()
	// Chunks of uneven size, the result accumulating across them as a
	// pipeline's does.
	for _, b := range [][2]int{{0, 32}, {32, 33}, {33, 33}, {33, 90}, {90, 100}} {
		if n := run.RunChunk(ctx, viewsOf([]*storage.Vector{av, sv}, b[0], b[1]), b[1]-b[0], out); n != b[1]-b[0] {
			t.Fatalf("chunk %v emitted %d rows", b, n)
		}
	}
	if out.Rows() != rows {
		t.Fatalf("result holds %d rows, want %d", out.Rows(), rows)
	}
	for i := 0; i < rows; i++ {
		if out.Cols[0].Str[i] != wantS[i] || out.Cols[1].I64[i] != wantA[i] || out.Cols[2].I64[i] != wantA[i]+1 {
			t.Fatalf("row %d: %q %d %d", i, out.Cols[0].Str[i], out.Cols[1].I64[i], out.Cols[2].I64[i])
		}
	}
	if !slices.Equal(av.I64, wantA) || !slices.Equal(sv.Str, wantS) {
		t.Fatal("the source columns changed: a view was written through")
	}
	// The result owns its rows: writing it must not reach the source.
	out.Cols[1].I64[0] = -1
	if av.I64[0] != 0 {
		t.Fatal("the result column shares the source column's array")
	}
	if got := run.RetainedBytes(); got > 64<<10 {
		t.Fatalf("Run claims %d retained bytes: it counts the source it only views", got)
	}
}

func TestChunkSizesZeroAndShrinking(t *testing.T) {
	run, _, _ := profRun(t)
	ctx := vm.NewCtx()
	for _, n := range []int{64, 0, 7, 64, 1, 0, 0, 40} {
		av, bv := storage.NewVector(types.Float64, n), storage.NewVector(types.Float64, n)
		for i := 0; i < n; i++ {
			av.F64[i], bv.F64[i] = float64(i), float64(n)
		}
		out := storage.NewChunk([]types.Kind{types.Float64})
		if got := run.RunChunk(ctx, []*storage.Vector{av, bv}, n, out); got != n || out.Rows() != n {
			t.Fatalf("n=%d: emitted %d, result holds %d", n, got, out.Rows())
		}
		for i := 0; i < n; i++ {
			if want := 2 * float64(i+n); out.Cols[0].F64[i] != want {
				t.Fatalf("n=%d row %d: %v, want %v", n, i, out.Cols[0].F64[i], want)
			}
		}
	}
}

// Two probes of the same mode run on one primitive and therefore one frame:
// the build rows the first one handed to its tuple buffer are read after the
// second one ran.
func TestTwoProbesShareAFrame(t *testing.T) {
	reg := registry(t)
	table := func(mul int64) *rt.JoinTableState {
		jt := &rt.JoinTableState{Table: rt.NewJoinTable(2)}
		for k := int64(0); k < 50; k++ {
			key, payload := make([]byte, 8), make([]byte, 8)
			rt.PutI64(key, 0, k)
			rt.PutI64(payload, 0, k*mul)
			rttest.InsertJoin(jt.Table, key, payload)
		}
		jt.Table.Seal()
		return jt
	}
	k := core.NewIU(types.Int64, "k")
	var ops []core.SubOp
	var vals []*core.IU
	var builds []*core.IU
	for _, jt := range []*rt.JoinTableState{table(10), table(1000)} {
		layout := &rt.RowLayoutState{KeyFixed: 8}
		r0, r1, r2 := core.NewIU(types.Ptr, "r0"), core.NewIU(types.Ptr, "r1"), core.NewIU(types.Ptr, "r2")
		build := core.NewIU(types.Ptr, "build")
		ops = append(ops,
			&core.MakeRow{Anchor: k, Layout: layout, Out: r0},
			&core.PackFixed{Row: r0, Val: k, Region: ir.KeyRegion, Off: &rt.OffsetState{Layout: layout}, Out: r1},
			&core.SealKey{Row: r1, Layout: layout, Out: r2},
			&core.JoinProbe{Row: r2, State: jt, Mode: ir.InnerJoin, BuildOut: build,
				SelOut: core.NewIU(types.Int32, "sel"), MatchedOut: core.NewIU(types.Bool, "m")},
		)
		builds = append(builds, build)
	}
	// Both unpacks follow both probes.
	for _, build := range builds {
		val := core.NewIU(types.Int64, "val")
		ops = append(ops, &core.UnpackFixed{Row: build, Region: ir.PayloadRegion, Off: &rt.OffsetState{}, Out: val})
		vals = append(vals, val)
	}
	run, err := NewRun(reg, []*core.IU{k}, ops, vals)
	if err != nil {
		t.Fatal(err)
	}
	ctx := vm.NewCtx()
	for round := 0; round < 3; round++ {
		kv := storage.NewVector(types.Int64, 20)
		for i := range kv.I64 {
			kv.I64[i] = int64(i + round)
		}
		out := storage.NewChunk([]types.Kind{types.Int64, types.Int64})
		if n := run.RunChunk(ctx, []*storage.Vector{kv}, 20, out); n != 20 {
			t.Fatalf("round %d: %d rows", round, n)
		}
		for i := 0; i < 20; i++ {
			key := int64(i + round)
			if out.Cols[0].I64[i] != key*10 || out.Cols[1].I64[i] != key*1000 {
				t.Fatalf("round %d row %d: payloads %d / %d for key %d", round, i, out.Cols[0].I64[i], out.Cols[1].I64[i], key)
			}
		}
	}
}

// The profile still lists the scan steps, first, with every chunk and tuple
// they bound — and nothing materialized for them.
func TestProfileListsScanWithoutCopies(t *testing.T) {
	run, src, out := profRun(t)
	p := run.EnableProfile(1)
	ctx := vm.NewCtx()
	const chunks, rows = 4, 64
	for i := 0; i < chunks; i++ {
		out.Reset()
		run.RunChunk(ctx, src, rows, out)
	}
	samples := p.Samples()
	if len(samples) != 4 || samples[0].ID != "tscan_f64" || samples[1].ID != "tscan_f64" {
		t.Fatalf("profile does not start with the two scan steps: %+v", samples)
	}
	for _, s := range samples[:2] {
		if s.Calls != chunks || s.Tuples != chunks*rows || s.Nanos != 0 {
			t.Fatalf("scan step %+v: want %d calls, %d tuples, no time", s, chunks, chunks*rows)
		}
	}
	// add, mul and the pipeline result materialize 8 bytes a row each; the two
	// scanned columns none.
	if want := int64(3 * 8 * chunks * rows); ctx.Counters.MaterializedBytes != want {
		t.Fatalf("materialized %d bytes, want %d: the scan must not count", ctx.Counters.MaterializedBytes, want)
	}
	if want := int64(2 * chunks); ctx.Counters.PrimitiveCalls != want {
		t.Fatalf("%d primitive calls, want %d (no scan primitive runs)", ctx.Counters.PrimitiveCalls, want)
	}
}

func TestNewRunRejectsSecondProducer(t *testing.T) {
	reg := registry(t)
	a := core.NewIU(types.Int64, "a")
	// An operator writing a source IU would write through the view.
	ops := []core.SubOp{&core.Arith{Op: ir.Add, L: core.Col(a), R: core.ConstOf(rt.ConstI64(1)), Out: a}}
	if _, err := NewRun(reg, []*core.IU{a}, ops, []*core.IU{a}); err == nil {
		t.Fatal("an operator producing its source IU was accepted")
	}
}
