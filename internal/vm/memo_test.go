package vm

// The group memo and the grouped updates (DESIGN.md §10, §17), pinned against
// the statement-by-statement compilation of the same GROUP BY — its lookup
// goes through the batched table kernel and its updates fold slot by slot,
// row by row — as rewrite_test.go pins the other rewrites.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
)

// memoShape is a GROUP BY key: its columns' kinds, and whether it is looked
// up by AggLookupFixed (one column) instead of the fused key build.
type memoShape struct {
	kinds []types.Kind
	fixed bool
}

func (s memoShape) String() string {
	name := "build"
	if s.fixed {
		name = "fixed"
	}
	for _, k := range s.kinds {
		name += "_" + k.String()
	}
	return name
}

// memoFunc groups by the key columns and updates the slots fns: a sum of the
// f64 input v, a sum of the i64 input w, a count, a min of v. With ref, a Copy
// of the sealed key row gives it a second consumer, so the lookup and every
// update compile statement by statement: the reference program. Its states
// are the key layout, the key columns' offsets, the aggregation and one
// offset per update (8 bytes apart).
func memoFunc(shape memoShape, fns []ir.AggFunc, ref bool) (*ir.Func, []any, *rt.AggTableState) {
	var ins []ir.Var
	for i, k := range shape.kinds {
		ins = append(ins, ir.Var{ID: 1 + i, K: k, Name: fmt.Sprintf("k%d", i)})
	}
	v := ir.Var{ID: 10, K: types.Float64, Name: "v"}
	w := ir.Var{ID: 11, K: types.Int64, Name: "w"}
	ins = append(ins, v, w)
	grp := ir.Var{ID: 20, K: types.Ptr, Name: "g"}
	layout := &rt.RowLayoutState{}
	states := []any{layout}
	for _, k := range shape.kinds {
		states = append(states, &rt.OffsetState{Off: layout.KeyFixed, Layout: layout})
		layout.KeyFixed += k.Width()
	}
	aggID := len(states)
	agg := &rt.AggTableState{Init: make([]byte, 8*len(fns))}
	states = append(states, agg)
	var body []ir.Stmt
	if shape.fixed && !ref {
		body = append(body, ir.AggLookupFixed{Dst: grp, Key: ins[0], StateID: aggID})
	} else {
		row := func(i int) ir.Var { return ir.Var{ID: 30 + i, K: types.Ptr, Name: "row"} }
		body = append(body, ir.MakeRow{Dst: row(0), StateID: 0})
		for i := range shape.kinds {
			body = append(body, ir.PackFixed{Dst: row(i + 1), Row: row(i), Region: ir.KeyRegion, StateID: 1 + i, Val: ir.Ref(ins[i])})
		}
		sealed := row(len(shape.kinds) + 1)
		body = append(body, ir.SealKey{Dst: sealed, Row: row(len(shape.kinds)), StateID: 0},
			ir.AggLookup{Dst: grp, Row: sealed, StateID: aggID})
		if ref {
			body = append(body, ir.Copy{Dst: ir.Var{ID: 50, K: types.Ptr, Name: "again"}, Src: sealed})
		}
	}
	for i, fn := range fns {
		u := ir.AggUpdate{Group: grp, Fn: fn, StateID: len(states)}
		switch fn {
		case ir.AggSumF64, ir.AggMinF64:
			u.Val = ir.Ref(v)
		case ir.AggSumI64:
			u.Val = ir.Ref(w)
		}
		if fn == ir.AggMinF64 {
			rt.PutF64(agg.Init, 8*i, math.Inf(1))
		}
		states = append(states, &rt.OffsetState{Off: 8 * i})
		body = append(body, u)
	}
	f := &ir.Func{Name: "memo", Ins: ins, Body: body, NumStates: len(states)}
	return f, states, agg
}

// keyValue writes group g's key into row i of the key columns: Bool columns
// take one bit of g each, a Date column g scrambled, an Int64 one g spread
// over the word, a Float64 one the specials ±0.0 and two NaN payloads for g <
// 4 — distinct words, so distinct groups — and a half beyond.
func keyValue(cols []*storage.Vector, i, g int) {
	bit := 0
	for _, c := range cols {
		switch c.Kind {
		case types.Bool:
			c.B[i] = g>>bit&1 == 1
			bit++
		case types.Date:
			c.I32[i] = int32(g*7919 + 3)
		case types.Int64:
			c.I64[i] = int64(g) * 0x10001
		case types.Float64:
			specials := []float64{0, math.Copysign(0, -1),
				math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)}
			if g < len(specials) {
				c.F64[i] = specials[g]
			} else {
				c.F64[i] = float64(g) / 2
			}
		}
	}
}

// memoRun is one GROUP BY run: the worker's table and counters after it.
type memoRun struct {
	rows          [][]byte
	probes, vmops int64
	grouped       int
}

// runMemo runs the program (fused, or with ref the reference) over calls of
// the given sizes, each drawing its rows' groups from draw(call, row), and
// returns the worker's table and counters.
func runMemo(t *testing.T, shape memoShape, fns []ir.AggFunc, ref bool, sizes []int, draw func(call, i int) int) memoRun {
	t.Helper()
	f, states, agg := memoFunc(shape, fns, ref)
	p := MustCompile(f)
	ctx := NewCtx()
	r := rand.New(rand.NewSource(5))
	for call, n := range sizes {
		var vecs []*storage.Vector
		for _, k := range shape.kinds {
			vecs = append(vecs, storage.NewVector(k, n))
		}
		v, w := storage.NewVector(types.Float64, n), storage.NewVector(types.Int64, n)
		for i := 0; i < n; i++ {
			keyValue(vecs, i, draw(call, i))
			// Magnitudes twelve decades apart: a float sum comes out
			// differently in almost any other order.
			v.F64[i] = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(12)))
			w.I64[i] = r.Int63n(1 << 40)
		}
		p.Run(ctx, states, append(vecs, v, w), n, nil)
	}
	return memoRun{rows: ctx.AggTable(agg).Rows(), probes: ctx.Counters.HTProbes,
		vmops: ctx.Counters.VMOps, grouped: p.Rewrites().GroupedUpdates}
}

// checkMemo runs the fused and the reference program over the same calls
// and requires the same group rows, bytes and creation order, the same
// probes, and the VMOps the fused key build has always counted: the
// reference's less one per row for MakeRow, each pack and SealKey.
func checkMemo(t *testing.T, shape memoShape, fns []ir.AggFunc, sizes []int, draw func(call, i int) int) memoRun {
	t.Helper()
	got := runMemo(t, shape, fns, false, sizes, draw)
	want := runMemo(t, shape, fns, true, sizes, draw)
	rows := 0
	for _, n := range sizes {
		rows += n
	}
	if len(got.rows) != len(want.rows) {
		t.Fatalf("%d groups, reference %d", len(got.rows), len(want.rows))
	}
	for i := range got.rows {
		if !bytes.Equal(got.rows[i], want.rows[i]) {
			t.Fatalf("group %d differs:\n got       %x\n reference %x", i, got.rows[i], want.rows[i])
		}
	}
	if got.probes != want.probes || got.probes != int64(rows) {
		t.Fatalf("probes %d, reference %d, rows %d", got.probes, want.probes, rows)
	}
	if saved := int64(len(shape.kinds)+2) * int64(rows); got.vmops != want.vmops-saved {
		t.Fatalf("VMOps %d, want the reference's %d less %d", got.vmops, want.vmops, saved)
	}
	if want.grouped != 0 {
		t.Fatalf("the reference compiled %d grouped update run(s)", want.grouped)
	}
	return got
}

var sumsAndCount = []ir.AggFunc{ir.AggSumF64, ir.AggSumI64, ir.AggCount}

// anyOf returns a draw of groups that scatters the rows over groups groups,
// the same for every run.
func anyOf(groups int) func(call, i int) int {
	return func(call, i int) int {
		return int(rt.HashWord(uint64(call)<<32|uint64(i), 8) % uint64(groups))
	}
}

// TestGroupMemoGroupCounts: q1's key (two 4-byte codes) and one-word keys,
// built and looked up directly, over 1, 4, 16, 17 and 6 000 groups, in calls of
// 2 048 rows and of one row.
func TestGroupMemoGroupCounts(t *testing.T) {
	shapes := []memoShape{
		{kinds: []types.Kind{types.Date, types.Date}},
		{kinds: []types.Kind{types.Int64}},
		{kinds: []types.Kind{types.Int64}, fixed: true},
		{kinds: []types.Kind{types.Date}, fixed: true},
	}
	for _, shape := range shapes {
		for _, groups := range []int{1, 4, 16, 17, 6000} {
			for _, batch := range []int{2048, 1} {
				t.Run(fmt.Sprintf("%v/%d/%d", shape, groups, batch), func(t *testing.T) {
					sizes := []int{batch, batch, batch}
					if batch == 1 {
						sizes = make([]int, 200)
						for i := range sizes {
							sizes[i] = 1
						}
					}
					got := checkMemo(t, shape, sumsAndCount, sizes, anyOf(groups))
					if got.grouped != 1 {
						t.Fatalf("%d grouped update runs, want 1", got.grouped)
					}
				})
			}
		}
	}
}

// TestGroupMemoKeyWidths: keys of 1 to 8 bytes of every fixed kind, the
// Float64 ones holding +0.0, -0.0 and two NaN payloads — four words, four
// groups — over as many groups as the width holds up to 17.
func TestGroupMemoKeyWidths(t *testing.T) {
	b, d := types.Bool, types.Date
	shapes := []memoShape{
		{kinds: []types.Kind{b}},
		{kinds: []types.Kind{b, b}},
		{kinds: []types.Kind{b, b, b}},
		{kinds: []types.Kind{d}},
		{kinds: []types.Kind{d, b}},
		{kinds: []types.Kind{b, d, b}},
		{kinds: []types.Kind{d, b, b, b}},
		{kinds: []types.Kind{d, d}},
		{kinds: []types.Kind{types.Int64}},
		{kinds: []types.Kind{types.Float64}},
		{kinds: []types.Kind{b}, fixed: true},
		{kinds: []types.Kind{types.Float64}, fixed: true},
	}
	for _, shape := range shapes {
		capacity := 1 << len(shape.kinds) // Bool columns alone: a bit each
		for _, k := range shape.kinds {
			if k != b {
				capacity = 1 << 30
			}
		}
		for _, groups := range []int{4, 17} {
			groups = min(groups, capacity)
			t.Run(fmt.Sprintf("%v/%d", shape, groups), func(t *testing.T) {
				checkMemo(t, shape, sumsAndCount, []int{2048, 100, 2048}, anyOf(groups))
			})
		}
	}
}

// TestGroupMemoCrossesSixteen: the table holds 10 groups when a call meets 10
// more — the memo resolves the call, whose ordinals stay valid — and 20 when
// the next call begins, which resolves without the memo and updates slot by
// slot. Then a call meets 17 groups of a table that held 3.
func TestGroupMemoCrossesSixteen(t *testing.T) {
	shape := memoShape{kinds: []types.Kind{types.Date, types.Date}}
	checkMemo(t, shape, sumsAndCount, []int{500, 500, 500}, func(call, i int) int {
		return call*10 + i%10
	})
	checkMemo(t, shape, sumsAndCount, []int{500, 500}, func(call, i int) int {
		if call == 0 {
			return i % 3
		}
		return i % 17
	})
}

// TestGroupedUpdatesOnlySumsAndCounts: a min in the run keeps the whole run
// statement by statement; the table comes out the same either way.
func TestGroupedUpdatesOnlySumsAndCounts(t *testing.T) {
	shape := memoShape{kinds: []types.Kind{types.Date, types.Date}}
	fns := []ir.AggFunc{ir.AggSumF64, ir.AggMinF64, ir.AggCount}
	if got := checkMemo(t, shape, fns, []int{2048, 2048}, anyOf(4)); got.grouped != 0 {
		t.Fatalf("%d grouped update runs with a min in the run, want 0", got.grouped)
	}
}

// memoLookup resolves the words of one call through lookupWords against tbl,
// a one-Int64-column key, and returns the rows and the memo.
func memoLookup(tbl *rt.AggTable, tb *tableBatch, words []uint64) ([][]byte, *groupMemo) {
	col := storage.NewVector(types.Int64, len(words))
	for i, w := range words {
		col.I64[i] = int64(w)
	}
	cols := []keyCol{{kind: types.Int64, i64: col.I64}}
	d := make([][]byte, len(words))
	lookupWords(tbl, tb, cols, 8, nil, d)
	return d, tb.memo
}

// TestGroupMemoOrdinals: two words sharing a memo entry evict each other and
// keep their first ordinals; the rows of an ordinal are its group's; a call
// meeting a 17th group has no ordinals; and the memo starts empty in every
// call (a word of the last call that the table no longer holds is created
// again).
func TestGroupMemoOrdinals(t *testing.T) {
	a, b := uint64(7), uint64(8)
	for memoSlot(b) != memoSlot(a) {
		b++
	}
	tbl, tb := rt.NewAggTable(nil, 0), new(tableBatch)
	d, m := memoLookup(tbl, tb, []uint64{a, b, a, a, b, 3, b, a})
	if !m.valid || len(m.groups) != 3 || tbl.Groups() != 3 {
		t.Fatalf("valid %v, %d ordinals, %d groups: want 3 valid ordinals of 3 groups", m.valid, len(m.groups), tbl.Groups())
	}
	wantOrds := []uint8{0, 1, 0, 0, 1, 2, 1, 0}
	for i, row := range d {
		if m.ords[i] != wantOrds[i] || &m.groups[m.ords[i]][0] != &row[0] {
			t.Fatalf("row %d: ordinal %d (want %d), or its group is not the row's", i, m.ords[i], wantOrds[i])
		}
	}
	many := make([]uint64, 40)
	for i := range many {
		many[i] = uint64(100 + i%17)
	}
	tbl2 := rt.NewAggTable(nil, 0)
	if _, m := memoLookup(tbl2, tb, many); m.valid {
		t.Fatal("a call meeting 17 groups has valid ordinals")
	}
	if _, m := memoLookup(tbl2, tb, many[:5]); m.valid {
		t.Fatal("a table of 17 groups resolved through the memo")
	}
	tbl.Reset()
	if d, m := memoLookup(tbl, tb, []uint64{a}); !m.valid || tbl.Groups() != 1 || &d[0][0] != &tbl.Rows()[0][0] {
		t.Fatal("a word of the last call did not reach the emptied table")
	}
}
