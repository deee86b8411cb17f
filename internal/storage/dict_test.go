package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"inkfuse/internal/types"
)

func stringTable(vals []string) *Table {
	t := NewTable("t", types.Schema{{Name: "s", Kind: types.String}, {Name: "n", Kind: types.Int64}})
	t.SetRows(len(vals))
	copy(t.Cols[0].Str, vals)
	return t
}

// checkDict asserts the dictionary invariants over vals: sorted distinct
// values, one code per row standing for the row's string, code order equal to
// string order.
func checkDict(t *testing.T, d *Dict, vals []string) {
	t.Helper()
	if d == nil {
		t.Fatal("column not coded")
	}
	if !slices.IsSorted(d.Values) || len(slices.Compact(slices.Clone(d.Values))) != len(d.Values) {
		t.Fatalf("values not sorted and distinct: %q", d.Values[:min(8, len(d.Values))])
	}
	if d.Codes.Kind != types.Int32 || len(d.Codes.I32) != len(vals) {
		t.Fatalf("codes: kind %v, %d rows for %d", d.Codes.Kind, len(d.Codes.I32), len(vals))
	}
	distinct := map[string]bool{}
	for i, v := range vals {
		distinct[v] = true
		if got := d.Values[d.Codes.I32[i]]; got != v {
			t.Fatalf("row %d: code %d stands for %q, row holds %q", i, d.Codes.I32[i], got, v)
		}
	}
	if len(distinct) != len(d.Values) {
		t.Fatalf("%d values for %d distinct strings", len(d.Values), len(distinct))
	}
	for i := 1; i < len(vals); i++ {
		a, b := d.Codes.I32[i-1], d.Codes.I32[i]
		if (a < b) != (vals[i-1] < vals[i]) || (a == b) != (vals[i-1] == vals[i]) {
			t.Fatalf("rows %d, %d: code order %d/%d disagrees with %q/%q", i-1, i, a, b, vals[i-1], vals[i])
		}
	}
}

func TestDictSortedAndOrderPreserving(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	words := []string{"pear", "", "apple", "Apple", "b", "ba", "a\x00", "zz", "PROMO X"}
	// Enough rows for every worker to code a part of its own.
	vals := make([]string, 5*encodeRowsPerWorker+17)
	for i := range vals {
		vals[i] = words[r.Intn(len(words))]
	}
	tbl := stringTable(vals)
	tbl.takeFacts()
	checkDict(t, tbl.Facts[0].Dict, vals)
	if tbl.Facts[0].Dict.Values[0] != "" {
		t.Fatalf("the empty string must sort first: %q", tbl.Facts[0].Dict.Values)
	}
	if tbl.Facts[1].Dict != nil {
		t.Fatal("an int64 column got a dictionary")
	}
	tbl.SetRows(3)
	if tbl.Facts[0].Dict != nil {
		t.Fatal("resizing the table kept codes of other rows")
	}
}

// distinctVals returns n rows cycling through k distinct strings, shuffled.
func distinctVals(k, n int) []string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%06d", i%k)
	}
	rand.New(rand.NewSource(int64(k))).Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	return vals
}

func TestDictThreshold(t *testing.T) {
	for _, k := range []int{MaxDictValues, MaxDictValues + 1} {
		vals := distinctVals(k, k+3*encodeRowsPerWorker)
		tbl := stringTable(vals)
		tbl.takeFacts()
		if k <= MaxDictValues {
			checkDict(t, tbl.Facts[0].Dict, vals)
		} else if tbl.Facts[0].Dict != nil {
			t.Fatalf("%d distinct values got a dictionary", k)
		}
	}
	// Every part within the limit, their union beyond it.
	vals := make([]string, 2*MaxDictValues)
	for i := range vals {
		vals[i] = fmt.Sprintf("u%06d", i)
	}
	tbl := stringTable(vals)
	tbl.takeFacts()
	if tbl.Facts[0].Dict != nil {
		t.Fatal("parts' union beyond the limit got a dictionary")
	}
}

func TestDictEmptyTable(t *testing.T) {
	tbl := stringTable(nil)
	tbl.takeFacts()
	d := tbl.Facts[0].Dict
	if d == nil || len(d.Values) != 0 || len(d.Codes.I32) != 0 {
		t.Fatalf("empty column: %+v", d)
	}
}

func TestDictDeterministic(t *testing.T) {
	vals := distinctVals(1000, 4*encodeRowsPerWorker)
	a, b := stringTable(vals), stringTable(vals)
	a.takeFacts()
	b.takeFacts()
	if !slices.Equal(a.Facts[0].Dict.Values, b.Facts[0].Dict.Values) || !slices.Equal(a.Facts[0].Dict.Codes.I32, b.Facts[0].Dict.Codes.I32) {
		t.Fatal("two encodings of the same column differ")
	}
}

func TestCatalogAddCodes(t *testing.T) {
	tbl := stringTable([]string{"b", "a", "b"})
	cat := NewCatalog()
	cat.Add(tbl)
	if d := tbl.Facts[0].Dict; d == nil || !slices.Equal(d.Codes.I32, []int32{1, 0, 1}) {
		t.Fatalf("Catalog.Add did not code the table: %+v", d)
	}
}

// BenchmarkDictEncode codes an SF-1-sized lineitem column: 6 M rows drawing
// from l_shipmode's seven values.
func BenchmarkDictEncode(b *testing.B) {
	modes := []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	r := rand.New(rand.NewSource(1))
	vals := make([]string, 6_000_000)
	for i := range vals {
		vals[i] = modes[r.Intn(len(modes))]
	}
	tbl := stringTable(vals)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.takeFacts()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/row")
}
