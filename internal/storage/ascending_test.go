package storage_test

import (
	"testing"

	"inkfuse/internal/storage"
	"inkfuse/internal/tpch"
	"inkfuse/internal/types"
)

func ascending(t *testing.T, tbl *storage.Table, col string) bool {
	t.Helper()
	i := tbl.Schema.IndexOf(col)
	if i < 0 {
		t.Fatalf("%s has no column %s", tbl.Name, col)
	}
	return tbl.Facts[i].Ascending
}

// TestCatalogAddMarksAscending: the TPC-H generator's key columns enter the
// catalog marked strictly ascending; l_orderkey, ascending but repeated per
// order, does not.
func TestCatalogAddMarksAscending(t *testing.T) {
	cat := tpch.Generate(0.01, 42)
	for _, c := range []struct {
		table, col string
		want       bool
	}{
		{"customer", "c_custkey", true},
		{"orders", "o_orderkey", true},
		{"part", "p_partkey", true},
		{"lineitem", "l_orderkey", false},
		{"orders", "o_custkey", false},
	} {
		if got := ascending(t, cat.MustGet(c.table), c.col); got != c.want {
			t.Errorf("%s.%s marked %v, want %v", c.table, c.col, got, c.want)
		}
	}
}

// TestAscendingMarks: only strictly ascending Int32 and Int64 columns are
// marked, and SetRows drops the marks with the rows they describe.
func TestAscendingMarks(t *testing.T) {
	tbl := storage.NewTable("t", types.Schema{
		{Name: "up64", Kind: types.Int64}, {Name: "up32", Kind: types.Int32},
		{Name: "same", Kind: types.Int64}, {Name: "repeat", Kind: types.Int64},
		{Name: "down", Kind: types.Int32}, {Name: "f", Kind: types.Float64},
	})
	for i := 0; i < 5; i++ {
		repeat := int64(i)
		if i == 3 {
			repeat = 2 // 0 1 2 2 4
		}
		tbl.AppendRow(int64(10*i-20), int32(i), int64(7), repeat, int32(-i), float64(i))
	}
	storage.NewCatalog().Add(tbl)
	for col, want := range map[string]bool{
		"up64": true, "up32": true, "same": false, "repeat": false, "down": false, "f": false,
	} {
		if got := ascending(t, tbl, col); got != want {
			t.Errorf("%s marked %v, want %v", col, got, want)
		}
	}
	tbl.AppendRow(int64(100), int32(100), int64(7), int64(100), int32(-100), float64(0))
	if ascending(t, tbl, "up64") || ascending(t, tbl, "up32") {
		t.Fatal("SetRows kept the marks of the rows before it")
	}
}
