package storage

import (
	"bytes"
	"testing"

	"inkfuse/internal/types"
)

// TestWriteCSV pins WriteCSV's exact output: the header of column names,
// YYYY-MM-DD dates, the shortest float form, CSV quoting, and the row limit.
func TestWriteCSV(t *testing.T) {
	schema := types.Schema{
		{Name: "k", Kind: types.Int64},
		{Name: "f", Kind: types.Float64},
		{Name: "s", Kind: types.String},
		{Name: "d", Kind: types.Date},
		{Name: "b", Kind: types.Bool},
		{Name: "i", Kind: types.Int32},
	}
	src := NewTable("t", schema)
	src.AppendRow(int64(-7), 3.25, "hello, with comma", types.MkDate(1994, 6, 1), true, int32(42))
	src.AppendRow(int64(0), 0.1, `quoted "str"`, types.MkDate(1992, 1, 1), false, int32(-1))
	src.AppendRow(int64(9), 1e21, "last", types.MkDate(1998, 12, 31), true, int32(0))

	const all = "k,f,s,d,b,i\n" +
		"-7,3.25,\"hello, with comma\",1994-06-01,true,42\n" +
		"0,0.1,\"quoted \"\"str\"\"\",1992-01-01,false,-1\n" +
		"9,1e+21,last,1998-12-31,true,0\n"
	for _, tc := range []struct {
		limit int
		want  string
	}{
		{0, all},
		{5, all},
		{1, "k,f,s,d,b,i\n-7,3.25,\"hello, with comma\",1994-06-01,true,42\n"},
	} {
		var buf bytes.Buffer
		if err := WriteCSV(src, &buf, tc.limit); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != tc.want {
			t.Fatalf("limit %d:\n got %q\nwant %q", tc.limit, got, tc.want)
		}
	}
}
