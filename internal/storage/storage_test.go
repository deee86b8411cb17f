package storage

import (
	"testing"
	"testing/quick"

	"inkfuse/internal/types"
)

func TestVectorResizeKeepsData(t *testing.T) {
	v := NewVector(types.Int64, 3)
	v.I64[0], v.I64[1], v.I64[2] = 1, 2, 3
	v.Resize(2)
	v.Resize(3)
	if v.I64[0] != 1 || v.I64[1] != 2 {
		t.Fatal("resize lost data within capacity")
	}
	v.Resize(100)
	if v.Len() != 100 || v.I64[0] != 1 {
		t.Fatal("grow lost prefix")
	}
}

// TestVectorFirstAllocationRoundsUp: a register sized by its first morsel must
// take the next, slightly fuller one without reallocating.
func TestVectorFirstAllocationRoundsUp(t *testing.T) {
	for _, c := range []struct{ first, capacity int }{
		{1, 1}, {5, 8}, {1000, 1024}, {1024, 1024}, {16100, DefaultMorselRows},
		// Past a morsel (a join's expansion) the first allocation is exact.
		{DefaultMorselRows + 1, DefaultMorselRows + 1}, {20000, 20000},
	} {
		v := NewVector(types.Float64, 0)
		v.Resize(c.first)
		if v.Len() != c.first || cap(v.F64) != c.capacity {
			t.Fatalf("first Resize(%d): len %d cap %d, want cap %d", c.first, v.Len(), cap(v.F64), c.capacity)
		}
	}
	v := NewVector(types.Int32, 0)
	v.Resize(16100)
	before := &v.I32[0]
	v.Resize(16384)
	if &v.I32[0] != before {
		t.Fatal("a fuller morsel reallocated the register")
	}
}

func TestVectorAllKinds(t *testing.T) {
	for _, k := range []types.Kind{types.Bool, types.Int32, types.Int64, types.Float64, types.Date, types.String, types.Ptr} {
		v := NewVector(k, 4)
		if v.Len() != 4 {
			t.Fatalf("%v len", k)
		}
		s := v.Slice(1, 3)
		if s.Len() != 2 {
			t.Fatalf("%v slice len", k)
		}
	}
}

func TestVectorGather(t *testing.T) {
	v := NewVector(types.String, 5)
	for i := range v.Str {
		v.Str[i] = string(rune('a' + i))
	}
	dst := NewVector(types.String, 0)
	v.Gather(dst, []int32{4, 0, 2})
	if dst.Len() != 3 || dst.Str[0] != "e" || dst.Str[1] != "a" || dst.Str[2] != "c" {
		t.Fatalf("gather wrong: %v", dst.Str)
	}
	// Kind mismatch panics.
	defer func() {
		if recover() == nil {
			t.Fatal("gather kind mismatch should panic")
		}
	}()
	bad := NewVector(types.Int64, 0)
	v.Gather(bad, []int32{0})
}

func TestVectorGatherProperty(t *testing.T) {
	f := func(data []int64, sel []uint8) bool {
		if len(data) == 0 {
			return true
		}
		v := NewVector(types.Int64, len(data))
		copy(v.I64, data)
		idx := make([]int32, len(sel))
		for i, s := range sel {
			idx[i] = int32(int(s) % len(data))
		}
		dst := NewVector(types.Int64, 0)
		v.Gather(dst, idx)
		for i, j := range idx {
			if dst.I64[i] != data[j] {
				return false
			}
		}
		return dst.Len() == len(idx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVectorAppendCopy(t *testing.T) {
	a := NewVector(types.Float64, 3)
	a.F64[0], a.F64[1], a.F64[2] = 1, 2, 3
	b := NewVector(types.Float64, 0)
	b.AppendFrom(a, 1, 3)
	b.AppendFrom(a, 0, 1)
	if b.Len() != 3 || b.F64[0] != 2 || b.F64[2] != 1 {
		t.Fatalf("append wrong: %v", b.F64)
	}
	c := NewVector(types.Float64, 5)
	c.Resize(0)
	c.AppendFrom(a, 0, 2)
	if c.Len() != 2 || c.F64[1] != 2 {
		t.Fatal("copy wrong")
	}
}

func TestVectorValueSetValue(t *testing.T) {
	v := NewVector(types.Bool, 2)
	v.SetValue(1, true)
	if v.Value(1) != true || v.Value(0) != false {
		t.Fatal("value roundtrip")
	}
	p := NewVector(types.Ptr, 1)
	p.SetValue(0, []byte{1, 2})
	if len(p.Value(0).([]byte)) != 2 {
		t.Fatal("ptr value roundtrip")
	}
}

func TestChunkAppendRowAndVectors(t *testing.T) {
	c := NewChunk([]types.Kind{types.Int64, types.String})
	c.AppendRow(int64(1), "x")
	c.AppendRow(int64(2), "y")
	if c.Rows() != 2 || c.Row(1)[1] != "y" {
		t.Fatal("chunk rows")
	}
	vs := []*Vector{NewVector(types.Int64, 2), NewVector(types.String, 2)}
	vs[0].I64[0], vs[0].I64[1] = 10, 20
	vs[1].Str[0], vs[1].Str[1] = "a", "b"
	bytes := c.AppendFromVectors(vs, 2)
	if c.Rows() != 4 || c.Row(3)[0] != int64(20) {
		t.Fatal("append vectors")
	}
	if bytes != 2*8+2*16 {
		t.Fatalf("bytes accounting = %d", bytes)
	}
	c.Reset()
	if c.Rows() != 0 || c.Cols[0].Len() != 0 {
		t.Fatal("reset")
	}
}

func TestChunkAppendChunk(t *testing.T) {
	a := NewChunk([]types.Kind{types.Int32})
	a.AppendRow(int32(1))
	b := NewChunk([]types.Kind{types.Int32})
	b.AppendRow(int32(2))
	b.AppendRow(int32(3))
	a.AppendChunk(b)
	if a.Rows() != 3 || a.Row(2)[0] != int32(3) {
		t.Fatal("append chunk")
	}
}

func TestTableAndCatalog(t *testing.T) {
	tbl := NewTable("t", types.Schema{{Name: "a", Kind: types.Int64}})
	tbl.AppendRow(int64(5))
	if tbl.Rows() != 1 || tbl.Col("a").I64[0] != 5 {
		t.Fatal("table basics")
	}
	cat := NewCatalog()
	cat.Add(tbl)
	got, err := cat.Get("t")
	if err != nil || got != tbl {
		t.Fatal("catalog get")
	}
	if _, err := cat.Get("missing"); err == nil {
		t.Fatal("catalog should miss")
	}
	if len(cat.Names()) != 1 {
		t.Fatal("catalog names")
	}
}

func TestMorsels(t *testing.T) {
	ms := Morsels(100, 30)
	if len(ms) != 4 || ms[3].Start != 90 || ms[3].End != 100 || ms[3].Rows() != 10 {
		t.Fatalf("morsels wrong: %+v", ms)
	}
	if len(Morsels(0, 30)) != 0 {
		t.Fatal("empty input should produce no morsels")
	}
	// Default size kicks in for size <= 0.
	ms = Morsels(DefaultMorselRows+1, 0)
	if len(ms) != 2 {
		t.Fatal("default morsel size")
	}
}

func TestMorselsCoverProperty(t *testing.T) {
	f := func(n uint16, size uint8) bool {
		ms := Morsels(int(n), int(size))
		covered := 0
		prevEnd := 0
		for _, m := range ms {
			if m.Start != prevEnd || m.End <= m.Start {
				return false
			}
			covered += m.Rows()
			prevEnd = m.End
		}
		return covered == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TakeFrom exchanges backing arrays for every kind: the taker holds the rows,
// the giver is empty with the taker's old capacity, and neither sees the
// other's later writes.
func TestVectorTakeFrom(t *testing.T) {
	kinds := append(append([]types.Kind{}, types.ScalarKinds...), types.Ptr)
	for _, k := range kinds {
		src, dst := NewVector(k, 5), NewVector(k, 0)
		dst.Resize(9)
		dst.Resize(0)
		dstCap := dst.RetainedBytes()
		sample := NewVector(k, 5)
		switch k {
		case types.Bool:
			src.B[4], sample.B[4] = true, true
		case types.Int32, types.Date:
			src.I32[4], sample.I32[4] = 7, 7
		case types.Int64:
			src.I64[4], sample.I64[4] = 7, 7
		case types.Float64:
			src.F64[4], sample.F64[4] = 7, 7
		case types.String:
			src.Str[4], sample.Str[4] = "x", "x"
		case types.Ptr:
			src.Ptr[4], sample.Ptr[4] = []byte{1}, []byte{1}
		}
		dst.TakeFrom(src, 5)
		if dst.Len() != 5 || src.Len() != 0 || src.RetainedBytes() != dstCap {
			t.Fatalf("%v: taker %d rows, giver %d rows with %d bytes (want %d)", k, dst.Len(), src.Len(), src.RetainedBytes(), dstCap)
		}
		if k != types.Ptr && dst.Value(4) != sample.Value(4) {
			t.Fatalf("%v: row 4 = %v", k, dst.Value(4))
		}
		src.Resize(5) // refilling the giver must not touch what was taken
		if k != types.Ptr && dst.Value(4) != sample.Value(4) {
			t.Fatalf("%v: the giver's refill reached the taken rows", k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("take across kinds did not panic")
		}
	}()
	NewVector(types.Int64, 0).TakeFrom(NewVector(types.Int32, 1), 1)
}

func TestChunkTakeFromVectors(t *testing.T) {
	kinds := []types.Kind{types.Int64, types.Int64, types.String}
	reg, str := NewVector(types.Int64, 3), NewVector(types.String, 3)
	copy(reg.I64, []int64{1, 2, 3})
	copy(str.Str, []string{"a", "b", "c"})
	// The register is listed twice, owned once; the string column is not owned.
	vs, own := []*Vector{reg, reg, str}, []bool{false, true, false}
	c := NewChunk(kinds)
	if bytes := c.TakeFromVectors(vs, own, 3); bytes != 3*(8+8+16) || c.Rows() != 3 {
		t.Fatalf("took %d bytes, %d rows", bytes, c.Rows())
	}
	if c.Cols[0].I64[2] != 3 || c.Cols[1].I64[2] != 3 || c.Cols[2].Str[2] != "c" {
		t.Fatalf("rows wrong: %v %v %v", c.Cols[0].I64, c.Cols[1].I64, c.Cols[2].Str)
	}
	if reg.Len() != 0 || str.Len() != 3 {
		t.Fatalf("owned vector keeps %d rows, borrowed one %d", reg.Len(), str.Len())
	}
	// A chunk that holds rows appends, whatever is owned.
	reg.Resize(2)
	reg.I64[0], reg.I64[1] = 4, 5
	c.TakeFromVectors([]*Vector{reg, reg, str}, own, 2)
	if c.Rows() != 5 || reg.Len() != 2 || c.Cols[1].I64[4] != 5 || c.Cols[2].Str[4] != "b" {
		t.Fatalf("append into a non-empty chunk: %d rows, register %d, %v", c.Rows(), reg.Len(), c.Cols[1].I64)
	}
}
