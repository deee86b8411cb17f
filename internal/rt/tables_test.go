package rt

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func i64Key(v int64) []byte {
	var k [8]byte
	binary.LittleEndian.PutUint64(k[:], uint64(v))
	return k[:]
}

func TestAggTableModel(t *testing.T) {
	// Model check against a plain map: random keys, SUM aggregation.
	init := make([]byte, 8)
	tbl := NewAggTable(init, 4)
	model := map[int64]float64{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50_000; i++ {
		k := int64(r.Intn(2000))
		v := r.Float64()
		row := tbl.FindOrCreate(i64Key(k), Hash64(i64Key(k)))
		off := RowPayloadOff(row)
		PutF64(row, off, GetF64(row, off)+v)
		model[k] += v
	}
	if tbl.Groups() != len(model) {
		t.Fatalf("groups: %d vs %d", tbl.Groups(), len(model))
	}
	for _, row := range tbl.Snapshot() {
		k := int64(binary.LittleEndian.Uint64(RowKey(row)))
		got := GetF64(row, RowPayloadOff(row))
		if math.Abs(got-model[k]) > 1e-9*math.Abs(model[k])+1e-12 {
			t.Fatalf("key %d: %v vs %v", k, got, model[k])
		}
	}
	if tbl.resizes == 0 {
		t.Fatal("expected bucket resizes with 2000 groups and 64 initial buckets")
	}
}

func TestAggTableVariableKeys(t *testing.T) {
	tbl := NewAggTable(make([]byte, 8), 2)
	model := map[string]int64{}
	for i := 0; i < 10_000; i++ {
		s := fmt.Sprintf("key-%d", i%337)
		key := AppendString(nil, s)
		row := tbl.FindOrCreate(key, Hash64(key))
		off := RowPayloadOff(row)
		PutI64(row, off, GetI64(row, off)+1)
		model[s]++
	}
	if tbl.Groups() != len(model) {
		t.Fatalf("groups: %d vs %d", tbl.Groups(), len(model))
	}
	for _, row := range tbl.Snapshot() {
		s := GetString(row, 4)
		if GetI64(row, RowPayloadOff(row)) != model[s] {
			t.Fatalf("count mismatch for %q", s)
		}
	}
}

func TestAggTablePrefixKeysDistinct(t *testing.T) {
	// Length-prefixed string keys: "a"+"bc" must not equal "ab"+"c".
	tbl := NewAggTable(nil, 1)
	k1 := AppendString(AppendString(nil, "a"), "bc")
	k2 := AppendString(AppendString(nil, "ab"), "c")
	tbl.FindOrCreate(k1, Hash64(k1))
	tbl.FindOrCreate(k2, Hash64(k2))
	if tbl.Groups() != 2 {
		t.Fatal("prefix-ambiguous keys collapsed")
	}
}

func TestAggTableEmptyKey(t *testing.T) {
	tbl := NewAggTable(make([]byte, 8), 1)
	for i := 0; i < 100; i++ {
		row := tbl.FindOrCreate(nil, Hash64(nil))
		PutI64(row, RowPayloadOff(row), GetI64(row, RowPayloadOff(row))+1)
	}
	if tbl.Groups() != 1 {
		t.Fatalf("keyless groups = %d", tbl.Groups())
	}
	if got := GetI64(tbl.Snapshot()[0], 4); got != 100 {
		t.Fatalf("keyless count = %d", got)
	}
}

func TestAggMergeStates(t *testing.T) {
	st := &AggTableState{
		Init:   make([]byte, 24),
		Shards: 2,
		Merge: []AggMerge{
			{Op: MergeSumF64, Off: 0},
			{Op: MergeSumI64, Off: 8},
			{Op: MergeMinF64, Off: 16},
		},
	}
	PutF64(st.Init, 16, math.Inf(1))
	a, b := st.NewInstance(), st.NewInstance()
	upd := func(tbl *AggTable, k int64, f float64) {
		row := tbl.FindOrCreate(i64Key(k), Hash64(i64Key(k)))
		off := RowPayloadOff(row)
		PutF64(row, off, GetF64(row, off)+f)
		PutI64(row, off+8, GetI64(row, off+8)+1)
		if f < GetF64(row, off+16) {
			PutF64(row, off+16, f)
		}
	}
	upd(a, 1, 2.0)
	upd(a, 1, 5.0)
	upd(a, 2, 7.0)
	upd(b, 1, 1.0)
	upd(b, 3, 9.0)
	g := st.NewInstance()
	st.MergeInto(g, a)
	st.MergeInto(g, b)
	if g.Groups() != 3 {
		t.Fatalf("merged groups = %d", g.Groups())
	}
	row := g.FindOrCreate(i64Key(1), Hash64(i64Key(1)))
	off := RowPayloadOff(row)
	if GetF64(row, off) != 8.0 || GetI64(row, off+8) != 3 || GetF64(row, off+16) != 1.0 {
		t.Fatalf("merged slots: sum=%v cnt=%v min=%v", GetF64(row, off), GetI64(row, off+8), GetF64(row, off+16))
	}
}
