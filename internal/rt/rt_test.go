package rt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"inkfuse/internal/types"
)

const (
	kBool = types.Bool
	kI32  = types.Int32
	kI64  = types.Int64
	kF64  = types.Float64
	kStr  = types.String
)

func TestHash64Deterministic(t *testing.T) {
	k := []byte("hello world key")
	if Hash64(k) != Hash64(append([]byte(nil), k...)) {
		t.Fatal("hash not deterministic")
	}
}

func TestHash64Distribution(t *testing.T) {
	// Low-byte distribution over sequential integer keys should be close to
	// uniform (buckets are taken from the low bits).
	buckets := make([]int, 16)
	n := 1 << 14
	for i := 0; i < n; i++ {
		var k [8]byte
		binary.LittleEndian.PutUint64(k[:], uint64(i))
		buckets[Hash64(k[:])&15]++
	}
	want := n / 16
	for b, c := range buckets {
		if c < want/2 || c > want*2 {
			t.Fatalf("bucket %d badly skewed: %d of %d", b, c, n)
		}
	}
}

func TestHash64EmptyAndShort(t *testing.T) {
	seen := map[uint64]bool{}
	for _, k := range [][]byte{nil, {}, {1}, {1, 2}, {2, 1}, {0, 0, 0}, {0, 0, 0, 0}} {
		seen[Hash64(k)] = true
	}
	// nil and {} must agree; everything else should differ.
	if len(seen) != 6 {
		t.Fatalf("short-key hashes collide: %d distinct of 6 expected", len(seen))
	}
}

func TestHash64PrefixSensitivity(t *testing.T) {
	if err := quick.Check(func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return Hash64(a) == Hash64(b)
		}
		// Not a strict requirement, but collisions on random short keys
		// should be essentially absent.
		return Hash64(a) != Hash64(b)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArenaAlloc(t *testing.T) {
	a := NewArena(128)
	s1 := a.Alloc(10)
	s2 := a.Alloc(10)
	for i := range s1 {
		s1[i] = 0xff
	}
	for _, b := range s2 {
		if b != 0 {
			t.Fatal("arena handed out overlapping or dirty memory")
		}
	}
	if a.Used() != 20 {
		t.Fatalf("used = %d", a.Used())
	}
	// Oversized allocations get their own block.
	big := a.Alloc(1024)
	if len(big) != 1024 {
		t.Fatal("big alloc wrong size")
	}
	// Writing to the end of a block must not clobber the next allocation.
	var prev []byte
	for i := 0; i < 100; i++ {
		s := a.Alloc(7)
		if prev != nil {
			prev[6] = 1
			if s[0] != 0 {
				t.Fatal("allocations overlap")
			}
		}
		prev = s
	}
}

func TestFixedFieldRoundtrip(t *testing.T) {
	b := make([]byte, 64)
	PutBool(b, 0, true)
	PutI32(b, 1, -123456)
	PutI64(b, 5, math.MinInt64+7)
	PutF64(b, 13, -math.Pi)
	if !GetBool(b, 0) || GetI32(b, 1) != -123456 || GetI64(b, 5) != math.MinInt64+7 || GetF64(b, 13) != -math.Pi {
		t.Fatal("fixed field roundtrip failed")
	}
}

func TestStringFieldRoundtrip(t *testing.T) {
	if err := quick.Check(func(a, b string) bool {
		buf := AppendString(nil, a)
		buf = AppendString(buf, b)
		if GetString(buf, 0) != a {
			return false
		}
		off := SkipStrings(buf, 0, 1)
		return GetString(buf, off) == b
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutOffsets(t *testing.T) {
	// key: i64, str, i32; payload: f64, str, bool
	l := NewLayout([]Field{
		{Kind: kI64, Key: true},
		{Kind: kStr, Key: true},
		{Kind: kI32, Key: true},
		{Kind: kF64},
		{Kind: kStr},
		{Kind: kBool},
	})
	if l.KeyFixedWidth != 12 || l.PayloadFixedWidth != 9 {
		t.Fatalf("widths: key %d payload %d", l.KeyFixedWidth, l.PayloadFixedWidth)
	}
	if l.FixedOff[0] != 0 || l.FixedOff[2] != 8 || l.VarIdx[1] != 0 {
		t.Fatalf("key offsets wrong: %v %v", l.FixedOff, l.VarIdx)
	}
	if l.FixedOff[3] != 0 || l.FixedOff[5] != 8 || l.VarIdx[4] != 0 {
		t.Fatalf("payload offsets wrong: %v %v", l.FixedOff, l.VarIdx)
	}
	if l.KeyVarCount != 1 || l.PayloadVarCount != 1 {
		t.Fatal("var counts wrong")
	}
}

func TestRowScratchPackUnpack(t *testing.T) {
	s := NewRowScratch(12, 8)
	s.Prepare(3)
	for i := 0; i < 3; i++ {
		PutI64(s.Row(i), 4+0, int64(100+i))
		PutI32(s.Row(i), 4+8, int32(i))
		s.AppendKeyString(i, fmt.Sprintf("key-%d", i))
		s.SealKey(i)
		PutF64(s.Row(i), RowPayloadOff(s.Row(i))+0, float64(i)*1.5)
		s.AppendPayloadString(i, fmt.Sprintf("pay-%d", i))
	}
	for i := 0; i < 3; i++ {
		row := s.Row(i)
		key := RowKey(row)
		if GetI64(row, 4) != int64(100+i) || GetI32(row, 4+8) != int32(i) {
			t.Fatalf("fixed key fields row %d", i)
		}
		if GetString(row, KeyStringOff(row, 12, 0)) != fmt.Sprintf("key-%d", i) {
			t.Fatalf("key string row %d", i)
		}
		if GetF64(row, RowPayloadOff(row)) != float64(i)*1.5 {
			t.Fatalf("payload fixed row %d", i)
		}
		if GetString(row, PayloadStringOff(row, 8, 0)) != fmt.Sprintf("pay-%d", i) {
			t.Fatalf("payload string row %d", i)
		}
		if len(key) != 12+4+len("key-0") {
			t.Fatalf("key len %d", len(key))
		}
	}
	// Prepare must reset for reuse.
	s.Prepare(2)
	if RowKeyLen(s.Row(0)) != 12 {
		t.Fatal("prepare did not reset key length")
	}
}

func TestRowScratchGrowth(t *testing.T) {
	s := NewRowScratch(8, 0)
	for n := 1; n <= 2048; n *= 4 {
		s.Prepare(n)
		for i := 0; i < n; i++ {
			PutI64(s.Row(i), 4, int64(i))
			s.SealKey(i)
		}
		for i := 0; i < n; i++ {
			if GetI64(s.Row(i), 4) != int64(i) {
				t.Fatalf("n=%d row %d corrupted", n, i)
			}
		}
	}
}

// HashWord is Hash64 without the blob: for every width a word key can have, a
// key's hash from a register equals the hash of its bytes — the build side
// hashes the packed row, the fused probe the register (vm/keybuild.go).
func TestHashWordEqualsHash64(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var buf [8]byte
	for width := 1; width <= 8; width++ {
		for i := 0; i < 1000; i++ {
			w := r.Uint64()
			switch i {
			case 0:
				w = 0
			case 1:
				w = ^uint64(0)
			}
			if width < 8 {
				w &= 1<<(8*width) - 1
			}
			binary.LittleEndian.PutUint64(buf[:], w)
			if got, want := HashWord(w, width), Hash64(buf[:width]); got != want {
				t.Fatalf("width %d, word %#x: HashWord %#x, Hash64 %#x", width, w, got, want)
			}
		}
	}
}
