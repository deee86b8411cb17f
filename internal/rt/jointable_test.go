package rt

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// insertJoin adds one build row through the batched entry point, hashed as
// the engine hashes keys.
func insertJoin(tbl *JoinTable, key, payload []byte) {
	tbl.InsertBatch([][]byte{key}, [][]byte{payload}, []uint64{Hash64(key)}, nil)
}

// insertJoinRows adds rows in chunks of chunk rows, as a build pipeline does.
func insertJoinRows(tbl *JoinTable, keys, payloads [][]byte, chunk int) {
	var hashes []uint64
	for lo := 0; lo < len(keys); lo += chunk {
		hi := min(lo+chunk, len(keys))
		hashes = HashBatch(keys[lo:hi], hashes)
		tbl.InsertBatch(keys[lo:hi], payloads[lo:hi], hashes, nil)
	}
}

// matchesOf collects every row a probe of key with hash h matches, in order.
func matchesOf(tbl *JoinTable, key []byte, h uint64) [][]byte {
	var out [][]byte
	it := tbl.Lookup(key, h)
	for r := it.Next(); r != nil; r = it.Next() {
		out = append(out, r)
	}
	return out
}

// joinModel is the reference a sealed JoinTable answers like: per key, its
// payloads in insertion order. A probe emits them newest first.
type joinModel map[string][][]byte

func (m joinModel) add(key, payload []byte) { m[string(key)] = append(m[string(key)], payload) }

// checkJoinModel probes every key of the model and each absent key and
// requires the model's rows — key and payload — newest first, and nothing
// for an absent key.
func checkJoinModel(t *testing.T, tbl *JoinTable, m joinModel, absent ...[]byte) {
	t.Helper()
	rows := 0
	for k, pays := range m {
		rows += len(pays)
		key := []byte(k)
		got := matchesOf(tbl, key, Hash64(key))
		if len(got) != len(pays) {
			t.Fatalf("key %x: %d matches, want %d", key, len(got), len(pays))
		}
		for j, r := range got {
			want := pays[len(pays)-1-j]
			if !bytes.Equal(RowKey(r), key) || !bytes.Equal(r[RowPayloadOff(r):], want) {
				t.Fatalf("key %x match %d: row %x, want payload %x", key, j, r, want)
			}
		}
	}
	if tbl.Rows() != rows {
		t.Fatalf("rows = %d, want %d", tbl.Rows(), rows)
	}
	for _, key := range absent {
		if got := matchesOf(tbl, key, Hash64(key)); len(got) != 0 {
			t.Fatalf("absent key %x matched %d rows", key, len(got))
		}
	}
}

// joinBuild is one build-side shape: n rows, row i with key keyOf(i).
type joinBuild struct {
	name   string
	shards int
	n      int
	keyOf  func(i int) []byte
}

func (b joinBuild) insert(tbl *JoinTable, m joinModel) {
	keys, pays := make([][]byte, b.n), make([][]byte, b.n)
	for i := range keys {
		keys[i] = b.keyOf(i)
		pays[i] = []byte(fmt.Sprintf("p%d", i))
		m.add(keys[i], pays[i])
	}
	insertJoinRows(tbl, keys, pays, 1000)
}

var joinBuilds = func() []joinBuild {
	r := rand.New(rand.NewSource(2))
	randomKeys := make([]int64, 20_000)
	for i := range randomKeys {
		randomKeys[i] = int64(r.Intn(500))
	}
	return []joinBuild{
		{"random", 4, 20_000, func(i int) []byte { return i64Key(randomKeys[i]) }},
		{"one-key", 4, 5_000, func(int) []byte { return i64Key(42) }},
		// Key 7 has 1 000 rows among 2 000 unique ones.
		{"1:1000", 4, 3_000, func(i int) []byte {
			if i%3 == 1 {
				return i64Key(7)
			}
			return i64Key(int64(1000 + i))
		}},
		{"empty-shards", 16, 9, func(i int) []byte { return i64Key(int64(i % 3)) }},
		{"empty", 4, 0, nil},
		{"12-byte", 4, 4_000, func(i int) []byte { return append(i64Key(int64(i%700)), 1, 2, 3, 4) }},
		{"string", 4, 4_000, func(i int) []byte { return []byte(fmt.Sprintf("key-%d", i%900)) }},
	}
}()

var joinAbsent = [][]byte{i64Key(-1), i64Key(10_000), {1, 2, 3, 4}, []byte("key-x")}

func TestJoinTableModel(t *testing.T) {
	for _, b := range joinBuilds {
		t.Run(b.name, func(t *testing.T) {
			tbl := NewJoinTable(b.shards)
			m := joinModel{}
			b.insert(tbl, m)
			tbl.Seal()
			checkJoinModel(t, tbl, m, joinAbsent...)
		})
	}
	// A warm re-seal: the table of one build, Reset, holds the next build and
	// nothing of the first.
	tbl := NewJoinTable(4)
	for _, b := range joinBuilds {
		tbl.Reset()
		m := joinModel{}
		b.insert(tbl, m)
		tbl.Seal()
		checkJoinModel(t, tbl, m, joinAbsent...)
	}
}

func TestJoinTableEmpty(t *testing.T) {
	tbl := NewJoinTable(2)
	tbl.Seal()
	if got := matchesOf(tbl, i64Key(1), Hash64(i64Key(1))); got != nil {
		t.Fatal("empty table matched")
	}
	if tbl.Touch(Hash64(i64Key(1))) != 0 {
		t.Fatal("touch on empty")
	}
}

// TestJoinTableConcurrentBuild builds the way a build pipeline's workers do:
// eight goroutines insert into a table each, never into another's, and the
// first table adopts the others and seals as concurrent tasks. The sealed
// table answers for every worker's rows.
func TestJoinTableConcurrentBuild(t *testing.T) {
	parts := make([]*JoinTable, 8)
	var wg sync.WaitGroup
	for w := range parts {
		parts[w] = NewJoinTable(8)
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := make([][]byte, 2000)
			for i := range keys {
				keys[i] = i64Key(int64(i))
			}
			insertJoinRows(parts[w], keys, make([][]byte, len(keys)), 100)
		}()
	}
	wg.Wait()
	tbl := parts[0]
	for _, p := range parts[1:] {
		tbl.Adopt(p)
	}
	for i := 0; i < tbl.SealTasks(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tbl.SealTask(i)
		}()
	}
	wg.Wait()
	if tbl.Rows() != 16_000 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	if n := len(matchesOf(tbl, i64Key(7), Hash64(i64Key(7)))); n != 8 {
		t.Fatalf("key 7 matches = %d, want 8", n)
	}
}

func TestJoinTableQuickModel(t *testing.T) {
	// Property: for random multisets over a random number of distinct keys —
	// one key included — every key's matches are its rows, newest first.
	f := func(keys []uint8, distinct uint8) bool {
		tbl := NewJoinTable(2)
		m := joinModel{}
		for i, k8 := range keys {
			k := i64Key(int64(k8 % (distinct%16 + 1)))
			p := []byte{byte(i), byte(i >> 8)}
			insertJoin(tbl, k, p)
			m.add(k, p)
		}
		tbl.Seal()
		for k, pays := range m {
			got := matchesOf(tbl, []byte(k), Hash64([]byte(k)))
			if len(got) != len(pays) {
				return false
			}
			for j, r := range got {
				if !bytes.Equal(r[RowPayloadOff(r):], pays[len(pays)-1-j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Hash64 of a key of width ≤ 8 bytes is a bijection of the key word: mix64,
// the xor with the width's seed and the multiplies by odd constants are each
// invertible. The inverse below recovers every word from its hash, so two
// keys of one width with one hash are one key — what lets a sealed shard of
// word keys match on the hash alone.
func TestHashWordIsInvertible(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for width := 1; width <= 8; width++ {
		for i := 0; i < 10_000; i++ {
			w := r.Uint64()
			if i == 0 {
				w = 0
			}
			if width < 8 {
				w &= 1<<(8*width) - 1
			}
			if got := unhashWord(HashWord(w, width), width); got != w {
				t.Fatalf("width %d: word %#x hashes back to %#x", width, w, got)
			}
		}
	}
}

// unhashWord inverts HashWord(w, width).
func unhashWord(h uint64, width int) uint64 {
	const (
		k0 = 0x9e3779b97f4a7c15
		k1 = 0xbf58476d1ce4e5b9
		k2 = 0x94d049bb133111eb
	)
	k := uint64(k0)
	if width == 8 {
		k = k1
	}
	x := unmix64(unmix64(h) * inverseOdd(k))
	return x ^ (uint64(width)*k0 + k2)
}

// unmix64 inverts mix64: an xor with the word shifted right by 33 or more is
// its own inverse, an odd multiply is undone by the multiplicative inverse.
func unmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= inverseOdd(0xc4ceb9fe1a85ec53)
	x ^= x >> 33
	x *= inverseOdd(0xff51afd7ed558ccd)
	x ^= x >> 33
	return x
}

// inverseOdd returns the inverse of an odd c modulo 2^64 (Newton's
// iteration; each step doubles the correct low bits).
func inverseOdd(c uint64) uint64 {
	inv := c
	for i := 0; i < 6; i++ {
		inv *= 2 - c*inv
	}
	return inv
}

// Keys that are not words of one width are compared byte for byte: two
// different keys given one hash by hand never match each other, whether they
// are 12-byte keys, strings, or words of two widths in one shard — inserted
// into one table, or into two of which one adopts the other. A probe key
// whose width differs from a word shard's is compared too.
func TestJoinTableHashCollisionsCompareBytes(t *testing.T) {
	const h = 0x0123456789abcdef
	cases := []struct {
		name string
		a, b []byte
	}{
		{"12-byte", append(i64Key(1), 0, 0, 0, 0), append(i64Key(2), 0, 0, 0, 0)},
		{"string", []byte("\x05\x00\x00\x00apple"), []byte("\x05\x00\x00\x00mango")},
		{"mixed-widths", i64Key(1), []byte{1, 0, 0, 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, adopt := range []bool{false, true} {
				tbl := NewJoinTable(1)
				if adopt {
					other := NewJoinTable(1)
					tbl.InsertBatch([][]byte{c.a}, [][]byte{{'a'}}, []uint64{h}, nil)
					other.InsertBatch([][]byte{c.b, c.a}, [][]byte{{'b'}, {'A'}}, []uint64{h, h}, nil)
					tbl.Adopt(other)
				} else {
					tbl.InsertBatch([][]byte{c.a, c.b, c.a}, [][]byte{{'a'}, {'b'}, {'A'}}, []uint64{h, h, h}, nil)
				}
				tbl.Seal()
				for key, want := range map[string]string{string(c.a): "Aa", string(c.b): "b"} {
					got := ""
					for _, r := range matchesOf(tbl, []byte(key), h) {
						got += string(r[RowPayloadOff(r):])
					}
					if got != want {
						t.Fatalf("adopted %v: key %x matched payloads %q, want %q", adopt, key, got, want)
					}
				}
			}
		})
	}
	// A shard of 8-byte words probed with a 4-byte key that has a row's hash.
	tbl := NewJoinTable(1)
	insertJoin(tbl, i64Key(9), nil)
	tbl.Seal()
	if got := matchesOf(tbl, []byte{9, 0, 0, 0}, Hash64(i64Key(9))); got != nil {
		t.Fatal("a 4-byte probe key matched an 8-byte row on its hash")
	}
}

// Bucket b's run is start[b]:start[b+1], every entry in it hashes to b, and
// the run is newest first.
func TestJoinTableSealedLayout(t *testing.T) {
	tbl := NewJoinTable(1)
	keys := make([][]byte, 3000)
	for i := range keys {
		keys[i] = i64Key(int64(i % 1000))
	}
	insertJoinRows(tbl, keys, make([][]byte, len(keys)), 256)
	tbl.Seal()
	s := &tbl.shards[0]
	if got := int(s.start[len(s.start)-1]); got != len(keys) || len(s.start) != int(s.mask)+2 {
		t.Fatalf("start has %d entries ending at %d, want %d ending at %d", len(s.start), got, s.mask+2, len(keys))
	}
	inserted := make(map[*byte]int, len(keys)) // a row's position in insertion order
	for _, blk := range s.blocks {
		for _, r := range blk.rows {
			inserted[&r[0]] = len(inserted)
		}
	}
	for b := 0; b <= int(s.mask); b++ {
		prev := len(keys)
		for e := s.start[b]; e < s.start[b+1]; e++ {
			if s.sealed[e].hash&s.mask != uint64(b) {
				t.Fatalf("entry %d of bucket %d hashes to bucket %d", e, b, s.sealed[e].hash&s.mask)
			}
			at := inserted[&s.sealed[e].row[0]]
			if at >= prev {
				t.Fatalf("bucket %d: the row inserted %d-th follows the %d-th", b, at, prev)
			}
			prev = at
		}
	}
}

// A table seals as a task per shard plus the filter's; run concurrently, in
// reverse order, they seal the table Seal seals.
func TestJoinTableSealTasksConcurrent(t *testing.T) {
	b := joinBuild{"split", 16, 20_000, func(i int) []byte { return i64Key(int64(i % 7000)) }}
	serial, split := NewJoinTable(b.shards), NewJoinTable(b.shards)
	m := joinModel{}
	b.insert(serial, m)
	b.insert(split, joinModel{})
	serial.Seal()
	n := split.SealTasks()
	if n != 1+b.shards {
		t.Fatalf("%d rows seal as %d tasks, want %d", b.n, n, 1+b.shards)
	}
	var wg sync.WaitGroup
	for i := n - 1; i >= 0; i-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			split.SealTask(i)
		}()
	}
	wg.Wait()
	checkJoinModel(t, split, m, joinAbsent...)
	for k := range m {
		h := Hash64([]byte(k))
		if serial.Touch(h) != split.Touch(h) {
			t.Fatalf("key %x: the split seal's layout or filter differs", k)
		}
	}
}
