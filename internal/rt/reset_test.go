package rt

// Reset-in-place (DESIGN.md §16): a table emptied with Reset must be
// indistinguishable from a new one — same rows in the same order, same budget
// charges — while holding on to its memory.

import (
	"bytes"
	"fmt"
	"testing"
)

func TestArenaResetReusesBlocksAndRecharges(t *testing.T) {
	a := NewArena(128)
	fill := func() int64 {
		b := NewMemBudget(0)
		a.SetBudget(b)
		for i := 0; i < 50; i++ {
			copy(a.Alloc(10), "0123456789")
		}
		return b.Used()
	}
	cold := fill()
	kept := a.RetainedBytes()
	if cold != kept || kept == 0 {
		t.Fatalf("cold fill charged %d, arena holds %d", cold, kept)
	}
	a.Reset()
	if a.Used() != 0 {
		t.Fatalf("used = %d after Reset", a.Used())
	}
	if warm := fill(); warm != cold {
		t.Fatalf("warm fill charged %d, cold %d", warm, cold)
	}
	if a.RetainedBytes() != kept {
		t.Fatalf("warm fill grew the arena: %d -> %d", kept, a.RetainedBytes())
	}
}

// buildAgg inserts n keys (every third one twice) and returns the budget
// charge of the build.
func buildAgg(tbl *AggTable, n int) int64 {
	b := NewMemBudget(0)
	tbl.SetBudget(b)
	for i := 0; i < n; i++ {
		k := i64Key(int64(i * 7919 % n))
		row := tbl.FindOrCreate(k, Hash64(k))
		off := RowPayloadOff(row)
		PutI64(row, off, GetI64(row, off)+1)
	}
	return b.Used()
}

func TestAggTableResetMatchesFresh(t *testing.T) {
	init := make([]byte, 8)
	warm := NewAggTable(init, 4)
	buildAgg(warm, 5000)
	kept := warm.RetainedBytes()
	// Smaller, equal and larger than what the kept capacity was built for.
	for _, n := range []int{300, 5000, 9000} {
		warm.Reset()
		if warm.Groups() != 0 {
			t.Fatalf("n=%d: %d groups after Reset", n, warm.Groups())
		}
		fresh := NewAggTable(init, 4)
		wantCharge := buildAgg(fresh, n)
		if got := buildAgg(warm, n); got != wantCharge {
			t.Fatalf("n=%d: reset table charged %d, fresh %d", n, got, wantCharge)
		}
		// Snapshots walk entries in insertion order, not buckets, so the two
		// agree row for row even though the bucket arrays differ in capacity.
		got, want := warm.Snapshot(), fresh.Snapshot()
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d groups, fresh %d", n, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("n=%d: group %d differs from a fresh table's", n, i)
			}
		}
		if n <= 5000 && warm.RetainedBytes() != kept {
			t.Fatalf("n=%d: rebuild within capacity changed kept memory %d -> %d", n, kept, warm.RetainedBytes())
		}
	}
}

// buildJoin inserts the build's rows, seals, and returns the budget charge.
func buildJoin(tbl *JoinTable, b joinBuild) int64 {
	budget := NewMemBudget(0)
	tbl.SetBudget(budget)
	b.insert(tbl, joinModel{})
	tbl.Seal()
	return budget.Used()
}

// joinRepeats is a build of n rows whose keys repeat every n/2.
func joinRepeats(n int) joinBuild {
	return joinBuild{fmt.Sprint(n), 4, n, func(i int) []byte { return i64Key(int64(i % (n/2 + 1))) }}
}

func TestJoinTableResetMatchesFresh(t *testing.T) {
	warm := NewJoinTable(4)
	buildJoin(warm, joinRepeats(4000))
	kept := warm.RetainedBytes()
	builds := []joinBuild{joinRepeats(100), joinRepeats(4000), joinRepeats(7000)}
	for _, b := range joinBuilds {
		if b.shards == 4 {
			builds = append(builds, b)
		}
	}
	for i, b := range builds {
		warm.Reset()
		if warm.Rows() != 0 {
			t.Fatalf("%s: %d rows after Reset", b.name, warm.Rows())
		}
		fresh := NewJoinTable(4)
		wantCharge := buildJoin(fresh, b)
		if got := buildJoin(warm, b); got != wantCharge {
			t.Fatalf("%s: reset table charged %d, fresh %d", b.name, got, wantCharge)
		}
		probes := append([][]byte{}, joinAbsent...)
		for i := 0; i < b.n; i++ {
			probes = append(probes, b.keyOf(i))
		}
		for _, k := range probes {
			h := Hash64(k)
			if warm.Touch(h) != fresh.Touch(h) {
				t.Fatalf("%s key %x: filters or layouts disagree", b.name, k)
			}
			w, f := matchesOf(warm, k, h), matchesOf(fresh, k, h)
			if len(w) != len(f) {
				t.Fatalf("%s key %x: %d matches, fresh %d", b.name, k, len(w), len(f))
			}
			for j := range f {
				if !bytes.Equal(w[j], f[j]) {
					t.Fatalf("%s key %x: match %q, fresh %q", b.name, k, w[j], f[j])
				}
			}
		}
		// The first two builds are no larger than the one the memory was kept from.
		if i < 2 && warm.RetainedBytes() != kept {
			t.Fatalf("%s: rebuild within capacity changed kept memory %d -> %d", b.name, kept, warm.RetainedBytes())
		}
	}
}

func TestLocalAggResetStartsOver(t *testing.T) {
	st := &AggTableState{Init: make([]byte, 8), Shards: 4, Merge: []AggMerge{{Op: MergeSumI64}}}
	l := NewLocalAggTable(st, st.NewInstance())
	// Non-repeating keys past the warm-up: the adaptive policy turns it off.
	for i := 0; i < 2*localAggMinProbes; i++ {
		k := i64Key(int64(i))
		l.FindOrCreate(k, Hash64(k), nil)
	}
	l.Flush()
	if !l.Disabled() {
		t.Fatal("non-repeating keys should disable the table")
	}
	l.Reset()
	if l.Disabled() || l.Hits() != 0 {
		t.Fatal("Reset must restart the adaptive policy")
	}
	k := i64Key(1)
	if _, hit, ok := l.FindOrCreate(k, Hash64(k), nil); !ok || hit {
		t.Fatalf("first lookup after Reset: hit=%v ok=%v", hit, ok)
	}
	if _, hit, ok := l.FindOrCreate(k, Hash64(k), nil); !ok || !hit {
		t.Fatalf("second lookup after Reset: hit=%v ok=%v", hit, ok)
	}
}

func TestRowScratchStrideFollowsStrings(t *testing.T) {
	s := NewRowScratch(8, 8)
	check := func(n int, str string) {
		t.Helper()
		s.Prepare(n)
		for i := 0; i < n; i++ {
			PutI64(s.Row(i), 4, int64(i))
			s.AppendKeyString(i, str)
			s.SealKey(i)
			PutI64(s.Row(i), RowPayloadOff(s.Row(i)), int64(-i))
		}
		for i := 0; i < n; i++ {
			r := s.Row(i)
			if GetI64(r, 4) != int64(i) || GetString(r, 12) != str || GetI64(r, RowPayloadOff(r)) != int64(-i) {
				t.Fatalf("n=%d row %d corrupted: %x", n, i, r)
			}
		}
	}
	check(100, "spills past the fixed-width stride")
	slab := cap(s.slab)
	check(100, "spills past the fixed-width stride")
	if cap(s.slab) <= slab {
		t.Fatal("the stride did not widen after rows spilled")
	}
	slab = cap(s.slab)
	check(100, "fits")
	check(100, "spills past the fixed-width stride")
	if cap(s.slab) != slab {
		t.Fatal("rows that fit the widened stride regrew the slab")
	}
}

// Arena blocks double from arenaFirstBlock up to the block size, so a shard
// that receives a few rows pays for a small block; a kept block too small for
// the request it meets after Reset is replaced.
func TestArenaBlocksGrowToTheBlockSize(t *testing.T) {
	a := NewArena(0)
	a.Alloc(16)
	if got := a.RetainedBytes(); got != arenaFirstBlock {
		t.Fatalf("one small row retained %d bytes, want the first block's %d", got, arenaFirstBlock)
	}
	for a.Used() < 1<<20 {
		a.Alloc(100)
	}
	sizes := map[int]int{}
	for _, b := range a.blocks {
		sizes[len(b)]++
	}
	for size := arenaFirstBlock; size < defaultArenaBlock; size <<= 1 {
		if sizes[size] != 1 {
			t.Fatalf("%d blocks of %d bytes, want one on the way up: %v", sizes[size], size, sizes)
		}
	}
	if len(sizes) != 7 || sizes[defaultArenaBlock] < 10 {
		t.Fatalf("block sizes %v: want 1 KiB doubling to many 64 KiB blocks", sizes)
	}
	// After Reset the first (1 KiB) block meets a 10 KiB request.
	a.Reset()
	kept := a.RetainedBytes()
	big := a.Alloc(10 << 10)
	if len(big) != 10<<10 || a.RetainedBytes() != kept-arenaFirstBlock+16<<10 {
		t.Fatalf("a request larger than the kept block: got %d bytes, arena %d -> %d", len(big), kept, a.RetainedBytes())
	}
}
