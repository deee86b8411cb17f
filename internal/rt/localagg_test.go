package rt

import (
	"slices"
	"testing"
)

// The worker-local pre-aggregation table starts small and grows at flush
// boundaries (DESIGN.md §18). These tests pin the three sizes that matter: a
// handful of groups never outgrows the first allocation, a group-rich stream
// reaches exactly the capacity the table always had, and what was grown is
// kept and accounted.

func localAggState() *AggTableState {
	return &AggTableState{Init: make([]byte, 8), Shards: 4, Merge: []AggMerge{{Op: MergeSumI64}}}
}

// offer runs one chunk of keys [lo, hi), each three times in a row (a
// clustered stream: two hits in three lookups say "keep absorbing"), and
// returns how many lookups bounced off a full table.
func offer(l *LocalAggTable, lo, hi int) (bounced int) {
	l.MaybeFlush()
	for i := lo; i < hi; i++ {
		k := i64Key(int64(i))
		for rep := 0; rep < 3; rep++ {
			if _, _, ok := l.FindOrCreate(k, Hash64(k), nil); !ok {
				bounced++
			}
		}
	}
	return bounced
}

func TestLocalAggFewGroupsNeverGrow(t *testing.T) {
	l := NewLocalAggTable(localAggState(), localAggState().NewInstance())
	first := l.RetainedBytes()
	if first > 16<<10 {
		t.Fatalf("a new table holds %d bytes: the point was not to pay 704 KiB up front", first)
	}
	for morsel := 0; morsel < 50; morsel++ {
		for chunk := 0; chunk < 16; chunk++ {
			if offer(l, 0, 4) != 0 {
				t.Fatal("a four-group stream overflowed the local table")
			}
		}
		l.Flush()
	}
	if got := l.RetainedBytes(); got != first || l.groups != localAggMinGroups {
		t.Fatalf("a four-group stream grew the table: %d -> %d bytes, %d groups", first, got, l.groups)
	}
	if l.Disabled() {
		t.Fatal("a four-group stream disabled the table")
	}
}

func TestLocalAggGrowsToTheCapAndOverflowsThere(t *testing.T) {
	st := localAggState()
	l := NewLocalAggTable(st, st.NewInstance())
	// Every chunk brings more distinct groups than the table holds, each seen
	// twice: it overflows, drains between chunks and grows, a factor at a time.
	sizes := []int{l.groups}
	for chunk := 0; l.groups < localAggGroups && chunk < 10; chunk++ {
		if offer(l, 0, 2*l.groups) == 0 {
			t.Fatalf("%d groups into a table for %d did not overflow", 2*l.groups, l.groups)
		}
		l.MaybeFlush()
		sizes = append(sizes, l.groups)
	}
	if want := []int{64, 256, 1024, 4096}; !slices.Equal(sizes, want) {
		t.Fatalf("growth steps %v, want %v", sizes, want)
	}
	// Full grown it is the table it always was: localAggGroups groups fit,
	// the next one bounces, and no further flush makes it any larger.
	if bounced := offer(l, 0, localAggGroups); bounced != 0 {
		t.Fatalf("%d lookups bounced below the group cap", bounced)
	}
	if bounced := offer(l, localAggGroups, localAggGroups+10); bounced != 30 {
		t.Fatalf("%d lookups bounced past the group cap, want 30", bounced)
	}
	l.Flush()
	if l.groups != localAggGroups || cap(l.buf) != localAggBytes || len(l.buckets) != 4*localAggGroups {
		t.Fatalf("grew past the cap: %d groups, %d bytes of rows, %d buckets", l.groups, cap(l.buf), len(l.buckets))
	}
	// Row storage is a cap of its own: wide rows fill the buffer before the
	// group count does.
	wide := make([]byte, localAggBytes/8)
	for i := 0; i < 8; i++ {
		k := i64Key(int64(i))
		_, _, ok := l.FindOrCreate(k, Hash64(k), wide)
		if want := i < 7; ok != want {
			t.Fatalf("wide row %d: accepted=%v, want %v (the eighth does not fit %d bytes)", i, ok, want, localAggBytes)
		}
	}
}

func TestLocalAggResetKeepsGrownCapacity(t *testing.T) {
	st := localAggState()
	l := NewLocalAggTable(st, st.NewInstance())
	for chunk := 0; l.groups < localAggGroups && chunk < 10; chunk++ {
		offer(l, 0, 2*l.groups)
	}
	l.Flush()
	grown := l.RetainedBytes()
	// 4 B × 4 buckets + 8 B hash + 24 B row header + 128 B of row storage per
	// group of capacity: the 704 KiB the table used to allocate up front.
	if want := int64(localAggGroups * (4*localAggBucketsPerGrp + 8 + sliceHeaderBytes + localAggBytesPerGroup)); grown != want {
		t.Fatalf("full-grown table reports %d retained bytes, want %d", grown, want)
	}
	buf := &l.buf[:1][0]
	l.Reset()
	if l.RetainedBytes() != grown || l.groups != localAggGroups || &l.buf[:1][0] != buf {
		t.Fatalf("Reset gave up grown capacity: %d -> %d bytes", grown, l.RetainedBytes())
	}
	if bounced := offer(l, 0, localAggGroups); bounced != 0 {
		t.Fatalf("%d lookups bounced off the reset table below its kept capacity", bounced)
	}
}

// A stream that does not repeat turns the table off; it must not grow on the
// way out.
func TestLocalAggDisabledDoesNotGrow(t *testing.T) {
	st := localAggState()
	l := NewLocalAggTable(st, st.NewInstance())
	for i := 0; i < 4*localAggMinProbes; i++ {
		if i%1024 == 0 {
			l.MaybeFlush()
		}
		k := i64Key(int64(i))
		l.FindOrCreate(k, Hash64(k), nil)
	}
	l.Flush()
	if !l.Disabled() {
		t.Fatal("non-repeating keys should disable the table")
	}
	if l.groups == localAggGroups {
		t.Fatalf("the table reached %d groups of capacity before it gave up", l.groups)
	}
}
