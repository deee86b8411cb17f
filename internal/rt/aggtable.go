package rt

import (
	"bytes"
	"encoding/binary"
)

// AggTable is the aggregation hash table. Keys are packed key blobs; the
// payload holds the aggregate state slots. Collision resolution lives inside
// the table (paper §IV-D): FindOrCreate returns a pointer to the correctly
// resolved row, so generated code never loops over collision chains —
// identical behaviour for the fused programs and the vectorized primitives.
//
// Each worker builds its own table (morsel-driven parallel aggregation) and
// the scheduler merges the workers' tables once the build pipeline finished,
// so a table is never written by two goroutines and takes no lock. It is not
// safe for concurrent use. A table is one open-addressing bucket array over
// one entry list in insertion order, the order Snapshot returns.
type AggTable struct {
	payloadInit []byte
	buckets     []int32 // entry index + 1; 0 = empty
	mask        uint64
	hashes      []uint64 // Hash64 of each entry's key
	rows        [][]byte
	arena       *Arena
	budget      *MemBudget
	resizes     int64
}

// entryOverhead approximates the per-entry bookkeeping bytes outside the
// arena (hash, row header, amortized bucket slot) charged to a MemBudget.
const entryOverhead = 32

// aggInitBuckets is a table's bucket count before its first growth; the
// initial array is not charged to a budget.
const aggInitBuckets = 64

// NewAggTable creates a table whose new groups start with the given payload
// template (e.g. +Inf for MIN slots, zeroes for SUM/COUNT). The second
// argument is ignored: a table has no shards since it has one writer.
func NewAggTable(payloadInit []byte, _ int) *AggTable {
	return &AggTable{
		payloadInit: append([]byte(nil), payloadInit...),
		buckets:     make([]int32, aggInitBuckets),
		mask:        aggInitBuckets - 1,
		arena:       NewArena(0),
	}
}

// Reset empties the table in place, keeping its memory for the next execution
// of the owning plan instance: entry lists truncated, the arena rewound, the
// budget detached, and the bucket array back at its initial *logical* size
// with its capacity kept — growTo re-extends into that capacity and charges
// the same deltas a fresh table would, so a reused table meets a memory
// budget at the same insert a new one does. Groups re-inserted in the same
// order land in the same entry order: Snapshot walks entries, not buckets.
func (t *AggTable) Reset() {
	t.buckets = t.buckets[:aggInitBuckets]
	clear(t.buckets)
	t.mask = aggInitBuckets - 1
	t.hashes = t.hashes[:0]
	t.rows = t.rows[:0]
	t.arena.Reset()
	t.budget = nil
	t.resizes = 0
}

// RetainedBytes returns the memory the table holds on to across Reset.
func (t *AggTable) RetainedBytes() int64 {
	return t.arena.RetainedBytes() + int64(cap(t.buckets))*4 +
		int64(cap(t.hashes))*8 + int64(cap(t.rows))*sliceHeaderBytes
}

// FindOrCreate returns the packed row for the key, creating and initializing
// it if absent.
//
//inkfuse:hotpath
func (t *AggTable) FindOrCreate(key []byte, h uint64) []byte {
	return t.FindOrCreateSeed(key, h, nil)
}

// FindOrCreateSeed is FindOrCreate with per-group creation extras: a new
// group's payload is the table's init template followed by seed. The
// collation support of paper §IV-D uses this to keep the original
// (non-normalized) key string in the group payload while the key blob holds
// the equivalence-class representative.
//
//inkfuse:hotpath
func (t *AggTable) FindOrCreateSeed(key []byte, h uint64, seed []byte) []byte {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		b := t.buckets[i]
		if b == 0 {
			t.budget.Charge(entryOverhead)
			init := t.payloadInit
			row := t.arena.Alloc(4 + len(key) + len(init) + len(seed))
			binary.LittleEndian.PutUint32(row, uint32(len(key)))
			copy(row[4:], key)
			copy(row[4+len(key):], init)
			copy(row[4+len(key)+len(init):], seed)
			t.hashes = append(t.hashes, h)    //inklint:allow alloc — amortized — entry arrays double; O(1) amortized per new group
			t.rows = append(t.rows, row)      //inklint:allow alloc — amortized — entry arrays double; O(1) amortized per new group
			t.buckets[i] = int32(len(t.rows)) // index+1
			if uint64(len(t.rows))*4 > 3*(t.mask+1) {
				t.grow() //inklint:allow call — amortized bucket-array resize (doubling); intentionally cold
			}
			return row
		}
		e := b - 1
		if t.hashes[e] == h && bytes.Equal(RowKey(t.rows[e]), key) {
			return t.rows[e]
		}
	}
}

// SetBudget charges this table's future allocations (arena blocks, entry and
// bucket bookkeeping) to the query budget. Call before inserting.
func (t *AggTable) SetBudget(b *MemBudget) {
	t.budget = b
	t.arena.SetBudget(b)
}

func (t *AggTable) grow() { t.growTo(uint64(2 * len(t.buckets))) }

func (t *AggTable) growTo(size uint64) {
	t.resizes++
	t.budget.Charge((int64(size) - int64(len(t.buckets))) * 4) // charge the delta
	// Rehashing reads t.hashes, not the old buckets, so the array may grow in
	// place into capacity an earlier execution left behind.
	nb := zeroed(t.buckets, int(size))
	mask := size - 1
	for e, h := range t.hashes {
		i := h & mask
		for nb[i] != 0 {
			i = (i + 1) & mask
		}
		nb[i] = int32(e + 1)
	}
	t.buckets = nb
	t.mask = mask
}

// Reserve pre-sizes the bucket array for roughly n groups, so the first
// inserts skip the doublings. A worker calls it with the scheduler's morsel
// cardinality estimate (AggTableState.SizeHint) when it first uses its table
// in an execution, before the budget is attached: like the initial bucket
// array, the estimate-driven capacity is uncharged.
func (t *AggTable) Reserve(n int) {
	if n <= 0 {
		return
	}
	size := t.mask + 1
	for (uint64(len(t.rows))+uint64(min(n, maxReserve)))*4 > 3*size {
		size <<= 1
	}
	if size > t.mask+1 {
		t.growTo(size)
	}
}

// maxReserve caps cardinality-estimate pre-sizing (the estimate is an upper
// bound — morsel row count — not a group count).
const maxReserve = 1 << 17

// Groups returns the number of groups in the table.
func (t *AggTable) Groups() int { return len(t.rows) }

// Resizes returns the number of bucket-array resizes (stats).
func (t *AggTable) Resizes() int64 { return t.resizes }

// Snapshot returns all group rows. Called once the build pipeline finished;
// the result backs the morsels of the aggregate-reading pipeline.
func (t *AggTable) Snapshot() [][]byte {
	return t.AppendRows(make([][]byte, 0, t.Groups()))
}

// AppendRows appends all group rows to dst in entry (insertion) order and
// returns it.
func (t *AggTable) AppendRows(dst [][]byte) [][]byte { return append(dst, t.rows...) }

// zeroed returns a zeroed slice of length n, reusing s's capacity when it
// suffices.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
