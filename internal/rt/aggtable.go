package rt

import (
	"bytes"
	"encoding/binary"
	"sync"
)

// AggTable is the aggregation hash table. Keys are packed key blobs; the
// payload holds the aggregate state slots. Collision resolution lives inside
// the table (paper §IV-D): FindOrCreate returns a pointer to the correctly
// resolved row, so generated code never loops over collision chains —
// identical behaviour for the fused programs and the vectorized primitives.
//
// The table is sharded by hash for concurrent morsel-driven builds.
type AggTable struct {
	payloadInit []byte
	shards      []aggShard
	shardMask   uint64
}

type aggShard struct {
	mu      sync.Mutex
	buckets []int32 // entry index + 1; 0 = empty
	mask    uint64
	hashes  []uint64
	rows    [][]byte
	arena   *Arena
	budget  *MemBudget
	resizes int64
}

// entryOverhead approximates the per-entry bookkeeping bytes outside the
// arena (hash, row header, amortized bucket slot) charged to a MemBudget.
const entryOverhead = 32

// NewAggTable creates a table whose new groups start with the given payload
// template (e.g. +Inf for MIN slots, zeroes for SUM/COUNT).
func NewAggTable(payloadInit []byte, shardCount int) *AggTable {
	if shardCount <= 0 {
		shardCount = 16
	}
	// Round up to a power of two for mask dispatch.
	sc := 1
	for sc < shardCount {
		sc <<= 1
	}
	t := &AggTable{
		payloadInit: append([]byte(nil), payloadInit...),
		shards:      make([]aggShard, sc),
		shardMask:   uint64(sc - 1),
	}
	for i := range t.shards {
		t.shards[i].init()
	}
	return t
}

// aggInitBuckets is a shard's bucket count before its first growth; the
// initial array is not charged to a budget.
const aggInitBuckets = 64

func (s *aggShard) init() {
	s.buckets = make([]int32, aggInitBuckets)
	s.mask = aggInitBuckets - 1
	s.arena = NewArena(0)
}

// reset empties the shard in place: entry lists truncated, the arena rewound,
// the budget detached, and the bucket array back at its initial *logical*
// size with its capacity kept — growTo re-extends into that capacity and
// charges the same deltas a fresh shard would, so a reused table meets a
// memory budget at the same insert a new one does. Groups re-inserted in the
// same order land in the same entry order: Snapshot walks entries, not
// buckets.
func (s *aggShard) reset() {
	s.buckets = s.buckets[:aggInitBuckets]
	clear(s.buckets)
	s.mask = aggInitBuckets - 1
	s.hashes = s.hashes[:0]
	s.rows = s.rows[:0]
	s.arena.Reset()
	s.budget = nil
	s.resizes = 0
}

func (s *aggShard) retainedBytes() int64 {
	return s.arena.RetainedBytes() + int64(cap(s.buckets))*4 +
		int64(cap(s.hashes))*8 + int64(cap(s.rows))*sliceHeaderBytes
}

// Reset empties the table in place, keeping its memory for the next execution
// of the owning plan instance. Not safe for concurrent use.
func (t *AggTable) Reset() {
	for i := range t.shards {
		t.shards[i].reset()
	}
}

// RetainedBytes returns the memory the table holds on to across Reset.
func (t *AggTable) RetainedBytes() int64 {
	var n int64
	for i := range t.shards {
		n += t.shards[i].retainedBytes()
	}
	return n
}

// FindOrCreate returns the packed row for the key, creating and initializing
// it if absent. Safe for concurrent use.
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
	s := &t.shards[(h>>56)&t.shardMask]
	s.mu.Lock()
	// The unlock is deferred (not inlined) so that a memory-budget panic out
	// of the arena never strands the shard lock: the scheduler recovers the
	// panic and the remaining workers must still be able to drain.
	defer s.mu.Unlock()
	return s.findOrCreate(key, h, t.payloadInit, seed)
}

// SetBudget charges this table's future allocations (arena blocks, entry and
// bucket bookkeeping) to the query budget. Call before inserting.
func (t *AggTable) SetBudget(b *MemBudget) {
	for i := range t.shards {
		s := &t.shards[i]
		s.budget = b
		s.arena.SetBudget(b)
	}
}

//inkfuse:hotpath
func (s *aggShard) findOrCreate(key []byte, h uint64, init, seed []byte) []byte {
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		b := s.buckets[i]
		if b == 0 {
			s.budget.Charge(entryOverhead)
			row := s.arena.Alloc(4 + len(key) + len(init) + len(seed))
			binary.LittleEndian.PutUint32(row, uint32(len(key)))
			copy(row[4:], key)
			copy(row[4+len(key):], init)
			copy(row[4+len(key)+len(init):], seed)
			s.hashes = append(s.hashes, h)    //inklint:allow alloc — amortized — entry arrays double; O(1) amortized per new group
			s.rows = append(s.rows, row)      //inklint:allow alloc — amortized — entry arrays double; O(1) amortized per new group
			s.buckets[i] = int32(len(s.rows)) // index+1
			if uint64(len(s.rows))*4 > 3*(s.mask+1) {
				s.grow() //inklint:allow call — amortized bucket-array resize (doubling); intentionally cold
			}
			return row
		}
		e := b - 1
		if s.hashes[e] == h && bytes.Equal(RowKey(s.rows[e]), key) {
			return s.rows[e]
		}
	}
}

func (s *aggShard) grow() { s.growTo(uint64(2 * len(s.buckets))) }

func (s *aggShard) growTo(size uint64) {
	s.resizes++
	s.budget.Charge((int64(size) - int64(len(s.buckets))) * 4) // charge the delta
	// Rehashing reads s.hashes, not the old buckets, so the array may grow in
	// place into capacity an earlier execution left behind.
	nb := zeroed(s.buckets, int(size))
	mask := size - 1
	for e, h := range s.hashes {
		i := h & mask
		for nb[i] != 0 {
			i = (i + 1) & mask
		}
		nb[i] = int32(e + 1)
	}
	s.buckets = nb
	s.mask = mask
}

// reserve grows the bucket array once, up front, so that the following
// `extra` inserts cannot trigger a resize. The batched path calls it after
// taking the shard lock: without it a grow could stall a whole chunk's worth
// of co-locked rows mid-batch. Charging the delta keeps the cumulative budget
// identical to the scalar path's incremental doublings.
func (s *aggShard) reserve(extra int) {
	need := uint64(len(s.rows)+extra) * 4
	size := s.mask + 1
	if need <= 3*size {
		return
	}
	for need > 3*size {
		size <<= 1
	}
	s.growTo(size)
}

// Reserve pre-sizes every shard's bucket array for roughly n total groups —
// called from NewInstance with the scheduler's morsel cardinality estimate
// (AggTableState.SizeHint) before a budget is attached, mirroring how the
// initial bucket arrays are uncharged.
func (t *AggTable) Reserve(n int) {
	if n <= 0 {
		return
	}
	per := n / len(t.shards)
	if per > maxReservePerShard {
		per = maxReservePerShard
	}
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		s.reserve(per)
		s.mu.Unlock()
	}
}

// maxReservePerShard caps cardinality-estimate pre-sizing (the estimate is an
// upper bound — morsel row count — not a group count).
const maxReservePerShard = 1 << 13

// Groups returns the number of groups in the table.
func (t *AggTable) Groups() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.rows)
		s.mu.Unlock()
	}
	return n
}

// Resizes returns the total number of bucket-array resizes (stats).
func (t *AggTable) Resizes() int64 {
	var n int64
	for i := range t.shards {
		n += t.shards[i].resizes
	}
	return n
}

// Snapshot returns all group rows. Called once the build pipeline finished;
// the result backs the morsels of the aggregate-reading pipeline.
func (t *AggTable) Snapshot() [][]byte {
	return t.AppendRows(make([][]byte, 0, t.Groups()))
}

// AppendRows appends all group rows to dst, shard by shard in entry
// (insertion) order, and returns it.
func (t *AggTable) AppendRows(dst [][]byte) [][]byte {
	for i := range t.shards {
		dst = append(dst, t.shards[i].rows...)
	}
	return dst
}

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
