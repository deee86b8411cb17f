package rt

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sync"
)

// JoinTable is the join hash table. Unlike AggTable it stores duplicate keys
// (paper §IV-E). The build phase appends packed rows under shard locks; Seal
// freezes the table into lock-free chained buckets for probing.
type JoinTable struct {
	shards    []joinShard
	shardMask uint64
	sealed    bool

	// Build-side bloom/tag filter, built at Seal: one byte per bucket-class,
	// sized to ≥2 bytes per build row, indexed by hash bits disjoint from both
	// the shard dispatch (h>>56) and the per-shard bucket index (low bits).
	// Each byte is an 8-way tag block — a probe whose tag bit is clear is a
	// definite miss and never touches bucket or row memory (selective joins:
	// most probes end here).
	filter []byte
	fmask  uint64
}

// bloomTag picks the in-byte tag bit from hash bits unused by shard and
// bucket addressing.
//
//inkfuse:hotpath
func bloomTag(h uint64) byte { return 1 << ((h >> 40) & 7) }

type joinShard struct {
	mu      sync.Mutex
	rows    [][]byte
	hashes  []uint64
	arena   *Arena
	budget  *MemBudget
	buckets []int32 // entry index + 1; 0 = empty
	next    []int32 // chain: entry index + 1; 0 = end
	mask    uint64
}

// NewJoinTable creates an empty join table.
func NewJoinTable(shardCount int) *JoinTable {
	if shardCount <= 0 {
		shardCount = 16
	}
	sc := 1
	for sc < shardCount {
		sc <<= 1
	}
	t := &JoinTable{shards: make([]joinShard, sc), shardMask: uint64(sc - 1)}
	for i := range t.shards {
		t.shards[i].arena = NewArena(0)
	}
	return t
}

// ShardCount reports the table's shard-array size (always a power of two).
func (t *JoinTable) ShardCount() int { return len(t.shards) }

// SetBudget charges this table's future allocations (arena blocks, entry
// bookkeeping, seal-time bucket arrays) to the query budget. Call before the
// build pipeline inserts.
func (t *JoinTable) SetBudget(b *MemBudget) {
	for i := range t.shards {
		s := &t.shards[i]
		s.budget = b
		s.arena.SetBudget(b)
	}
}

// Insert adds a packed row (key blob + payload blob) to the table. Safe for
// concurrent use during the build pipeline.
//
//inkfuse:hotpath
func (t *JoinTable) Insert(key, payload []byte, h uint64) {
	s := &t.shards[(h>>56)&t.shardMask]
	s.mu.Lock()
	// Deferred so a memory-budget panic from the arena cannot strand the
	// shard lock while the scheduler drains the remaining workers.
	defer s.mu.Unlock()
	s.budget.Charge(entryOverhead)
	row := s.arena.Alloc(4 + len(key) + len(payload))
	binary.LittleEndian.PutUint32(row, uint32(len(key)))
	copy(row[4:], key)
	copy(row[4+len(key):], payload)
	s.rows = append(s.rows, row)   //inklint:allow alloc — amortized — shard entry arrays double
	s.hashes = append(s.hashes, h) //inklint:allow alloc — amortized — shard entry arrays double
}

// Reserve readies the table for about n build rows in all: every shard's
// entry arrays grow, once, to an even share of n plus an eighth for hash skew,
// where appending row by row would have reallocated and copied them a dozen
// times on the way (the runtime grows a large slice by a quarter at a time,
// so the copies add up to four times the final size). Safe for concurrent use
// with inserts; a table that already has the capacity is left alone.
func (t *JoinTable) Reserve(n int) {
	per := n / len(t.shards)
	per += per/8 + 8
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		if extra := per - len(s.rows); extra > 0 {
			s.rows = slices.Grow(s.rows, extra)
			s.hashes = slices.Grow(s.hashes, extra)
		}
		s.mu.Unlock()
	}
}

// Seal chains every shard's entries into buckets and builds the shared
// bloom/tag filter over all of them. Must be called after the build pipeline
// completes and before any Lookup. Bucket, chain and filter arrays reuse the
// capacity an earlier execution left behind and are charged as if new.
func (t *JoinTable) Seal() {
	total := 0
	for i := range t.shards {
		s := &t.shards[i]
		n := len(s.rows)
		total += n
		cap := uint64(16)
		for cap < uint64(2*n) {
			cap <<= 1
		}
		s.budget.Charge(int64(cap)*4 + int64(n)*4)
		s.buckets = zeroed(s.buckets, int(cap))
		s.next = zeroed(s.next, n)
		s.mask = cap - 1
		for e := 0; e < n; e++ {
			i := s.hashes[e] & s.mask
			s.next[e] = s.buckets[i]
			s.buckets[i] = int32(e + 1)
		}
	}
	fcap := uint64(64)
	for fcap < uint64(2*total) && fcap < maxBloomBytes {
		fcap <<= 1
	}
	t.shards[0].budget.Charge(int64(fcap))
	filter, fmask := zeroed(t.filter, int(fcap)), fcap-1
	for i := range t.shards {
		for _, h := range t.shards[i].hashes {
			filter[(h>>16)&fmask] |= bloomTag(h)
		}
	}
	t.filter, t.fmask = filter, fmask
	t.sealed = true
}

// reset empties the shard in place, keeping entry, bucket and chain capacity
// and the arena's blocks; the budget is detached.
func (s *joinShard) reset() {
	s.rows = s.rows[:0]
	s.hashes = s.hashes[:0]
	s.buckets = s.buckets[:0]
	s.next = s.next[:0]
	s.mask = 0
	s.arena.Reset()
	s.budget = nil
}

func (s *joinShard) retainedBytes() int64 {
	return s.arena.RetainedBytes() + int64(cap(s.rows))*sliceHeaderBytes +
		int64(cap(s.hashes))*8 + int64(cap(s.buckets)+cap(s.next))*4
}

// Reset empties the table in place, unsealed, keeping its memory for the next
// execution of the owning plan instance. Not safe for concurrent use.
func (t *JoinTable) Reset() {
	for i := range t.shards {
		t.shards[i].reset()
	}
	t.filter = t.filter[:0]
	t.sealed = false
}

// RetainedBytes returns the memory the table holds on to across Reset.
func (t *JoinTable) RetainedBytes() int64 {
	n := int64(cap(t.filter))
	for i := range t.shards {
		n += t.shards[i].retainedBytes()
	}
	return n
}

// maxBloomBytes caps the filter at 64 MiB; past that the tag density is low
// enough that a bigger filter stops paying for its cache footprint.
const maxBloomBytes = 1 << 26

// MayContain consults the bloom/tag filter: false means no build row can
// match a key with this hash (no false negatives). The table must be sealed.
//
//inkfuse:hotpath
func (t *JoinTable) MayContain(h uint64) bool {
	return t.filter[(h>>16)&t.fmask]&bloomTag(h) != 0
}

// Rows returns the number of build rows.
func (t *JoinTable) Rows() int {
	n := 0
	for i := range t.shards {
		n += len(t.shards[i].rows)
	}
	return n
}

// MatchIter iterates over the build rows matching one probe key. The zero
// value is exhausted. It is a value type so probing allocates nothing.
type MatchIter struct {
	shard *joinShard
	at    int32 // entry index + 1; 0 = end
	hash  uint64
	key   []byte
}

// Lookup starts a match iteration for a probe key. The table must be sealed.
//
//inkfuse:hotpath
func (t *JoinTable) Lookup(key []byte, h uint64) MatchIter {
	s := &t.shards[(h>>56)&t.shardMask]
	return MatchIter{shard: s, at: s.buckets[h&s.mask], hash: h, key: key}
}

// Next returns the next matching build row, or nil when exhausted.
//
//inkfuse:hotpath
func (it *MatchIter) Next() []byte {
	for it.at != 0 {
		e := it.at - 1
		it.at = it.shard.next[e]
		if it.shard.hashes[e] == it.hash && bytes.Equal(RowKey(it.shard.rows[e]), it.key) {
			return it.shard.rows[e]
		}
	}
	return nil
}

// Touch reads the bucket head and first chained row header for a key without
// resolving matches. The ROF backend issues Touch over a staged chunk before
// probing, pulling the relevant cache lines in with many independent loads
// (the prefetch staging point of Relaxed Operator Fusion).
//
//inkfuse:hotpath
func (t *JoinTable) Touch(key []byte, h uint64) byte {
	// The filter line is the first stage: a definite miss never pulls bucket
	// or row cache lines, so staged prefetching only streams memory that the
	// probe pass will actually walk.
	acc := t.filter[(h>>16)&t.fmask]
	if acc&bloomTag(h) == 0 {
		return acc
	}
	s := &t.shards[(h>>56)&t.shardMask]
	b := s.buckets[h&s.mask]
	if b != 0 {
		e := b - 1
		// Touch the chain entry and the first bytes of the row; returning the
		// byte keeps the loads alive.
		return s.rows[e][0] ^ byte(s.hashes[e])
	}
	return acc
}

// Exists reports whether any build row matches the key (semi joins).
//
//inkfuse:hotpath
func (t *JoinTable) Exists(key []byte, h uint64) bool {
	it := t.Lookup(key, h)
	return it.Next() != nil
}
