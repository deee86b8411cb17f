package rt

import "bytes"

// JoinTable is the join hash table. Unlike AggTable it stores duplicate keys
// (paper §IV-E). Each worker of a build pipeline appends packed rows to its
// own table, so a table has one writer and takes no lock. When the pipeline
// finished, one table adopts the others (Adopt) and Seal freezes every shard
// of all of them into one probe layout (DESIGN.md §10): the (hash, row)
// entries regrouped by bucket, a bucket's entries one contiguous run, newest
// first. A probe scans its bucket's run sequentially. Where every key blob of
// a shard has one width of at most 8 bytes — every TPC-H join key — equal
// hash is equal key (Hash64 is a bijection of the key word), and the probe
// never reads a row it does not emit.
type JoinTable struct {
	shards    []joinShard
	shardMask uint64

	// Build-side bloom/tag filter, built at Seal: one byte per bucket-class,
	// sized to ≥2 bytes per build row, indexed by hash bits disjoint from both
	// the shard dispatch (h>>56) and the per-shard bucket index (low bits).
	// Each byte is an 8-way tag block — a probe whose tag bit is clear is a
	// definite miss and never touches bucket or row memory (selective joins:
	// most probes end here).
	filter []byte
	fmask  uint64
}

// JoinShards is the shard count of the tables the engine builds: the seal
// round lays the shards out in parallel.
const JoinShards = 16

// bloomTag picks the in-byte tag bit from hash bits unused by shard and
// bucket addressing.
//
//inkfuse:hotpath
func bloomTag(h uint64) byte { return 1 << ((h >> 40) & 7) }

type joinShard struct {
	// The entries in insertion order: blocks, the last of them being filled,
	// then the adopted tables' blocks (Adopt); n entries in all. Blocks an
	// earlier execution filled wait, emptied, in blocks' capacity (Reset).
	blocks  []entryBlock
	adopted []entryBlock
	n       int
	arena   *Arena
	budget  *MemBudget
	// keyLen is the length every key blob so far has, or -1 once two lengths
	// differ (meaningless while the shard is empty). Where it is at most 8, a
	// probe key of that length matches on the hash alone.
	keyLen int

	// The sealed layout. Bucket b (a hash's low bits, h&mask) holds the
	// entries sealed[start[b]:start[b+1]], newest first.
	start  []int32
	sealed []sealedEntry
	mask   uint64
}

// entryBlock is a run of a shard's entries in insertion order. A shard's
// blocks double in size from joinFirstBlock entries joinBlockDoublings times
// and are never regrown: appending an entry never copies the ones before it,
// so a build allocates about what it keeps without an estimate of its size.
type entryBlock struct {
	hashes []uint64
	rows   [][]byte
}

const (
	joinFirstBlock     = 8
	joinBlockDoublings = 9 // to 4096 entries
)

// runs returns the entry blocks Seal lays out: the shard's own, then the
// adopted ones.
func (s *joinShard) runs() [2][]entryBlock { return [2][]entryBlock{s.blocks, s.adopted} }

// NewJoinTable creates an empty join table (shardCount ≤ 0 means JoinShards).
func NewJoinTable(shardCount int) *JoinTable {
	if shardCount <= 0 {
		shardCount = JoinShards
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

// SetBudget charges this table's future allocations (arena blocks, entry
// bookkeeping, the sealed layout's arrays) to the query budget. Call before
// the build pipeline inserts.
func (t *JoinTable) SetBudget(b *MemBudget) {
	for i := range t.shards {
		s := &t.shards[i]
		s.budget = b
		s.arena.SetBudget(b)
	}
}

// Adopt makes o's rows part of t, after t's own, as if t had received them:
// each shard of t takes the headers of o's entry blocks in the shard, which
// Seal scatters with its own — no entry is copied before that. Call once the
// build has finished; o has t's shard count, is not written again until t is
// reset, and stays its owner's to reset.
func (t *JoinTable) Adopt(o *JoinTable) {
	for i := range t.shards {
		s, a := &t.shards[i], &o.shards[i]
		switch {
		case a.n == 0:
		case s.n == 0:
			s.keyLen = a.keyLen
		case a.keyLen != s.keyLen:
			s.keyLen = -1
		}
		s.n += a.n
		s.adopted = append(s.adopted, a.blocks...)
	}
}

// sealedEntry is an entry of the sealed layout: its hash and row, side by
// side so the scatter writes, and a probe reads, one half of a cache line.
type sealedEntry struct {
	hash uint64
	row  []byte
}

// sealedEntryBytes is the size of a sealedEntry.
const sealedEntryBytes = 8 + sliceHeaderBytes

// Seal lays every shard's entries — its own and the adopted tables' — out by
// bucket and builds the bloom/tag filter over all of them. Must be called
// after the build pipeline completes and before any Lookup. The layout and
// filter arrays reuse the capacity an earlier execution left behind and are
// charged as if new.
func (t *JoinTable) Seal() {
	for i := 0; i < t.SealTasks(); i++ {
		t.SealTask(i)
	}
}

// SealTasks returns the number of independent tasks Seal consists of: the
// bloom filter's and one per shard. Running SealTask(i) for every i below it,
// in any order and on any goroutines, is Seal.
func (t *JoinTable) SealTasks() int { return 1 + len(t.shards) }

// SealTask runs task i of Seal: 0 builds the bloom filter, i ≥ 1 lays out
// shard i-1. The tasks share no memory they write.
func (t *JoinTable) SealTask(i int) {
	if i > 0 {
		t.shards[i-1].seal()
		return
	}
	fcap := uint64(64)
	for fcap < uint64(2*t.Rows()) && fcap < maxBloomBytes {
		fcap <<= 1
	}
	t.shards[0].budget.Charge(int64(fcap))
	filter, fmask := zeroed(t.filter, int(fcap)), fcap-1
	for s := range t.shards {
		for _, run := range t.shards[s].runs() {
			for k := range run {
				run[k].tag(filter, fmask)
			}
		}
	}
	t.filter, t.fmask = filter, fmask
}

// seal counts the shard's entries per bucket, turns the counts into run ends
// and scatters the entries oldest first — its own, then the adopted ones —
// from each run's end, so that a run reads newest first, the order the
// matches of a key are emitted in, and start[b] is left at the run's
// beginning.
func (s *joinShard) seal() {
	n := s.n
	buckets := uint64(16)
	for buckets < uint64(2*n) {
		buckets <<= 1
	}
	s.budget.Charge(int64(buckets+1)*4 + int64(n)*sealedEntryBytes)
	mask := buckets - 1
	start := zeroed(s.start, int(buckets)+1)
	for _, run := range s.runs() {
		for k := range run {
			run[k].count(start, mask)
		}
	}
	end := int32(0)
	for b, c := range start[:buckets] {
		end += c
		start[b] = end
	}
	start[buckets] = int32(n)
	sealed := sized(s.sealed, n)
	for _, run := range s.runs() {
		for k := range run {
			run[k].scatter(sealed, start, mask)
		}
	}
	s.start, s.sealed, s.mask = start, sealed, mask
}

// sized returns s resized to n elements, reallocated only when its capacity
// is short; the caller overwrites every element.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset empties the shard in place, keeping its entry blocks, layout
// capacity and the arena's blocks; the budget is detached.
func (s *joinShard) reset() {
	for k := range s.blocks {
		b := &s.blocks[k]
		b.hashes, b.rows = b.hashes[:0], b.rows[:0]
	}
	clear(s.adopted)
	s.blocks, s.adopted, s.n = s.blocks[:0], s.adopted[:0], 0
	s.start = s.start[:0]
	s.sealed = s.sealed[:0]
	s.mask = 0
	s.arena.Reset()
	s.budget = nil
}

func (s *joinShard) retainedBytes() int64 {
	n := s.arena.RetainedBytes() + int64(cap(s.start))*4 + int64(cap(s.sealed))*sealedEntryBytes +
		int64(cap(s.adopted))*2*sliceHeaderBytes
	for _, b := range s.blocks[:cap(s.blocks)] {
		n += int64(cap(b.hashes))*8 + int64(cap(b.rows))*sliceHeaderBytes
	}
	return n
}

// Reset empties the table in place, unsealed and without adopted rows,
// keeping its memory for the next execution of the owning plan instance.
func (t *JoinTable) Reset() {
	for i := range t.shards {
		t.shards[i].reset()
	}
	t.filter = t.filter[:0]
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

// Rows returns the number of build rows, the adopted tables' included.
func (t *JoinTable) Rows() int {
	n := 0
	for i := range t.shards {
		n += t.shards[i].n
	}
	return n
}

// MatchIter iterates over the build rows matching one probe key. The zero
// value is exhausted. It is a value type so probing allocates nothing.
type MatchIter struct {
	shard   *joinShard
	at, end int32 // the bucket run left to scan
	hash    uint64
	key     []byte
	// cmp is set unless the probe key and every key of the shard are words of
	// one width, where equal hash is equal key.
	cmp bool
}

// Lookup starts a match iteration for a probe key. The table must be sealed.
//
//inkfuse:hotpath
func (t *JoinTable) Lookup(key []byte, h uint64) MatchIter {
	s := &t.shards[(h>>56)&t.shardMask]
	b := h & s.mask
	cmp := len(key) != s.keyLen || len(key) > 8
	return MatchIter{shard: s, at: s.start[b], end: s.start[b+1], hash: h, key: key, cmp: cmp}
}

// Next returns the next matching build row, or nil when exhausted.
//
//inkfuse:hotpath
func (it *MatchIter) Next() []byte {
	s := it.shard
	for it.at < it.end {
		e := &s.sealed[it.at]
		it.at++
		if e.hash == it.hash && (!it.cmp || bytes.Equal(RowKey(e.row), it.key)) {
			return e.row
		}
	}
	return nil
}

// Touch reads the first entry of a probe hash's bucket run — its hash and the
// first byte of its row — without resolving matches. The ROF backend issues
// Touch over a staged chunk before probing, pulling the relevant cache lines
// in with many independent loads (the prefetch staging point of Relaxed
// Operator Fusion).
//
//inkfuse:hotpath
func (t *JoinTable) Touch(h uint64) byte {
	// The filter line is the first stage: a definite miss never pulls bucket
	// or row cache lines, so staged prefetching only streams memory that the
	// probe pass will actually read.
	acc := t.filter[(h>>16)&t.fmask]
	if acc&bloomTag(h) == 0 {
		return acc
	}
	s := &t.shards[(h>>56)&t.shardMask]
	b := h & s.mask
	if e := s.start[b]; e < s.start[b+1] {
		// Returning the byte keeps the loads alive.
		return s.sealed[e].row[0] ^ byte(s.sealed[e].hash)
	}
	return acc
}

// The seal's loops over one block's entries are functions of their own, out
// of line: nested in the loops over shards and blocks, their variables spill
// to the stack.

//go:noinline
func (b *entryBlock) tag(filter []byte, fmask uint64) {
	for _, h := range b.hashes {
		filter[(h>>16)&fmask] |= bloomTag(h)
	}
}

//go:noinline
func (b *entryBlock) count(start []int32, mask uint64) {
	for _, h := range b.hashes {
		start[h&mask]++
	}
}

//go:noinline
func (b *entryBlock) scatter(sealed []sealedEntry, start []int32, mask uint64) {
	rows := b.rows[:len(b.hashes)]
	for e, h := range b.hashes {
		i := h & mask
		q := start[i] - 1
		start[i] = q
		sealed[q] = sealedEntry{h, rows[e]}
	}
}
