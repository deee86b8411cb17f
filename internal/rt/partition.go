package rt

import (
	"encoding/binary"
	"sync"
)

// Local hash-partitioned exchange (DESIGN.md §15). A Partition suboperator at
// a pipeline break hash-routes every packed row into one of P per-partition
// tuple buffers; the downstream build pipeline then runs one morsel per
// partition, so each partition of the build-side hash table is written by
// exactly one worker sequentially. That single-writer discipline is what the
// partitioned table variants below exploit: no shard mutex, no CAS, no
// thread-local spill path.
//
// Routing uses hash bits 48..55 — disjoint from the shard dispatch (h>>56),
// the in-shard bucket index (low bits), the bloom slot (h>>16) and the bloom
// tag (h>>40) — so bloom/tag addressing of the sealed tables is unaffected by
// partitioning.

// MaxPartitions bounds the exchange fan-out: partition indices come from 8
// dedicated hash bits.
const MaxPartitions = 256

// NormalizePartitions rounds n up to a power of two in [1, MaxPartitions] so
// partition dispatch is a mask of the dedicated hash bits.
func NormalizePartitions(n int) int {
	if n < 1 {
		n = 1
	}
	p := 1
	for p < n && p < MaxPartitions {
		p <<= 1
	}
	return p
}

// partitionOf extracts the partition index from the dedicated routing bits.
//
//inkfuse:hotpath
func partitionOf(h, pmask uint64) uint64 { return (h >> 48) & pmask }

// ExchangeState is the shared runtime state of one exchange: the Partition
// suboperator of the routing pipeline writes into it through per-worker
// ExchangeWriters, and the downstream pipeline's ExchangeRead source reads the
// sealed per-partition row lists, one morsel per partition.
type ExchangeState struct {
	// Partitions is the exchange fan-out (power of two ≤ MaxPartitions).
	Partitions int

	mu      sync.Mutex
	budget  *MemBudget
	writers []*ExchangeWriter

	sealed   bool
	parts    [][][]byte // per-partition row lists, set by Seal
	partRows []int64    // per-partition routed-row counts (skew counters)
	routed   int64
}

// ExchangeWriter is one worker's private routing buffer: per-partition row
// lists backed by a worker-owned arena. Not safe for concurrent use.
type ExchangeWriter struct {
	pmask uint64
	arena *Arena
	rows  [][][]byte
}

// SetBudget charges all future routing-buffer allocations to the query
// budget. Call before the routing pipeline runs; writers created afterwards
// inherit it, and writers retained from an earlier execution pay for their
// arena blocks again as they refill them.
func (s *ExchangeState) SetBudget(b *MemBudget) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.budget = b
	for _, w := range s.writers {
		w.arena.SetBudget(b)
	}
}

// NewWriter registers a fresh per-worker writer. Registration is the one cold
// locked step of the exchange; all routing happens through the returned
// writer without synchronization.
func (s *ExchangeState) NewWriter() *ExchangeWriter {
	p := NormalizePartitions(s.Partitions)
	w := &ExchangeWriter{
		pmask: uint64(p - 1),
		arena: NewArena(0),
		rows:  make([][][]byte, p),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w.arena.SetBudget(s.budget)
	s.budget.Charge(int64(p) * sliceHeaderBytes) // per-partition slice headers
	s.writers = append(s.writers, w)
	return w
}

// Route copies one packed row into the partition its key hash selects. The
// copy pins the row beyond the source chunk's lifetime (tuple-buffer vectors
// are reused per morsel).
//
//inkfuse:hotpath
func (w *ExchangeWriter) Route(row []byte, h uint64) {
	p := partitionOf(h, w.pmask)
	cp := w.arena.Alloc(len(row))
	copy(cp, row)
	w.rows[p] = append(w.rows[p], cp) //inklint:allow alloc — amortized — per-partition row lists double; O(1) amortized per routed row
}

// Seal concatenates the per-worker buffers into per-partition row lists and
// computes the routing/skew counters. Called once by the scheduler when the
// routing pipeline finalizes; within a partition rows keep worker order, and
// worker registration order is scheduler-determined but irrelevant to the
// downstream build (partitioned table contents are order-insensitive for
// aggregation and sealed per-partition for joins). The row lists reuse the
// capacity an earlier execution left behind and are charged as if new.
func (s *ExchangeState) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return
	}
	p := NormalizePartitions(s.Partitions)
	if len(s.parts) != p {
		s.parts = make([][][]byte, p)
		s.partRows = make([]int64, p)
	}
	s.routed = 0
	for pi := 0; pi < p; pi++ {
		n := 0
		for _, w := range s.writers {
			if pi < len(w.rows) {
				n += len(w.rows[pi])
			}
		}
		s.budget.Charge(int64(n) * sliceHeaderBytes)
		part := s.parts[pi][:0]
		if cap(part) < n {
			part = make([][]byte, 0, n)
		}
		for _, w := range s.writers {
			if pi < len(w.rows) {
				part = append(part, w.rows[pi]...)
			}
		}
		s.parts[pi] = part
		s.partRows[pi] = int64(n)
		s.routed += int64(n)
	}
	s.sealed = true
}

// Sealed reports whether Seal ran.
func (s *ExchangeState) Sealed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealed
}

// PartitionRows returns partition p's sealed row list.
func (s *ExchangeState) PartitionRows(p int) [][]byte { return s.parts[p] }

// PartRows returns the per-partition routed-row counts (skew counters).
func (s *ExchangeState) PartRows() []int64 { return s.partRows }

// Routed returns the total number of rows routed through the exchange.
func (s *ExchangeState) Routed() int64 { return s.routed }

// MaxPartRows returns the largest partition's row count — the skew signal
// surfaced by EXPLAIN ANALYZE and the benchmark counters.
func (s *ExchangeState) MaxPartRows() int64 {
	var m int64
	for _, n := range s.partRows {
		m = max(m, n)
	}
	return m
}

// Reset empties the exchange in place, unsealed, making the owning plan
// reusable for another execution: the registered writers stay (the worker
// contexts that own them are kept alongside, DESIGN.md §16) with their arenas
// rewound, and the per-partition row lists keep their capacity.
func (s *ExchangeState) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.budget = nil
	s.sealed = false
	s.routed = 0
	for _, w := range s.writers {
		for i := range w.rows {
			w.rows[i] = w.rows[i][:0]
		}
		w.arena.Reset()
	}
	for i := range s.parts {
		s.parts[i] = s.parts[i][:0]
	}
	clear(s.partRows)
}

// Drop releases all routed rows, writers and their memory; the next execution
// starts from an empty exchange. The worker contexts holding the old writers
// must be dropped with it.
func (s *ExchangeState) Drop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.budget = nil
	s.writers = nil
	s.sealed = false
	s.parts = nil
	s.partRows = nil
	s.routed = 0
}

// RetainedBytes returns the memory the exchange holds on to across Reset.
func (s *ExchangeState) RetainedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, w := range s.writers {
		n += w.arena.RetainedBytes()
		for _, rows := range w.rows {
			n += int64(cap(rows)) * sliceHeaderBytes
		}
	}
	for _, part := range s.parts {
		n += int64(cap(part)) * sliceHeaderBytes
	}
	return n
}

// PartitionedAggTable is the exchange-side aggregation table: one unsharded,
// completely lock-free part per partition. Each part is written by exactly
// one worker (the partition's single morsel), so FindOrCreate takes no lock
// and never spills through a thread-local table — with exchange on, the
// ht_spills counter stays 0 on these paths by construction.
type PartitionedAggTable struct {
	payloadInit []byte
	parts       []aggShard
	pmask       uint64
}

// NewPartitionedAggTable creates a partitioned table whose new groups start
// with the given payload template.
func NewPartitionedAggTable(payloadInit []byte, partitions int) *PartitionedAggTable {
	p := NormalizePartitions(partitions)
	t := &PartitionedAggTable{
		payloadInit: append([]byte(nil), payloadInit...),
		parts:       make([]aggShard, p),
		pmask:       uint64(p - 1),
	}
	for i := range t.parts {
		t.parts[i].init()
	}
	return t
}

// Partitions returns the partition count (power of two).
func (t *PartitionedAggTable) Partitions() int { return len(t.parts) }

// Reset empties the table in place, keeping its memory for the next execution
// of the owning plan instance.
func (t *PartitionedAggTable) Reset() {
	for i := range t.parts {
		t.parts[i].reset()
	}
}

// RetainedBytes returns the memory the table holds on to across Reset.
func (t *PartitionedAggTable) RetainedBytes() int64 {
	var n int64
	for i := range t.parts {
		n += t.parts[i].retainedBytes()
	}
	return n
}

// SetBudget charges this table's future allocations to the query budget.
func (t *PartitionedAggTable) SetBudget(b *MemBudget) {
	for i := range t.parts {
		s := &t.parts[i]
		s.budget = b
		s.arena.SetBudget(b)
	}
}

// FindOrCreate returns the packed group row for the key, creating it if
// absent. NOT safe for concurrent use on one partition: the caller must hold
// the exchange's single-writer discipline (all keys of one morsel route to
// one partition, and each partition is one morsel).
//
//inkfuse:hotpath
func (t *PartitionedAggTable) FindOrCreate(key []byte, h uint64) []byte {
	return t.FindOrCreateSeed(key, h, nil)
}

// FindOrCreateSeed is FindOrCreate with per-group creation extras (see
// AggTable.FindOrCreateSeed). Lock-free: partition ownership replaces the
// shard mutex.
//
//inkfuse:hotpath
func (t *PartitionedAggTable) FindOrCreateSeed(key []byte, h uint64, seed []byte) []byte {
	s := &t.parts[partitionOf(h, t.pmask)]
	return s.findOrCreate(key, h, t.payloadInit, seed)
}

// FindOrCreateBatch resolves a whole chunk of keys without locks: under the
// exchange every key of the chunk routes to the same single-writer partition,
// so there is nothing to group or lock — the batch is a straight loop over
// the part's open-addressing probe.
//
//inkfuse:hotpath
func (t *PartitionedAggTable) FindOrCreateBatch(keys, seeds [][]byte, hashes []uint64, dst [][]byte) {
	var seed []byte
	for i, k := range keys {
		if seeds != nil {
			seed = seeds[i]
		}
		dst[i] = t.FindOrCreateSeed(k, hashes[i], seed)
	}
}

// Groups returns the number of groups across all partitions.
func (t *PartitionedAggTable) Groups() int {
	n := 0
	for i := range t.parts {
		n += len(t.parts[i].rows)
	}
	return n
}

// Resizes returns the total number of bucket-array resizes (stats).
func (t *PartitionedAggTable) Resizes() int64 {
	var n int64
	for i := range t.parts {
		n += t.parts[i].resizes
	}
	return n
}

// AppendRows appends all group rows to dst, partition by partition in entry
// (insertion) order, and returns it. Called once the build pipeline finished;
// the result backs the morsels of the aggregate-reading pipeline.
func (t *PartitionedAggTable) AppendRows(dst [][]byte) [][]byte {
	for i := range t.parts {
		dst = append(dst, t.parts[i].rows...)
	}
	return dst
}

// PartitionedJoinTable is the exchange-side join table: one unsharded part
// per partition, inserted into lock-free under the exchange's single-writer
// discipline, sealed into per-part chained buckets plus a shared bloom/tag
// filter with exactly the addressing of the sharded JoinTable (slot h>>16,
// tag h>>40).
type PartitionedJoinTable struct {
	parts  []joinShard
	pmask  uint64
	sealed bool

	filter []byte
	fmask  uint64
}

// NewPartitionedJoinTable creates an empty partitioned join table.
func NewPartitionedJoinTable(partitions int) *PartitionedJoinTable {
	p := NormalizePartitions(partitions)
	t := &PartitionedJoinTable{parts: make([]joinShard, p), pmask: uint64(p - 1)}
	for i := range t.parts {
		t.parts[i].arena = NewArena(0)
	}
	return t
}

// Partitions returns the partition count (power of two).
func (t *PartitionedJoinTable) Partitions() int { return len(t.parts) }

// SetBudget charges this table's future allocations to the query budget.
func (t *PartitionedJoinTable) SetBudget(b *MemBudget) {
	for i := range t.parts {
		s := &t.parts[i]
		s.budget = b
		s.arena.SetBudget(b)
	}
}

// Insert adds a packed row to the key's partition. Lock-free: NOT safe for
// concurrent use on one partition; the exchange guarantees each partition is
// built by exactly one worker.
//
//inkfuse:hotpath
func (t *PartitionedJoinTable) Insert(key, payload []byte, h uint64) {
	s := &t.parts[partitionOf(h, t.pmask)]
	s.budget.Charge(entryOverhead)
	row := s.arena.Alloc(4 + len(key) + len(payload))
	binary.LittleEndian.PutUint32(row, uint32(len(key)))
	copy(row[4:], key)
	copy(row[4+len(key):], payload)
	s.rows = append(s.rows, row)   //inklint:allow alloc — amortized — part entry arrays double
	s.hashes = append(s.hashes, h) //inklint:allow alloc — amortized — part entry arrays double
}

// InsertBatch appends a whole chunk of build rows lock-free: under the
// exchange the chunk belongs to one partition, so no shard grouping or lock
// acquisition is needed.
//
//inkfuse:hotpath
func (t *PartitionedJoinTable) InsertBatch(keys, payloads [][]byte, hashes []uint64) {
	for i, k := range keys {
		t.Insert(k, payloads[i], hashes[i])
	}
}

// Seal builds per-partition bucket arrays and the shared bloom/tag filter.
// Must be called after the build pipeline completes and before any Lookup.
func (t *PartitionedJoinTable) Seal() {
	t.filter, t.fmask = sealShards(t.parts, t.filter)
	t.sealed = true
}

// Reset empties the table in place, unsealed, keeping its memory for the next
// execution of the owning plan instance.
func (t *PartitionedJoinTable) Reset() {
	for i := range t.parts {
		t.parts[i].reset()
	}
	t.filter = t.filter[:0]
	t.sealed = false
}

// RetainedBytes returns the memory the table holds on to across Reset.
func (t *PartitionedJoinTable) RetainedBytes() int64 {
	n := int64(cap(t.filter))
	for i := range t.parts {
		n += t.parts[i].retainedBytes()
	}
	return n
}

// MayContain consults the shared bloom/tag filter. The table must be sealed.
//
//inkfuse:hotpath
func (t *PartitionedJoinTable) MayContain(h uint64) bool {
	return t.filter[(h>>16)&t.fmask]&bloomTag(h) != 0
}

// Rows returns the number of build rows.
func (t *PartitionedJoinTable) Rows() int {
	n := 0
	for i := range t.parts {
		n += len(t.parts[i].rows)
	}
	return n
}

// PartRows returns the per-partition build-row counts (skew counters).
func (t *PartitionedJoinTable) PartRows() []int64 {
	out := make([]int64, len(t.parts))
	for i := range t.parts {
		out[i] = int64(len(t.parts[i].rows))
	}
	return out
}

// Lookup starts a match iteration for a probe key, dispatching on the same
// routing bits the build side used. It returns the sharded table's MatchIter
// value type, so probe loops are identical for both table variants.
//
//inkfuse:hotpath
func (t *PartitionedJoinTable) Lookup(key []byte, h uint64) MatchIter {
	s := &t.parts[partitionOf(h, t.pmask)]
	return MatchIter{shard: s, at: s.buckets[h&s.mask], hash: h, key: key}
}

// LookupBatch runs a whole chunk of probe hashes through the shared bloom/tag
// filter (see JoinTable.LookupBatch).
//
//inkfuse:hotpath
func (t *PartitionedJoinTable) LookupBatch(hashes []uint64, sel []int32) ([]int32, int) {
	f, m := t.filter, t.fmask
	skips := 0
	for i, h := range hashes {
		if f[(h>>16)&m]&bloomTag(h) != 0 {
			sel = append(sel, int32(i)) //inklint:allow alloc — sel grows to chunk size once; caller reuses the buffer
		} else {
			skips++
		}
	}
	return sel, skips
}

// Touch reads the filter line and, on a possible match, the partition's
// bucket head and first row header (ROF prefetch staging).
//
//inkfuse:hotpath
func (t *PartitionedJoinTable) Touch(key []byte, h uint64) byte {
	acc := t.filter[(h>>16)&t.fmask]
	if acc&bloomTag(h) == 0 {
		return acc
	}
	s := &t.parts[partitionOf(h, t.pmask)]
	b := s.buckets[h&s.mask]
	if b != 0 {
		e := b - 1
		return s.rows[e][0] ^ byte(s.hashes[e])
	}
	return acc
}

// Exists reports whether any build row matches the key (semi joins).
//
//inkfuse:hotpath
func (t *PartitionedJoinTable) Exists(key []byte, h uint64) bool {
	it := t.Lookup(key, h)
	return it.Next() != nil
}

// JoinIndex is the probe-side surface shared by the sharded JoinTable and the
// exchange's PartitionedJoinTable: generated probe and prefetch code works
// against this interface, so probing is identical whether the build was
// partitioned or not.
type JoinIndex interface {
	MayContain(h uint64) bool
	Lookup(key []byte, h uint64) MatchIter
	LookupBatch(hashes []uint64, sel []int32) ([]int32, int)
	Touch(key []byte, h uint64) byte
	Exists(key []byte, h uint64) bool
	Rows() int
}

var (
	_ JoinIndex = (*JoinTable)(nil)
	_ JoinIndex = (*PartitionedJoinTable)(nil)
)
