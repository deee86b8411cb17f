package rt

import (
	"encoding/binary"
	"slices"
)

// Chunk-batched hash-table kernels. A scalar entry point (FindOrCreate, the
// join probe's Lookup) pays one hash, one shard dispatch and, to build, one
// mutex acquire per tuple — interpretation overhead the suboperator design is
// supposed to amortize (paper §IV-D keeps collision handling inside the table
// exactly so primitives can batch around it). The batched entry points take a
// whole chunk of keys, hash it as a vector, group the row indices by shard
// with a counting sort, and then take each shard's lock once per (chunk,
// shard) instead of once per row. Within a shard the rows keep their chunk
// order, so a build's table depends on the order of its rows only, not on how
// they were chunked (the differential fuzz tests in batch_test.go pin this
// down).

// BatchScratch holds the reusable buffers of one call site's chunk-batched
// table kernels (per-shard segment bounds and the shard-grouped row order).
// It is not safe for concurrent use; each worker owns its own instance and
// reuses it across chunks, so the steady-state kernels allocate nothing.
type BatchScratch struct {
	starts []int32 // per-shard segment starts (prefix sums), len shards+1
	fill   []int32 // per-shard scatter cursors
	order  []int32 // row indices grouped by shard, chunk order within a shard
}

// shardOf is every entry point's shard dispatch: the top hash byte selects
// the shard so the low bits stay free for bucket addressing.
//
//inkfuse:hotpath
func shardOf(h, mask uint64) uint64 { return (h >> 56) & mask }

// groupByShard buckets the chunk's row indices by shard. Rows of shard s are
// order[starts[s]:starts[s+1]], in their original chunk order (the counting
// sort is stable), which keeps a table's contents independent of chunking.
//
//inkfuse:hotpath
func (sc *BatchScratch) groupByShard(hashes []uint64, shardMask uint64) (starts, order []int32) {
	shards := int(shardMask) + 1
	if cap(sc.starts) < shards+1 {
		sc.starts = make([]int32, shards+1) //inklint:allow alloc — scratch sized to shard count on first batch, reused after
		sc.fill = make([]int32, shards+1)   //inklint:allow alloc — scratch sized to shard count on first batch, reused after
	}
	starts = sc.starts[:shards+1]
	for i := range starts {
		starts[i] = 0
	}
	for _, h := range hashes {
		starts[shardOf(h, shardMask)+1]++
	}
	for s := 1; s <= shards; s++ {
		starts[s] += starts[s-1]
	}
	fill := sc.fill[:shards+1]
	copy(fill, starts)
	if cap(sc.order) < len(hashes) {
		sc.order = make([]int32, len(hashes)) //inklint:allow alloc — scratch grows to max batch rows once, reused after
	}
	order = sc.order[:len(hashes)]
	for i, h := range hashes {
		s := shardOf(h, shardMask)
		order[fill[s]] = int32(i)
		fill[s]++
	}
	return starts, order
}

// HashBatch hashes a whole vector of key blobs into dst (resized as needed)
// — the hashing stage of the batched kernels, kept separate so callers that
// also consult thread-local tables or bloom filters hash each key once.
//
//inkfuse:hotpath
func HashBatch(keys [][]byte, dst []uint64) []uint64 {
	if cap(dst) < len(keys) {
		dst = make([]uint64, len(keys)) //inklint:allow alloc — hash buffer grows to chunk size once; caller reuses it
	}
	dst = dst[:len(keys)]
	for i, k := range keys {
		dst[i] = Hash64(k)
	}
	return dst
}

// FindOrCreateBatch resolves a whole chunk of aggregation keys: hashes[i]
// must be Hash64(keys[i]) (use HashBatch), seeds may be nil or parallel to
// keys (per-group creation extras, see FindOrCreateSeed). dst[i] receives the
// packed group row for keys[i]. Each shard's lock is taken once per
// (chunk, shard), and the shard's bucket array is pre-sized for the whole
// batch so a resize never stalls co-locked rows mid-batch.
//
//inkfuse:hotpath
func (t *AggTable) FindOrCreateBatch(keys, seeds [][]byte, hashes []uint64, dst [][]byte, sc *BatchScratch) {
	starts, order := sc.groupByShard(hashes, t.shardMask)
	for si := range t.shards {
		lo, hi := starts[si], starts[si+1]
		if lo == hi {
			continue
		}
		t.shards[si].findOrCreateBatch(order[lo:hi], keys, seeds, hashes, dst, t.payloadInit)
	}
}

//inkfuse:hotpath
func (s *aggShard) findOrCreateBatch(idxs []int32, keys, seeds [][]byte, hashes []uint64, dst [][]byte, init []byte) {
	s.mu.Lock()
	// Deferred for the same reason as the scalar path: a memory-budget panic
	// out of the arena must not strand the shard lock mid-drain.
	defer s.mu.Unlock()
	s.reserve(len(idxs)) //inklint:allow call — amortized pre-size so buckets never resize mid-batch under the lock
	var seed []byte
	for _, i := range idxs {
		if seeds != nil {
			seed = seeds[i]
		}
		dst[i] = s.findOrCreate(keys[i], hashes[i], init, seed)
	}
}

// InsertBatch appends a whole chunk of build rows: hashes[i] must be
// Hash64(keys[i]) — the sealed table takes equal hash for equal key where the
// keys are words (Seal) — and payloads may contain nil entries. One lock
// acquire per (chunk, shard); within a shard rows keep their chunk order, the
// order Seal lays a key's duplicates out in.
//
//inkfuse:hotpath
func (t *JoinTable) InsertBatch(keys, payloads [][]byte, hashes []uint64, sc *BatchScratch) {
	starts, order := sc.groupByShard(hashes, t.shardMask)
	for si := range t.shards {
		lo, hi := starts[si], starts[si+1]
		if lo == hi {
			continue
		}
		t.shards[si].insertBatch(order[lo:hi], keys, payloads, hashes)
	}
}

//inkfuse:hotpath
func (s *joinShard) insertBatch(idxs []int32, keys, payloads [][]byte, hashes []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if need := len(s.rows) + len(idxs); need > cap(s.rows) {
		// Until JoinTable.Reserve has an estimate (and where a build outgrows
		// it), the entry arrays double: append alone grows a large slice by a
		// quarter, copying it four times over on the way to its final size.
		extra := max(need, 2*cap(s.rows)) - len(s.rows)
		s.rows = slices.Grow(s.rows, extra)     //inklint:allow call — amortized — shard entry arrays double
		s.hashes = slices.Grow(s.hashes, extra) //inklint:allow call — amortized — shard entry arrays double
	}
	for _, i := range idxs {
		s.budget.Charge(entryOverhead)
		key, payload := keys[i], payloads[i]
		if len(s.rows) == 0 {
			s.keyLen = len(key)
		} else if len(key) != s.keyLen {
			s.keyLen = -1
		}
		row := s.arena.Alloc(4 + len(key) + len(payload))
		binary.LittleEndian.PutUint32(row, uint32(len(key)))
		copy(row[4:], key)
		copy(row[4+len(key):], payload)
		s.rows = append(s.rows, row)           //inklint:allow alloc — within the capacity ensured above
		s.hashes = append(s.hashes, hashes[i]) //inklint:allow alloc — within the capacity ensured above
	}
}

// LookupBatch runs a whole chunk of probe hashes through the build-side
// bloom/tag filter (built at Seal), appending the indices that *may* match to
// sel and returning it plus the number of definite misses that never touched
// bucket memory. The table must be sealed.
//
//inkfuse:hotpath
func (t *JoinTable) LookupBatch(hashes []uint64, sel []int32) ([]int32, int) {
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
