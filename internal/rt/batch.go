package rt

import "encoding/binary"

// Chunk-batched hash-table kernels. A scalar entry point (FindOrCreate, the
// join probe's Lookup) pays one hash per tuple — interpretation overhead the
// suboperator design is supposed to amortize (paper §IV-D keeps collision
// handling inside the table exactly so primitives can batch around it). The
// batched entry points take a whole chunk of keys hashed as a vector. Every
// table has one writer, its worker, and takes no lock: a chunk is resolved in
// row order, so a build's table depends on the order of its rows only, not on
// how they were chunked (the differential fuzz tests in batch_test.go pin
// this down).

// BatchScratch is the type of the kernels' ignored last parameter, their
// scratch while the join build shared its table between workers.
type BatchScratch struct{}

// shardOf is the join table's shard dispatch: the top hash byte selects the
// shard so the low bits stay free for bucket addressing.
//
//inkfuse:hotpath
func shardOf(h, mask uint64) uint64 { return (h >> 56) & mask }

// HashBatch hashes a whole vector of key blobs into dst (resized as needed)
// — the hashing stage of the batched kernels, kept separate so callers that
// also consult a bloom filter hash each key once.
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
// packed group row for keys[i]. Rows are resolved in chunk order, so the table
// matches the scalar path's byte for byte. The last parameter is ignored.
//
//inkfuse:hotpath
func (t *AggTable) FindOrCreateBatch(keys, seeds [][]byte, hashes []uint64, dst [][]byte, _ *BatchScratch) {
	var seed []byte
	for i, key := range keys {
		if seeds != nil {
			seed = seeds[i]
		}
		dst[i] = t.FindOrCreateSeed(key, hashes[i], seed)
	}
}

// InsertBatch appends a whole chunk of build rows, each to its shard in chunk
// order — the order Seal lays a key's duplicates out in: hashes[i] must be
// Hash64(keys[i]) — the sealed table takes equal hash for equal key where the
// keys are words (Seal) — and payloads may contain nil entries. The last
// parameter is ignored.
//
//inkfuse:hotpath
func (t *JoinTable) InsertBatch(keys, payloads [][]byte, hashes []uint64, _ *BatchScratch) {
	for i, key := range keys {
		h := hashes[i]
		t.shards[shardOf(h, t.shardMask)].insert(key, payloads[i], h)
	}
}

//inkfuse:hotpath
func (s *joinShard) insert(key, payload []byte, h uint64) {
	if k := len(s.blocks) - 1; k < 0 || len(s.blocks[k].rows) == cap(s.blocks[k].rows) {
		s.nextBlock() //inklint:allow call — one per block of entries
	}
	s.budget.Charge(entryOverhead)
	if s.n == 0 {
		s.keyLen = len(key)
	} else if len(key) != s.keyLen {
		s.keyLen = -1
	}
	s.n++
	row := s.arena.Alloc(4 + len(key) + len(payload))
	binary.LittleEndian.PutUint32(row, uint32(len(key)))
	copy(row[4:], key)
	copy(row[4+len(key):], payload)
	b := &s.blocks[len(s.blocks)-1]
	b.rows = append(b.rows, row)   //inklint:allow alloc — within the block's capacity
	b.hashes = append(b.hashes, h) //inklint:allow alloc — within the block's capacity
}

// nextBlock starts filling the shard's next entry block: the one an earlier
// execution left behind in the capacity, or a new one.
func (s *joinShard) nextBlock() {
	k := len(s.blocks)
	if k < cap(s.blocks) && cap(s.blocks[:k+1][k].rows) > 0 {
		s.blocks = s.blocks[:k+1]
		return
	}
	size := joinFirstBlock << min(k, joinBlockDoublings)
	s.blocks = append(s.blocks, entryBlock{make([]uint64, 0, size), make([][]byte, 0, size)})
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
