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
// safe for concurrent use. A table is one open-addressing array of (hash,
// row) slots over one entry list in insertion order, the order Rows
// returns; where its keys are words of one width, a lookup reads one slot and
// no row (keyLen, DESIGN.md §10).
type AggTable struct {
	payloadInit []byte
	slots       []aggSlot // row nil = empty
	mask        uint64
	hashes      []uint64 // Hash64 of each entry's key
	rows        [][]byte
	// keyLen is the length every key blob so far has, or -1 once two lengths
	// differ (meaningless while the table is empty). Where it is at most 8, a
	// key of that length matches on the hash alone.
	keyLen  int
	arena   *Arena
	budget  *MemBudget
	resizes int64
}

// aggSlot is a group's hash beside its row: a probe reads one slot.
type aggSlot struct {
	hash uint64
	row  []byte
}

// aggSlotBytes is the size of an aggSlot.
const aggSlotBytes = 8 + sliceHeaderBytes

// entryOverhead approximates the per-entry bookkeeping bytes outside the
// arena (the entry list's hash and row header) charged to a MemBudget; the
// slots are charged as the array grows.
const entryOverhead = 32

// aggInitSlots is a table's slot count before its first growth; the initial
// array is not charged to a budget.
const aggInitSlots = 64

// NewAggTable creates a table whose new groups start with the given payload
// template (e.g. +Inf for MIN slots, zeroes for SUM/COUNT). The second
// argument is ignored: a table has no shards since it has one writer.
func NewAggTable(payloadInit []byte, _ int) *AggTable {
	return &AggTable{
		payloadInit: append([]byte(nil), payloadInit...),
		slots:       make([]aggSlot, aggInitSlots),
		mask:        aggInitSlots - 1,
		arena:       NewArena(0),
	}
}

// Reset empties the table in place, keeping its memory for the next execution
// of the owning plan instance: entry lists truncated, the arena rewound, the
// budget detached, and the slot array back at its initial *logical* size
// with its capacity kept — grow re-extends into that capacity and charges
// the same deltas a fresh table would, so a reused table meets a memory
// budget at the same insert a new one does. Groups re-inserted in the same
// order land in the same entry order: Rows lists entries, not slots.
func (t *AggTable) Reset() {
	t.slots = t.slots[:aggInitSlots]
	clear(t.slots)
	t.mask = aggInitSlots - 1
	t.hashes = t.hashes[:0]
	t.rows = t.rows[:0]
	t.arena.Reset()
	t.budget = nil
	t.resizes = 0
}

// RetainedBytes returns the memory the table holds on to across Reset.
func (t *AggTable) RetainedBytes() int64 {
	return t.arena.RetainedBytes() + int64(cap(t.slots))*aggSlotBytes +
		int64(cap(t.hashes))*8 + int64(cap(t.rows))*sliceHeaderBytes
}

// FindOrCreate returns the packed row for the key, creating and initializing
// it if absent. h must be Hash64(key).
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
	word := len(key) <= 8 && len(key) == t.keyLen
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.row == nil {
			return t.insert(i, key, h, seed)
		}
		if s.hash == h && (word || bytes.Equal(RowKey(s.row), key)) {
			return s.row
		}
	}
}

// FindOrCreateWord is FindOrCreateSeed for the width-byte key blob (width ≤
// 8) held in the low bytes of w, little-endian, with h = HashWord(w, width):
// the fused programs' entry point for a key assembled in a register. While
// every key in the table has this width, a probe compares hashes only and
// the blob is written out for a new group alone.
//
//inkfuse:hotpath
func (t *AggTable) FindOrCreateWord(w uint64, width int, h uint64, seed []byte) []byte {
	var key [8]byte
	binary.LittleEndian.PutUint64(key[:], w)
	if width != t.keyLen {
		return t.FindOrCreateSeed(key[:width], h, seed)
	}
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.row == nil {
			return t.insert(i, key[:width], h, seed)
		}
		if s.hash == h {
			return s.row
		}
	}
}

// insert creates the group of key in the empty slot i.
//
//inkfuse:hotpath
func (t *AggTable) insert(i uint64, key []byte, h uint64, seed []byte) []byte {
	t.budget.Charge(entryOverhead)
	if len(t.rows) == 0 {
		t.keyLen = len(key)
	} else if len(key) != t.keyLen {
		t.keyLen = -1
	}
	init := t.payloadInit
	row := t.arena.Alloc(4 + len(key) + len(init) + len(seed))
	binary.LittleEndian.PutUint32(row, uint32(len(key)))
	copy(row[4:], key)
	copy(row[4+len(key):], init)
	copy(row[4+len(key)+len(init):], seed)
	t.hashes = append(t.hashes, h) //inklint:allow alloc — amortized — entry arrays double; O(1) amortized per new group
	t.rows = append(t.rows, row)   //inklint:allow alloc — amortized — entry arrays double; O(1) amortized per new group
	t.slots[i] = aggSlot{h, row}
	if uint64(len(t.rows))*4 > 3*(t.mask+1) {
		t.grow() //inklint:allow call — amortized slot-array resize (doubling); intentionally cold
	}
	return row
}

// SetBudget charges this table's future allocations (arena blocks, entry
// bookkeeping and slots) to the query budget. Call before inserting.
func (t *AggTable) SetBudget(b *MemBudget) {
	t.budget = b
	t.arena.SetBudget(b)
}

// grow doubles the slot array.
func (t *AggTable) grow() {
	size := uint64(2 * len(t.slots))
	t.resizes++
	t.budget.Charge((int64(size) - int64(len(t.slots))) * aggSlotBytes) // charge the delta
	// Rehashing reads the entry list, not the old slots, so the array may
	// grow in place into capacity an earlier execution left behind.
	ns := zeroed(t.slots, int(size))
	mask := size - 1
	for e, h := range t.hashes {
		i := h & mask
		for ns[i].row != nil {
			i = (i + 1) & mask
		}
		ns[i] = aggSlot{h, t.rows[e]}
	}
	t.slots = ns
	t.mask = mask
}

// Groups returns the number of groups in the table.
func (t *AggTable) Groups() int { return len(t.rows) }

// Rows returns the group rows in entry (insertion) order: the table's own
// list, valid until its next insert or Reset. The aggregate-reading pipeline
// reads it in place once the build pipeline finished.
func (t *AggTable) Rows() [][]byte { return t.rows }

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
