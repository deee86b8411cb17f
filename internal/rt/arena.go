package rt

// Arena is a bump allocator handing out byte slices from large blocks. Hash
// tables use it so that millions of packed rows cost a handful of real
// allocations. Arenas are not safe for concurrent use; each aggregation table
// and each join-table shard owns one.
//
// Blocks start small and double up to the block size: a join table has
// sixteen arenas, and a shard that receives one row should not pay 64 KiB for
// it; nor should a four-group aggregation.
//
// An arena keeps every regular block it ever allocated: Reset rewinds it to
// its first block, and the next execution of the owning plan instance is
// handed the same memory again (DESIGN.md §16).
type Arena struct {
	blocks    [][]byte // regular blocks, in hand-out order; blocks[:next] are in use
	next      int
	block     []byte // unused tail of blocks[next-1]
	blockSize int    // size of a full-grown block; larger requests get their own
	used      int64
	budget    *MemBudget
}

const (
	defaultArenaBlock = 1 << 16
	arenaFirstBlock   = 1 << 10 // doubled per block until blockSize is reached
)

// NewArena creates an arena with the given block size (0 = default 64 KiB).
func NewArena(blockSize int) *Arena {
	if blockSize <= 0 {
		blockSize = defaultArenaBlock
	}
	return &Arena{blockSize: blockSize}
}

// SetBudget charges all future block hand-outs to the query budget (nil =
// unlimited). Budget granularity is whole blocks: the query pays for arena
// capacity, not per-row slices, and pays for a retained block exactly where it
// would have paid for a fresh one.
func (a *Arena) SetBudget(b *MemBudget) { a.budget = b }

// Alloc returns a slice of n bytes for the caller to overwrite in full: a
// block handed out again after Reset still carries its old contents. Requests
// larger than the block size get their own block.
//
//inkfuse:hotpath
func (a *Arena) Alloc(n int) []byte {
	a.used += int64(n)
	if n > a.blockSize {
		a.budget.Charge(int64(n))
		return make([]byte, n) //inklint:allow alloc — oversized request falls back to a dedicated block
	}
	if len(a.block) < n {
		a.refill(n) //inklint:allow call — one refill per block of rows
	}
	out := a.block[:n:n]
	a.block = a.block[n:]
	return out
}

// refill moves on to the next block, which must hold n ≤ blockSize bytes: the
// one kept from before the last Reset, or a new one twice the size of the
// previous (a kept block too small for the request — the rows differ from the
// last execution's — is replaced).
func (a *Arena) refill(n int) {
	size := min(a.blockSize, arenaFirstBlock<<min(a.next, 16))
	for size < n {
		size <<= 1
	}
	switch {
	case a.next == len(a.blocks):
		a.blocks = append(a.blocks, make([]byte, size))
	case len(a.blocks[a.next]) < n:
		a.blocks[a.next] = make([]byte, size)
	}
	a.block = a.blocks[a.next]
	a.next++
	a.budget.Charge(int64(len(a.block)))
}

// Used returns the total bytes handed out.
func (a *Arena) Used() int64 { return a.used }

// Reset rewinds the arena to its first block, keeping the blocks: every slice
// handed out so far becomes invalid. The budget is detached; the next
// execution attaches its own.
func (a *Arena) Reset() {
	a.next, a.block, a.used, a.budget = 0, nil, 0, nil
}

// RetainedBytes returns the block memory the arena holds on to across Reset.
func (a *Arena) RetainedBytes() int64 {
	var n int64
	for _, b := range a.blocks {
		n += int64(len(b))
	}
	return n
}
