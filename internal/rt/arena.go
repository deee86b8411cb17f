package rt

// Arena is a bump allocator handing out byte slices from large blocks. Hash
// tables use it so that millions of packed rows cost a handful of real
// allocations. Arenas are not safe for concurrent use; each hash-table shard
// owns one.
//
// An arena keeps every regular block it ever allocated: Reset rewinds it to
// its first block, and the next execution of the owning plan instance is
// handed the same memory again (DESIGN.md §16).
type Arena struct {
	blocks    [][]byte // regular blocks, in hand-out order; blocks[:next] are in use
	next      int
	block     []byte // unused tail of blocks[next-1]
	blockSize int
	used      int64
	budget    *MemBudget
}

const defaultArenaBlock = 1 << 16

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
		a.budget.Charge(int64(a.blockSize))
		if a.next == len(a.blocks) {
			a.blocks = append(a.blocks, make([]byte, a.blockSize)) //inklint:allow alloc — arena block refill — one make per blockSize bytes of rows, kept across Reset
		}
		a.block = a.blocks[a.next]
		a.next++
	}
	out := a.block[:n:n]
	a.block = a.block[n:]
	return out
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
func (a *Arena) RetainedBytes() int64 { return int64(len(a.blocks)) * int64(a.blockSize) }
