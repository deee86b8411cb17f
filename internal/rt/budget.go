package rt

import (
	"fmt"
	"sync/atomic"
)

// MemBudget caps the bytes of query-owned runtime state — arena blocks and
// hash-table bucket/entry arrays — that one query may allocate. The engine
// installs one budget per query and wires it into every table the query
// builds — the join tables, every worker's aggregation table and the merged
// globals — so every table byte is charged. Charges are atomic: the workers
// build their tables concurrently and share one cap.
//
// Enforcement is by panic: allocation sites sit below generated code whose
// signatures cannot carry errors (FindOrCreate returns a row pointer into
// both fused programs and primitives), so Charge panics with *BudgetExceeded
// and the scheduler's morsel recover() converts it into the query's typed
// ErrMemoryBudget failure. A nil *MemBudget is valid and unlimited.
type MemBudget struct {
	limit int64
	used  atomic.Int64
	peak  atomic.Int64
}

// NewMemBudget creates a budget capped at limit bytes (0 = track only, never
// fail).
func NewMemBudget(limit int64) *MemBudget {
	return &MemBudget{limit: limit}
}

// Charge accounts n bytes against the budget, panicking with *BudgetExceeded
// once the cap is crossed. Nil receivers and non-positive charges are no-ops.
//
//inkfuse:hotpath
func (b *MemBudget) Charge(n int64) {
	if b == nil || n <= 0 {
		return
	}
	u := b.used.Add(n)
	for {
		p := b.peak.Load()
		if u <= p || b.peak.CompareAndSwap(p, u) {
			break
		}
	}
	if b.limit > 0 && u > b.limit {
		panic(&BudgetExceeded{Used: u, Limit: b.limit})
	}
}

// Used returns the bytes currently charged.
func (b *MemBudget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Peak returns the high-water mark of charged bytes.
func (b *MemBudget) Peak() int64 {
	if b == nil {
		return 0
	}
	return b.peak.Load()
}

// Limit returns the configured cap (0 = unlimited).
func (b *MemBudget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

// BudgetExceeded is the panic payload thrown by MemBudget.Charge. The
// scheduler recognizes it during morsel recovery and fails the query with
// ErrMemoryBudget instead of treating it as an engine bug.
type BudgetExceeded struct {
	Used, Limit int64
}

func (e *BudgetExceeded) Error() string {
	return fmt.Sprintf("runtime state needs %d bytes, budget is %d", e.Used, e.Limit)
}
