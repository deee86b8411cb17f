// Package vm compiles the suboperator IR into executable closure programs —
// the Go stand-in for InkFuse's clang-compiled C (DESIGN.md §2).
//
// A Program executes one step over dense batch registers: every IR variable
// becomes a typed vector; fused programs carry tuples through those
// registers across suboperator boundaries without materializing tuple
// buffers, while the pre-generated vectorized primitives are single-subop
// Programs invoked chunk-at-a-time by internal/interp. Filter scopes compact
// and probe scopes expand, so vectors are always dense (paper §IV-B).
package vm

import (
	"fmt"

	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/stats"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
)

// Ctx is one worker's execution context: per-worker scratch space, frames,
// hash tables and counters. A Ctx is not safe for concurrent use; the
// scheduler gives each worker its own. Everything a Ctx builds is keyed by the
// plan's state objects and compiled programs, so a Ctx kept with its plan
// instance serves the instance's next execution from the same memory
// (Reset, DESIGN.md §16).
type Ctx struct {
	// Counters accumulates this worker's statistics.
	Counters stats.Counters
	// Budget, when non-nil, caps the runtime-state bytes this query may
	// allocate; worker-private tables used through this Ctx charge to it.
	Budget *rt.MemBudget

	scratch   map[*rt.RowLayoutState]*rt.RowScratch
	aggs      workerTables[*rt.AggTableState, *rt.AggTable]
	joins     workerTables[*rt.JoinTableState, *rt.JoinTable]
	frames    map[*Program]*frame
	frameList []*frame // the values of frames, for RetainedBytes to walk
	ident     []int32  // the identity selection 0,1,2,…: every filter's input
}

// workerTables maps a plan state to this worker's table for it: its share of
// an aggregation (merged by the scheduler) or of a join build (adopted into
// the sealed table), which no other worker writes.
type workerTables[S comparable, T interface {
	SetBudget(*rt.MemBudget)
	Reset()
	RetainedBytes() int64
}] map[S]*workerTable[T]

// workerTable is one table; built marks that the current execution wrote it.
type workerTable[T any] struct {
	table T
	built bool
}

// use returns the table for st, made by create on first use ever. Its first
// use in an execution attaches the budget.
func (m workerTables[S, T]) use(st S, budget *rt.MemBudget, create func(S) T) T {
	w := m[st]
	if w == nil {
		w = &workerTable[T]{table: create(st)}
		m[st] = w
	}
	if !w.built {
		w.built = true
		w.table.SetBudget(budget)
	}
	return w.table
}

// built returns the table the current execution built for st, or the zero T.
func (m workerTables[S, T]) built(st S) (t T) {
	if w := m[st]; w != nil && w.built {
		t = w.table
	}
	return t
}

// reset empties the tables the last execution built.
func (m workerTables[S, T]) reset() {
	for _, w := range m {
		if w.built {
			w.built = false
			w.table.Reset()
		}
	}
}

func (m workerTables[S, T]) retainedBytes() (n int64) {
	for _, w := range m {
		n += w.table.RetainedBytes()
	}
	return n
}

// NewCtx creates an execution context.
func NewCtx() *Ctx {
	return &Ctx{
		scratch: make(map[*rt.RowLayoutState]*rt.RowScratch),
		aggs:    make(workerTables[*rt.AggTableState, *rt.AggTable]),
		joins:   make(workerTables[*rt.JoinTableState, *rt.JoinTable]),
		frames:  make(map[*Program]*frame),
	}
}

// Reset readies the context for another execution of the same plan instance:
// counters and budget are cleared and the tables the last execution built are
// emptied in place. Scratch rows and frames are kept as they are — every use
// re-initializes what it reads.
func (c *Ctx) Reset() {
	c.Counters = stats.Counters{}
	c.Budget = nil
	c.aggs.reset()
	c.joins.reset()
}

// Scratch returns this worker's packed-row scratch for a layout.
func (c *Ctx) Scratch(st *rt.RowLayoutState) *rt.RowScratch {
	s, ok := c.scratch[st]
	if !ok {
		s = rt.NewRowScratch(st.KeyFixed, st.PayloadFixed)
		c.scratch[st] = s
	}
	return s
}

// AggTable returns this worker's table for an aggregation. It starts every
// execution at its initial slot array and grows by doubling from its own
// inserts, into the capacity an earlier execution left behind.
func (c *Ctx) AggTable(st *rt.AggTableState) *rt.AggTable {
	return c.aggs.use(st, c.Budget, (*rt.AggTableState).NewInstance)
}

func newJoinTable(*rt.JoinTableState) *rt.JoinTable { return rt.NewJoinTable(rt.JoinShards) }

// JoinTable returns this worker's table for a join build.
func (c *Ctx) JoinTable(st *rt.JoinTableState) *rt.JoinTable {
	return c.joins.use(st, c.Budget, newJoinTable)
}

// identity returns the selection [0,n). It is grown, never rewritten, so
// every filter of every program this worker runs reads the same array.
func (c *Ctx) identity(n int) []int32 {
	for i := len(c.ident); i < n; i++ {
		c.ident = append(c.ident, int32(i))
	}
	return c.ident[:n]
}

// BuiltAggTable returns the aggregation table this worker built for st in
// the current execution, for the scheduler to merge, or nil if the worker
// never touched the aggregation. The table stays owned by the Ctx: it is
// valid until Reset.
func (c *Ctx) BuiltAggTable(st *rt.AggTableState) *rt.AggTable { return c.aggs.built(st) }

// BuiltJoinTable is BuiltAggTable for a join build, for the scheduler to seal.
func (c *Ctx) BuiltJoinTable(st *rt.JoinTableState) *rt.JoinTable { return c.joins.built(st) }

// RetainedBytes estimates the memory the context holds on to across Reset:
// scratch slabs, hash tables and frame registers.
func (c *Ctx) RetainedBytes() int64 {
	n := c.aggs.retainedBytes() + c.joins.retainedBytes()
	for _, s := range c.scratch {
		n += s.RetainedBytes()
	}
	for _, fr := range c.frameList {
		n += fr.retainedBytes()
	}
	return n + int64(cap(c.ident))*4
}

// exec is one compiled operation, executed at the current scope cardinality.
type exec func(fr *frame, n int)

// Program is the compiled form of an ir.Func.
type Program struct {
	Fn *ir.Func

	body      []exec
	slotKinds []types.Kind
	insSlots  []int
	numAux    int
	rewrites  Rewrites
}

// Rewrites reports what the compiler made of the function (DESIGN.md §17).
func (p *Program) Rewrites() Rewrites { return p.rewrites }

// frame is the per-worker register file for one program.
type frame struct {
	ctx     *Ctx
	prog    *Program
	state   []any
	vecs    []*storage.Vector
	aux     []any
	out     *storage.Chunk
	emitted int

	// prefetchSink keeps ROF prefetch loads observable (never read).
	prefetchSink byte
}

//inkfuse:hotpath
func (c *Ctx) frame(p *Program) *frame {
	fr, ok := c.frames[p] //inklint:allow map — per-(ctx,program) frame memo — one lookup per morsel call, not per row
	if !ok {
		fr = &frame{ctx: c, prog: p, vecs: make([]*storage.Vector, len(p.slotKinds)), aux: make([]any, p.numAux)} //inklint:allow alloc — first-use frame construction; memoized in c.frames thereafter
		for i, k := range p.slotKinds {
			fr.vecs[i] = storage.NewVector(k, 0) //inklint:allow call — first-use slot vector construction; memoized with the frame
		}
		c.frames[p] = fr                      //inklint:allow map — memoization write on first use only
		c.frameList = append(c.frameList, fr) //inklint:allow alloc — first use only, with the frame itself
	}
	return fr
}

// retainedBytes estimates the frame's register and auxiliary buffer memory.
// Input slots do not count: they alias the caller's vectors.
func (fr *frame) retainedBytes() int64 {
	var n int64
	for _, v := range fr.vecs {
		n += v.RetainedBytes()
	}
	for _, s := range fr.prog.insSlots {
		n -= fr.vecs[s].RetainedBytes()
	}
	for _, a := range fr.aux {
		switch a := a.(type) {
		case *[]int32:
			n += int64(cap(*a)) * 4
		case *tableBatch:
			n += a.retainedBytes()
		}
	}
	return n
}

// Run executes the program over n source rows bound to the input vectors,
// appending emitted rows to out (which may be nil for pure sinks). It
// returns the number of emitted rows.
//
//inkfuse:hotpath
func (p *Program) Run(ctx *Ctx, state []any, ins []*storage.Vector, n int, out *storage.Chunk) int {
	fr := ctx.frame(p)
	fr.state = state
	fr.out = out
	fr.emitted = 0
	if len(ins) != len(p.insSlots) {
		panic(fmt.Sprintf("vm: program %s wants %d inputs, got %d", p.Fn.Name, len(p.insSlots), len(ins)))
	}
	for i, v := range ins {
		fr.vecs[p.insSlots[i]] = v
	}
	runBlock(p.body, fr, n)
	return fr.emitted
}

//inkfuse:hotpath
func runBlock(b []exec, fr *frame, n int) {
	for _, op := range b {
		op(fr, n) //inklint:allow call — the vm execution model — dispatch through pre-compiled closures
	}
}

// auxSlice returns the k-th auxiliary buffer's pointer box, creating it on
// first use. Aux slots hold *[]T rather than []T: callers mutate the slice
// through the pointer, so steady-state primitive calls never re-box a slice
// header into the `any` slot — re-boxing would allocate on every invocation,
// which is exactly the per-chunk overhead the interpreter must not have.
func auxSlice[T any](fr *frame, k int) *[]T {
	if fr.aux[k] == nil {
		fr.aux[k] = new([]T)
	}
	return fr.aux[k].(*[]T)
}

// Compile translates an IR function into an executable program.
func Compile(f *ir.Func) (*Program, error) {
	c := &compiler{
		p:      &Program{Fn: f},
		slotOf: make(map[int]int),
		uses:   countUses(f),
	}
	for _, v := range f.Ins {
		c.p.insSlots = append(c.p.insSlots, c.bind(v))
	}
	body, err := c.block(f.Body, c.plan(f.Body, true))
	if err != nil {
		return nil, fmt.Errorf("vm: compiling %s: %w", f.Name, err)
	}
	c.p.body = body
	return c.p, nil
}

// MustCompile is Compile that panics; used for the startup-generated
// primitives whose IR the engine itself produced.
func MustCompile(f *ir.Func) *Program {
	p, err := Compile(f)
	if err != nil {
		panic(err)
	}
	return p
}

type compiler struct {
	p      *Program
	slotOf map[int]int // ir var ID -> slot
	uses   map[int]int // ir var ID -> reads of it in the function
}

// bind allocates (or returns) the slot for an IR variable.
func (c *compiler) bind(v ir.Var) int {
	if s, ok := c.slotOf[v.ID]; ok {
		return s
	}
	s := c.newSlot(v.K)
	c.slotOf[v.ID] = s
	return s
}

func (c *compiler) newSlot(k types.Kind) int {
	c.p.slotKinds = append(c.p.slotKinds, k)
	return len(c.p.slotKinds) - 1
}

func (c *compiler) newAux() int {
	c.p.numAux++
	return c.p.numAux - 1
}

func (c *compiler) slot(v ir.Var) (int, error) {
	s, ok := c.slotOf[v.ID]
	if !ok {
		return 0, fmt.Errorf("use of unbound var %s", v)
	}
	return s, nil
}
