package rt

import "inkfuse/internal/types"

// Suboperator runtime state objects (paper §IV-C, Fig 8). During query setup
// the engine allocates one state object per suboperator that needs one and
// wires the same objects into every execution backend, which is what makes
// it safe for the hybrid backend to switch between compiled code and
// pre-generated primitives mid-query: all persistent query state lives here.

// ConstState resolves a query constant (e.g. the 42 in `x + 42`).
type ConstState struct {
	Kind types.Kind
	B    bool
	I32  int32
	I64  int64
	F64  float64
	Str  string
}

// ConstBool builds a bool constant state.
func ConstBool(v bool) *ConstState { return &ConstState{Kind: types.Bool, B: v} }

// ConstI32 builds an int32 constant state (kind may be Int32 or Date).
func ConstI32(k types.Kind, v int32) *ConstState { return &ConstState{Kind: k, I32: v} }

// ConstI64 builds an int64 constant state.
func ConstI64(v int64) *ConstState { return &ConstState{Kind: types.Int64, I64: v} }

// ConstF64 builds a float64 constant state.
func ConstF64(v float64) *ConstState { return &ConstState{Kind: types.Float64, F64: v} }

// ConstStr builds a string constant state.
func ConstStr(v string) *ConstState { return &ConstState{Kind: types.String, Str: v} }

// RowLayoutState parameterizes the packed-row builders (MakeRow/Seal) of one
// key+payload packing chain. Per-worker RowScratch instances are keyed by the
// identity of this object.
type RowLayoutState struct {
	KeyFixed     int
	PayloadFixed int
}

// OffsetState resolves a byte offset inside a packed row (key packing and
// unpacking, aggregate slots). Offsets are runtime parameters so that the
// pack/unpack suboperators stay enumerable (paper §IV-D).
type OffsetState struct {
	Off    int
	Layout *RowLayoutState // set for pack statements; nil for unpack/agg slots
}

// VarSlotState resolves a variable-size (string) slot inside a packed row:
// the slot is the VarIdx-th length-prefixed string after FixedWidth fixed
// bytes of its region.
type VarSlotState struct {
	FixedWidth int
	VarIdx     int
}

// MergeOp combines one aggregate slot of two group rows when the workers'
// aggregation tables are merged after a parallel build pipeline.
type MergeOp uint8

const (
	// MergeSumI64 adds int64 slots (SUM(int), COUNT, COUNT-IF).
	MergeSumI64 MergeOp = iota
	// MergeSumF64 adds float64 slots.
	MergeSumF64
	// MergeMinF64 / MergeMaxF64 / MergeMinI32 / MergeMaxI32 keep the extremum.
	MergeMinF64
	MergeMaxF64
	MergeMinI32
	MergeMaxI32
)

// AggMerge describes how to merge one aggregate slot.
type AggMerge struct {
	Op  MergeOp
	Off int // offset inside the payload region
}

// AggTableState wires an aggregation into the generated code. Every worker
// builds its own table (morsel-driven parallel aggregation) and writes no
// other; the scheduler merges them into Global when the build pipeline
// finishes.
type AggTableState struct {
	Init   []byte // payload template for new groups
	Shards int    // ignored: a worker's table has no shards
	Merge  []AggMerge

	Global *AggTable // set by the scheduler after merging
}

// Reset makes the owning plan reusable for another execution: the merged
// result pointer is cleared (DESIGN.md §16). Per-worker instances, one of
// which Global points at, belong to the worker contexts and are reset with
// them.
func (s *AggTableState) Reset() { s.Global = nil }

// Ready reports whether the build produced a readable table (the AggRead
// source's precondition).
func (s *AggTableState) Ready() bool { return s.Global != nil }

// NewInstance creates a fresh table for one worker.
func (s *AggTableState) NewInstance() *AggTable { return NewAggTable(s.Init, 0) }

// MergeInto folds all groups of src into dst using the merge spec. Creation
// extras beyond the init template (preserved original key strings, §IV-D
// collations) are carried over from the source group. A group's hash is the
// one src stored for it, Hash64 of its key, so no key is hashed again.
func (s *AggTableState) MergeInto(dst, src *AggTable) {
	for e, row := range src.rows {
		seed := row[RowPayloadOff(row)+len(s.Init):]
		drow := dst.FindOrCreateSeed(RowKey(row), src.hashes[e], seed)
		s.mergePayload(drow, row)
	}
}

// mergePayload folds one source group row's aggregate slots into dst's.
//
//inkfuse:hotpath
func (s *AggTableState) mergePayload(drow, row []byte) {
	dOff := RowPayloadOff(drow)
	sOff := RowPayloadOff(row)
	for _, m := range s.Merge {
		do, so := dOff+m.Off, sOff+m.Off
		switch m.Op {
		case MergeSumI64:
			PutI64(drow, do, GetI64(drow, do)+GetI64(row, so))
		case MergeSumF64:
			PutF64(drow, do, GetF64(drow, do)+GetF64(row, so))
		case MergeMinF64:
			PutF64(drow, do, min(GetF64(drow, do), GetF64(row, so)))
		case MergeMaxF64:
			PutF64(drow, do, max(GetF64(drow, do), GetF64(row, so)))
		case MergeMinI32:
			PutI32(drow, do, min(GetI32(drow, do), GetI32(row, so)))
		case MergeMaxI32:
			PutI32(drow, do, max(GetI32(drow, do), GetI32(row, so)))
		}
	}
}

// JoinTableState wires a join hash table into the generated code. Every
// worker builds its own table and writes no other; when the build pipeline
// finishes, the scheduler sets Table to the first built one, which adopts the
// others, and seals it. The probes read Table.
type JoinTableState struct {
	Table *JoinTable
}

// Reset clears the sealed table pointer: the owning plan is reusable for
// another execution (DESIGN.md §16). The tables belong to the worker contexts
// and are reset with them.
func (s *JoinTableState) Reset() { s.Table = nil }

// CodeTableState answers a predicate of one dictionary-coded column against
// constants: T[c] is the predicate's value on the string code c stands for.
// The lowering evaluates the predicate once per dictionary entry, and again
// whenever a parameter it reads is rebound; the generated code only indexes
// the table, whatever the predicate's form (=, <>, IN, LIKE, and their
// combinations).
type CodeTableState struct {
	T []bool
}

// DictState maps the codes of a dictionary-coded column back to its strings:
// Values[c] is the string code c stands for — the dictionary's own, so a
// decoded value is a view, never a copy.
type DictState struct {
	Values []string
}

// LikeState wires a compiled LIKE matcher into the generated code.
type LikeState struct {
	M *LikeMatcher
}

// InListState wires the member strings of an IN (...) predicate into the
// generated code: one hash set, whatever the list's length. BenchmarkInList
// chose it (EXPERIMENTS.md, "One IN-list representation"): on a column that
// hits half the time it costs 25-29 ns/row at 2 to 64 members, where a
// branchless scan of the sorted members costs 22 at 2 and 123 at 64, and a
// binary search 38 to 92. Since dictionary codes, an IN list over a coded
// column — every one the TPC-H shapes generate — runs as a code table
// (CodeMatch) and asks Contains once per dictionary entry at lowering.
type InListState struct {
	set map[string]bool
}

// NewInList builds an InListState from the member strings.
func NewInList(members ...string) *InListState {
	s := &InListState{}
	s.SetMembers(members)
	return s
}

// SetMembers replaces the member list (duplicates are allowed). Not safe
// concurrently with lookups: parameters are rebound between executions.
func (s *InListState) SetMembers(members []string) {
	s.set = make(map[string]bool, len(members))
	for _, m := range members {
		s.set[m] = true
	}
}

// Contains reports whether v is a member.
func (s *InListState) Contains(v string) bool { return s.set[v] }

// Match sets dst[i] to whether vals[i] is a member — the IN kernel the
// primitive and the fused programs share.
//
//inkfuse:hotpath
func (s *InListState) Match(dst []bool, vals []string) {
	set := s.set
	for i, v := range vals[:len(dst)] {
		dst[i] = set[v] //inklint:allow map — the IN list's one representation (BenchmarkInList)
	}
}
