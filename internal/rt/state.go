package rt

import (
	"cmp"
	"slices"
	"strings"

	"inkfuse/internal/types"
)

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
	Shards int
	Merge  []AggMerge

	// SizeHint is the scheduler's cardinality estimate for one worker's share
	// of the build (morsel size clamped by the source row count). A worker's
	// table is pre-sized from it (AggTable.Reserve), skipping the first
	// bucket-array doublings.
	SizeHint int

	Global *AggTable // set by the scheduler after merging

	snap [][]byte // Snapshot's row list, reused across executions
}

// Reset makes the owning plan reusable for another execution: the merged
// result pointer and the per-run size hint are cleared (DESIGN.md §16).
// Per-worker instances, one of which Global points at, belong to the worker
// contexts and are reset with them.
func (s *AggTableState) Reset() {
	s.Global = nil
	s.SizeHint = 0
}

// Drop is Reset without keeping memory.
func (s *AggTableState) Drop() {
	s.Reset()
	s.snap = nil
}

// RetainedBytes returns the memory the state holds on to across Reset.
func (s *AggTableState) RetainedBytes() int64 {
	return int64(cap(s.snap)) * sliceHeaderBytes
}

// Ready reports whether the build produced a readable table (the AggRead
// source's precondition).
func (s *AggTableState) Ready() bool { return s.Global != nil }

// Snapshot returns all group rows of the built table in entry (insertion)
// order per shard. The list is valid until the state is reset.
func (s *AggTableState) Snapshot() [][]byte {
	s.snap = s.Global.AppendRows(s.snap[:0])
	return s.snap
}

// NewInstance creates a fresh table for one worker.
func (s *AggTableState) NewInstance() *AggTable {
	t := NewAggTable(s.Init, s.Shards)
	// Pre-size before a budget is attached: like the initial bucket arrays,
	// the estimate-driven capacity is uncharged; only demand growth is.
	t.Reserve(s.SizeHint)
	return t
}

// MergeInto folds all groups of src into dst using the merge spec. Creation
// extras beyond the init template (preserved original key strings, §IV-D
// collations) are carried over from the source group.
func (s *AggTableState) MergeInto(dst, src *AggTable) {
	for i := range src.shards {
		for _, row := range src.shards[i].rows {
			key := RowKey(row)
			seed := row[RowPayloadOff(row)+len(s.Init):]
			drow := dst.FindOrCreateSeed(key, Hash64(key), seed)
			s.mergePayload(drow, row)
		}
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

// JoinTableState wires a join hash table into the generated code.
type JoinTableState struct {
	Table *JoinTable
}

// Reset empties the table in place, unsealed, keeping its memory: the owning
// plan is reusable for another execution (DESIGN.md §16).
func (s *JoinTableState) Reset() { s.Table.Reset() }

// Drop replaces the table with a fresh empty one of the same layout,
// releasing the old one's memory.
func (s *JoinTableState) Drop() { s.Table = NewJoinTable(s.Table.ShardCount()) }

// RetainedBytes returns the memory the state holds on to across Reset.
func (s *JoinTableState) RetainedBytes() int64 { return s.Table.RetainedBytes() }

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
// generated code. A short list — the common case: TPC-H's lists have 2 to 8
// members — is kept sorted by a key of each member's length and three of its
// bytes, then by its bytes; a lookup compares keys as integers, without
// branching, and bytes only against the members whose key matches (usually
// one on a hit, none on a miss). Hashing the probe string costs more than
// that until the list outgrows inListSmallMax, from where on a hash set
// answers.
type InListState struct {
	small []string        // sorted by (inListKey, bytes), no duplicates; unused when set != nil
	keys  []int64         // inListKey of each small member, ascending
	set   map[string]bool // lists longer than inListSmallMax
}

// inListSmallMax is the longest member list answered by comparison instead of
// by hashing, chosen by BenchmarkInList (2 vCPU Xeon 2.1 GHz; a column of
// 2^18 random p_container-like strings, half of them members): the sorted
// scan costs 13 / 16 / 17 / 19 ns/row at 1 / 2 / 4 / 7 members against the
// map's 18-22 at any size, and has lost at 8 (23 against 20). On such a
// column a lookup is dominated by the mispredicted branch on its outcome,
// whatever the structure; the scan saves the hash, not the branch.
const inListSmallMax = 7

// NewInList builds an InListState from the member strings.
func NewInList(members ...string) *InListState {
	s := &InListState{}
	s.SetMembers(members)
	return s
}

// SetMembers replaces the member list (duplicates are allowed). Not safe
// concurrently with lookups: parameters are rebound between executions.
func (s *InListState) SetMembers(members []string) {
	small := slices.Clone(members)
	slices.SortFunc(small, func(a, b string) int {
		return cmp.Or(cmp.Compare(inListKey(a), inListKey(b)), strings.Compare(a, b))
	})
	small = slices.Compact(small)
	*s = InListState{}
	if len(small) > inListSmallMax {
		s.set = make(map[string]bool, len(small))
		for _, m := range small {
			s.set[m] = true
		}
		return
	}
	s.small = small
	s.keys = make([]int64, len(small))
	for i, m := range small {
		s.keys[i] = inListKey(m)
	}
}

// inListKey condenses a string into its length and three of its bytes —
// first, middle, last — in one non-negative integer: cheap to take (no loop
// over the bytes), and TPC-H's vocabularies ("SM CASE" / "SM PACK",
// "Brand#12" / "Brand#13") rarely agree on all four.
//
//inkfuse:hotpath
func inListKey(v string) int64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	return int64(n)<<24 | int64(v[0])<<16 | int64(v[n/2])<<8 | int64(v[n-1])
}

// containsSorted looks v up in the sorted member list without branching on
// the data until the very end. Every member's key is compared arithmetically
// — an early exit would save a few compares and cost a mispredicted branch
// per row, and on a column of random values that, not the compares, is the
// price of a lookup — counting the keys below v's (where its candidates
// start) and those equal to it (how many there are: members sharing a length
// and first byte are adjacent). The bytes are compared against the candidates
// alone, usually one.
//
//inkfuse:hotpath
func containsSorted(keys []int64, members []string, v string) bool {
	k := inListKey(v)
	below, equal := 0, 0
	for _, mk := range keys {
		below += int((mk - k) >> 63 & 1)
		x := mk ^ k
		equal += int((x|-x)>>63&1) ^ 1
	}
	for _, m := range members[below : below+equal] {
		if m == v {
			return true
		}
	}
	return false
}

// Contains reports whether v is a member.
func (s *InListState) Contains(v string) bool {
	if s.set != nil {
		return s.set[v]
	}
	return containsSorted(s.keys, s.small, v)
}

// Match sets dst[i] to whether vals[i] is a member — the IN kernel the
// primitive and the fused programs share. The representation is chosen once
// per call, not per row.
//
//inkfuse:hotpath
func (s *InListState) Match(dst []bool, vals []string) {
	vals = vals[:len(dst)]
	if set := s.set; set != nil {
		for i, v := range vals {
			dst[i] = set[v] //inklint:allow map — long IN lists only
		}
		return
	}
	keys, small := s.keys, s.small
	for i, v := range vals {
		dst[i] = containsSorted(keys, small, v)
	}
}
