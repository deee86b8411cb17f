package ir

import (
	"encoding/binary"
	"math"

	"inkfuse/internal/types"
)

var (
	posInf = math.Inf(1)
	negInf = math.Inf(-1)
)

func putF64Raw(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }
func putI32Raw(b []byte, v int32)   { binary.LittleEndian.PutUint32(b, uint32(v)) }

// Expr is a side-effect-free typed expression. Its operands method is its
// description (Operands).
type Expr interface {
	Kind() types.Kind
	node
}

// VarRef reads a variable.
type VarRef struct{ V Var }

// Kind implements Expr.
func (e VarRef) Kind() types.Kind { return e.V.K }
func (e VarRef) operands(o *Operands) {
	o.Weight = 1
	o.read(e.V, types.AnyKind)
}

// Ref is shorthand for VarRef{v}.
func Ref(v Var) VarRef { return VarRef{V: v} }

// ConstRef reads a query constant from runtime state (paper Fig 5): the
// generated code is constant-free so the primitive stays enumerable.
type ConstRef struct {
	StateID int
	K       types.Kind
}

// Kind implements Expr.
func (e ConstRef) Kind() types.Kind { return e.K }
func (e ConstRef) operands(o *Operands) {
	o.Weight = 1
	o.state(e.StateID)
}

// BinExpr is arithmetic on two operands of the same numeric kind.
type BinExpr struct {
	Op   BinOp
	L, R Expr
}

// Kind implements Expr.
func (e BinExpr) Kind() types.Kind { return e.L.Kind() }
func (e BinExpr) operands(o *Operands) {
	o.Weight = 1
	o.expr(e.L, types.AnyNumeric)
	o.expr(e.R, like(e.L))
}

// CmpExpr compares two operands of the same kind; result is Bool.
type CmpExpr struct {
	Op   CmpOp
	L, R Expr
}

// Kind implements Expr.
func (CmpExpr) Kind() types.Kind { return types.Bool }
func (e CmpExpr) operands(o *Operands) {
	o.Weight = 1
	o.expr(e.L, types.AnyKind)
	o.expr(e.R, like(e.L))
}

// LogicExpr is a boolean connective.
type LogicExpr struct {
	Op   LogicOp
	L, R Expr
}

// Kind implements Expr.
func (LogicExpr) Kind() types.Kind { return types.Bool }
func (e LogicExpr) operands(o *Operands) {
	o.Weight = 1
	o.expr(e.L, isBool)
	o.expr(e.R, isBool)
}

// NotExpr is boolean negation.
type NotExpr struct{ E Expr }

// Kind implements Expr.
func (NotExpr) Kind() types.Kind { return types.Bool }
func (e NotExpr) operands(o *Operands) {
	o.Weight = 1
	o.expr(e.E, isBool)
}

// CastExpr converts between numeric kinds.
type CastExpr struct {
	To types.Kind
	E  Expr
}

// Kind implements Expr.
func (e CastExpr) Kind() types.Kind { return e.To }
func (e CastExpr) operands(o *Operands) {
	o.Weight = 1
	o.expr(e.E, types.AnyNumeric)
}

// LikeExpr evaluates a LIKE pattern; the compiled matcher lives in runtime
// state (rt.LikeState).
type LikeExpr struct {
	S       Expr
	StateID int
	Negate  bool
}

// Kind implements Expr.
func (LikeExpr) Kind() types.Kind { return types.Bool }
func (e LikeExpr) operands(o *Operands) {
	o.Weight = 1
	o.expr(e.S, isString)
	o.state(e.StateID)
}

// InListExpr tests string membership in a runtime-state set (rt.InListState).
type InListExpr struct {
	S       Expr
	StateID int
}

// Kind implements Expr.
func (InListExpr) Kind() types.Kind { return types.Bool }
func (e InListExpr) operands(o *Operands) {
	o.Weight = 1
	o.expr(e.S, isString)
	o.state(e.StateID)
}

// CodeMatch reads a code → bool table from runtime state
// (rt.CodeTableState) at a dictionary code: a constant predicate over a
// dictionary-coded column, evaluated per dictionary entry ahead of the run.
type CodeMatch struct {
	C       Expr // Int32 code
	StateID int
}

// Kind implements Expr.
func (CodeMatch) Kind() types.Kind { return types.Bool }
func (e CodeMatch) operands(o *Operands) {
	o.Weight = 1
	o.expr(e.C, isInt32)
	o.state(e.StateID)
}

// Decode maps a dictionary code to the string it stands for, through the
// dictionary held in runtime state (rt.DictState).
type Decode struct {
	C       Expr // Int32 code
	StateID int
}

// Kind implements Expr.
func (Decode) Kind() types.Kind { return types.String }
func (e Decode) operands(o *Operands) {
	o.Weight = 1
	o.expr(e.C, isInt32)
	o.state(e.StateID)
}

// StrLower normalizes a string to lowercase — the equivalence-class mapping
// of case-insensitive collations (paper §IV-D: "every key is turned to
// lowercase; the normalized representation is only used for key
// comparison").
type StrLower struct{ E Expr }

// Kind implements Expr.
func (StrLower) Kind() types.Kind { return types.String }
func (e StrLower) operands(o *Operands) {
	o.Weight = 1
	o.expr(e.E, isString)
}

// CondExpr is a ternary (SQL CASE WHEN).
type CondExpr struct {
	Cond, Then, Else Expr
}

// Kind implements Expr.
func (e CondExpr) Kind() types.Kind { return e.Then.Kind() }
func (e CondExpr) operands(o *Operands) {
	o.Weight = 1
	o.expr(e.Cond, isBool)
	o.expr(e.Then, types.AnyKind)
	o.expr(e.Else, like(e.Then))
}

// UnpackFixed reads a fixed-width field from a packed row at a runtime-state
// offset (rt.OffsetState).
type UnpackFixed struct {
	Row     Expr // Ptr
	Region  Region
	StateID int
	K       types.Kind
}

// Kind implements Expr.
func (e UnpackFixed) Kind() types.Kind { return e.K }
func (e UnpackFixed) operands(o *Operands) {
	o.Weight = 1
	o.expr(e.Row, isPtr)
	o.state(e.StateID)
}

// UnpackStr reads a variable-size field from a packed row; the slot position
// is resolved through rt.VarSlotState.
type UnpackStr struct {
	Row     Expr // Ptr
	Region  Region
	StateID int
}

// Kind implements Expr.
func (UnpackStr) Kind() types.Kind { return types.String }
func (e UnpackStr) operands(o *Operands) {
	o.Weight = 1
	o.expr(e.Row, isPtr)
	o.state(e.StateID)
}

// Stmt is one statement in a step body. Its operands method is its
// description (Operands).
type Stmt interface {
	node
	stmtNode()
}

// Assign evaluates E into a fresh variable.
type Assign struct {
	Dst Var
	E   Expr
}

func (Assign) stmtNode() {}
func (s Assign) operands(o *Operands) {
	o.Weight = 1
	o.expr(s.E, types.AnyKind)
	o.def(s.Dst, like(s.E))
}

// Copy rebinds a variable into the current scope. In emitted C this is a
// plain assignment (free: the value stays in a register); in the VM it is the
// dense-compaction gather of the filter-copy and probe-copy suboperators
// (paper Fig 4) — through the scope's selection when the Copy is listed by a
// FilterStmt or a ProbeStmt. A free-standing Copy with a valid Sel is the
// probe-copy primitive's body: Src is a whole input column at the cardinality
// the probe ran at, and Dst reads it at the row Sel names.
type Copy struct {
	Dst, Src Var
	Sel      Var // Int32; only on a free-standing gather
}

func (Copy) stmtNode() {}
func (s Copy) operands(o *Operands) {
	o.Weight = 1
	if s.Sel.Valid() {
		o.read(s.Sel, isInt32)
	}
	o.read(s.Src, types.Is(s.Dst.K))
	o.def(s.Dst, types.AnyKind)
}

// FilterStmt opens a filtered scope: Body executes only for rows where Cond
// holds; Copies carry the surviving columns into the scope.
type FilterStmt struct {
	Cond   Var // Bool
	Copies []Copy
	Body   []Stmt
}

func (FilterStmt) stmtNode() {}
func (s FilterStmt) operands(o *Operands) {
	o.Weight = 1
	o.read(s.Cond, isBool)
	o.Copies, o.Body = s.Copies, s.Body
}

// MakeRow allocates a reusable packed row per tuple (key + payload building,
// paper §IV-D/E). State is an rt.RowLayoutState.
type MakeRow struct {
	Dst     Var // Ptr
	StateID int
}

func (MakeRow) stmtNode() {}
func (s MakeRow) operands(o *Operands) {
	o.Weight = 1
	o.state(s.StateID)
	o.def(s.Dst, isPtr)
}

// PackFixed writes a fixed-width value into a packed row at a runtime-state
// offset (rt.OffsetState). Produces Dst, the refreshed row handle.
type PackFixed struct {
	Dst     Var // Ptr
	Row     Var // Ptr
	Region  Region
	StateID int
	Val     Expr
}

func (PackFixed) stmtNode() {}
func (s PackFixed) operands(o *Operands) {
	o.Weight = 1
	o.read(s.Row, isPtr)
	o.expr(s.Val, types.AnyFixed)
	o.state(s.StateID)
	o.def(s.Dst, isPtr)
}

// PackStr appends a variable-size value to a packed row region. State is the
// rt.OffsetState of the owning layout (for scratch identity).
type PackStr struct {
	Dst     Var // Ptr
	Row     Var // Ptr
	Region  Region
	StateID int
	Val     Expr
}

func (PackStr) stmtNode() {}
func (s PackStr) operands(o *Operands) {
	o.Weight = 1
	o.read(s.Row, isPtr)
	o.expr(s.Val, isString)
	o.state(s.StateID)
	o.def(s.Dst, isPtr)
}

// SealKey finalizes the key blob of a packed row and reserves the payload
// region. State is the rt.RowLayoutState.
type SealKey struct {
	Dst     Var // Ptr
	Row     Var // Ptr
	StateID int
}

func (SealKey) stmtNode() {}
func (s SealKey) operands(o *Operands) {
	o.Weight = 1
	o.read(s.Row, isPtr)
	o.state(s.StateID)
	o.def(s.Dst, isPtr)
}

// AggLookup finds-or-creates the group row for a packed key. Collision
// resolution happens inside the hash table (paper §IV-D); the returned
// pointer addresses the correctly resolved group. State is rt.AggTableState.
type AggLookup struct {
	Dst     Var // Ptr: the group row
	Row     Var // Ptr: packed key row
	StateID int
}

func (AggLookup) stmtNode() {}
func (s AggLookup) operands(o *Operands) {
	o.Weight = 2
	o.read(s.Row, isPtr)
	o.state(s.StateID)
	o.def(s.Dst, isPtr)
}

// AggLookupFixed is the single-column key fast path (paper §IV-D: "if we
// only aggregate by a single column, the engine performs no packing but just
// uses the raw column directly"): the fixed-width key value is encoded
// in-place, skipping the packed-row scratch entirely.
type AggLookupFixed struct {
	Dst     Var // Ptr: the group row
	Key     Var // fixed-width key column
	StateID int // rt.AggTableState
}

func (AggLookupFixed) stmtNode() {}
func (s AggLookupFixed) operands(o *Operands) {
	o.Weight = 2
	o.read(s.Key, types.AnyFixed)
	o.state(s.StateID)
	o.def(s.Dst, isPtr)
}

// AggUpdate folds a value into an aggregate slot of a group row. The slot
// offset is a runtime parameter (rt.OffsetState).
type AggUpdate struct {
	Group   Var // Ptr
	Fn      AggFunc
	StateID int
	Val     Expr // absent (nil) for AggCount
}

func (AggUpdate) stmtNode() {}
func (s AggUpdate) operands(o *Operands) {
	o.Weight = 2
	o.read(s.Group, isPtr)
	o.expr(s.Val, s.Fn.ValueRule())
	o.state(s.StateID)
}

// JoinInsert inserts a packed row into a join hash table (build side).
// State is rt.JoinTableState.
type JoinInsert struct {
	Row     Var // Ptr
	StateID int
}

func (JoinInsert) stmtNode() {}
func (s JoinInsert) operands(o *Operands) {
	o.Weight = 2
	o.read(s.Row, isPtr)
	o.state(s.StateID)
}

// ProbeStmt probes a join hash table with the key of ProbeRow and opens a
// scope per emitted row. Build is bound to the matching build row
// (Inner/LeftOuter; nil for an unmatched LeftOuter row); Sel is the match
// selection — per emitted row, the position of its probe tuple in the
// enclosing scope; Matched is bound for LeftOuterJoin. Copies carry the
// enclosing scope's values into the match scope through Sel, exactly as a
// FilterStmt's carry them through its condition: the probe side is never
// packed into a row (paper §IV-E). State is rt.JoinTableState.
type ProbeStmt struct {
	StateID  int
	Mode     JoinMode
	ProbeRow Var // Ptr, in the enclosing scope: the packed probe key
	Build    Var // Ptr; invalid for SemiJoin/AntiJoin
	Sel      Var // Int32
	Matched  Var // Bool; valid only for LeftOuterJoin
	Copies   []Copy
	Body     []Stmt
}

func (ProbeStmt) stmtNode() {}
func (s ProbeStmt) operands(o *Operands) {
	o.Weight = 3
	o.read(s.ProbeRow, isPtr)
	o.state(s.StateID)
	o.Copies, o.Body = s.Copies, s.Body
	o.def(s.Sel, isInt32)
	if s.Mode == InnerJoin || s.Mode == LeftOuterJoin {
		o.def(s.Build, isPtr)
	}
	if s.Mode == LeftOuterJoin {
		o.def(s.Matched, isBool)
	}
}

// Prefetch touches the hash-table bucket of a packed probe key without
// resolving matches — the dedicated prefetching step of the ROF backend
// (paper §VII): issued over a whole staged chunk it produces many
// independent loads ahead of the tuple-at-a-time probe.
type Prefetch struct {
	Row     Var // Ptr: packed probe row
	StateID int // rt.JoinTableState
}

func (Prefetch) stmtNode() {}
func (s Prefetch) operands(o *Operands) {
	o.Weight = 1
	o.read(s.Row, isPtr)
	o.state(s.StateID)
}

// EmitStmt appends the listed variables as one output row (the tuple-buffer
// sink / result sink).
type EmitStmt struct {
	Cols []Var
}

func (EmitStmt) stmtNode() {}
func (s EmitStmt) operands(o *Operands) {
	o.Weight = 1 + len(s.Cols)
	for _, c := range s.Cols {
		o.read(c, types.AnyKind)
	}
}

// Func is the generated code for one step: a loop over the source rows
// (bound to Ins) executing Body per row.
type Func struct {
	Name      string
	Ins       []Var // scope-0 variables bound to the input vectors
	Body      []Stmt
	OutKinds  []types.Kind // kinds emitted by EmitStmt (nil for pure sinks)
	NumStates int          // size of the runtime state array
}
