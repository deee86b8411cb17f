package inkfuse

import (
	"io"

	"inkfuse/internal/algebra"
	"inkfuse/internal/core"
	"inkfuse/internal/exec"
	"inkfuse/internal/flight"
	"inkfuse/internal/ir"
	"inkfuse/internal/obs"
	"inkfuse/internal/plancache"
	"inkfuse/internal/sql"
	"inkfuse/internal/stats"
	"inkfuse/internal/storage"
	"inkfuse/internal/trace"
	"inkfuse/internal/types"
)

// The public API is a thin facade: aliases over the engine's internal
// packages so applications program against a single import.

// Value types and schemas.
type (
	// Kind is a physical value type.
	Kind = types.Kind
	// ColumnDesc describes a schema column.
	ColumnDesc = types.ColumnDesc
	// Schema is an ordered list of columns.
	Schema = types.Schema
)

// Kind constants.
const (
	Bool    = types.Bool
	Int32   = types.Int32
	Int64   = types.Int64
	Float64 = types.Float64
	Date    = types.Date
	String  = types.String
)

// MkDate converts a calendar date to the engine's Date representation.
func MkDate(y, m, d int) int32 { return types.MkDate(y, m, d) }

// DateString renders a Date value as YYYY-MM-DD.
func DateString(d int32) string { return types.DateString(d) }

// Storage.
type (
	// Table is an in-memory columnar table.
	Table = storage.Table
	// Catalog maps table names to tables.
	Catalog = storage.Catalog
	// Chunk is a columnar batch of tuples (also the result format).
	Chunk = storage.Chunk
	// Vector is a typed column.
	Vector = storage.Vector
)

// NewTable creates an empty columnar table.
func NewTable(name string, schema Schema) *Table { return storage.NewTable(name, schema) }

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog { return storage.NewCatalog() }

// Relational plans.
type (
	// Node is a relational operator.
	Node = algebra.Node
	// Expr is a scalar expression.
	Expr = algebra.Expr
	// NamedExpr is a computed column in a Map.
	NamedExpr = algebra.NamedExpr
	// AggSpec is one aggregate of a GroupBy.
	AggSpec = algebra.AggSpec
	// HashJoin joins two inputs (Build is inserted into the hash table).
	HashJoin = algebra.HashJoin
	// GroupBy aggregates (construct directly for case-insensitive keys via
	// its NoCase field; NewGroupBy covers the common case).
	GroupBy = algebra.GroupBy
	// Plan is a lowered suboperator plan.
	Plan = core.Plan
)

// Join modes.
const (
	InnerJoin     = ir.InnerJoin
	SemiJoin      = ir.SemiJoin
	LeftOuterJoin = ir.LeftOuterJoin
	AntiJoin      = ir.AntiJoin
)

// Operator constructors.
var (
	NewScan    = algebra.NewScan
	NewFilter  = algebra.NewFilter
	NewMap     = algebra.NewMap
	NewGroupBy = algebra.NewGroupBy
	NewProject = algebra.NewProject
	NewOrderBy = algebra.NewOrderBy
)

// Expression constructors.
var (
	Col     = algebra.Col
	I32     = algebra.I32
	I64     = algebra.I64
	F64     = algebra.F64
	Str     = algebra.Str
	DateLit = algebra.DateLit
	Add     = algebra.Add
	Sub     = algebra.Sub
	Mul     = algebra.Mul
	Div     = algebra.Div
	Lt      = algebra.Lt
	Le      = algebra.Le
	Eq      = algebra.Eq
	Ne      = algebra.Ne
	Ge      = algebra.Ge
	Gt      = algebra.Gt
	Between = algebra.Between
	And     = algebra.And
	Or      = algebra.Or
	Not     = algebra.Not
	Like    = algebra.Like
	NotLike = algebra.NotLike
	In      = algebra.In
	Case    = algebra.Case
	CastTo  = algebra.Cast
)

// Aggregate constructors.
var (
	Sum     = algebra.Sum
	Count   = algebra.Count
	CountIf = algebra.CountIf
	MinOf   = algebra.MinOf
	MaxOf   = algebra.MaxOf
	Avg     = algebra.Avg
)

// Execution.
type (
	// Options configures execution (backend, workers, chunk/morsel sizes,
	// compile-latency model).
	Options = exec.Options
	// Backend selects the execution strategy.
	Backend = exec.Backend
	// LatencyModel simulates machine-code compilation latency.
	LatencyModel = exec.LatencyModel
	// Result is a completed query with its statistics.
	Result = exec.Result
	// Stats are the engine-internal execution counters.
	Stats = stats.Counters
	// QueryError is a query-scoped failure carrying the failing pipeline,
	// backend, worker and morsel; it wraps one of the typed errors below.
	QueryError = exec.QueryError
)

// Observability: per-query execution traces (Options.Trace → Result.Trace)
// and the engine-wide metrics registry (see MetricsText / MetricsSnapshot;
// also exported via expvar as "inkfuse").
type (
	// QueryTrace is one query's execution trace.
	QueryTrace = trace.Query
	// PipelineTrace is the trace of one pipeline within a query.
	PipelineTrace = trace.Pipeline
	// WorkerTrace is one worker's share of a pipeline trace.
	WorkerTrace = trace.Worker
	// EWMASample is one hybrid routing decision with the throughput
	// estimates that drove it.
	EWMASample = trace.EWMASample
	// SubOpProf is one suboperator's sampled profile within a pipeline
	// trace (Options.Profile → PipelineTrace.SubOps): calls, tuples and
	// nanoseconds attributed over the sampled chunks.
	SubOpProf = trace.SubOpProf
	// MetricsValues is a snapshot of the engine-wide metrics registry: series
	// name (e.g. "queries_succeeded", "ht_inserts_total") to value.
	MetricsValues = map[string]int64
)

// Typed query-failure causes (match with errors.Is). A failing query returns
// one of these — wrapped in a *QueryError when the failure has a location —
// while the process and concurrently running queries are unaffected.
var (
	// ErrCanceled: the RunContext/ExecuteContext context was canceled.
	ErrCanceled = exec.ErrCanceled
	// ErrDeadlineExceeded: the context deadline passed mid-query.
	ErrDeadlineExceeded = exec.ErrDeadlineExceeded
	// ErrMemoryBudget: the query crossed Options.MemoryBudget.
	ErrMemoryBudget = exec.ErrMemoryBudget
	// ErrPanic: a panic in query execution was recovered and isolated.
	ErrPanic = exec.ErrPanic
)

// Backends.
const (
	BackendVectorized = exec.BackendVectorized
	BackendCompiling  = exec.BackendCompiling
	BackendROF        = exec.BackendROF
	BackendHybrid     = exec.BackendHybrid
)

// Latency models (see DESIGN.md §2 for calibration).
var (
	LatencyC        = exec.LatencyC
	LatencyLLVM     = exec.LatencyLLVM
	LatencyFastPath = exec.LatencyFastPath
	LatencyNone     = exec.LatencyNone
)

// ParseBackend converts a backend name ("vectorized", "compiling", "rof",
// "hybrid") to a Backend.
func ParseBackend(s string) (Backend, error) { return exec.ParseBackend(s) }

// SQL text frontend (see CompileSQL / RunSQL in inkfuse.go).
type (
	// SQLStatement is a parsed, bound SELECT: relational tree, output
	// columns, parameters and the plan-cache fingerprint.
	SQLStatement = sql.Statement
	// SQLPosition is a 1-based line/column location in SQL source text.
	SQLPosition = sql.Position
	// SQLParseError is a syntax error with its source position.
	SQLParseError = sql.ParseError
	// SQLBindError is a semantic error (unknown column, kind mismatch, …)
	// with its source position.
	SQLBindError = sql.BindError
	// PlanCache is a fingerprint-keyed LRU of lowered plans and their
	// compiled artifacts (see internal/plancache for the lease protocol).
	PlanCache = plancache.Cache
	// PreparedPlan is one cached plan instance leased from a PlanCache.
	PreparedPlan = plancache.Prepared
	// PlanCacheConfig bounds a PlanCache.
	PlanCacheConfig = plancache.Config
)

// SQLErrorPosition extracts the source location from a CompileSQL error
// (false for errors that carry none).
func SQLErrorPosition(err error) (SQLPosition, bool) { return sql.ErrorPosition(err) }

// NewPlanCache builds a plan/artifact cache; zero config uses the defaults
// (64 entries, 64 MiB artifact budget).
func NewPlanCache(cfg PlanCacheConfig) *PlanCache { return plancache.New(cfg) }

// Engine flight recorder and canonical query log (see internal/flight and
// internal/obs): the always-on observability layer inkserve exposes at
// GET /debug/flight and emits as one wide slog event per query.
type (
	// FlightEvent is one decoded flight-recorder event.
	FlightEvent = flight.Event
	// FlightKind classifies a flight-recorder event.
	FlightKind = flight.Kind
	// QueryEvent is the canonical wide event of one query completion.
	QueryEvent = obs.QueryEvent
	// TailSampler decides which canonical query events are logged: the
	// interesting tail always, plain successes at SuccessRate.
	TailSampler = obs.TailSampler
)

// FlightSnapshot returns the engine flight recorder's surviving events in
// chronological order.
func FlightSnapshot() []FlightEvent { return flight.Default.Snapshot() }

// FlightRecent returns the last n flight events of one query, interleaved
// with engine-wide events (plan cache, drain); query 0 matches everything.
func FlightRecent(n int, query uint64) []FlightEvent { return flight.Default.Recent(n, query) }

// FlightDump writes the human-readable flight-recorder dump to w.
func FlightDump(w io.Writer) { flight.Default.Dump(w) }
