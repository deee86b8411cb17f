// Package serve implements inkserve, the long-running HTTP engine server:
// JSON queries over a resident TPC-H catalog executed through
// exec.ExecuteContext with per-request timeout, memory budget and backend
// selection; Prometheus text exposition on /metrics; health and liveness on
// /healthz; and the Go profiling endpoints under /debug/pprof.
//
// The server is a thin stateless shell around the engine: every request is
// one query, isolated by the executor's cancellation/panic/budget machinery,
// so a failing request returns a structured error while the process and
// concurrent requests keep serving.
//
// Observability: every query completion emits one canonical wide event
// (obs.QueryEvent) through log/slog, tail-sampled so errors, shed, slow and
// degraded queries always log while plain successes log at
// Config.LogSampleRate. The engine flight recorder is exposed at
// GET /debug/flight, and any query ending in error carries its recent flight
// events in the error response. Requests may join a distributed trace via the
// W3C traceparent header; traced executions export OTLP-shaped JSON spans to
// Config.SpanSink and, on request, inline in the response.
//
//inklint:lockscope
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"inkfuse/internal/algebra"
	"inkfuse/internal/core"
	"inkfuse/internal/exec"
	"inkfuse/internal/faultinject"
	"inkfuse/internal/flight"
	"inkfuse/internal/obs"
	"inkfuse/internal/plancache"
	"inkfuse/internal/sched"
	"inkfuse/internal/sql"
	"inkfuse/internal/storage"
	"inkfuse/internal/tpch"
	"inkfuse/internal/types"
)

// Config configures an inkserve instance.
type Config struct {
	// SF / Seed parameterize the resident TPC-H catalog (SF 0.1 ≈ 600k
	// lineitem rows). SF <= 0 defaults to 0.1.
	SF   float64
	Seed uint64
	// DefaultBackend serves requests that do not name one ("" = hybrid).
	DefaultBackend string
	// DefaultTimeout bounds requests that do not set timeout_ms (0 = none
	// beyond the client connection's lifetime).
	DefaultTimeout time.Duration
	// SlowQuery is the slow-query log threshold; queries at or above it log
	// at Warn instead of Info. 0 disables the distinction.
	SlowQuery time.Duration
	// MaxRows caps the result rows inlined into a response (and is itself the
	// cap for per-request max_rows). <= 0 defaults to 100.
	MaxRows int
	// EngineWorkers sizes the engine-wide scheduler pool all requests share
	// (0 = sched.DefaultWorkers()). Per-request workers stay the query's
	// parallelism; the pool bounds total execution concurrency.
	EngineWorkers int
	// MaxConcurrent caps concurrently executing queries; excess requests wait
	// in the bounded admission queue and are shed with 429 once it fills.
	// 0 = unlimited (no admission control).
	MaxConcurrent int
	// QueueDepth bounds the admission queue (0 = sched.DefaultQueueDepth,
	// negative = no queue: shed immediately at capacity).
	QueueDepth int
	// MemLimit caps the sum of admitted queries' memory budgets
	// (0 = unlimited).
	MemLimit int64
	// PlanCacheEntries bounds distinct query shapes in the plan/artifact
	// cache (0 = 64; negative disables caching entirely).
	PlanCacheEntries int
	// PlanCacheBytes bounds the cache's memory estimate: compiled artifacts
	// plus the execution state idle instances keep. 0 derives the bound from
	// MemLimit (MemLimit/8, so the cache never crowds out query memory
	// reservations) or falls back to the plancache default.
	PlanCacheBytes int64
	// MaxPrepared caps registered prepared statements (0 = 4096).
	MaxPrepared int
	// Logger receives the query log; nil uses slog.Default().
	Logger *slog.Logger
	// LogSampleRate tail-samples the canonical query log: errors, shed, slow
	// and degraded queries always log; plain successes log at this fraction.
	// 0 keeps everything (sampling off); negative drops all plain successes.
	LogSampleRate float64
	// SpanSink receives one OTLP JSON span document (one line) per traced
	// query. Setting it enables execution tracing on every query.
	SpanSink io.Writer
}

// Server is one inkserve instance: a resident catalog, the engine-wide
// scheduler pool every request executes through, and the HTTP handlers.
type Server struct {
	cfg     Config
	cat     *storage.Catalog
	pool    *sched.Pool
	cache   *plancache.Cache // nil when disabled
	log     *slog.Logger
	sampler obs.TailSampler
	spanMu  sync.Mutex // serializes SpanSink writes

	prepMu   sync.Mutex
	prepared map[string]*sql.Statement
	prepSeq  atomic.Int64

	start    time.Time
	seq      atomic.Int64 // request ids for the query log
	served   atomic.Int64 // completed /query requests
	inflight atomic.Int64
}

// New builds a server, generating the resident TPC-H catalog.
func New(cfg Config) *Server {
	if cfg.SF <= 0 {
		cfg.SF = 0.1
	}
	if cfg.DefaultBackend == "" {
		cfg.DefaultBackend = "hybrid"
	}
	if cfg.MaxRows <= 0 {
		cfg.MaxRows = 100
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	if cfg.MaxPrepared <= 0 {
		cfg.MaxPrepared = 4096
	}
	pool := sched.NewPool(sched.Config{
		Workers:       cfg.EngineWorkers,
		MaxConcurrent: cfg.MaxConcurrent,
		QueueDepth:    cfg.QueueDepth,
		MemLimit:      cfg.MemLimit,
	})
	var cache *plancache.Cache
	if cfg.PlanCacheEntries >= 0 {
		bytes := cfg.PlanCacheBytes
		if bytes == 0 && cfg.MemLimit > 0 {
			bytes = cfg.MemLimit / 8
		}
		cache = plancache.New(plancache.Config{MaxEntries: cfg.PlanCacheEntries, MaxBytes: bytes})
	}
	sampler := obs.TailSampler{SuccessRate: cfg.LogSampleRate}
	if cfg.LogSampleRate == 0 {
		sampler.SuccessRate = 1
	}
	return &Server{
		cfg: cfg, cat: tpch.Generate(cfg.SF, cfg.Seed), pool: pool, cache: cache,
		prepared: make(map[string]*sql.Statement), log: log, sampler: sampler,
		start: time.Now(),
	}
}

// Close drains the server's scheduler: admissions stop (new queries get 503
// "draining"), in-flight queries run until ctx expires, and stragglers are
// then canceled (their requests end with 504). Returns how the drain
// resolved; call once, at shutdown, alongside http.Server.Shutdown.
func (s *Server) Close(ctx context.Context) sched.CloseStats {
	return s.pool.Close(ctx)
}

// SchedStats snapshots the server's scheduler pool (health and tests).
func (s *Server) SchedStats() sched.Stats {
	return s.pool.Stats()
}

// Handler returns the server's route table. Everything is mounted on a fresh
// mux (nothing leaks onto http.DefaultServeMux), including the pprof and
// expvar endpoints a production deployment scrapes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /prepare", s.handlePrepare)
	mux.HandleFunc("DELETE /prepare/{handle}", s.handleClosePrepared)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /queries", s.handleQueries)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// QueryRequest is the JSON body of POST /query. Exactly one of Query, SQL,
// Prepared selects what runs.
type QueryRequest struct {
	// Query names one of the served TPC-H queries (see GET /queries): the
	// request runs that query's SQL text, plan cache included.
	Query string `json:"query,omitempty"`
	// SQL is a SELECT statement compiled by the text frontend. Literals are
	// auto-parameterized: repeated shapes share a plan-cache entry.
	SQL string `json:"sql,omitempty"`
	// Prepared executes a statement registered via POST /prepare.
	Prepared string `json:"prepared,omitempty"`
	// Params fills the statement's ? placeholders, in text order. Numbers
	// bind to the column kind the planner inferred; dates are "YYYY-MM-DD"
	// strings.
	Params []any `json:"params,omitempty"`
	// Backend selects the execution backend ("vectorized", "compiling",
	// "rof", "hybrid"); empty uses the server default.
	Backend string `json:"backend,omitempty"`
	// TimeoutMS bounds this query's execution; 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MemoryBudget caps the query's runtime-state bytes (0 = unlimited).
	MemoryBudget int64 `json:"memory_budget,omitempty"`
	// Workers overrides the worker count (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Explain returns the EXPLAIN ANALYZE rendering (with the per-suboperator
	// profile) alongside the result.
	Explain bool `json:"explain,omitempty"`
	// Profile enables the sampled suboperator profiler and attaches the trace
	// dump even without Explain.
	Profile bool `json:"profile,omitempty"`
	// MaxRows caps the rows inlined into the response (bounded by the server
	// cap; 0 = server cap).
	MaxRows int `json:"max_rows,omitempty"`
	// Spans enables execution tracing and returns the query's OTLP-shaped
	// span document inline in the response.
	Spans bool `json:"spans,omitempty"`
}

// QueryResponse is the JSON body of a successful POST /query.
type QueryResponse struct {
	ID         int64    `json:"id"`
	Query      string   `json:"query"`
	Backend    string   `json:"backend"`
	Rows       int      `json:"rows"`
	WallMS     float64  `json:"wall_ms"`
	RowsPerSec float64  `json:"rows_per_sec,omitempty"` // source tuples/sec
	Columns    []string `json:"columns,omitempty"`
	Data       [][]any  `json:"data,omitempty"`
	// TotalRows is the full result cardinality; Data holds min(TotalRows,
	// max_rows) rows and RowsTruncated says whether the cap cut anything.
	TotalRows     int      `json:"total_rows"`
	RowsTruncated bool     `json:"rows_truncated"`
	Warnings      []string `json:"warnings,omitempty"`
	Explain       string   `json:"explain,omitempty"`
	Trace         string   `json:"trace,omitempty"`
	// Fingerprint is the parameter-invariant plan-cache key;
	// PlanCache reports whether this execution reused a cached plan ("hit",
	// "miss", or "off" when caching is disabled).
	Fingerprint string `json:"fingerprint,omitempty"`
	PlanCache   string `json:"plan_cache,omitempty"`
	// QueryID is the engine-wide query id — the correlation key for the
	// flight recorder, the canonical query log, and exported spans.
	QueryID     uint64  `json:"query_id,omitempty"`
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	// TraceID echoes the trace the query joined (from the traceparent header,
	// or derived from the query id when spans were requested without one).
	TraceID string `json:"trace_id,omitempty"`
	// Spans is the OTLP-shaped JSON span document, present when the request
	// set spans=true.
	Spans json.RawMessage `json:"spans,omitempty"`
}

// ErrorResponse is the JSON body of a failed request. Kind classifies the
// failure ("bad_request", "unknown_query", "parse_error", "bind_error",
// "bad_params", "unknown_prepared", "canceled", "deadline", "memory_budget",
// "panic", "internal"); QueryError locates engine failures and Location
// points parse/bind errors into the SQL text.
type ErrorResponse struct {
	Error      string            `json:"error"`
	Kind       string            `json:"kind"`
	Location   *sql.Position     `json:"location,omitempty"`
	QueryError *QueryErrorDetail `json:"query_error,omitempty"`
	// QueryID and Flight attach engine context to execution failures: the
	// query's recent flight-recorder events (admission, compiles, morsel
	// batches, memory) leading up to the error, rendered one per line.
	QueryID uint64   `json:"query_id,omitempty"`
	Flight  []string `json:"flight,omitempty"`
}

// QueryErrorDetail is the serialized form of an exec.QueryError: where inside
// the engine the query failed.
type QueryErrorDetail struct {
	Query    string `json:"query"`
	Pipeline string `json:"pipeline,omitempty"`
	Backend  string `json:"backend"`
	Worker   int    `json:"worker"`
	Morsel   int    `json:"morsel"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	id := s.seq.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	defer s.served.Add(1)
	// Serve-layer panic isolation: the engine already converts query panics
	// into *QueryError, so anything reaching here is a bug in the handler
	// itself (or an injected ServeExecute/ServeRespond fault) — fail the
	// request, keep the server.
	defer func() {
		if rec := recover(); rec != nil {
			s.log.Error("request panic recovered", "id", id, "panic", fmt.Sprint(rec))
			writeJSON(w, http.StatusInternalServerError,
				ErrorResponse{Error: fmt.Sprintf("internal error: %v", rec), Kind: "internal"})
		}
	}()

	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.failRequest(w, id, http.StatusBadRequest, "bad_request", fmt.Errorf("decoding request: %w", err))
		return
	}
	if err := faultinject.Inject(faultinject.ServeParse); err != nil {
		s.failRequest(w, id, http.StatusBadRequest, "bad_request", err)
		return
	}

	backendName := req.Backend
	if backendName == "" {
		backendName = s.cfg.DefaultBackend
	}
	backend, err := exec.ParseBackend(backendName)
	if err != nil {
		s.failRequest(w, id, http.StatusBadRequest, "bad_request", err)
		return
	}
	nSources := 0
	for _, src := range []string{req.Query, req.SQL, req.Prepared} {
		if src != "" {
			nSources++
		}
	}
	if nSources != 1 {
		s.failRequest(w, id, http.StatusBadRequest, "bad_request",
			errors.New("exactly one of query, sql, prepared must be set"))
		return
	}
	source := "sql"
	switch {
	case req.Query != "":
		source = "plan"
	case req.Prepared != "":
		source = "prepared"
	}

	// Resolve the request to a compiled statement and a leased plan. All
	// parse, bind, and parameter failures reject here, before the query
	// touches the scheduler: a malformed request must never hold an admission
	// slot or a memory reservation (admission happens inside
	// exec.ExecuteContext below). A named query is the SQL path for its
	// tpch text, labelled with its name.
	var stmt *sql.Statement
	switch {
	case req.Query != "":
		text, ok := tpch.Text(req.Query)
		if !ok {
			s.failRequest(w, id, http.StatusNotFound, "unknown_query", fmt.Errorf("unknown query %q", req.Query))
			return
		}
		if stmt, err = sql.Compile(s.cat, text); err != nil {
			s.failRequest(w, id, http.StatusInternalServerError, "internal", err)
			return
		}
	case req.Prepared != "":
		if stmt = s.lookupPrepared(req.Prepared); stmt == nil {
			s.failRequest(w, id, http.StatusNotFound, "unknown_prepared",
				fmt.Errorf("unknown prepared statement %q", req.Prepared))
			return
		}
	default:
		if stmt, err = sql.Compile(s.cat, req.SQL); err != nil {
			s.failSQL(w, id, err)
			return
		}
	}
	if len(req.Params) != stmt.NumParams() {
		s.failRequest(w, id, http.StatusBadRequest, "bad_params",
			fmt.Errorf("statement takes %d parameters, got %d", stmt.NumParams(), len(req.Params)))
		return
	}
	label := stmt.Name // query name for logs and the response
	if req.Query != "" {
		label = req.Query
	}
	fingerprint := stmt.Fingerprint.Hex()
	prep, cacheState := s.acquirePlan(stmt)
	if prep == nil {
		lowered, params, err := algebra.LowerWithParams(stmt.Root, stmt.Name)
		if err != nil {
			s.failRequest(w, id, http.StatusInternalServerError, "internal", err)
			return
		}
		if err := core.VerifyPlan(lowered); err != nil {
			s.failRequest(w, id, http.StatusInternalServerError, "internal", err)
			return
		}
		prep = plancache.NewPrepared(stmt.Fingerprint, lowered, params)
	}
	if err := stmt.BindArgs(prep.Params(), req.Params); err != nil {
		s.cache.Put(prep)
		s.failRequest(w, id, http.StatusBadRequest, "bad_params", err)
		return
	}
	plan := prep.Plan()
	// Return the leased instance — with whatever artifacts this execution's
	// compile jobs land — once the request is done with it (with caching
	// off, Put cancels the jobs still in flight).
	defer s.cache.Put(prep)

	// Engine-wide query id: allocated here so the flight recorder, canonical
	// log, error responses and spans all correlate even when execution never
	// produces a Result (shed, panic before the first morsel).
	qid := exec.NextQueryID()
	traceID, parentSpan := parseTraceparent(r.Header.Get("traceparent"))
	opts := exec.Options{
		Backend:      backend,
		Workers:      req.Workers,
		MemoryBudget: req.MemoryBudget,
		Profile:      req.Profile,
		Trace:        req.Profile || req.Spans || s.cfg.SpanSink != nil,
		Pool:         s.pool,
		Artifacts:    prep.Artifacts(),
		QueryID:      qid,
		Fingerprint:  fingerprint,
	}
	ctx := r.Context()
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	if err := faultinject.Inject(faultinject.ServeExecute); err != nil {
		s.failRequest(w, id, http.StatusInternalServerError, "internal", err)
		return
	}
	var (
		res     *exec.Result
		explain string
	)
	if req.Explain {
		explain, res, err = exec.ExplainAnalyze(ctx, plan, opts)
	} else {
		res, err = exec.ExecuteContext(ctx, plan, opts)
	}

	// The canonical event is the engine's record plus what serve adds. A
	// query refused at admission has no record: its identity is filled here.
	ev := &obs.QueryEvent{Query: label, Source: source, TraceID: traceID, PlanCache: cacheState, Outcome: "ok"}
	if res != nil {
		ev.QueryRecord = res.QueryRecord
		ev.Slow = s.cfg.SlowQuery > 0 && res.Wall >= s.cfg.SlowQuery
	} else {
		ev.ID, ev.Backend, ev.Fingerprint, ev.Err = qid, backend.String(), fingerprint, err.Error()
	}
	arts := prep.Artifacts()
	ev.Compiles, ev.ArtifactsReused, ev.ArtifactBytes = arts.Compiles(), int64(arts.FusedPipelines()), arts.ArtifactBytes()
	if err != nil {
		status, kind := classify(err)
		ev.Outcome = kind
		s.logEvent(ev)
		s.exportSpans(res, traceID, parentSpan) // a failed query still exports its partial trace
		if kind == "shed" {
			// Load shedding is transient back-pressure, not failure: tell
			// well-behaved clients when to retry.
			w.Header().Set("Retry-After", "1")
		}
		// Attach the flight-recorder context: the query's own lifecycle
		// events plus engine-wide ones (plan cache, drain) leading up to the
		// failure, so a shed or timed-out query is diagnosable from its
		// error response alone.
		resp := ErrorResponse{Error: err.Error(), Kind: kind, QueryID: qid, Flight: flightLines(qid)}
		var qe *exec.QueryError
		if errors.As(err, &qe) {
			resp.QueryError = &QueryErrorDetail{
				Query: qe.Query, Pipeline: qe.Pipeline, Backend: qe.Backend.String(),
				Worker: qe.Worker, Morsel: qe.Morsel,
			}
		}
		writeJSON(w, status, resp)
		return
	}

	maxRows := req.MaxRows
	if maxRows <= 0 || maxRows > s.cfg.MaxRows {
		maxRows = s.cfg.MaxRows
	}
	resp := QueryResponse{
		ID: id, Query: label, Backend: backendName,
		Rows: res.Rows(), WallMS: float64(res.Wall) / float64(time.Millisecond),
		Columns: res.Cols, Explain: explain,
		TotalRows: res.Rows(), Fingerprint: fingerprint, PlanCache: cacheState,
		QueryID:     qid,
		QueueWaitMS: float64(res.QueueWait) / float64(time.Millisecond),
		TraceID:     traceID,
	}
	if secs := res.Wall.Seconds(); secs > 0 {
		resp.RowsPerSec = float64(res.Stats.Tuples) / secs
	}
	for _, warn := range res.Warnings {
		resp.Warnings = append(resp.Warnings, warn.Error())
	}
	if req.Profile && res.Trace != nil {
		resp.Trace = res.Trace.Dump()
	}
	if res.Chunk != nil {
		n := res.Rows()
		if n > maxRows {
			n = maxRows
			resp.RowsTruncated = true
		}
		resp.Data = make([][]any, n)
		for i := 0; i < n; i++ {
			resp.Data[i] = renderRow(res.Chunk, i)
		}
	}
	if raw := s.exportSpans(res, traceID, parentSpan); raw != nil && req.Spans {
		resp.Spans = raw
	}
	s.logEvent(ev)
	if err := faultinject.Inject(faultinject.ServeRespond); err != nil {
		s.failRequest(w, id, http.StatusInternalServerError, "internal", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// acquirePlan leases a cached instance for the statement's fingerprint.
// Returns (nil, "miss") when the caller must lower a fresh plan, and
// (nil, "off") when caching is disabled.
func (s *Server) acquirePlan(stmt *sql.Statement) (*plancache.Prepared, string) {
	if s.cache == nil {
		return nil, "off"
	}
	if prep := s.cache.Acquire(stmt.Fingerprint); prep != nil {
		return prep, "hit"
	}
	return nil, "miss"
}

// failSQL writes a parse or bind failure with its source location. Anything
// else coming out of sql.Compile is an internal error.
func (s *Server) failSQL(w http.ResponseWriter, id int64, err error) {
	kind := "internal"
	status := http.StatusInternalServerError
	var pe *sql.ParseError
	var be *sql.BindError
	switch {
	case errors.As(err, &pe):
		kind, status = "parse_error", http.StatusBadRequest
	case errors.As(err, &be):
		kind, status = "bind_error", http.StatusBadRequest
	}
	s.log.Info("request rejected", "id", id, "kind", kind, "err", err.Error())
	resp := ErrorResponse{Error: err.Error(), Kind: kind}
	if pos, ok := sql.ErrorPosition(err); ok {
		resp.Location = &pos
	}
	writeJSON(w, status, resp)
}

func (s *Server) lookupPrepared(handle string) *sql.Statement {
	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	return s.prepared[handle]
}

// PrepareRequest is the JSON body of POST /prepare.
type PrepareRequest struct {
	SQL string `json:"sql"`
}

// PrepareResponse describes a registered prepared statement.
type PrepareResponse struct {
	Handle      string   `json:"handle"`
	Params      int      `json:"params"`
	Columns     []string `json:"columns,omitempty"`
	Fingerprint string   `json:"fingerprint"`
}

// handlePrepare compiles a statement once and registers it under a handle;
// later POST /query {"prepared": handle} calls skip parsing and binding, and
// the fingerprint-keyed plan cache skips lowering and compilation.
func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	id := s.seq.Add(1)
	var req PrepareRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.failRequest(w, id, http.StatusBadRequest, "bad_request", fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.SQL == "" {
		s.failRequest(w, id, http.StatusBadRequest, "bad_request", errors.New("sql must be set"))
		return
	}
	stmt, err := sql.Compile(s.cat, req.SQL)
	if err != nil {
		s.failSQL(w, id, err)
		return
	}
	s.prepMu.Lock()
	if len(s.prepared) >= s.cfg.MaxPrepared {
		s.prepMu.Unlock()
		s.failRequest(w, id, http.StatusInsufficientStorage, "prepared_limit",
			fmt.Errorf("prepared statement limit (%d) reached; close unused handles", s.cfg.MaxPrepared))
		return
	}
	handle := fmt.Sprintf("p%d", s.prepSeq.Add(1))
	s.prepared[handle] = stmt
	s.prepMu.Unlock()
	s.log.Info("statement prepared", "id", id, "handle", handle, "name", stmt.Name,
		"fingerprint", stmt.Fingerprint.Hex(), "params", stmt.NumParams())
	writeJSON(w, http.StatusOK, PrepareResponse{
		Handle: handle, Params: stmt.NumParams(), Columns: stmt.Columns,
		Fingerprint: stmt.Fingerprint.Hex(),
	})
}

// handleClosePrepared drops a handle. Cached plans for its fingerprint stay in
// the plan cache (other handles or raw SQL of the same shape still hit them).
func (s *Server) handleClosePrepared(w http.ResponseWriter, r *http.Request) {
	handle := r.PathValue("handle")
	s.prepMu.Lock()
	_, ok := s.prepared[handle]
	delete(s.prepared, handle)
	s.prepMu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{
			Error: fmt.Sprintf("unknown prepared statement %q", handle), Kind: "unknown_prepared",
		})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// renderRow converts one result row to JSON scalars, rendering Date columns
// in calendar form.
func renderRow(c *storage.Chunk, i int) []any {
	row := c.Row(i)
	for j, col := range c.Cols {
		switch col.Kind {
		case types.Date:
			row[j] = types.DateString(col.I32[i])
		case types.Float64:
			// JSON has no NaN or ±Inf (a global avg/min/max over zero rows
			// computes them); null is SQL's answer there anyway.
			if v := col.F64[i]; math.IsNaN(v) || math.IsInf(v, 0) {
				row[j] = nil
			}
		}
	}
	return row
}

// classify maps an engine error onto an HTTP status and error kind. Scheduler
// rejections come first: a shed or draining query never ran, and neither is a
// server fault — the load-shedding contract is that overload produces 429/503,
// never 500.
func classify(err error) (int, string) {
	switch {
	case errors.Is(err, sched.ErrQueueFull):
		return http.StatusTooManyRequests, "shed"
	case errors.Is(err, sched.ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, sched.ErrOverCapacity):
		return http.StatusRequestEntityTooLarge, "over_capacity"
	case errors.Is(err, exec.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, exec.ErrCanceled):
		return http.StatusGatewayTimeout, "canceled"
	case errors.Is(err, exec.ErrMemoryBudget):
		// A budget overrun means this query asked for more memory than its
		// own cap allows — a client-sized request, not a server fault.
		return http.StatusRequestEntityTooLarge, "memory_budget"
	case errors.Is(err, exec.ErrPanic):
		return http.StatusInternalServerError, "panic"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// failRequest logs and writes a pre-execution failure.
func (s *Server) failRequest(w http.ResponseWriter, id int64, status int, kind string, err error) {
	s.log.Info("request rejected", "id", id, "kind", kind, "err", err.Error())
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Kind: kind})
}

// logEvent emits the canonical event through the tail sampler.
func (s *Server) logEvent(e *obs.QueryEvent) {
	if s.sampler.Keep(e) {
		e.Emit(s.log)
	}
}

// exportSpans renders the execution trace as an OTLP JSON document, writes it
// to the configured span sink (one document per line), and returns it for
// inline use. Nil when the query was not traced. traceID and parentSpan come
// from the request's traceparent header (empty when it had none).
func (s *Server) exportSpans(res *exec.Result, traceID, parentSpan string) []byte {
	if res == nil || res.Trace == nil {
		return nil
	}
	raw, err := res.Trace.Spans(traceID, parentSpan)
	if err != nil {
		return nil
	}
	if s.cfg.SpanSink != nil {
		s.spanMu.Lock()
		_, _ = s.cfg.SpanSink.Write(raw)
		_, _ = io.WriteString(s.cfg.SpanSink, "\n")
		s.spanMu.Unlock()
	}
	return raw
}

// flightLines renders the flight recorder's recent events for one query
// (its own lifecycle plus engine-wide events like plan-cache and drain).
func flightLines(qid uint64) []string {
	evs := flight.Default.Recent(16, qid)
	if len(evs) == 0 {
		return nil
	}
	lines := make([]string, len(evs))
	for i := range evs {
		lines[i] = evs[i].String()
	}
	return lines
}

// parseTraceparent extracts the trace id and parent span id from a W3C
// traceparent header ("00-<32 hex>-<16 hex>-<2 hex>"). Malformed or all-zero
// values are ignored — a bad header must never fail the query.
func parseTraceparent(h string) (traceID, spanID string) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) != 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return "", ""
	}
	allZero := func(s string) bool { return strings.Trim(s, "0") == "" }
	for _, p := range parts[:3] {
		if !isLowerHex(p) {
			return "", ""
		}
	}
	if allZero(parts[1]) || allZero(parts[2]) {
		return "", ""
	}
	return parts[1], parts[2]
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleFlight serves the engine flight recorder: the full chronological dump
// by default, or the last ?n= events of query ?q= when filtering.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if qs := r.URL.Query().Get("q"); qs != "" {
		qid, err := strconv.ParseUint(qs, 10, 64)
		if err != nil {
			http.Error(w, "q must be a query id", http.StatusBadRequest)
			return
		}
		n := 64
		if ns := r.URL.Query().Get("n"); ns != "" {
			if v, err := strconv.Atoi(ns); err == nil && v > 0 {
				n = v
			}
		}
		for _, ev := range flight.Default.Recent(n, qid) {
			fmt.Fprintln(w, ev.String())
		}
		return
	}
	flight.Default.Dump(w)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, obs.Default.PrometheusText())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// Health degrades with the scheduler: "draining" once shutdown started,
	// "shedding" while the admission queue is full (the next query would get
	// 429) — both 503, so load balancers stop routing here before requests
	// start failing.
	ps := s.pool.Stats()
	status, code := "ok", http.StatusOK
	switch {
	case ps.Draining:
		status, code = "draining", http.StatusServiceUnavailable
	case ps.MaxConcurrent > 0 && ps.Running >= ps.MaxConcurrent && ps.Queued >= ps.QueueDepth:
		status, code = "shedding", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":   status,
		"uptime_s": time.Since(s.start).Seconds(),
		"sf":       s.cfg.SF,
		"served":   s.served.Load(),
		"inflight": s.inflight.Load(),
		"running":  ps.Running,
		"queued":   ps.Queued,
		"shed":     ps.Shed,
	})
}

func (s *Server) handleQueries(w http.ResponseWriter, _ *http.Request) {
	ps := s.pool.Stats()
	planCache := map[string]any{"enabled": false}
	if s.cache != nil {
		cs := s.cache.Stats()
		planCache = map[string]any{
			"enabled":   true,
			"entries":   cs.Entries,
			"bytes":     cs.Bytes,
			"hits":      cs.Hits,
			"misses":    cs.Misses,
			"evictions": cs.Evictions,
		}
	}
	s.prepMu.Lock()
	nPrepared := len(s.prepared)
	s.prepMu.Unlock()
	// Per-query admission detail: running queries with their final queue
	// wait, queued queries with their wait so far.
	active := []map[string]any{}
	for _, qi := range s.pool.QueryInfos() {
		entry := map[string]any{
			"id":            qi.ID,
			"query":         qi.Name,
			"backend":       qi.Backend,
			"state":         qi.State,
			"queue_wait_ms": float64(qi.QueueWait) / float64(time.Millisecond),
		}
		if qi.Fingerprint != "" {
			entry["fingerprint"] = qi.Fingerprint
		}
		active = append(active, entry)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"active":          active,
		"queries":         slices.Concat(tpch.Queries, tpch.ExtendedQueries),
		"sql":             "POST /query {\"sql\": \"select ...\"} or POST /prepare then {\"prepared\": handle, \"params\": [...]}",
		"backends":        []string{"vectorized", "compiling", "rof", "hybrid"},
		"default_backend": s.cfg.DefaultBackend,
		"max_rows":        s.cfg.MaxRows,
		"plan_cache":      planCache,
		"prepared":        nPrepared,
		"scheduler": map[string]any{
			"workers":        ps.Workers,
			"max_concurrent": ps.MaxConcurrent,
			"queue_depth":    ps.QueueDepth,
			"running":        ps.Running,
			"queued":         ps.Queued,
			"admitted":       ps.Admitted,
			"shed":           ps.Shed,
			"queue_timeouts": ps.QueueTimeouts,
			"draining":       ps.Draining,
		},
	})
}

// writeJSON encodes v before it commits to the status line: a value the
// encoder rejects becomes a typed 500 instead of the promised status over an
// empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		status = http.StatusInternalServerError
		buf.Reset()
		// An ErrorResponse of two strings always encodes.
		_ = enc.Encode(ErrorResponse{Error: "encoding response: " + err.Error(), Kind: "encode"})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client is gone; there is no one to tell.
	_, _ = w.Write(buf.Bytes())
}
