package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"inkfuse/internal/core"
	"inkfuse/internal/faultinject"
	"inkfuse/internal/flight"
	"inkfuse/internal/interp"
	"inkfuse/internal/obs"
	"inkfuse/internal/rt"
	"inkfuse/internal/sched"
	"inkfuse/internal/stats"
	"inkfuse/internal/storage"
	"inkfuse/internal/trace"
	"inkfuse/internal/types"
	"inkfuse/internal/vm"
)

// Options configures query execution.
type Options struct {
	Backend    Backend
	Workers    int           // default: GOMAXPROCS
	ChunkSize  int           // tuple-buffer rows, default 1024
	MorselSize int           // morsel rows, default 16384
	Latency    *LatencyModel // compile latency model; default LatencyC (nil) — ignored by the vectorized backend
	// MemoryBudget caps the bytes of query-owned runtime state (hash-table
	// arenas and bookkeeping). A query that crosses the cap fails with
	// ErrMemoryBudget instead of pressuring the process. 0 = unlimited.
	MemoryBudget int64
	// Trace enables the per-query execution trace (Result.Trace): per
	// pipeline the morsel counts, per-worker busy time, hybrid routing
	// decisions and EWMA series, compile timing, and finalization time.
	// Off by default; when off the morsel loop skips all trace work behind
	// one nil check per morsel (no per-row cost either way).
	Trace bool
	// Profile enables the sampled per-suboperator profiler on backends that
	// serve morsels through the vectorized interpreter (vectorized, hybrid):
	// one in every ProfileEvery chunks runs through a timed step loop that
	// attributes nanoseconds and input tuples to each suboperator primitive.
	// Results land in the trace (Pipeline.SubOps) and EXPLAIN ANALYZE. Off by
	// default; when off the chunk loop pays a single nil check.
	Profile bool
	// ProfileEvery is the profiler's sampling period in chunks;
	// 0 = interp.DefaultProfileEvery.
	ProfileEvery int
	// Pool is the engine-wide scheduler this query dispatches its morsels
	// into. nil = sched.Shared(), the process-wide default pool with
	// unlimited admission. Servers pass their own admission-controlled pool.
	// Workers stays the query's parallelism: it is the in-flight morsel cap
	// and per-query state fan-out (slot count), independent of the pool size.
	Pool *sched.Pool
	// VerifyIR runs core.VerifyPlan on the plan before execution: IU
	// def-use/single-producer checks, edge kind consistency, and pipeline
	// breaker placement. A rejected plan fails with ErrInvalidPlan before any
	// worker state is built. Off by default (lowering is trusted in
	// production); tests and the serving layer's strict mode turn it on.
	VerifyIR bool
	// Artifacts, when non-nil, carries what the plan instance keeps across its
	// executions: the compile jobs of its pipelines (the compiling/ROF/hybrid
	// backends take the set's job for a chain or start one in it, and a
	// background job lands there after its query returned) and the execution
	// state of the previous run — worker contexts, pipeline buffers, table
	// memory — which this run then executes on instead of building its own.
	// Both close over the plan's runtime state, so the set must only ever be
	// used with the plan it was built from, by one execution at a time, with
	// ArtifactSet.Rewind in between (the plancache enforces all three by
	// leasing plan and set together).
	Artifacts *ArtifactSet
	// QueryID is the engine-wide query id keying flight-recorder events and
	// trace/span correlation. 0 = allocate one (NextQueryID); servers assign
	// ids up front so admission failures are already attributable.
	QueryID uint64
	// TraceID and ParentSpanID carry W3C trace-context correlation from the
	// serving layer into the query trace (and from there into exported
	// spans). Empty = uncorrelated; the span renderer then derives a
	// deterministic trace id from QueryID.
	TraceID      string
	ParentSpanID string
	// Fingerprint is the plan-cache fingerprint of SQL-built plans, threaded
	// into scheduler QueryInfos and the canonical query log.
	Fingerprint string
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = storage.DefaultChunkCap
	}
	if o.MorselSize <= 0 {
		o.MorselSize = storage.DefaultMorselRows
	}
	if o.Latency == nil {
		l := LatencyC
		o.Latency = &l
	}
	return o
}

// Result is a completed query.
type Result struct {
	Cols  []string
	Chunk *storage.Chunk
	Stats stats.Counters
	// QueryID is the engine-wide id this execution ran under (Options.QueryID
	// or freshly allocated) — the key for flight-recorder correlation.
	QueryID uint64
	// QueueWait is the time spent in the scheduler's admission queue before
	// the query started executing.
	QueueWait time.Duration
	// Wall is the end-to-end execution time.
	Wall time.Duration
	// Warnings reports non-fatal degradations (e.g. a hybrid background
	// compile failed and the pipeline ran vectorized-only).
	Warnings []error
	// Trace is the execution trace, present when Options.Trace was set. A
	// failed or canceled query carries a coherent partial trace of the
	// pipelines that ran.
	Trace *trace.Query
}

// Rows returns the number of result rows.
func (r *Result) Rows() int {
	if r.Chunk == nil {
		return 0
	}
	return r.Chunk.Rows()
}

// Describe fills the canonical query-log event's execution half — id, volume,
// durations, counters, degradation — from the result; the caller owns the
// event's identity and outcome.
func (r *Result) Describe(e *obs.QueryEvent) {
	e.ID = r.QueryID
	e.Rows = r.Rows()
	e.Wall = r.Wall
	e.QueueWait = r.QueueWait
	e.Counters = r.Stats
	e.Degraded = len(r.Warnings) > 0 || r.Stats.CompileErrors > 0
}

// queryState is the shared lifecycle of one executing query: the first
// failure wins, every later morsel pull observes it and drains cleanly.
type queryState struct {
	ctx  context.Context
	down atomic.Bool

	mu  sync.Mutex
	err error
}

// fail records the query's failure; the first error is kept.
func (q *queryState) fail(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.mu.Unlock()
	q.down.Store(true)
}

// stopped reports whether workers must stop pulling morsels, folding context
// cancellation into the failure state.
func (q *queryState) stopped() bool {
	if q.down.Load() {
		return true
	}
	if err := q.ctx.Err(); err != nil {
		q.fail(ctxCause(err))
		return true
	}
	return false
}

// failure returns the recorded error, if any.
func (q *queryState) failure() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// errQueryStopped is the sentinel a morsel task returns when the query has
// already failed or been canceled: it stops the task set early without
// introducing a new error (the real failure lives in queryState).
var errQueryStopped = errors.New("exec: query stopped")

// queryIDSeq backs NextQueryID.
var queryIDSeq atomic.Uint64

// NextQueryID allocates a fresh engine-wide query id. Serving layers call it
// before admission so a shed or timed-out query already has an id its flight
// events attach to; ExecuteContext allocates one itself when Options.QueryID
// is zero.
func NextQueryID() uint64 { return queryIDSeq.Add(1) }

// Execute runs a lowered plan and returns its result.
func Execute(plan *core.Plan, opts Options) (*Result, error) {
	return ExecuteContext(context.Background(), plan, opts)
}

// ExecuteContext runs a lowered plan under a context. Cancellation and
// deadlines are observed at morsel granularity and inside compilation waits;
// the returned error wraps ErrCanceled / ErrDeadlineExceeded. Panics in
// query code and memory-budget violations fail only this query (typed as
// ErrPanic / ErrMemoryBudget inside a *QueryError): workers drain, the
// process and subsequent queries keep running. On failure the returned
// *Result is non-nil with Stats (no Chunk) for diagnostics.
func ExecuteContext(ctx context.Context, plan *core.Plan, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	// From here until the OK return the instance's kept execution state counts
	// as spoiled: every error path below leaves it for ArtifactSet.Rewind to
	// drop.
	opts.Artifacts.begin()
	start := time.Now()
	obs.Default.Add(obs.QueriesStarted, 1)

	// Every execution runs under an engine-wide query id: the key its flight
	// events, scheduler QueryInfos row, and exported spans share. The query
	// label is interned once here so no later recording site touches the
	// intern table.
	if opts.QueryID == 0 {
		opts.QueryID = NextQueryID()
	}
	qlabel := flight.Default.Intern(plan.Name)
	flight.Default.Record(flight.KindQueryStart, opts.QueryID, qlabel, int64(opts.Backend), 0)

	res, err := execute(ctx, plan, opts, start)

	// Completion: however the query ended — plan rejected, admission refused,
	// failed, canceled, succeeded — it is reported here and nowhere else, once
	// to the engine registry (outcome, counters, histograms) and once to the
	// flight recorder.
	wall := time.Since(start)
	c, kind, rows := &noCounters, flight.KindQueryError, 0
	if res != nil {
		res.Wall, c, rows = wall, &res.Stats, res.Rows()
		if qt := res.Trace; qt != nil {
			qt.Wall = wall
			if err != nil {
				qt.Err = err.Error()
			}
		}
	}
	if err == nil {
		kind = flight.KindQueryDone
		opts.Artifacts.done()
	}
	canceled := errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadlineExceeded)
	obs.Default.QueryDone(opts.Backend.String(), c, wall, err, canceled, err == nil && len(res.Warnings) > 0)
	flight.Default.Record(kind, opts.QueryID, qlabel, int64(wall), int64(rows))
	return res, err
}

// noCounters is what a query that never ran reports at completion.
var noCounters stats.Counters

// execute is ExecuteContext between its start and completion reports. On
// failure the Result is nil when the query never ran (rejected plan, refused
// admission), otherwise the diagnostic one.
func execute(ctx context.Context, plan *core.Plan, opts Options, start time.Time) (*Result, error) {
	pol, err := policyOf(opts.Backend)
	if err != nil {
		return nil, err
	}
	if opts.VerifyIR {
		if err := core.VerifyPlan(plan); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalidPlan, err)
		}
	}
	qs := &queryState{ctx: ctx}
	qid := opts.QueryID
	backend := opts.Backend.String()
	// The per-morsel latency histogram child is resolved once per query; the
	// morsel loop observes through the pointer (two atomic adds per morsel).
	morselHist := obs.Default.MorselLatency.With(backend)

	// Admission: the query enters the engine-wide scheduler before it builds
	// any state. A rejected query (queue full, draining, over-capacity, or a
	// context that expired while queued) never ran — no worker contexts, no
	// tables, no partial trace.
	pool := opts.Pool
	if pool == nil {
		pool = sched.Shared()
	}
	adm, err := pool.AdmitWith(ctx, sched.AdmitInfo{
		ID: qid, Name: plan.Name, Backend: backend, Fingerprint: opts.Fingerprint,
		Mem: opts.MemoryBudget, Parallelism: opts.Workers,
	})
	if err != nil {
		return nil, admissionError(err)
	}
	defer adm.Release()
	queueWait := adm.QueueWait()

	// qt is nil unless tracing was requested; every recording site below is
	// guarded on it at morsel granularity or coarser.
	var qt *trace.Query
	if opts.Trace {
		qt = trace.NewQuery(plan.Name, opts.Backend.String(), opts.Workers, start)
		qt.ID = qid
		qt.TraceID = opts.TraceID
		qt.ParentSpanID = opts.ParentSpanID
		qt.QueueWait = queueWait
	}

	var reg *interp.Registry
	if pol.interprets() {
		if reg, err = interp.Default(); err != nil {
			return nil, err
		}
	}

	// The memory budget covers every table the query builds: the join tables
	// created at lowering, the workers' aggregation tables (wired through
	// vm.Ctx), and the merged globals built at finalization.
	var budget *rt.MemBudget
	if opts.MemoryBudget > 0 {
		budget = rt.NewMemBudget(opts.MemoryBudget)
		for _, pipe := range plan.Pipelines {
			for _, js := range pipe.SealJoins {
				js.Table.SetBudget(budget)
			}
		}
	}

	// Worker contexts and pipeline buffers: the ones this plan instance's last
	// execution left behind, rewound (Options.Artifacts), or new empty ones —
	// the code below cannot tell which.
	es := opts.Artifacts.execState(plan, opts)
	ctxs := es.ctxs
	for _, c := range ctxs {
		c.Budget = budget
	}

	var res stats.Counters
	var finalChunks []*storage.Chunk
	var warnings []error

	// A background compile policy (hybrid) starts compiling every pipeline as
	// soon as the query enters the system (paper §V-B): by the time a later
	// pipeline runs, its fused code is usually already waiting. Whatever has
	// not landed when the query ends is counted, per pipeline, as compile
	// effort that came too late for it, before the result is put together
	// (the deferred call covers the exits that build none); it lands in the
	// artifact set for the next execution, or is canceled without one.
	bgs := make([]*compileJob, len(plan.Pipelines))
	abandonCompiles := func() {
		for i, j := range bgs {
			if j == nil || !j.abandon(opts.Artifacts != nil) {
				continue
			}
			res.CompilesAbandoned++
			if qt != nil && i < len(qt.Pipelines) {
				qt.Pipelines[i].Counters.CompilesAbandoned++
			}
		}
		clear(bgs)
	}
	if pol.compile == compileBackground {
		for pi, pipe := range plan.Pipelines {
			// A background job reports its failure through the job.
			bgs[pi], _ = startCompile(ctx, pi, pipe, pol, opts)
		}
		defer abandonCompiles()
	}

	// failed builds the diagnostic result returned alongside a query error:
	// stats are merged so recovered-panic and compile-error counts survive,
	// and the partial trace (pipelines that ran) stays attached.
	failed := func(err error) (*Result, error) {
		abandonCompiles()
		for _, c := range ctxs {
			res.Add(&c.Counters)
		}
		res.MemPeakBytes = budget.Peak()
		return &Result{
			Cols: plan.ColNames, Stats: res, QueryID: qid, QueueWait: queueWait,
			Warnings: warnings, Trace: qt,
		}, err
	}

	for pi, pipe := range plan.Pipelines {
		if qs.stopped() {
			return failed(qs.failure())
		}
		pipeStart := time.Now()
		pb := &es.pipes[pi]
		binder, err := bindSource(pipe)
		if err != nil {
			return failed(fmt.Errorf("exec: %s/%s: %w", plan.Name, pipe.Name, err))
		}
		morsels := storage.Morsels(binder.total, opts.MorselSize)

		// Cardinality hint for this pipeline's aggregations: never more
		// groups than source rows, and a morsel's worth at most as an
		// estimate. The hint pre-sizes the workers' bucket arrays, skipping
		// their first doublings. Set before the workers spawn (they read it
		// when they first use their tables).
		for _, fin := range pipe.MergeAggs {
			fin.State.SizeHint = min(binder.total, opts.MorselSize)
		}

		// The pipeline trace is started before runner construction so the
		// foreground backends' compile wait falls inside the pipeline wall.
		var pt *trace.Pipeline
		if qt != nil {
			pt = qt.StartPipeline(pipe.Name, binder.total, len(morsels))
			pt.Start = pipeStart.Sub(start)
		}

		r, err := newRunner(ctx, pi, pipe, pol, opts, reg, bgs[pi], pt, pb)
		if err != nil {
			return failed(fmt.Errorf("exec: %s/%s: %w", plan.Name, pipe.Name, err))
		}

		outs := pb.outs
		for _, out := range outs {
			out.Reset()
		}

		// A pipeline that builds join tables sizes them from its first morsel:
		// the rows that morsel inserted, scaled from its share of the source
		// to the whole, estimate the build (one filter selectivity over the
		// scan), and the tables reserve their entry arrays for it in one step
		// instead of growing them under every chunk.
		var joinsSized atomic.Bool
		joinsSized.Store(len(pipe.SealJoins) == 0 || len(morsels) < 2)

		// One flight event per pipeline dispatch — morsel-batch granularity,
		// never per morsel.
		flight.Default.RecordStr(flight.KindMorselBatch, qid, pipe.Name,
			int64(len(morsels)), int64(binder.total))

		// Morsels dispatch into the shared pool instead of per-query worker
		// goroutines. slot is the query-local worker slot in
		// [0, opts.Workers): the scheduler guarantees at most one in-flight
		// task per slot, so ctxs[slot] / outs[slot] / pb.src[slot] /
		// pt.Workers[slot] keep their single-writer discipline even though
		// different pool workers serve the slot over the pipeline's lifetime.
		runErr := adm.Run(ctx, len(morsels), func(slot, i int) error {
			if qs.stopped() {
				return errQueryStopped
			}
			wctx := ctxs[slot]
			var out *storage.Chunk
			if outs != nil {
				out = outs[slot]
			}
			// Trace recording works by deltas over the slot's own counters,
			// so the runner's per-morsel accounting is captured without
			// touching hot paths. The morsel is always timed: the duration
			// feeds the process-wide latency histogram even when tracing is
			// off.
			if pt != nil {
				pt.Workers[slot].BeginMorsel(&wctx.Counters)
			}
			sizing := !joinsSized.Load()
			rows0, inserts0 := wctx.Counters.Tuples, wctx.Counters.HTInserts
			t0 := time.Now()
			err := runMorselSafe(plan.Name, pipe.Name, opts.Backend, r, slot, i, wctx, binder, morsels[i], pb.src[slot], out)
			elapsed := time.Since(t0)
			if rows := wctx.Counters.Tuples - rows0; sizing && err == nil && rows > 0 && joinsSized.CompareAndSwap(false, true) {
				est := float64(wctx.Counters.HTInserts-inserts0) / float64(rows) * float64(binder.total)
				for _, js := range pipe.SealJoins {
					js.Table.Reserve(int(est))
				}
			}
			morselHist.ObserveDuration(elapsed)
			if pt != nil {
				pt.Workers[slot].EndMorsel(&wctx.Counters, elapsed)
			}
			if err != nil {
				qs.fail(err)
				return errQueryStopped
			}
			return nil
		})
		if runErr != nil && !errors.Is(runErr, errQueryStopped) {
			qs.fail(schedError(runErr))
		}

		counters, degraded := r.finish(pt, start)
		res.Add(&counters)
		if degraded != nil {
			warnings = append(warnings, fmt.Errorf(
				"exec: %s/%s: background compile failed, pipeline served by the vectorized interpreter: %w",
				plan.Name, pipe.Name, degraded))
			flight.Default.RecordStr(flight.KindDegraded, qid, pipe.Name, 0, 0)
		}

		if err := qs.failure(); err != nil {
			if pt != nil {
				pt.Wall = time.Since(pipeStart)
			}
			return failed(err)
		}
		finStart := time.Now()
		err = sealJoins(ctx, adm, plan.Name, pipe, opts.Backend, ctxs)
		if err == nil {
			err = finalizeSafe(plan.Name, pipe, opts.Backend, ctxs, budget)
		}
		if pt != nil {
			pt.Finalize = time.Since(finStart)
			pt.Wall = time.Since(pipeStart)
		}
		if err != nil {
			return failed(err)
		}
		if pipe.Result != nil {
			finalChunks = outs
		}
	}

	if qs.stopped() {
		return failed(qs.failure())
	}

	abandonCompiles()
	for _, ctx := range ctxs {
		res.Add(&ctx.Counters)
	}
	res.MemPeakBytes = budget.Peak()

	kinds, err := plan.FinalKinds()
	if err != nil {
		return failed(err)
	}
	out := storage.NewChunk(kinds)
	for _, c := range finalChunks {
		out.AppendChunk(c)
	}
	if plan.Sort != nil {
		out = sortChunk(out, plan.Sort)
	}
	return &Result{
		Cols: plan.ColNames, Chunk: out, Stats: res, QueryID: qid, QueueWait: queueWait,
		Warnings: warnings, Trace: qt,
	}, nil
}

// runMorselSafe executes one morsel with panic isolation: a panic anywhere
// below (generated code, primitives, hash tables, the budget) is converted
// into a located *QueryError instead of taking the process down.
func runMorselSafe(query, pipeName string, backend Backend, r *pipelineRunner, w, mi int,
	wctx *vm.Ctx, binder sourceBinder, m storage.Morsel, src []*storage.Vector, out *storage.Chunk) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			wctx.Counters.PanicsRecovered++
			err = panicError(&QueryError{Query: query, Pipeline: pipeName, Backend: backend, Worker: w, Morsel: mi}, rec)
		}
	}()
	if err := faultinject.Inject(faultinject.ExecMorsel); err != nil {
		panic(err)
	}
	n := binder.bind(m, src)
	r.runMorsel(w, wctx, src, n, out)
	wctx.Counters.Tuples += int64(n)
	return nil
}

// schedError types the error of a scheduler round that is not a task's own:
// a drain's force-cancel (the scheduler shut down under the query) is a
// cancellation, an expired context is its cause.
func schedError(err error) error {
	switch {
	case errors.Is(err, sched.ErrQueryCanceled):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ctxCause(err)
	}
	return err
}

// sealJoins seals the join tables the pipeline built as one scheduler round:
// every table's seal tasks (its bloom filter and its shards' layouts, the
// scatter of q13's 740 k-row build among them) are shared by the query's
// worker slots, with the morsel loop's panic isolation.
func sealJoins(ctx context.Context, adm *sched.Query, query string, pipe *core.Pipeline, backend Backend, ctxs []*vm.Ctx) error {
	n := 0
	for _, js := range pipe.SealJoins {
		n += js.Table.SealTasks()
	}
	if n == 0 {
		return nil
	}
	err := adm.Run(ctx, n, func(slot, i int) (err error) {
		defer func() {
			if rec := recover(); rec != nil {
				ctxs[slot].Counters.PanicsRecovered++
				err = panicError(&QueryError{Query: query, Pipeline: pipe.Name, Backend: backend, Worker: slot, Morsel: -1}, rec)
			}
		}()
		for _, js := range pipe.SealJoins {
			if k := js.Table.SealTasks(); i >= k {
				i -= k
				continue
			}
			js.Table.SealTask(i)
			return nil
		}
		return nil
	})
	if err != nil {
		return schedError(err)
	}
	return nil
}

// finalizeSafe runs pipeline finalization (aggregate merging; the joins are
// sealed before it) with the same panic isolation as the morsel loop.
func finalizeSafe(query string, pipe *core.Pipeline, backend Backend, ctxs []*vm.Ctx, budget *rt.MemBudget) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			ctxs[0].Counters.PanicsRecovered++
			err = panicError(&QueryError{Query: query, Pipeline: pipe.Name, Backend: backend, Worker: -1, Morsel: -1}, rec)
		}
	}()
	if err := faultinject.Inject(faultinject.ExecFinalize); err != nil {
		panic(err)
	}
	return finalizePipeline(pipe, ctxs, budget)
}

// sourceBinder adapts a pipeline source to morsel-range vector bindings.
type sourceBinder struct {
	total int
	// bind points views — the calling worker slot's own headers, one per
	// source IU — at the morsel's rows and returns the row count.
	bind func(m storage.Morsel, views []*storage.Vector) int
}

func bindSource(pipe *core.Pipeline) (sourceBinder, error) {
	switch s := pipe.Source.(type) {
	case *core.TableScan:
		return sourceBinder{
			total: s.Table.Rows(),
			bind: func(m storage.Morsel, views []*storage.Vector) int {
				for i := range s.Cols {
					s.Column(i).SliceInto(views[i], m.Start, m.End)
				}
				return m.Rows()
			},
		}, nil
	case *core.AggRead:
		if !s.State.Ready() {
			return sourceBinder{}, fmt.Errorf("%w: aggregate source read before its build pipeline completed", ErrInvalidPlan)
		}
		snap := s.State.Snapshot()
		return sourceBinder{
			total: len(snap),
			bind: func(m storage.Morsel, views []*storage.Vector) int {
				views[0].Kind, views[0].Ptr = types.Ptr, snap[m.Start:m.End]
				return m.Rows()
			},
		}, nil
	default:
		return sourceBinder{}, fmt.Errorf("%w: unknown source %T", ErrInvalidPlan, pipe.Source)
	}
}

func finalizePipeline(pipe *core.Pipeline, ctxs []*vm.Ctx, budget *rt.MemBudget) error {
	for _, fin := range pipe.MergeAggs {
		// The first worker table that was built becomes the global one and the
		// others merge into it; the tables stay the worker contexts' to reset.
		var global *rt.AggTable
		for _, ctx := range ctxs {
			switch part := ctx.BuiltAggTable(fin.State); {
			case part == nil:
			case global == nil:
				global = part
			default:
				fin.State.MergeInto(global, part)
			}
		}
		if global == nil {
			global = fin.State.NewInstance()
			global.SetBudget(budget)
		}
		if fin.Keyless && global.Groups() == 0 {
			forceGroup(global.FindOrCreate(nil, rt.Hash64(nil)))
		}
		fin.State.Global = global
	}
	return nil
}

// forceGroup zeroes the payload of the one group a keyless aggregation (SQL:
// aggregates without GROUP BY) produces even on empty input: it reads as
// zeros, the stand-in for SQL NULL — MIN/MAX init sentinels must not leak out.
func forceGroup(row []byte) {
	clear(row[rt.RowPayloadOff(row):])
}
