package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"inkfuse/internal/algebra"
	"inkfuse/internal/core"
	"inkfuse/internal/exec"
	"inkfuse/internal/ir"
	"inkfuse/internal/plancache"
	"inkfuse/internal/sched"
	"inkfuse/internal/serve"
	"inkfuse/internal/sql"
	"inkfuse/internal/stats"
	"inkfuse/internal/storage"
	"inkfuse/internal/vm"
)

// A span is one timed call into a layer's exported function. Spans of one
// replayed request share Request; Parent is the ID of the enclosing span, 0
// for a request's root.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the replay runs on one goroutine. A nil
// tracer records nothing (warm-up requests).
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) start(name string, parent, request int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		Name: name, ID: len(t.spans) + 1, Parent: parent, Request: request,
		StartNS: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].EndNS = time.Since(t.t0).Nanoseconds()
	}
}

// selfMicros gives, per span name, one value per request that has such a
// span: the summed self time (duration minus the children's durations) of the
// request's spans of that name, in µs.
func (t *tracer) selfMicros() map[string][]float64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent != 0 {
			self[s.Parent-1] -= s.EndNS - s.StartNS
		}
	}
	type key struct {
		name    string
		request int
	}
	sums := map[key]int64{}
	var order []key
	for i, s := range t.spans {
		k := key{s.Name, s.Request}
		if _, seen := sums[k]; !seen {
			order = append(order, k)
		}
		sums[k] += self[i]
	}
	out := map[string][]float64{}
	for _, k := range order {
		out[k.name] = append(out[k.name], float64(sums[k])/1e3)
	}
	return out
}

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// replayer runs requests in-process through the exported functions
// serve.handleQuery calls, in its order, with the server's defaults.
type replayer struct {
	cat   *storage.Catalog
	pool  *sched.Pool
	cache *plancache.Cache
	tr    *tracer

	failed   int
	firstErr error
	// Totals over traced requests; exec.* and rt.* ratios are computed from them.
	queries  int
	counters stats.Counters
	wall     time.Duration
	subops   []float64 // suboperators per freshly lowered plan
	irOps    []float64 // IR nodes per fused pipeline
	compileT []float64 // Stats.CompileTime per request, µs
	compileW []float64 // Stats.CompileWait per request, µs
}

func (rp *replayer) fail(err error, text string) {
	rp.failed++
	if rp.firstErr == nil {
		rp.firstErr = fmt.Errorf("replay: %w\n%s", err, text)
	}
}

// run executes one request. tr is nil for warm-up requests. With opts.Trace or
// opts.Profile set it returns the result so the caller can read Result.Trace.
func (rp *replayer) run(tr *tracer, request int, text string, opts exec.Options) *exec.Result {
	root := tr.start("request", 0, request)
	defer tr.end(root)
	timed := func(name string, f func()) {
		id := tr.start(name, root, request)
		f()
		tr.end(id)
	}

	var (
		stmt *sql.Statement
		err  error
	)
	timed("sql.compile", func() { stmt, err = sql.Compile(rp.cat, text) })
	if err != nil {
		rp.fail(err, text)
		return nil
	}
	var prep *plancache.Prepared
	timed("plancache.acquire", func() { prep = rp.cache.Acquire(stmt.Fingerprint) })
	if prep == nil {
		var (
			plan   *core.Plan
			params *algebra.Params
		)
		timed("algebra.lower", func() { plan, params, err = algebra.LowerWithParams(stmt.Root, stmt.Name) })
		if err == nil {
			timed("core.verifyplan", func() { err = core.VerifyPlan(plan) })
		}
		if err != nil {
			rp.fail(err, text)
			return nil
		}
		prep = plancache.NewPrepared(stmt.Fingerprint, plan, params)
		if tr != nil {
			n := 0
			for _, p := range plan.Pipelines {
				n += len(p.Ops)
			}
			rp.subops = append(rp.subops, float64(n))
		}
	}
	defer timed("plancache.put", func() { rp.cache.Put(prep) })
	timed("sql.bindargs", func() { err = stmt.BindArgs(prep.Params(), nil) })
	if err != nil {
		rp.fail(err, text)
		return nil
	}
	opts.Backend = exec.BackendHybrid
	opts.Pool = rp.pool
	opts.Artifacts = prep.Artifacts()
	opts.QueryID = exec.NextQueryID()
	opts.Fingerprint = stmt.Fingerprint.Hex()
	var res *exec.Result
	timed("exec.execute", func() { res, err = exec.ExecuteContext(context.Background(), prep.Plan(), opts) })
	if err != nil {
		rp.fail(err, text)
		return nil
	}
	if tr != nil {
		rp.queries++
		rp.counters.Add(&res.Stats)
		rp.wall += res.Wall
		rp.compileT = append(rp.compileT, micros(res.Stats.CompileTime))
		rp.compileW = append(rp.compileW, micros(res.Stats.CompileWait))
	}
	return res
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// compileProbe measures the real closure-compile cost of a shape the cache
// did not hold: it lowers the text once more and times GenFused and
// vm.Compile on every pipeline. exec does the same work in the background and
// adds the modelled LatencyModel sleep, which Stats.CompileTime includes.
func (rp *replayer) compileProbe(request int, text string) {
	stmt, err := sql.Compile(rp.cat, text)
	if err != nil {
		rp.fail(err, text)
		return
	}
	plan, _, err := algebra.LowerWithParams(stmt.Root, stmt.Name)
	if err != nil {
		rp.fail(err, text)
		return
	}
	root := rp.tr.start("compile_probe", 0, request)
	defer rp.tr.end(root)
	for _, p := range plan.Pipelines {
		id := rp.tr.start("core.genfused", root, request)
		f, _, err := p.GenFused()
		rp.tr.end(id)
		if err != nil {
			rp.fail(err, text)
			return
		}
		id = rp.tr.start("vm.compile", root, request)
		_, err = vm.Compile(f)
		rp.tr.end(id)
		if err != nil {
			rp.fail(err, text)
			return
		}
		rp.irOps = append(rp.irOps, float64(ir.Size(f)))
	}
}

// replay replays the first n requests of client 0's stream and returns the
// source-b per-layer metrics. It writes the spans to
// <outDir>/trace-<workload>.json.
func replay(w workload, shapes []shape, seed int64, cat *storage.Catalog, n int, outDir string) (map[string]float64, int, error) {
	rp := &replayer{
		cat:   cat,
		pool:  sched.NewPool(sched.Config{}),
		cache: plancache.New(plancache.Config{}),
		tr:    &tracer{t0: time.Now()},
	}
	defer rp.pool.Close(context.Background())
	st := newStream(w, shapes, seed, 0)

	// Warm-up, unrecorded: a hit workload runs every shape once; the ad-hoc
	// workload fills the plan cache, so every recorded miss also evicts.
	if w.hit {
		for _, s := range shapes {
			rp.run(nil, 0, s.sql(st.r), exec.Options{})
		}
	} else {
		for i := 0; i < 64; i++ {
			_, text := st.next()
			rp.run(nil, 0, text, exec.Options{})
		}
	}

	before := rp.cache.Stats()
	texts := make([]string, n)
	for i := range texts {
		_, texts[i] = st.next()
		lowered := len(rp.subops)
		rp.run(rp.tr, i+1, texts[i], exec.Options{})
		if len(rp.subops) > lowered { // a miss: the request lowered a fresh plan
			rp.compileProbe(i+1, texts[i])
		}
	}
	after := rp.cache.Stats()

	// Instrumentation cost: run some of the texts again with tracing off, on,
	// and with the profiler on. One run before them puts the text's shape back
	// into the plan cache if it was evicted, so the three do the same work. The
	// traced runs also give the pipeline busy and finalize times, which only
	// Result.Trace carries.
	var traceShare, profileShare, busy, finalize []float64
	for i, text := range texts[:max(3, n/4)] {
		rp.run(nil, 0, text, exec.Options{})
		var wall [3]float64
		for k := 0; k < 3; k++ {
			mode := (i + k) % 3 // rotate which mode runs first
			res := rp.run(nil, 0, text, exec.Options{Trace: mode > 0, Profile: mode == 2})
			if res == nil {
				break
			}
			wall[mode] = micros(res.Wall)
			if mode == 1 {
				var b, f time.Duration
				for _, p := range res.Trace.Pipelines {
					b += p.Busy()
					f += p.Finalize
				}
				busy = append(busy, micros(b))
				finalize = append(finalize, micros(f))
			}
		}
		if wall[0] > 0 {
			traceShare = append(traceShare, wall[1]/wall[0]-1)
			profileShare = append(profileShare, wall[2]/wall[0]-1)
		}
	}

	handler, err := handlerMicros(w, shapes, seed, n)
	if err != nil {
		return nil, 0, err
	}
	if err := rp.tr.write(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
		return nil, 0, err
	}
	if rp.firstErr != nil {
		fmt.Println(rp.firstErr)
	}

	self := rp.tr.selfMicros()
	c := rp.counters
	lookups := float64(after.Hits - before.Hits + after.Misses - before.Misses)
	m := map[string]float64{
		"serve.handler_us":                median(handler),
		"sql.compile_us":                  median(self["sql.compile"]),
		"sql.bindargs_us":                 median(self["sql.bindargs"]),
		"plancache.acquire_us":            median(self["plancache.acquire"]),
		"plancache.put_us":                median(self["plancache.put"]),
		"plancache.hit_ratio":             ratio(float64(after.Hits-before.Hits), lookups),
		"plancache.evictions":             float64(after.Evictions - before.Evictions),
		"algebra.lower_us":                median(self["algebra.lower"]),
		"algebra.subops_per_plan":         median(rp.subops),
		"core.verifyplan_us":              median(self["core.verifyplan"]),
		"core.genfused_us":                median(self["core.genfused"]),
		"vm.compile_us":                   median(self["vm.compile"]),
		"vm.ir_ops_per_pipeline":          median(rp.irOps),
		"exec.compile_time_us":            median(rp.compileT),
		"exec.compile_wait_us":            median(rp.compileW),
		"exec.jit_morsel_share":           ratio(float64(c.MorselsCompiled), float64(c.MorselsCompiled+c.MorselsVectorized)),
		"exec.execute_us":                 median(self["exec.execute"]),
		"exec.pipeline_busy_us":           median(busy),
		"exec.finalize_us":                median(finalize),
		"exec.rows_per_s":                 ratio(float64(c.Tuples), rp.wall.Seconds()),
		"exec.vmops_per_row":              ratio(float64(c.VMOps), float64(c.Tuples)),
		"exec.materialized_bytes_per_row": ratio(float64(c.MaterializedBytes), float64(c.Tuples)),
		"rt.local_hit_ratio":              ratio(float64(c.HTLocalHits), float64(c.HTLocalHits+c.HTSpills)),
		"rt.spills_per_query":             ratio(float64(c.HTSpills), float64(rp.queries)),
		"rt.ht_probes_per_row":            ratio(float64(c.HTProbes), float64(c.Tuples)),
		"rt.bloom_skip_ratio":             ratio(float64(c.HTBloomSkips), float64(c.HTProbes)),
		"rt.ht_inserts_per_query":         ratio(float64(c.HTInserts), float64(rp.queries)),
		"trace.overhead_share":            median(traceShare),
		"profile.overhead_share":          median(profileShare),
	}
	return m, rp.failed, nil
}

// handlerMicros times serve.Handler().ServeHTTP in-process, without a
// network, on the first n requests of client 0's stream after the same
// warm-up as the HTTP run. serve.New generates its own copy of the catalog.
func handlerMicros(w workload, shapes []shape, seed int64, n int) ([]float64, error) {
	srv := serve.New(serve.Config{
		SF: w.sf, Seed: catalogSeed,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	defer srv.Close(context.Background())
	h := srv.Handler()
	post := func(text string) (time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(requestBody(text)))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(start)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("handler replay: status %d: %.300s\n%s", rec.Code, rec.Body.String(), text)
		}
		return d, nil
	}
	st := newStream(w, shapes, seed, 0)
	if w.hit {
		for _, s := range shapes {
			if _, err := post(s.sql(st.r)); err != nil {
				return nil, err
			}
		}
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		_, text := st.next()
		d, err := post(text)
		if err != nil {
			return nil, err
		}
		out = append(out, micros(d))
	}
	return out, nil
}
