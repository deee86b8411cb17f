package exec

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"inkfuse/internal/core"
	"inkfuse/internal/flight"
	"inkfuse/internal/interp"
	"inkfuse/internal/stats"
	"inkfuse/internal/storage"
	"inkfuse/internal/trace"
	"inkfuse/internal/types"
	"inkfuse/internal/vm"
)

// newRunner builds the backend runner for pipeline pi over the pipeline's
// buffers pb, which it fills in on the instance's first execution and finds
// ready on later ones. pt is the pipeline's execution trace (nil when tracing
// is off); only the hybrid runner records into it directly, for the routing
// decisions the scheduler cannot observe.
func newRunner(ctx context.Context, pi int, pipe *core.Pipeline, opts Options, reg *interp.Registry, bg *hybridCompile, pt *trace.Pipeline, pb *pipeBuffers) (runner, error) {
	switch opts.Backend {
	case BackendVectorized:
		return newVectorizedRunner(pipe, opts, reg, pb)
	case BackendCompiling:
		return newCompilingRunner(ctx, pi, pipe, opts, pb)
	case BackendROF:
		return newROFRunner(ctx, pi, pipe, opts, pb)
	case BackendHybrid:
		return newHybridRunner(pipe, opts, reg, bg, pt, pb)
	default:
		return nil, fmt.Errorf("%w %v", ErrUnknownBackend, opts.Backend)
	}
}

// ---------------------------------------------------------------------------
// Vectorized backend

type vectorizedRunner struct {
	runs      []*interp.Run
	chunkSize int
	// scratch holds per-worker chunk views ([worker][col]), reused across
	// chunks and morsels so the inner loop allocates nothing: consumers bind
	// the vectors only for the duration of one RunChunk call.
	scratch [][]*storage.Vector
	// profs holds each worker's suboperator profiler (Options.Profile);
	// merged at finish into the pipeline's attribution list.
	profs []*interp.Profile
}

func newVectorizedRunner(pipe *core.Pipeline, opts Options, reg *interp.Registry, pb *pipeBuffers) (*vectorizedRunner, error) {
	source := pipe.Source.SourceIUs()
	if pb.runs == nil {
		runs := make([]*interp.Run, opts.Workers)
		for w := range runs {
			run, err := interp.NewRun(reg, source, pipe.Ops, pipe.Result)
			if err != nil {
				return nil, err
			}
			runs[w] = run
		}
		pb.runs = runs
		pb.chunks = newVectorViews(opts.Workers, len(source))
	}
	r := &vectorizedRunner{runs: pb.runs, chunkSize: opts.ChunkSize, scratch: pb.chunks}
	for _, run := range r.runs {
		run.DisableProfile()
		if opts.Profile {
			r.profs = append(r.profs, run.EnableProfile(opts.ProfileEvery))
		}
	}
	return r, nil
}

// profileInfo folds the workers' suboperator profiles into a finishInfo.
func (r *vectorizedRunner) profileInfo(fi *finishInfo) {
	if len(r.profs) == 0 {
		return
	}
	fi.subops = interp.MergeProfiles(r.profs)
	fi.profileEvery = r.profs[0].Every
	for _, p := range r.profs {
		fi.profiledChunks += p.Sampled
	}
}

//inkfuse:hotpath
func (r *vectorizedRunner) runMorsel(w int, ctx *vm.Ctx, src []*storage.Vector, n int, out *storage.Chunk) {
	run := r.runs[w]
	sub := r.scratch[w]
	for lo := 0; lo < n; lo += r.chunkSize {
		hi := min(lo+r.chunkSize, n)
		for i, v := range src {
			v.SliceInto(sub[i], lo, hi)
		}
		run.RunChunk(ctx, sub, hi-lo, out)
	}
}

func (r *vectorizedRunner) finish() finishInfo {
	var fi finishInfo
	r.profileInfo(&fi)
	return fi
}

// ---------------------------------------------------------------------------
// Compiling backend: fuse the whole pipeline, wait for the code.

type compilingRunner struct {
	art  *fusedStep
	wait time.Duration
	// scratch holds per-worker views into the morsel, one batch at a time
	// (runFused).
	scratch [][]*storage.Vector
}

func newCompilingRunner(ctx context.Context, pi int, pipe *core.Pipeline, opts Options, pb *pipeBuffers) (*compilingRunner, error) {
	if pb.chunks == nil {
		pb.chunks = newVectorViews(opts.Workers, len(pipe.Source.SourceIUs()))
	}
	// A cached artifact skips compilation and its dead wait entirely — the
	// plancache reuse path pays no compile latency on a hit.
	if art := opts.Artifacts.loadFused(pi); art != nil {
		return &compilingRunner{art: art, scratch: pb.chunks}, nil
	}
	flight.Default.RecordStr(flight.KindCompileStart, opts.QueryID, pipe.Name, 0, 0)
	art, dur, err := compileStep(ctx, "pipeline_"+pipe.Name, pipe.Source.SourceIUs(), pipe.Ops, pipe.Result, *opts.Latency, foregroundFaults)
	if err != nil {
		flight.Default.RecordStr(flight.KindCompileFail, opts.QueryID, pipe.Name, 0, 0)
		return nil, err
	}
	flight.Default.RecordStr(flight.KindCompileLand, opts.QueryID, pipe.Name, int64(dur), 0)
	opts.Artifacts.noteCompile()
	opts.Artifacts.storeFused(pi, art)
	// The compiling backend cannot process tuples until compilation is done:
	// the whole compile time is dead wait (the dashed bars of Fig 10).
	return &compilingRunner{art: art, wait: dur, scratch: pb.chunks}, nil
}

// fusedBatchRows bounds the rows a whole-pipeline program is handed per call.
// A fused program carries every value of its pipeline in an n-row register
// and builds its keys in n-row scratch slabs, so n sizes its working set and
// everything its frame keeps — on a never-seen query, memory allocated for a
// program that serves a fifth of the morsels. An eighth of the default morsel
// keeps the q1 build pipeline's registers in the L2 cache (74 against 78
// ns/row at any larger batch) and costs the q6 cascade, at 2.4 ns/row, about a
// tenth of a nanosecond per row in per-call overhead (DESIGN.md §18).
const fusedBatchRows = 2048

// runFused runs a whole-pipeline program over a morsel, fusedBatchRows rows
// at a time; sub is the calling worker's view scratch.
//
//inkfuse:hotpath
func runFused(art *fusedStep, ctx *vm.Ctx, src, sub []*storage.Vector, n int, out *storage.Chunk) {
	if n <= fusedBatchRows {
		art.prog.Run(ctx, art.states, src, n, out)
		ctx.Counters.FusedCalls++
		return
	}
	for lo := 0; lo < n; lo += fusedBatchRows {
		hi := min(lo+fusedBatchRows, n)
		for i, v := range src {
			v.SliceInto(sub[i], lo, hi)
		}
		art.prog.Run(ctx, art.states, sub, hi-lo, out)
		ctx.Counters.FusedCalls++
	}
}

//inkfuse:hotpath
func (r *compilingRunner) runMorsel(w int, ctx *vm.Ctx, src []*storage.Vector, n int, out *storage.Chunk) {
	runFused(r.art, ctx, src, r.scratch[w], n, out)
	ctx.Counters.MorselsCompiled++
}

func (r *compilingRunner) finish() finishInfo {
	return finishInfo{counters: stats.Counters{CompileTime: r.wait, CompileWait: r.wait}, fused: []*fusedStep{r.art}}
}

// ---------------------------------------------------------------------------
// ROF backend: split before every probe, prefetch the staged chunk.

type rofRunner struct {
	steps     []*fusedStep
	bufs      [][]*storage.Chunk // [worker][step-1]: the staging buffers
	chunkSize int
	wait      time.Duration
	// scratch holds per-worker source chunk views, reused like the
	// vectorized runner's (no allocation in the per-chunk loop).
	scratch [][]*storage.Vector
}

func newROFRunner(ctx context.Context, pi int, pipe *core.Pipeline, opts Options, pb *pipeBuffers) (*rofRunner, error) {
	// Insert a prefetch suboperator before every probe and split there.
	var ops []core.SubOp
	for _, op := range pipe.Ops {
		if probe, ok := op.(*core.JoinProbe); ok {
			ops = append(ops, &core.Prefetch{Row: probe.Row, State: probe.State})
		}
		ops = append(ops, op)
	}
	// The staging point lies before the prefetch: the prefetch runs as the
	// last operation of the staged step, touching the buckets for the whole
	// chunk before the next step probes them.
	steps := splitSteps(pipe.Source.SourceIUs(), ops, pipe.Result, func(i int, op core.SubOp) bool {
		_, isPrefetch := op.(*core.Prefetch)
		return isPrefetch
	})
	r := &rofRunner{chunkSize: opts.ChunkSize}
	if arts := opts.Artifacts.loadROF(pi); len(arts) == len(steps) {
		// Cached step chain: skip compilation and its dead wait (plancache
		// reuse path; the split is deterministic, so the chain lines up).
		r.steps = arts
	} else {
		var wait time.Duration
		flight.Default.RecordStr(flight.KindCompileStart, opts.QueryID, pipe.Name, int64(len(steps)), 0)
		for si, st := range steps {
			art, dur, err := compileStep(ctx, fmt.Sprintf("rof_%s_s%d", pipe.Name, si), st.source, st.ops, st.emit, *opts.Latency, foregroundFaults)
			if err != nil {
				flight.Default.RecordStr(flight.KindCompileFail, opts.QueryID, pipe.Name, int64(si), 0)
				return nil, err
			}
			wait += dur
			r.steps = append(r.steps, art)
		}
		r.wait = wait
		flight.Default.RecordStr(flight.KindCompileLand, opts.QueryID, pipe.Name, int64(wait), int64(len(steps)))
		opts.Artifacts.noteCompile()
		opts.Artifacts.storeROF(pi, r.steps)
	}
	if pb.staging == nil {
		pb.staging = make([][]*storage.Chunk, opts.Workers)
		for w := range pb.staging {
			for si := 0; si+1 < len(steps); si++ {
				pb.staging[w] = append(pb.staging[w], storage.NewChunk(iuKinds(steps[si].emit)))
			}
		}
		pb.chunks = newVectorViews(opts.Workers, len(pipe.Source.SourceIUs()))
	}
	r.bufs, r.scratch = pb.staging, pb.chunks
	return r, nil
}

//inkfuse:hotpath
func (r *rofRunner) runMorsel(w int, ctx *vm.Ctx, src []*storage.Vector, n int, out *storage.Chunk) {
	// Run the steps in lockstep over cache-friendly staged chunks.
	sub := r.scratch[w]
	for lo := 0; lo < n; lo += r.chunkSize {
		hi := min(lo+r.chunkSize, n)
		for i, v := range src {
			v.SliceInto(sub[i], lo, hi)
		}
		cur := sub
		cn := hi - lo
		for si, st := range r.steps {
			last := si == len(r.steps)-1
			var dst *storage.Chunk
			if last {
				dst = out
			} else {
				dst = r.bufs[w][si]
				dst.Reset()
			}
			st.prog.Run(ctx, st.states, cur, cn, dst)
			ctx.Counters.FusedCalls++
			if last {
				break
			}
			cur = dst.Cols
			cn = dst.Rows()
		}
	}
	ctx.Counters.MorselsCompiled++
}

func (r *rofRunner) finish() finishInfo {
	return finishInfo{counters: stats.Counters{CompileTime: r.wait, CompileWait: r.wait}, fused: r.steps}
}

// iuKinds projects the kinds of a staging buffer's columns.
func iuKinds(ius []*core.IU) []types.Kind {
	out := make([]types.Kind, len(ius))
	for i, iu := range ius {
		out[i] = iu.K
	}
	return out
}

// ---------------------------------------------------------------------------
// Hybrid backend (paper §V-B): start vectorized, compile in the background,
// then route 90% of morsels to the backend with the best exponentially
// decaying tuple throughput; 5% each keep exploring either backend.

// hybridCompile is one pipeline's background compilation job. All jobs of a
// query start when the query starts (paper §V-B: "InkFuse uses one thread
// per pipeline for background compilation"), bounded by Options.CompileJobs.
type hybridCompile struct {
	art atomic.Pointer[fusedStep]
	// failed marks the job permanently dead; err (written before the store,
	// read after the load) carries the compile failure. A failed job is never
	// retried — the pipeline degrades to the vectorized interpreter, which is
	// the hybrid design's always-available fallback path.
	failed  atomic.Bool
	err     error
	cancel  context.CancelFunc // ends the job's context, derived from the query's
	done    chan struct{}
	compile time.Duration
	// ready is when the artifact landed (written before the art store,
	// read after a successful load — same happens-before as compile).
	ready time.Time
}

// startHybridCompiles launches the background compilation jobs for every
// pipeline of the plan. The returned handles are wired into the hybrid
// runners pipeline by pipeline; abandon cancels whatever has not finished
// when the query completes, as does cancellation of the query context.
func startHybridCompiles(ctx context.Context, qid uint64, pipes []*core.Pipeline, lat LatencyModel, jobs int, arts *ArtifactSet) []*hybridCompile {
	if jobs <= 0 {
		jobs = len(pipes) // paper default: one compilation thread per pipeline
	}
	sem := make(chan struct{}, jobs)
	out := make([]*hybridCompile, len(pipes))
	for i, pipe := range pipes {
		jobCtx, cancel := context.WithCancel(ctx)
		h := &hybridCompile{cancel: cancel, done: make(chan struct{})}
		out[i] = h
		if art := arts.loadFused(i); art != nil {
			// Cached artifact from an earlier execution of this plan instance:
			// the job is born complete — workers route to the fused code from
			// the first morsel, no compile latency is charged, and abandon()
			// finds the pre-closed done channel.
			h.art.Store(art)
			cancel()
			close(h.done)
			continue
		}
		go func(pipe *core.Pipeline) {
			defer close(h.done)
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-jobCtx.Done():
				return
			}
			flight.Default.RecordStr(flight.KindCompileStart, qid, pipe.Name, 0, 0)
			// The wait inside is abandoned if the query finishes first (paper
			// §V-B) or its context dies: either ends jobCtx.
			step, dur, err := compileStep(jobCtx, "pipeline_"+pipe.Name, pipe.Source.SourceIUs(), pipe.Ops, pipe.Result, lat, backgroundFaults)
			if err != nil {
				if jobCtx.Err() == nil {
					h.err = err
					h.failed.Store(true)
					flight.Default.RecordStr(flight.KindCompileFail, qid, pipe.Name, 0, 0)
				}
				return
			}
			h.compile = dur
			h.ready = time.Now()
			// Deposit before publishing: ExecuteContext abandons every job and
			// waits on done before it returns, so the store is never racing a
			// caller that already released the plan back to the cache.
			arts.noteCompile()
			arts.storeFused(i, step)
			h.art.Store(step)
			flight.Default.RecordStr(flight.KindCompileLand, qid, pipe.Name, int64(h.compile), 0)
		}(pipe)
	}
	return out
}

// abandon cancels the job if it has not completed, waits for it to end, and
// reports whether that cut it short: the job neither landed its artifact nor
// failed on its own.
func (h *hybridCompile) abandon() bool {
	h.cancel()
	<-h.done
	return h.art.Load() == nil && !h.failed.Load()
}

type hybridRunner struct {
	vec *vectorizedRunner

	bg      *hybridCompile
	workers []hybridWorker
	// pt is the pipeline's execution trace (nil when tracing is off): the
	// runner records each measured routing sample into its own worker's
	// entry — per-morsel, lock-free, guarded by one nil check.
	pt *trace.Pipeline
	// qid / flabel key the first-JIT flight event; the label is interned at
	// runner construction so the hot path never touches the intern table.
	qid    uint64
	flabel flight.Label
}

type hybridWorker struct {
	vecTput, jitTput float64
	// vecMeasured / jitMeasured distinguish "never sampled" from a measured
	// throughput (a plain zero would conflate the two and let zero-row
	// morsels poison the EWMA seed).
	vecMeasured, jitMeasured bool
	// jitAnnounced marks that this worker's first compiled morsel was
	// recorded into the flight recorder.
	jitAnnounced bool
	// bgDead caches a permanent background-compile failure so the worker
	// stops polling the dead job's atomics every morsel.
	bgDead  bool
	morsels int
}

const hybridDecay = 0.3 // EWMA weight of the newest morsel

// HybridExploreEvery is the exploration period of the hybrid backend: out of
// every HybridExploreEvery morsels a worker runs, the first is forced onto the
// JIT code and the last onto the interpreter to keep the throughput statistics
// fresh; the paper uses 20 (5% + 5% exploration, 90% exploitation, §V-B). The
// interpreter's slot closes the period rather than following the JIT's: with
// code available from the first morsel (a plan-cache hit) a worker that sees
// fewer morsels than a period — every pipeline of a small query, a five-morsel
// probe pipeline of a large one — would otherwise run its second on the
// interpreter, 50 % exploration and not 5 (DESIGN.md §19). Exposed as a
// variable for the exploration-rate ablation.
var HybridExploreEvery = 20

func newHybridRunner(pipe *core.Pipeline, opts Options, reg *interp.Registry, bg *hybridCompile, pt *trace.Pipeline, pb *pipeBuffers) (*hybridRunner, error) {
	vec, err := newVectorizedRunner(pipe, opts, reg, pb)
	if err != nil {
		return nil, err
	}
	return &hybridRunner{
		vec: vec, bg: bg, workers: make([]hybridWorker, opts.Workers), pt: pt,
		qid: opts.QueryID, flabel: flight.Default.Intern(pipe.Name),
	}, nil
}

//inkfuse:hotpath
func (h *hybridRunner) runMorsel(w int, ctx *vm.Ctx, src []*storage.Vector, n int, out *storage.Chunk) {
	ws := &h.workers[w]
	var art *fusedStep
	if !ws.bgDead {
		if h.bg.failed.Load() {
			// Permanent compile failure: this worker degrades to the
			// vectorized interpreter and stops polling the dead job.
			ws.bgDead = true
		} else {
			art = h.bg.art.Load()
		}
	}
	useJIT := false
	if art != nil {
		switch {
		case !ws.jitMeasured:
			// Freshly ready code: measure it on the next morsel rather than
			// waiting for the exploration slot to come around — on short
			// queries the compiled code would otherwise never be sampled.
			useJIT = true
		case ws.morsels%HybridExploreEvery == 0:
			useJIT = true
		case ws.morsels%HybridExploreEvery == HybridExploreEvery-1:
			useJIT = false
		default:
			useJIT = ws.jitTput > ws.vecTput
		}
		if useJIT && !ws.jitAnnounced {
			// This worker's first compiled morsel: the observable moment
			// incremental fusion switches backends mid-query. Once per worker,
			// through the allocation-free hotpath Record.
			ws.jitAnnounced = true
			flight.Default.Record(flight.KindFirstJIT, h.qid, h.flabel, int64(w), 0)
		}
	}
	ws.morsels++
	start := time.Now()
	if useJIT {
		// The interpreter half's chunk views serve the fused half's batches:
		// a worker runs one or the other.
		runFused(art, ctx, src, h.vec.scratch[w], n, out)
		ctx.Counters.MorselsCompiled++
	} else {
		h.vec.runMorsel(w, ctx, src, n, out)
		ctx.Counters.MorselsVectorized++
	}
	dur := time.Since(start)
	el := dur.Seconds()
	// Skip empty morsels: a zero-row sample measures scheduling noise, not
	// tuple throughput, and would skew the EWMA toward zero.
	if n > 0 && el > 0 {
		tput := float64(n) / el
		if useJIT {
			ws.jitTput = ewma(ws.jitTput, tput, ws.jitMeasured)
			ws.jitMeasured = true
		} else {
			ws.vecTput = ewma(ws.vecTput, tput, ws.vecMeasured)
			ws.vecMeasured = true
		}
		if h.pt != nil {
			h.pt.Workers[w].AddEWMA(trace.EWMASample{
				Morsel:   ws.morsels - 1,
				JIT:      useJIT,
				Tuples:   n,
				Duration: dur,
				VecTput:  ws.vecTput,
				JITTput:  ws.jitTput,
			})
		}
	}
}

//inkfuse:hotpath
func ewma(old, sample float64, measured bool) float64 {
	if !measured {
		return sample
	}
	return hybridDecay*sample + (1-hybridDecay)*old
}

func (h *hybridRunner) finish() finishInfo {
	// Query-level cleanup in Execute abandons jobs that never finished; the
	// compile duration is only published (happens-before the art store) once
	// the code is ready. The hybrid backend hides compile latency behind
	// interpretation: no dead wait is charged.
	var fi finishInfo
	switch {
	case h.bg.failed.Load():
		fi = finishInfo{counters: stats.Counters{CompileErrors: 1}, degraded: h.bg.err}
	case h.bg.art.Load() != nil:
		fi = finishInfo{counters: stats.Counters{CompileTime: h.bg.compile}, artifactReady: h.bg.ready, fused: []*fusedStep{h.bg.art.Load()}}
	}
	// The interpreter half of the hybrid carries the suboperator profile; the
	// fused artifact is opaque to per-suboperator attribution by construction.
	h.vec.profileInfo(&fi)
	return fi
}
