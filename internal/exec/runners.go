package exec

import (
	"context"
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

// pipelineRunner executes one pipeline's morsels for every backend: the
// backend's policy (backend.go) fixes which forms of the pipeline's step chain
// exist — the interpreter's per-worker runs, the fused steps — and which one a
// morsel runs on (DESIGN.md §5).
type pipelineRunner struct {
	// fused is the compiled chain a foreground policy waited for; nil when
	// morsels run on the interpreter or are routed adaptively.
	fused []*fusedStep
	// job is the pipeline's compile job (nil for the vectorized backend).
	job *compileJob
	// batchRows is what runChain hands a step per call: fusedBatchRows for a
	// whole-pipeline chain, the chunk size for a split one. chunkRows is the
	// interpreter's chunk.
	batchRows, chunkRows int
	runs                 []*interp.Run       // [worker]: interpreter (route can interpret)
	views                [][]*storage.Vector // [worker][col]: batch views into the morsel
	staging              [][]*storage.Chunk  // [worker][step]: output of every step but the last
	// profs holds each worker's suboperator profiler (Options.Profile);
	// merged at finish into the pipeline's attribution list.
	profs []*interp.Profile

	// Adaptive routing (hybrid): per-worker statistics; the pipeline trace
	// (nil when tracing is off), into which the runner records each measured
	// routing sample; and the query id and label of the first-JIT flight
	// event.
	workers []routeWorker
	pt      *trace.Pipeline
	qid     uint64
	flabel  string
}

// newRunner builds the runner for pipeline pi over the pipeline's buffers pb,
// which it fills in on the instance's first execution and finds ready on later
// ones. A foreground policy compiles here (or takes the artifact set's job for
// the chain) and waits; job is the background job of a hybrid query.
func newRunner(ctx context.Context, pi int, pipe *core.Pipeline, pol policy, opts Options, reg *interp.Registry, job *compileJob, pt *trace.Pipeline, pb *pipeBuffers) (*pipelineRunner, error) {
	source := pipe.Source.SourceIUs()
	if pb.chunks == nil {
		pb.chunks = newVectorViews(opts.Workers, len(source))
	}
	r := &pipelineRunner{job: job, batchRows: fusedBatchRows, chunkRows: opts.ChunkSize, views: pb.chunks}
	if pol.split != splitWhole {
		r.batchRows = opts.ChunkSize
		if pb.staging == nil {
			steps := chainSteps(pipe, pol.split)
			pb.staging = make([][]*storage.Chunk, opts.Workers)
			for w := range pb.staging {
				for _, st := range steps[:len(steps)-1] {
					pb.staging[w] = append(pb.staging[w], storage.NewChunk(iuKinds(st.emit)))
				}
			}
		}
		r.staging = pb.staging
	}
	if pol.compile == compileForeground {
		var err error
		if r.job, err = startCompile(ctx, pi, pipe, pol, opts); err != nil {
			return nil, err
		}
		r.fused = *r.job.chain.Load()
	}
	if pol.interprets() {
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
		}
		r.runs = pb.runs
		for _, run := range r.runs {
			run.DisableProfile()
			if opts.Profile {
				r.profs = append(r.profs, run.EnableProfile(interp.DefaultProfileEvery))
			}
		}
	}
	if pol.route == routeAdaptive {
		r.workers, r.pt = make([]routeWorker, opts.Workers), pt
		r.qid, r.flabel = opts.QueryID, pipe.Name
	}
	return r, nil
}

// chainSteps cuts a pipeline into its policy's step chain: the whole pipeline
// as one step, or (ROF) a prefetch inserted before every probe and a cut
// before every prefetch — the prefetch runs as the last operation of the
// staged step, touching the buckets for the whole chunk before the next step
// probes them.
func chainSteps(pipe *core.Pipeline, split splitPolicy) []step {
	if split == splitWhole {
		return []step{{source: pipe.Source.SourceIUs(), ops: pipe.Ops, emit: pipe.Result}}
	}
	var ops []core.SubOp
	for _, op := range pipe.Ops {
		if probe, ok := op.(*core.JoinProbe); ok {
			ops = append(ops, &core.Prefetch{Row: probe.Row, State: probe.State})
		}
		ops = append(ops, op)
	}
	return splitSteps(pipe.Source.SourceIUs(), ops, pipe.Result, func(i int, op core.SubOp) bool {
		_, isPrefetch := op.(*core.Prefetch)
		return isPrefetch
	})
}

// iuKinds projects the kinds of a staging buffer's columns.
func iuKinds(ius []*core.IU) []types.Kind {
	out := make([]types.Kind, len(ius))
	for i, iu := range ius {
		out[i] = iu.K
	}
	return out
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

//inkfuse:hotpath
func (r *pipelineRunner) runMorsel(w int, ctx *vm.Ctx, src []*storage.Vector, n int, out *storage.Chunk) {
	switch {
	case r.workers != nil:
		r.routeMorsel(w, ctx, src, n, out)
	case r.fused != nil:
		r.runChain(r.fused, w, ctx, src, n, out)
		ctx.Counters.MorselsCompiled++
	default:
		r.interpret(w, ctx, src, n, out)
	}
}

// interpret runs a morsel through the worker's interpreter, a chunk at a time.
//
//inkfuse:hotpath
func (r *pipelineRunner) interpret(w int, ctx *vm.Ctx, src []*storage.Vector, n int, out *storage.Chunk) {
	run, sub := r.runs[w], r.views[w]
	for lo := 0; lo < n; lo += r.chunkRows {
		hi := min(lo+r.chunkRows, n)
		for i, v := range src {
			v.SliceInto(sub[i], lo, hi)
		}
		run.RunChunk(ctx, sub, hi-lo, out)
	}
}

// runChain runs a fused step chain over a morsel, batchRows rows at a time:
// each batch passes through every step in lockstep, one step's staged output
// being the next one's input (a whole-pipeline chain is one step writing out).
//
//inkfuse:hotpath
func (r *pipelineRunner) runChain(chain []*fusedStep, w int, ctx *vm.Ctx, src []*storage.Vector, n int, out *storage.Chunk) {
	sub, last := r.views[w], chain[len(chain)-1]
	for lo := 0; lo < n; lo += r.batchRows {
		cur, cn := src, n
		if n > r.batchRows {
			hi := min(lo+r.batchRows, n)
			for i, v := range src {
				v.SliceInto(sub[i], lo, hi)
			}
			cur, cn = sub, hi-lo
		}
		for si, st := range chain[:len(chain)-1] {
			buf := r.staging[w][si]
			buf.Reset()
			st.prog.Run(ctx, st.states, cur, cn, buf)
			ctx.Counters.FusedCalls++
			cur, cn = buf.Cols, buf.Rows()
		}
		last.prog.Run(ctx, last.states, cur, cn, out)
		ctx.Counters.FusedCalls++
	}
}

// finish returns the pipeline's compile accounting and, when its background
// compile failed, the failure; with tracing on it records both, the code the
// pipeline ran on and its suboperator profile into pt. The compile duration
// is published (happens-before the chain store) only once the code is ready,
// and charged to the execution the code landed in (after begin), once: a
// chain an earlier execution landed cost this one nothing.
func (r *pipelineRunner) finish(pt *trace.Pipeline, begin time.Time) (c stats.Counters, degraded error) {
	var fused []*fusedStep
	var ready time.Time
	if j := r.job; j != nil {
		switch chain := j.chain.Load(); {
		case j.failed.Load():
			c.CompileErrors, degraded = 1, j.err
		case chain == nil:
		case !j.ready.After(begin):
			fused = *chain
		case r.fused != nil:
			// Foreground: the whole compile time was dead wait (the dashed
			// bars of Fig 10). The hybrid backend hides it behind
			// interpretation.
			fused, c.CompileTime, c.CompileWait = r.fused, j.compile, j.compile
		default:
			fused, c.CompileTime, ready = *chain, j.compile, j.ready
		}
	}
	if pt == nil {
		return c, degraded
	}
	pt.Counters, pt.Fused = c, describeFused(fused)
	if !ready.IsZero() {
		pt.ArtifactReady = ready.Sub(begin)
	}
	// The interpreter carries the suboperator profile; fused code is opaque to
	// per-suboperator attribution by construction.
	if subops := interp.MergeProfiles(r.profs); len(subops) > 0 {
		pt.ProfileEvery, pt.SubOps = r.profs[0].Every, subops
		for _, p := range r.profs {
			pt.ProfiledChunks += p.Sampled
		}
	}
	return c, degraded
}

// ---------------------------------------------------------------------------
// Adaptive routing (paper §V-B): start on the interpreter, compile in the
// background, then route 90% of morsels to the form with the best
// exponentially decaying tuple throughput; 5% each keep exploring either.

type routeWorker struct {
	vecTput, jitTput float64
	// vecMeasured / jitMeasured distinguish "never sampled" from a measured
	// throughput (a plain zero would conflate the two and let zero-row
	// morsels poison the EWMA seed).
	vecMeasured, jitMeasured bool
	// jitAnnounced marks that this worker's first compiled morsel was
	// recorded into the flight recorder.
	jitAnnounced bool
	morsels      int
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

//inkfuse:hotpath
func (r *pipelineRunner) routeMorsel(w int, ctx *vm.Ctx, src []*storage.Vector, n int, out *storage.Chunk) {
	ws := &r.workers[w]
	// A job that failed never lands: its pipeline stays on the interpreter.
	var chain []*fusedStep
	if c := r.job.chain.Load(); c != nil {
		chain = *c
	}
	useJIT := false
	if chain != nil {
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
			flight.Default.Record(flight.KindFirstJIT, r.qid, r.flabel, int64(w), 0)
		}
	}
	ws.morsels++
	start := time.Now()
	if useJIT {
		r.runChain(chain, w, ctx, src, n, out)
		ctx.Counters.MorselsCompiled++
	} else {
		r.interpret(w, ctx, src, n, out)
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
		if r.pt != nil {
			r.pt.Workers[w].AddEWMA(trace.EWMASample{
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
