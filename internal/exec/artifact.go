package exec

import (
	"context"
	"sync"
	"sync/atomic"

	"inkfuse/internal/core"
	"inkfuse/internal/interp"
	"inkfuse/internal/storage"
	"inkfuse/internal/vm"
)

// ArtifactSet is what one lowered plan instance keeps between executions so
// that repeated executions skip work: the compile jobs of its step chains (one
// per pipeline and split policy: the compiling and hybrid backends share the
// whole-pipeline chain, ROF keeps its own), whose landed chains save
// recompilation and its modeled latency, and the execution state (worker
// contexts with their tables, per-pipeline buffers; core.PlanState clears the
// plan's pointers to the tables), which saves rebuilding and regrowing every
// buffer (DESIGN.md §16).
// A job in the set outlives the query that started it: the next execution
// takes it landed, in flight or — failed or canceled — replaces it (§5).
// Artifacts and execution state close over the plan's runtime state objects,
// so a set is only valid for executions of the exact plan instance it was
// built from — the plancache leases plan and set together and never runs two
// executions over them concurrently.
//
// The methods the executor calls are nil-receiver safe: callers without a
// cache simply leave Options.Artifacts nil and run on state they drop.
type ArtifactSet struct {
	mu       sync.Mutex
	jobs     map[chainKey]*compileJob
	compiles atomic.Int64

	// Execution state. Only the one execution the lease admits and the cache's
	// Rewind after it touch these fields, so they take no lock.
	plan  *core.PlanState
	state *execState // nil before the first execution and after DropState
	// dirty is set when an execution begins and cleared only when it completes
	// OK: Rewind discards whatever a failed execution left behind.
	dirty bool
}

// NewArtifactSet creates an empty set for the plan instance.
func NewArtifactSet(plan *core.Plan) *ArtifactSet {
	return &ArtifactSet{jobs: make(map[chainKey]*compileJob), plan: core.CollectPlanState(plan)}
}

// chainKey names a compiled step chain: the pipeline and how it was cut.
type chainKey struct {
	pipe  int
	split splitPolicy
}

// execState is what an execution builds besides the plan's tables: the worker
// contexts and each pipeline's per-worker buffers.
type execState struct {
	backend Backend
	ctxs    []*vm.Ctx
	pipes   []pipeBuffers // parallel to the plan's pipelines
}

// pipeBuffers holds one pipeline's buffers, each indexed by worker slot. src
// and outs exist from the start; the pipeline's runner fills in the rest on
// its first execution.
type pipeBuffers struct {
	src     [][]*storage.Vector // morsel views into the pipeline source
	outs    []*storage.Chunk    // result rows (nil for a pure sink pipeline)
	runs    []*interp.Run       // interpreter: tuple buffers
	chunks  [][]*storage.Vector // batch views into the morsel
	staging [][]*storage.Chunk  // split chain: the staged chunk between two steps
}

func newExecState(plan *core.Plan, opts Options) *execState {
	es := &execState{
		backend: opts.Backend,
		ctxs:    make([]*vm.Ctx, opts.Workers),
		pipes:   make([]pipeBuffers, len(plan.Pipelines)),
	}
	for i := range es.ctxs {
		es.ctxs[i] = vm.NewCtx()
	}
	for i, pipe := range plan.Pipelines {
		pb := &es.pipes[i]
		pb.src = newVectorViews(opts.Workers, len(pipe.Source.SourceIUs()))
		if pipe.Result != nil {
			pb.outs = make([]*storage.Chunk, opts.Workers)
			for w := range pb.outs {
				pb.outs[w] = storage.NewChunk(pipe.ResultKinds())
			}
		}
	}
	return es
}

// newVectorViews allocates the per-worker vector headers the morsel loops
// re-point in place (Vector.SliceInto).
func newVectorViews(workers, cols int) [][]*storage.Vector {
	out := make([][]*storage.Vector, workers)
	for w := range out {
		out[w] = make([]*storage.Vector, cols)
		for i := range out[w] {
			out[w][i] = &storage.Vector{}
		}
	}
	return out
}

func (es *execState) retainedBytes() int64 {
	var n int64
	for _, c := range es.ctxs {
		n += c.RetainedBytes()
	}
	for i := range es.pipes {
		pb := &es.pipes[i]
		for _, run := range pb.runs {
			n += run.RetainedBytes()
		}
		n += chunksBytes(pb.outs)
		for _, chunks := range pb.staging {
			n += chunksBytes(chunks)
		}
	}
	return n
}

func chunksBytes(chunks []*storage.Chunk) int64 {
	var n int64
	for _, c := range chunks {
		for _, col := range c.Cols {
			n += col.RetainedBytes()
		}
	}
	return n
}

// begin marks an execution as started. Until done, the instance's execution
// state counts as spoiled.
func (a *ArtifactSet) begin() {
	if a != nil {
		a.dirty = true
	}
}

// done marks the execution begun last as completed OK.
func (a *ArtifactSet) done() {
	if a != nil {
		a.dirty = false
	}
}

// execState returns the state to execute on: the one kept from the instance's
// previous execution when it was built for the same backend and worker count
// (chunk and morsel sizes shape nothing ahead of time: buffers grow to what a
// run asks of them), else a new one — and then whatever was kept is dropped
// whole, tables included, so nothing of another shape is ever read. Without a
// set the state is new and the caller's to drop.
func (a *ArtifactSet) execState(plan *core.Plan, opts Options) *execState {
	if a == nil {
		return newExecState(plan, opts)
	}
	if es := a.state; es != nil {
		if es.backend == opts.Backend && len(es.ctxs) == opts.Workers {
			return es
		}
		a.plan.Reset()
	}
	a.state = newExecState(plan, opts)
	return a.state
}

// Rewind readies the plan instance for its next execution, once no execution
// references it. After an execution that completed OK the state is rewound in
// place — lengths to zero, bucket arrays cleared, arenas back at their first
// block — so the next execution allocates (almost) nothing. After anything
// else (cancel, deadline, budget, panic, injected fault, admission reject)
// it is dropped: one rule, no reasoning about what a failure left behind.
func (a *ArtifactSet) Rewind() {
	if a.dirty {
		a.DropState()
		return
	}
	a.plan.Reset()
	if a.state != nil {
		for _, c := range a.state.ctxs {
			c.Reset()
		}
	}
}

// DropState releases the execution state, keeping the compile jobs: the
// next execution builds its buffers and tables anew, as a cold one does.
func (a *ArtifactSet) DropState() {
	a.dirty = false
	a.state = nil
	a.plan.Reset()
}

// StateBytes estimates the memory of the execution state kept for the next
// execution: worker contexts, their tables included, and pipeline buffers.
func (a *ArtifactSet) StateBytes() int64 {
	if a.state == nil {
		return 0
	}
	return a.state.retainedBytes()
}

// Compiles reports how many compile jobs landed their chains in the set — the
// "did the second execution recompile?" observable.
func (a *ArtifactSet) Compiles() int64 {
	if a == nil {
		return 0
	}
	return a.compiles.Load()
}

// FusedPipelines reports how many pipelines have a landed whole-pipeline
// chain.
func (a *ArtifactSet) FusedPipelines() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for k, j := range a.jobs {
		if k.split == splitWhole && j.chain.Load() != nil {
			n++
		}
	}
	return n
}

// ArtifactBytes estimates the compiled artifacts' footprint: the IR node count
// of every landed chain, scaled by a nominal bytes-per-node.
func (a *ArtifactSet) ArtifactBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	const bytesPerNode = 64
	var nodes int64
	for _, j := range a.jobs {
		if chain := j.chain.Load(); chain != nil {
			for _, s := range *chain {
				nodes += int64(s.size)
			}
		}
	}
	return nodes * bytesPerNode
}

// CancelJobs cancels the set's compile jobs still in flight: nothing runs the
// chains of an instance the cache drops. It does not wait; a canceled job
// ends at its next context check, within one step's compile.
func (a *ArtifactSet) CancelJobs() {
	a.mu.Lock()
	var cancels []context.CancelFunc
	for _, j := range a.jobs {
		if j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
	}
	a.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
}

// job returns the set's compile job for k if it landed or is in flight; else
// (none yet, or one that failed or was canceled) it registers a new one and
// reports that it did. Without a set every call starts a job. A new
// background job runs under a context of its own, returned as jctx: derived
// from the query's ctx without a set, and from none with one, because the
// set's job outlives the query.
func (a *ArtifactSet) job(ctx context.Context, k chainKey, background bool) (j *compileJob, jctx context.Context, started bool) {
	if a == nil {
		j, jctx = newCompileJob(ctx, background)
		return j, jctx, true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if j := a.jobs[k]; j != nil && !j.dead() {
		return j, ctx, false
	}
	j, jctx = newCompileJob(context.Background(), background)
	a.jobs[k] = j
	return j, jctx, true
}

// newCompileJob makes a job; a background one gets a context derived from
// parent that CancelJobs can end.
func newCompileJob(parent context.Context, background bool) (*compileJob, context.Context) {
	j := &compileJob{done: make(chan struct{})}
	if background {
		parent, j.cancel = context.WithCancel(parent)
	}
	return j, parent
}

func (a *ArtifactSet) noteCompile() {
	if a != nil {
		a.compiles.Add(1)
	}
}
