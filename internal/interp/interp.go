// Package interp is the generated vectorized interpreter (paper §V-A). At
// engine startup it enumerates every suboperator instantiation, pushes each
// through the regular compilation stack wrapped between a tuple-buffer
// source and sink, and caches the resulting primitive. Interpreting a
// pipeline then means mapping each suboperator to its pre-generated
// primitive and invoking the primitives chunk-at-a-time over tuple buffers.
//
// As in InkFuse, the backend itself is tiny: it resolves suboperators to
// primitives and moves chunks — everything else was generated.
package interp

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"inkfuse/internal/core"
	"inkfuse/internal/ir"
	"inkfuse/internal/storage"
	"inkfuse/internal/trace"
	"inkfuse/internal/vm"
)

// Registry is the primitive cache: every enumerable suboperator's compiled
// vectorized primitive, generated once at startup and shared by all queries
// and workers.
type Registry struct {
	progs map[string]*vm.Program
	funcs map[string]*ir.Func
}

var (
	defaultRegistry     *Registry
	defaultRegistryOnce sync.Once
	defaultRegistryErr  error
)

// Default returns the process-wide registry, generating it on first use
// ("the primitives are generated ... and loaded once when starting the
// database", paper §V-A).
func Default() (*Registry, error) {
	defaultRegistryOnce.Do(func() {
		defaultRegistry, defaultRegistryErr = NewRegistry()
	})
	return defaultRegistry, defaultRegistryErr
}

// NewRegistry enumerates all suboperators and generates their primitives.
func NewRegistry() (*Registry, error) {
	r := &Registry{
		progs: make(map[string]*vm.Program),
		funcs: make(map[string]*ir.Func),
	}
	for _, op := range core.Enumerate() {
		id := op.PrimitiveID()
		if _, dup := r.progs[id]; dup {
			return nil, fmt.Errorf("interp: duplicate primitive %q in enumeration", id)
		}
		f, err := core.BuildPrimitive(op)
		if err != nil {
			return nil, err
		}
		if err := ir.Verify(f); err != nil {
			return nil, fmt.Errorf("interp: primitive %q fails verification: %w", id, err)
		}
		p, err := vm.Compile(f)
		if err != nil {
			return nil, fmt.Errorf("interp: compiling primitive %q: %w", id, err)
		}
		r.progs[id] = p
		r.funcs[id] = f
	}
	return r, nil
}

// Get returns the primitive for an enumeration ID.
func (r *Registry) Get(id string) (*vm.Program, bool) {
	p, ok := r.progs[id]
	return p, ok
}

// Func returns the primitive's IR (cmd/primgen renders these as C).
func (r *Registry) Func(id string) (*ir.Func, bool) {
	f, ok := r.funcs[id]
	return f, ok
}

// Len returns the number of generated primitives.
func (r *Registry) Len() int { return len(r.progs) }

// IDs returns all primitive IDs (unordered).
func (r *Registry) IDs() []string {
	out := make([]string, 0, len(r.progs))
	for id := range r.progs {
		out = append(out, id)
	}
	return out
}

// GenerateC renders the complete generated interpreter as C source;
// cmd/primgen prints it and the artifact drift test compares it against the
// checked-in artifacts/interpreter.c.
func (r *Registry) GenerateC() string {
	ids := r.IDs()
	sort.Strings(ids)
	var b strings.Builder
	b.WriteString("/* The complete generated vectorized interpreter.\n")
	b.WriteString("   Every function below was produced by wrapping one enumerated\n")
	b.WriteString("   suboperator between a tuple-buffer source and sink and running\n")
	b.WriteString("   the engine's single compilation stack (paper §V-A). */\n")
	for _, id := range ids {
		b.WriteString("\n")
		b.WriteString(ir.EmitC(r.funcs[id]))
	}
	return b.String()
}

// compiledOp is one suboperator resolved to its primitive.
type compiledOp struct {
	id     string // the primitive's enumeration ID (profiler attribution)
	prog   *vm.Program
	states []any
	ins    []*core.IU
	outs   []*core.IU
	sink   bool
}

// Profile is a per-Run (and therefore per-worker) sampling profiler over the
// suboperator primitives: every Every-th chunk is run through a timed step
// loop that attributes calls, nanoseconds and tuples to each primitive (one
// trace.SubOpProf per suboperator). Between samples the interpreter takes its
// regular untimed path, so the steady-state cost of an enabled profiler is
// one counter increment and modulo per chunk — and with profiling off
// (Run.prof == nil) a single nil check per chunk.
//
// A Profile belongs to one Run: no locks, no atomics. Merge per-worker
// profiles with MergeProfiles.
type Profile struct {
	// Every is the sampling period in chunks (1 = profile every chunk).
	Every int
	// Chunks counts chunks seen; Sampled counts chunks profiled.
	Chunks  int64
	Sampled int64
	samples []trace.SubOpProf // parallel to the Run's scan+ops sequence
}

// tick advances the chunk counter and reports whether to sample this chunk.
//
//inkfuse:hotpath
func (p *Profile) tick() bool {
	p.Chunks++
	if p.Chunks%int64(p.Every) != 0 {
		return false
	}
	p.Sampled++
	return true
}

// Samples returns the per-suboperator attributions in pipeline order
// (including suboperators that were never sampled, with zero counts).
func (p *Profile) Samples() []trace.SubOpProf {
	return append([]trace.SubOpProf{}, p.samples...)
}

// MergeProfiles folds per-worker profiles of the same suboperator sequence
// into one attribution list, preserving pipeline order. Profiles from
// different pipelines must not be mixed; nil entries are skipped.
func MergeProfiles(profs []*Profile) []trace.SubOpProf {
	var out []trace.SubOpProf
	for _, p := range profs {
		if p == nil {
			continue
		}
		if out == nil {
			out = p.Samples()
			continue
		}
		for i := range p.samples {
			if i >= len(out) {
				break
			}
			out[i].Calls += p.samples[i].Calls
			out[i].Tuples += p.samples[i].Tuples
			out[i].Nanos += p.samples[i].Nanos
		}
	}
	return out
}

// Run interprets one step (a suboperator sequence) for a single worker. It
// owns the per-IU tuple-buffer columns, so each worker builds its own Run
// from the shared registry.
//
// Two rules keep the tuple buffers free of copies. The source is not
// materialized: RunChunk points the source IUs' columns at the caller's
// vectors (views, as the morsel loops make them with SliceInto), and since a
// view's array belongs to a base table or a hash table, nothing may ever
// write through one — views are only ever primitive *inputs*, and a
// primitive never hands an input's array on (vm's sink copies inputs). And a
// primitive's result is not copied into its tuple buffer: the buffer is empty
// when the primitive runs, so the sink hands the result registers over to it
// (storage.Chunk.TakeFromVectors).
type Run struct {
	reg    *Registry
	source []*core.IU
	// scanIDs names the tscan primitive of each source column. The scan
	// primitives are generated like every other (the enumeration invariant
	// covers the source) and the profile lists them as the pipeline's first
	// steps, but binding a view is all a scan takes: they are not executed.
	scanIDs []string
	ops     []compiledOp
	emit    []*core.IU

	ws      map[int]*storage.Vector // IU ID -> tuple-buffer column
	srcCols []*storage.Vector       // the source IUs' columns: views, re-pointed per chunk
	cols    []*storage.Vector       // the columns this Run owns, for RetainedBytes to walk

	outChunks []*storage.Chunk // per op, wrapping its outs' vectors
	inVecs    [][]*storage.Vector
	emitVecs  []*storage.Vector // pre-wired emit columns (no per-chunk alloc)

	// prof is the optional sampling profiler (EnableProfile); nil costs one
	// branch per chunk.
	prof *Profile
}

// EnableProfile attaches a sampling profiler to this Run: every every-th
// chunk is timed per suboperator primitive. Returns the profile for later
// collection. every <= 0 defaults to DefaultProfileEvery.
func (r *Run) EnableProfile(every int) *Profile {
	if every <= 0 {
		every = DefaultProfileEvery
	}
	p := &Profile{Every: every, samples: make([]trace.SubOpProf, len(r.scanIDs)+len(r.ops))}
	for i, id := range r.scanIDs {
		p.samples[i].ID = id
	}
	for i, co := range r.ops {
		p.samples[len(r.scanIDs)+i].ID = co.id
	}
	r.prof = p
	return p
}

// DisableProfile detaches the profiler: a Run kept for the next execution of
// its plan instance must not carry the last one's.
func (r *Run) DisableProfile() { r.prof = nil }

// RetainedBytes returns the memory of the Run's tuple-buffer columns (the
// source views hold none of their own).
func (r *Run) RetainedBytes() int64 {
	var n int64
	for _, v := range r.cols {
		n += v.RetainedBytes()
	}
	return n
}

// DefaultProfileEvery is the default suboperator-profiler sampling period:
// one in every 8 chunks is timed (~12% of chunks carry the timestamp cost,
// attribution stays statistically stable even for short pipelines).
const DefaultProfileEvery = 8

// NewRun prepares a per-worker interpreter for the given suboperator
// sequence. Every suboperator must have a pre-generated primitive — the
// enumeration invariant guarantees it; a miss is reported as an error.
func NewRun(reg *Registry, source []*core.IU, ops []core.SubOp, emit []*core.IU) (*Run, error) {
	r := &Run{reg: reg, source: source, emit: emit, ws: make(map[int]*storage.Vector)}
	for _, iu := range source {
		scan := &core.ScanCol{Src: iu, Dst: iu}
		if _, ok := reg.Get(scan.PrimitiveID()); !ok {
			return nil, fmt.Errorf("interp: no scan primitive for kind %v", iu.K)
		}
		r.scanIDs = append(r.scanIDs, scan.PrimitiveID())
		view := &storage.Vector{Kind: iu.K}
		r.ws[iu.ID] = view
		r.srcCols = append(r.srcCols, view)
	}
	for _, op := range ops {
		if _, isScope := op.(*core.FilterScope); isScope {
			// The branch is fused into the filter-copy primitives.
			continue
		}
		id := op.PrimitiveID()
		p, ok := reg.Get(id)
		if !ok {
			return nil, fmt.Errorf("interp: suboperator %q has no pre-generated primitive (enumeration invariant violated)", id)
		}
		d := op.Desc()
		co := compiledOp{id: id, prog: p, states: d.States(), ins: d.Inputs(), outs: d.Outputs(), sink: len(d.Out) == 0}
		for _, iu := range co.outs {
			if _, ok := r.ws[iu.ID]; ok {
				// One producer per IU (core.VerifyPlan's rule): a second one
				// would write into the first one's column — or through a view.
				return nil, fmt.Errorf("interp: %s produces IU %s a second time", id, iu)
			}
			v := storage.NewVector(iu.K, 0)
			r.ws[iu.ID] = v
			r.cols = append(r.cols, v)
		}
		r.ops = append(r.ops, co)
	}
	// Pre-wire input/output vector lists and output chunks.
	for i := range r.ops {
		co := &r.ops[i]
		var ins []*storage.Vector
		for _, iu := range co.ins {
			v, ok := r.ws[iu.ID]
			if !ok {
				return nil, fmt.Errorf("interp: %s consumes unmaterialized IU %s", co.prog.Fn.Name, iu)
			}
			ins = append(ins, v)
		}
		r.inVecs = append(r.inVecs, ins)
		var chunk *storage.Chunk
		if !co.sink {
			cols := make([]*storage.Vector, len(co.outs))
			for j, iu := range co.outs {
				cols[j] = r.ws[iu.ID]
			}
			chunk = &storage.Chunk{Cols: cols}
		}
		r.outChunks = append(r.outChunks, chunk)
	}
	// Pre-wire the emit column list: the ws vectors are stable pointers, so
	// the per-chunk emit tail reads them without allocating.
	r.emitVecs = make([]*storage.Vector, len(r.emit))
	for i, iu := range r.emit {
		v, ok := r.ws[iu.ID]
		if !ok {
			return nil, fmt.Errorf("interp: result IU %s is never materialized", iu)
		}
		r.emitVecs[i] = v
	}
	return r, nil
}

// RunChunk pushes one source chunk through the step. srcVecs are bound to
// the source IUs (base-table column slices or hash-table row vectors); out
// receives the emitted columns (may be nil for pure sinks). Returns emitted
// rows.
//
//inkfuse:hotpath
func (r *Run) RunChunk(ctx *vm.Ctx, srcVecs []*storage.Vector, n int, out *storage.Chunk) int {
	// The profiler off-path is this single nil check; an enabled profiler
	// adds a counter/modulo between samples.
	if p := r.prof; p != nil && p.tick() {
		r.runStepsProfiled(ctx, srcVecs, n)
	} else {
		r.runSteps(ctx, srcVecs, n)
	}
	if len(r.emit) == 0 || out == nil {
		return 0
	}
	en := 0
	for _, v := range r.emitVecs {
		en = v.Len()
	}
	bytes := out.AppendFromVectors(r.emitVecs, en)
	ctx.Counters.MaterializedBytes += bytes
	ctx.Counters.EmittedRows += int64(en)
	return en
}

// bindSource points the source columns at the caller's vectors — the whole
// of the scan step (paper Fig 3, step 1), with nothing materialized.
//
//inkfuse:hotpath
func (r *Run) bindSource(srcVecs []*storage.Vector, n int) {
	for i, v := range srcVecs {
		v.SliceInto(r.srcCols[i], 0, n)
	}
}

// runSteps pushes the chunk through the suboperator primitives — the untimed
// hot path.
//
//inkfuse:hotpath
func (r *Run) runSteps(ctx *vm.Ctx, srcVecs []*storage.Vector, n int) {
	r.bindSource(srcVecs, n)
	for i, co := range r.ops {
		ins := r.inVecs[i]
		// The chunk's current cardinality is carried by the primitive's
		// first input column (dense-chunk model).
		cn := n
		if len(ins) > 0 {
			cn = ins[0].Len()
		}
		chunk := r.outChunks[i]
		if chunk != nil {
			chunk.Reset()
		}
		co.prog.Run(ctx, co.states, ins, cn, chunk)
		ctx.Counters.PrimitiveCalls++
	}
}

// runStepsProfiled is runSteps with per-primitive timing, attributing
// nanoseconds and input tuples to each suboperator's sample slot. The scan
// steps are attributed their calls and tuples and no time: a bound view costs
// none worth a clock reading.
//
//inkfuse:hotpath
func (r *Run) runStepsProfiled(ctx *vm.Ctx, srcVecs []*storage.Vector, n int) {
	p := r.prof
	r.bindSource(srcVecs, n)
	for i := range r.scanIDs {
		s := &p.samples[i]
		s.Calls++
		s.Tuples += int64(n)
	}
	base := len(r.scanIDs)
	for i, co := range r.ops {
		ins := r.inVecs[i]
		cn := n
		if len(ins) > 0 {
			cn = ins[0].Len()
		}
		chunk := r.outChunks[i]
		if chunk != nil {
			chunk.Reset()
		}
		t0 := time.Now()
		co.prog.Run(ctx, co.states, ins, cn, chunk)
		s := &p.samples[base+i]
		s.Nanos += time.Since(t0).Nanoseconds()
		s.Calls++
		s.Tuples += int64(cn)
		ctx.Counters.PrimitiveCalls++
	}
}
