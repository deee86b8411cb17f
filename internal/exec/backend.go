// Package exec implements the query life cycle of the Incremental Fusion
// engine (paper §V): morsel-driven parallel execution of pipeline DAGs
// through interchangeable backends — operator-fusing compilation, the
// generated vectorized interpreter, relaxed operator fusion, and the
// adaptive hybrid backend that switches between them at morsel granularity.
//
//inklint:lockscope
package exec

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"inkfuse/internal/core"
	"inkfuse/internal/faultinject"
	"inkfuse/internal/flight"
	"inkfuse/internal/ir"
	"inkfuse/internal/vm"
)

// Backend selects an execution strategy.
type Backend int

const (
	// BackendVectorized interprets suboperator DAGs with the pre-generated
	// primitives. Instantly available: no per-query compilation.
	BackendVectorized Backend = iota
	// BackendCompiling fuses each pipeline into one specialized program and
	// waits for compilation before processing tuples.
	BackendCompiling
	// BackendROF is relaxed operator fusion: pipelines split before every
	// hash-table probe with a dedicated prefetch staging step.
	BackendROF
	// BackendHybrid starts on the vectorized interpreter, compiles in the
	// background, and routes morsels to whichever backend currently has the
	// highest measured tuple throughput (paper §V-B).
	BackendHybrid
)

func (b Backend) String() string {
	switch b {
	case BackendVectorized:
		return "vectorized"
	case BackendCompiling:
		return "compiling"
	case BackendROF:
		return "rof"
	case BackendHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// ParseBackend converts a name to a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "vectorized", "interpreted":
		return BackendVectorized, nil
	case "compiling", "jit", "compiled":
		return BackendCompiling, nil
	case "rof":
		return BackendROF, nil
	case "hybrid", "adaptive":
		return BackendHybrid, nil
	}
	return 0, fmt.Errorf("%w %q", ErrUnknownBackend, s)
}

// policy is what a backend is to the one pipeline runner (DESIGN.md §5):
// where a pipeline's suboperator chain is cut into steps, when the steps are
// compiled, and which form — the interpreter's primitives or the fused steps —
// runs a morsel. The table is fixed; nothing outside exec sets a policy.
type policy struct {
	split   splitPolicy
	compile compilePolicy
	route   routePolicy
}

type splitPolicy uint8

const (
	splitWhole  splitPolicy = iota // one step: the whole pipeline
	splitProbes                    // a cut and a prefetch before every probe (ROF)
)

type compilePolicy uint8

const (
	compileNone       compilePolicy = iota
	compileForeground               // the runner waits for the code before its first morsel
	compileBackground               // every job starts with the query; late ones are abandoned
)

type routePolicy uint8

const (
	routeInterpreter routePolicy = iota // every morsel through the interpreter
	routeFused                          // every morsel through the fused steps
	routeAdaptive                       // per morsel, by throughput EWMA (paper §V-B)
)

var policies = [...]policy{
	BackendVectorized: {splitWhole, compileNone, routeInterpreter},
	BackendCompiling:  {splitWhole, compileForeground, routeFused},
	BackendROF:        {splitProbes, compileForeground, routeFused},
	BackendHybrid:     {splitWhole, compileBackground, routeAdaptive},
}

func policyOf(b Backend) (policy, error) {
	if b < 0 || int(b) >= len(policies) {
		return policy{}, fmt.Errorf("%w %v", ErrUnknownBackend, b)
	}
	return policies[b], nil
}

// interprets reports whether morsels may run on the interpreter, which then
// needs the primitive registry and per-worker runs.
func (p policy) interprets() bool { return p.route != routeFused }

// LatencyModel reproduces the wall-clock cost of turning generated code into
// machine code. InkFuse shells out to clang (tens of milliseconds per
// pipeline); our closure compilation takes microseconds, so the model
// restores the paper's latency structure (DESIGN.md §2). The simulated delay
// scales with the generated code size, as real compiler time does.
type LatencyModel struct {
	Base    time.Duration // fixed process/pipeline overhead
	PerNode time.Duration // per IR node
}

// Delay returns the simulated compile latency for a function.
func (m LatencyModel) Delay(f *ir.Func) time.Duration {
	return m.Base + time.Duration(ir.Size(f))*m.PerNode
}

// Zero reports whether the model simulates no latency.
func (m LatencyModel) Zero() bool { return m.Base == 0 && m.PerNode == 0 }

// Predefined models, calibrated against the paper's reported numbers
// (InkFuse C + clang: ~5-15 ms per pipeline; Umbra LLVM: roughly half;
// Umbra's fast x86 path: well under a millisecond).
var (
	// LatencyC models InkFuse's generate-C-and-run-clang stack.
	LatencyC = LatencyModel{Base: 3 * time.Millisecond, PerNode: 120 * time.Microsecond}
	// LatencyLLVM models a direct-to-LLVM-IR backend (Umbra's LLVM mode).
	LatencyLLVM = LatencyModel{Base: 1500 * time.Microsecond, PerNode: 60 * time.Microsecond}
	// LatencyFastPath models a low-latency direct-assembly fast path
	// (Umbra's x86 backend).
	LatencyFastPath = LatencyModel{Base: 100 * time.Microsecond, PerNode: 4 * time.Microsecond}
	// LatencyNone disables simulation (only the real closure-compile time
	// remains).
	LatencyNone = LatencyModel{}
)

// fusedStep is one compiled step: the executable program plus the runtime
// state array shared with every other backend (paper Fig 8).
type fusedStep struct {
	prog   *vm.Program
	states []any
	size   int // ir.Size of the step's function
}

// describeFused renders what the closure compiler made of a step chain (one
// step for a whole pipeline, several for ROF), for the trace.
func describeFused(steps []*fusedStep) string {
	parts := make([]string, len(steps))
	for i, s := range steps {
		parts[i] = s.prog.Rewrites().String()
	}
	return strings.Join(parts, " | ")
}

// compileFaults names the fault-injection points of one compile policy:
// foreground and background jobs are armed apart.
type compileFaults struct{ fail, delay string }

var (
	foregroundFaults = compileFaults{fail: faultinject.ExecCompile, delay: faultinject.ExecCompileDelay}
	backgroundFaults = compileFaults{fail: faultinject.ExecHybridCompile, delay: faultinject.ExecHybridCompileDelay}
)

// compileStep is the one compile sequence of every backend: it runs the
// compilation stack over a step's suboperators, verifies the generated IR,
// waits out the simulated machine-code latency and closure-compiles the IR.
// The wait is one timer wake-up (repeated short sleeps starve under a busy
// single-P scheduler) and interruptible: a canceled or expired context aborts
// it with the typed cancellation error, so a job that can never land (its
// query ended during the wait) never closure-compiles.
func compileStep(ctx context.Context, name string, st step, lat LatencyModel, faults compileFaults) (*fusedStep, error) {
	if err := faultinject.Inject(faults.fail); err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	fn, states, err := core.GenStep(name, st.source, st.ops, st.emit)
	if err != nil {
		return nil, err
	}
	if err := ir.Verify(fn); err != nil {
		return nil, err
	}
	if d := lat.Delay(fn) + faultinject.Delay(faults.delay); d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return nil, ctxCause(ctx.Err())
		}
	}
	prog, err := vm.Compile(fn)
	if err != nil {
		return nil, err
	}
	return &fusedStep{prog: prog, states: states, size: ir.Size(fn)}, nil
}

// compileJob compiles one pipeline's step chain. Every compiling policy runs
// the same job: a foreground runner runs it before its first morsel and waits
// for it; the hybrid backend starts every pipeline's job when the query starts
// (paper §V-B: "InkFuse uses one thread per pipeline for background
// compilation"). A job lives as long as something can run its chain: in an
// artifact set it outlives its query and serves the instance's later
// executions; without one it is canceled when its query ends.
type compileJob struct {
	chain atomic.Pointer[[]*fusedStep]
	// failed marks a compile failure; err carries it, or the cause of a
	// canceled job (both written before done closes). A job that ended
	// without its chain is replaced by the next execution's lookup: until
	// then its pipeline runs on the vectorized interpreter, the hybrid
	// design's always-available fallback path.
	failed atomic.Bool
	err    error
	cancel context.CancelFunc // ends a background job's context (nil otherwise)
	done   chan struct{}
	// compile is the job's duration and ready when it landed (both written
	// before the chain store, read after a successful load).
	compile time.Duration
	ready   time.Time
}

// startCompile returns the compile job of pipeline pi's step chain under the
// policy: the one the artifact set holds (landed, or in flight from an earlier
// execution of the plan instance, which a foreground runner then waits for),
// else a new one. A new foreground job runs here and its error is the
// runner's; a new background job runs on its own goroutine, under a context
// derived from the query's without a set, and under one the set owns with one.
func startCompile(ctx context.Context, pi int, pipe *core.Pipeline, pol policy, opts Options) (*compileJob, error) {
	key := chainKey{pi, pol.split}
	j, jctx, started := opts.Artifacts.job(ctx, key, pol.compile == compileBackground)
	switch {
	case !started && pol.compile == compileForeground:
		return j, j.wait(ctx)
	case !started:
		return j, nil
	case pol.compile == compileForeground:
		return j, j.run(ctx, key, pipe.Name, chainSteps(pipe, pol.split), opts, foregroundFaults)
	}
	go j.run(jctx, key, pipe.Name, chainSteps(pipe, pol.split), opts, backgroundFaults)
	return j, nil
}

func (j *compileJob) run(ctx context.Context, key chainKey, name string, steps []step, opts Options, faults compileFaults) error {
	defer close(j.done)
	// A job whose query ended before it began (a background goroutine
	// scheduled late behind a short query) could land only past a zero
	// modelled latency; otherwise it skips the compile it would throw away.
	if err := ctx.Err(); err != nil && !opts.Latency.Zero() {
		j.err = ctxCause(err)
		return j.err
	}
	flight.Default.Record(flight.KindCompileStart, opts.QueryID, name, 0, 0)
	start := time.Now()
	chain := make([]*fusedStep, len(steps))
	for si, st := range steps {
		fname := "pipeline_" + name
		if key.split != splitWhole {
			fname = fmt.Sprintf("rof_%s_s%d", name, si)
		}
		art, err := compileStep(ctx, fname, st, *opts.Latency, faults)
		if err != nil {
			// A job whose context ended was canceled (or its query), not
			// failed.
			j.err = err
			if ctx.Err() == nil {
				j.failed.Store(true)
				flight.Default.Record(flight.KindCompileFail, opts.QueryID, name, int64(si), 0)
			}
			return err
		}
		chain[si] = art
	}
	j.compile, j.ready = time.Since(start), time.Now()
	opts.Artifacts.noteCompile()
	j.chain.Store(&chain)
	flight.Default.Record(flight.KindCompileLand, opts.QueryID, name, int64(j.compile), int64(len(steps)))
	return nil
}

// wait waits for a job another execution started to end, or for the query's
// context to; it returns the job's error when it ended without its chain.
func (j *compileJob) wait(ctx context.Context) error {
	select {
	case <-j.done:
		return j.err // nil once the chain landed
	case <-ctx.Done():
		return ctxCause(ctx.Err())
	}
}

// dead reports whether the job ended without landing its chain: it failed or
// was canceled.
func (j *compileJob) dead() bool {
	select {
	case <-j.done:
		return j.chain.Load() == nil
	default:
		return false
	}
}

// abandon is the job's part in its query's end. It reports whether the job
// had neither landed its chain nor failed by then. Without an artifact set
// (keep false) nothing could run the chain later, so the job is canceled and
// waited for; with one it runs on and lands in the set.
func (j *compileJob) abandon(keep bool) bool {
	if !keep {
		if j.cancel != nil {
			j.cancel()
		}
		<-j.done
	}
	return j.chain.Load() == nil && !j.failed.Load()
}
