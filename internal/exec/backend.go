// Package exec implements the query life cycle of the Incremental Fusion
// engine (paper §V): morsel-driven parallel execution of pipeline DAGs
// through interchangeable backends — operator-fusing compilation, the
// generated vectorized interpreter, relaxed operator fusion, and the
// adaptive hybrid backend that switches between them at morsel granularity.
package exec

import (
	"context"
	"fmt"
	"strings"
	"time"

	"inkfuse/internal/core"
	"inkfuse/internal/faultinject"
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
	fn     *ir.Func
}

// describeFused renders what the closure compiler made of a step chain (one
// step for a whole-pipeline artifact, several for ROF), for the trace.
func describeFused(steps []*fusedStep) string {
	parts := make([]string, len(steps))
	for i, s := range steps {
		parts[i] = s.prog.Rewrites().String()
	}
	return strings.Join(parts, " | ")
}

// compileFaults names the fault-injection points of one compile site: the
// foreground backends and the hybrid backend's background jobs are armed
// apart.
type compileFaults struct{ fail, delay string }

var (
	foregroundFaults = compileFaults{fail: faultinject.ExecCompile, delay: faultinject.ExecCompileDelay}
	backgroundFaults = compileFaults{fail: faultinject.ExecHybridCompile, delay: faultinject.ExecHybridCompileDelay}
)

// compileStep is the one compile sequence of every backend: it runs the
// compilation stack over a suboperator sequence, verifies the generated IR,
// closure-compiles it and waits out the simulated machine-code latency. The
// wait is one timer wake-up (repeated short sleeps starve under a busy
// single-P scheduler) and interruptible: a canceled or expired context aborts
// it with the typed cancellation error.
func compileStep(ctx context.Context, name string, source []*core.IU, ops []core.SubOp, emit []*core.IU, lat LatencyModel, faults compileFaults) (*fusedStep, time.Duration, error) {
	start := time.Now()
	if err := faultinject.Inject(faults.fail); err != nil {
		return nil, 0, fmt.Errorf("compile %s: %w", name, err)
	}
	fn, states, err := core.GenStep(name, source, ops, emit)
	if err != nil {
		return nil, 0, err
	}
	if err := ir.Verify(fn); err != nil {
		return nil, 0, err
	}
	prog, err := vm.Compile(fn)
	if err != nil {
		return nil, 0, err
	}
	if d := lat.Delay(fn) + faultinject.Delay(faults.delay); d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return nil, time.Since(start), ctxCause(ctx.Err())
		}
	}
	return &fusedStep{prog: prog, states: states, fn: fn}, time.Since(start), nil
}
