package exec

import (
	"context"
	"fmt"
	"strings"
	"time"

	"inkfuse/internal/core"
)

// ExplainAnalyze executes the plan with tracing enabled and renders the
// suboperator plan annotated with the measured per-pipeline numbers: morsel
// counts, worker busy-time distribution, compile timing, the hybrid
// backend's routing split and EWMA estimates, and finalization time. It
// works for all four backends. On failure the rendering of the partial trace
// is returned alongside the error.
//
// Profiling is enabled too: on backends serving through the vectorized
// interpreter the annotations include a per-suboperator time/tuple breakdown
// from the sampled chunk profiler.
func ExplainAnalyze(ctx context.Context, plan *core.Plan, opts Options) (string, *Result, error) {
	opts.Trace = true
	opts.Profile = true
	res, err := ExecuteContext(ctx, plan, opts)
	if res == nil {
		return "", nil, err
	}
	return RenderExplainAnalyze(plan, res), res, err
}

// RenderExplainAnalyze renders a plan against an executed Result carrying a
// trace (Options.Trace). Pipelines beyond the trace (not reached before a
// failure) render without annotations.
func RenderExplainAnalyze(plan *core.Plan, res *Result) string {
	var b strings.Builder
	qt := res.Trace
	fmt.Fprintf(&b, "== explain analyze %s", plan.Name)
	if qt != nil {
		fmt.Fprintf(&b, ": backend=%s workers=%d", res.Backend, res.Workers)
	}
	fmt.Fprintf(&b, " wall=%v rows=%d\n", res.Wall.Round(time.Microsecond), res.Rows())
	if qt != nil && res.Err != "" {
		fmt.Fprintf(&b, "!! failed: %s\n", res.Err)
	}
	for i, pipe := range plan.Pipelines {
		b.WriteString(pipe.Describe())
		if qt == nil || i >= len(qt.Pipelines) {
			if qt != nil {
				b.WriteString("  -- not executed\n")
			}
			continue
		}
		qt.Pipelines[i].Annotate(&b, "  -- ")
	}
	if plan.Sort != nil {
		fmt.Fprintf(&b, "post: order by %v desc=%v limit=%d\n", plan.Sort.Keys, plan.Sort.Desc, plan.Sort.Limit)
	}
	writeQueryFooter(&b, res)
	return b.String()
}

func writeQueryFooter(b *strings.Builder, res *Result) {
	s := &res.Stats
	fmt.Fprintf(b, "== totals: tuples=%d vm-ops/tuple=%s buffer-bytes/tuple=%s ht-probes/tuple=%s\n",
		s.Tuples, s.PerTuple(s.VMOps), s.PerTuple(s.MaterializedBytes), s.PerTuple(s.HTProbes))
	fmt.Fprintf(b, "== counters: %s\n", s)
	for _, w := range res.Warnings {
		fmt.Fprintf(b, "== warning: %v\n", w)
	}
}
