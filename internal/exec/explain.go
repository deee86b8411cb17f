package exec

import (
	"context"
	"fmt"
	"strings"
	"time"

	"inkfuse/internal/core"
	"inkfuse/internal/trace"
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
		fmt.Fprintf(&b, ": backend=%s workers=%d", qt.Backend, qt.Workers)
	}
	fmt.Fprintf(&b, " wall=%v rows=%d\n", res.Wall.Round(time.Microsecond), res.Rows())
	if qt != nil && qt.Err != "" {
		fmt.Fprintf(&b, "!! failed: %s\n", qt.Err)
	}
	for i, pipe := range plan.Pipelines {
		b.WriteString(pipe.Describe())
		if qt == nil || i >= len(qt.Pipelines) {
			if qt != nil {
				b.WriteString("  -- not executed\n")
			}
			continue
		}
		writePipelineAnalysis(&b, qt.Pipelines[i], qt.Workers)
	}
	if plan.Sort != nil {
		fmt.Fprintf(&b, "post: order by %v desc=%v limit=%d\n", plan.Sort.Keys, plan.Sort.Desc, plan.Sort.Limit)
	}
	writeQueryFooter(&b, res)
	return b.String()
}

func writePipelineAnalysis(b *strings.Builder, pt *trace.Pipeline, workers int) {
	fmt.Fprintf(b, "  -- %d rows in %d morsels", pt.Rows, pt.Morsels)
	if run := pt.MorselsRun(); run != pt.Morsels {
		fmt.Fprintf(b, " (%d run before the query stopped)", run)
	}
	busy := pt.Busy()
	fmt.Fprintf(b, "; busy %v across %d workers", busy.Round(time.Microsecond), workers)
	if lo, med, hi, ok := pt.BusyQuantiles(); ok {
		fmt.Fprintf(b, " (min %v / med %v / max %v)",
			lo.Round(time.Microsecond), med.Round(time.Microsecond), hi.Round(time.Microsecond))
	}
	b.WriteByte('\n')
	if pt.CompileTime > 0 || pt.CompileWait > 0 || pt.CompileErrors > 0 || pt.Degraded || pt.Fused != "" {
		fmt.Fprintf(b, "  -- compile: %v", pt.CompileTime.Round(time.Microsecond))
		if pt.CompileWait > 0 {
			fmt.Fprintf(b, " (dead wait %v)", pt.CompileWait.Round(time.Microsecond))
		}
		if pt.Fused != "" {
			fmt.Fprintf(b, ", fused: %s", pt.Fused)
		}
		if pt.ArtifactReady > 0 {
			fmt.Fprintf(b, ", artifact ready at +%v", pt.ArtifactReady.Round(time.Microsecond))
		}
		if pt.CompileErrors > 0 {
			fmt.Fprintf(b, ", %d compile error(s)", pt.CompileErrors)
		}
		if pt.Degraded {
			b.WriteString(" — DEGRADED to vectorized-only")
		}
		b.WriteByte('\n')
	}
	if len(pt.SubOps) > 0 {
		var total int64
		for _, s := range pt.SubOps {
			total += s.Nanos
		}
		fmt.Fprintf(b, "  -- subops: sampled 1/%d chunks (%d profiled)\n", pt.ProfileEvery, pt.ProfiledChunks)
		for _, s := range pt.SubOps {
			share := 0.0
			if total > 0 {
				share = 100 * float64(s.Nanos) / float64(total)
			}
			fmt.Fprintf(b, "       %-44s %5.1f%% %10v  calls=%-6d tuples=%-9d ns/tuple=%.1f\n",
				s.ID, share, time.Duration(s.Nanos).Round(time.Microsecond), s.Calls, s.Tuples, s.NanosPerTuple())
		}
	}
	if lh, sp, bs := pt.LocalHits(), pt.Spills(), pt.BloomSkips(); lh+sp+bs > 0 {
		fmt.Fprintf(b, "  -- tables: local_hits=%d spills=%d bloom_skips=%d\n", lh, sp, bs)
	}
	if rt := pt.Routed(); rt > 0 || len(pt.PartRows) > 0 {
		fmt.Fprintf(b, "  -- exchange: routed=%d over %d partitions, max partition %d rows",
			rt, len(pt.PartRows), pt.MaxPartRows())
		if rt > 0 && len(pt.PartRows) > 0 {
			// Skew factor: max partition vs the perfectly uniform share.
			uniform := float64(rt) / float64(len(pt.PartRows))
			if uniform > 0 {
				fmt.Fprintf(b, " (skew %.2fx)", float64(pt.MaxPartRows())/uniform)
			}
		}
		b.WriteByte('\n')
	}
	jit, vec := pt.RoutedJIT(), pt.RoutedVectorized()
	if jit+vec > 0 {
		fmt.Fprintf(b, "  -- routing: %d jit / %d vectorized", jit, vec)
		if jit+vec == pt.MorselsRun() && jit+vec > 0 {
			fmt.Fprintf(b, " (%.0f%% jit)", 100*float64(jit)/float64(jit+vec))
		}
		if ej, ev := pt.FinalEWMA(); ej > 0 || ev > 0 {
			fmt.Fprintf(b, "; ewma jit=%s vec=%s", trace.FormatTput(ej), trace.FormatTput(ev))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(b, "  -- finalize %v; pipeline wall %v\n",
		pt.Finalize.Round(time.Microsecond), pt.Wall.Round(time.Microsecond))
}

func writeQueryFooter(b *strings.Builder, res *Result) {
	s := &res.Stats
	fmt.Fprintf(b, "== totals: tuples=%d vm-ops/tuple=%s buffer-bytes/tuple=%s ht-probes/tuple=%s\n",
		s.Tuples, s.PerTuple(s.VMOps), s.PerTuple(s.MaterializedBytes), s.PerTuple(s.HTProbes))
	if s.HTLocalHits+s.HTSpills+s.HTBloomSkips > 0 {
		fmt.Fprintf(b, "== tables: local_hits=%d spills=%d bloom_skips=%d\n",
			s.HTLocalHits, s.HTSpills, s.HTBloomSkips)
	}
	if s.PartRoutedRows > 0 {
		fmt.Fprintf(b, "== exchange: routed=%d max_partition=%d rows\n",
			s.PartRoutedRows, s.PartMaxPartRows)
	}
	fmt.Fprintf(b, "== compile: time=%v wait=%v errors=%d; panics-recovered=%d",
		s.CompileTime.Round(time.Microsecond), s.CompileWait.Round(time.Microsecond),
		s.CompileErrors, s.PanicsRecovered)
	if s.MemPeakBytes > 0 {
		fmt.Fprintf(b, "; mem-peak=%d bytes", s.MemPeakBytes)
	}
	b.WriteByte('\n')
	for _, w := range res.Warnings {
		fmt.Fprintf(b, "== warning: %v\n", w)
	}
}
