package exec

// EXPLAIN ANALYZE must stay useful exactly when it matters most: canceled and
// degraded queries render their partial annotations, and the renderer never
// panics on a nil or truncated trace. Plus the happy-path contract of the
// suboperator profiler section and the histogram feed.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"inkfuse/internal/faultinject"
	"inkfuse/internal/obs"
	"inkfuse/internal/stats"
	"inkfuse/internal/trace"
)

func TestExplainAnalyzeCanceledQuery(t *testing.T) {
	defer faultinject.Reset()
	// Each morsel sleeps 1ms; the deadline fires after a few of them, so the
	// explain runs against a mid-pipeline partial trace.
	faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Delay: time.Millisecond})
	plan := lowerOrDie(t, groupByNode(makeTable()), "explaincancel")
	lat := LatencyNone
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	out, res, err := ExplainAnalyze(ctx, plan, Options{
		Backend: BackendVectorized, Workers: 2, MorselSize: 256, Latency: &lat,
	})
	if err == nil {
		t.Fatal("query survived its deadline")
	}
	if !errors.Is(err, ErrDeadlineExceeded) && !errors.Is(err, ErrCanceled) {
		t.Fatalf("unexpected failure kind: %v", err)
	}
	if res == nil || res.Trace == nil {
		t.Fatal("canceled ExplainAnalyze dropped its partial result/trace")
	}
	for _, want := range []string{"== explain analyze explaincancel", "!! failed:", "morsels", "== totals:"} {
		if !strings.Contains(out, want) {
			t.Errorf("canceled explain output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainAnalyzeDegradedPartialAnnotations(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.ExecHybridCompile, faultinject.Fault{Err: errors.New("injected compile failure")})
	// Slow the morsels a little: the background compile goroutine must get
	// scheduled (and hit the injected failure) before the pipelines finish,
	// which a microsecond-long query on a single-CPU host cannot guarantee.
	faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Delay: 200 * time.Microsecond})
	plan := lowerOrDie(t, groupByNode(makeTable()), "explaindegraded")
	lat := LatencyNone
	out, res, err := ExplainAnalyze(context.Background(), plan, Options{
		Backend: BackendHybrid, Workers: 2, MorselSize: 512, Latency: &lat,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Degraded, but every pipeline still carries its annotations — including
	// the suboperator profile, since the interpreter served the morsels.
	for _, want := range []string{"DEGRADED", "== warning:", "-- subops:", "compile error"} {
		if !strings.Contains(out, want) {
			t.Errorf("degraded explain output missing %q:\n%s", want, out)
		}
	}
	for _, pt := range res.Trace.Pipelines {
		if pt.Counters.CompileErrors == 0 {
			t.Fatalf("pipeline %s not marked degraded", pt.Name)
		}
	}
}

// RenderExplainAnalyze is also reachable with hand-built results (e.g. the
// server rendering a stored trace); nil and truncated traces must render.
func TestRenderExplainAnalyzeNilAndTruncatedTrace(t *testing.T) {
	plan := lowerOrDie(t, groupByNode(makeTable()), "renderq")
	out := RenderExplainAnalyze(plan, &Result{})
	if !strings.Contains(out, "== explain analyze renderq") {
		t.Fatalf("nil-trace render broken:\n%s", out)
	}
	// A trace that stopped before later pipelines: the missing ones must be
	// marked, not invented (and an empty pipeline entry must not panic).
	res := &Result{QueryRecord: stats.QueryRecord{Name: "renderq", Backend: "vectorized", Workers: 2, Err: "boom"}}
	res.Trace = trace.NewQuery(&res.QueryRecord)
	res.Trace.StartPipeline(plan.Pipelines[0].Name, 0, 0)
	out = RenderExplainAnalyze(plan, res)
	if !strings.Contains(out, "!! failed: boom") {
		t.Fatalf("truncated-trace render missing failure:\n%s", out)
	}
	if len(plan.Pipelines) > 1 && !strings.Contains(out, "-- not executed") {
		t.Fatalf("unreached pipelines not marked:\n%s", out)
	}
}

func TestExplainAnalyzeSubOpProfile(t *testing.T) {
	plan := lowerOrDie(t, groupByNode(makeTable()), "profq")
	lat := LatencyNone
	out, res, err := ExplainAnalyze(context.Background(), plan, Options{
		Backend: BackendVectorized, Workers: 2, MorselSize: 512, ChunkSize: 64, Latency: &lat,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "-- subops: sampled 1/8 chunks") {
		t.Fatalf("explain output missing suboperator section:\n%s", out)
	}
	if !strings.Contains(out, "ns/tuple=") {
		t.Fatalf("suboperator section missing per-tuple cost:\n%s", out)
	}
	pt := res.Trace.Pipelines[0]
	if len(pt.SubOps) == 0 || pt.ProfiledChunks == 0 {
		t.Fatalf("trace carries no suboperator profile: %+v", pt)
	}
	// 64-row chunks cut each 512-row morsel into 8, so the default period
	// samples at least one chunk of the table's ten morsels, and every
	// suboperator of the first pipeline was called on it.
	for _, s := range pt.SubOps {
		if s.ID == "" || s.Calls == 0 || s.Tuples == 0 {
			t.Fatalf("empty suboperator sample: %+v", s)
		}
	}
	// The trace dump renders the same section.
	if !strings.Contains(res.Trace.Dump(), "subops: sampled") {
		t.Fatal("trace dump missing suboperator section")
	}
}

// Executing a query advances the process-wide latency histograms — the same
// contract /metrics exposes.
func TestExecFeedsObsHistograms(t *testing.T) {
	backend := BackendVectorized
	qh := obs.Default.QueryLatency.With(backend.String())
	mh := obs.Default.MorselLatency.With(backend.String())
	q0, m0 := qh.Count(), mh.Count()
	plan := lowerOrDie(t, groupByNode(makeTable()), "obsq")
	lat := LatencyNone
	if _, err := Execute(plan, Options{Backend: backend, Workers: 2, MorselSize: 512, Latency: &lat}); err != nil {
		t.Fatal(err)
	}
	if qh.Count() != q0+1 {
		t.Fatalf("query latency histogram advanced by %d, want 1", qh.Count()-q0)
	}
	if mh.Count() <= m0 {
		t.Fatal("morsel latency histogram did not advance")
	}
	if !strings.Contains(obs.Default.PrometheusText(), `inkfuse_query_seconds_bucket{backend="vectorized"`) {
		t.Fatal("exposition missing the query latency histogram")
	}
}
