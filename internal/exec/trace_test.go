package exec

// Observability tests: the execution trace must agree exactly with the
// engine's stats counters on every backend (they are recorded independently
// — the trace by per-worker counter deltas at morsel granularity, the stats
// by the runners), and a canceled query must still yield a coherent partial
// trace.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"inkfuse/internal/algebra"
	"inkfuse/internal/faultinject"
)

func TestTraceMatchesStatsAllBackends(t *testing.T) {
	tbl := makeTable()
	for _, backend := range allBackends() {
		t.Run(backend.String(), func(t *testing.T) {
			plan := lowerOrDie(t, groupByNode(tbl), "traceq")
			lat := LatencyNone
			res, err := Execute(plan, Options{
				Backend: backend, Workers: 4, MorselSize: 256, Latency: &lat, Trace: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			tr := res.Trace
			if tr == nil {
				t.Fatal("Options.Trace set but Result.Trace is nil")
			}
			if tr.Rec.Backend != backend.String() || tr.Rec.Workers != 4 {
				t.Fatalf("trace header wrong: %+v", tr.Rec)
			}
			if len(tr.Pipelines) != len(plan.Pipelines) {
				t.Fatalf("trace has %d pipelines, plan has %d", len(tr.Pipelines), len(plan.Pipelines))
			}
			// Every scheduled morsel ran, and the trace agrees with itself.
			for _, pt := range tr.Pipelines {
				if pt.MorselsRun() != pt.Morsels {
					t.Fatalf("%s: %d/%d morsels run on a successful query", pt.Name, pt.MorselsRun(), pt.Morsels)
				}
			}
			// The trace's independent accounting — per-morsel deltas plus the
			// pipelines' own compile counters — equals the stats counters, on
			// every row of the schema.
			if got := tr.Total(); got != res.Stats {
				t.Fatalf("trace total != stats:\n trace %s\n stats %s", &got, &res.Stats)
			}
			// Workers recorded busy time for the work they did.
			for _, pt := range tr.Pipelines {
				if pt.Morsels > 0 && pt.Busy() <= 0 {
					t.Fatalf("%s: ran %d morsels with zero busy time", pt.Name, pt.Morsels)
				}
				if pt.Wall <= 0 {
					t.Fatalf("%s: no pipeline wall recorded", pt.Name)
				}
			}
		})
	}
}

func TestTraceHybridRoutingSeries(t *testing.T) {
	tbl := makeTable()
	// With zero compile latency the artifact lands almost immediately — but the
	// background compile still races a query of a few hundred microseconds, and
	// when the query wins it rightly reports an interpreted run. Retry until a
	// run switched backends; its trace must then show JIT morsels, EWMA samples
	// and the artifact timestamp.
	for attempt := 0; attempt < 50; attempt++ {
		plan := lowerOrDie(t, groupByNode(tbl), "hybridtrace")
		lat := LatencyNone
		res, err := Execute(plan, Options{
			Backend: BackendHybrid, Workers: 2, MorselSize: 128, Latency: &lat, Trace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Trace
		if tr.Total().MorselsCompiled == 0 {
			continue
		}
		var samples int
		for _, pt := range tr.Pipelines {
			for w := range pt.Workers {
				samples += len(pt.Workers[w].EWMA)
			}
		}
		if samples == 0 {
			t.Fatal("hybrid trace recorded no EWMA samples")
		}
		var ready bool
		for _, pt := range tr.Pipelines {
			if pt.ArtifactReady > 0 {
				ready = true
			}
		}
		if !ready {
			t.Fatal("no pipeline recorded an artifact-ready time")
		}
		return
	}
	t.Fatal("hybrid trace recorded no JIT-routed morsels in 50 executions")
}

func TestTraceOffByDefault(t *testing.T) {
	plan := lowerOrDie(t, groupByNode(makeTable()), "notrace")
	lat := LatencyNone
	res, err := Execute(plan, Options{Backend: BackendVectorized, Workers: 2, Latency: &lat})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("tracing must be opt-in")
	}
}

func TestCanceledQueryPartialTrace(t *testing.T) {
	defer faultinject.Reset()
	// Each morsel sleeps 1ms; the context dies after a few of the ~20
	// morsels, so the query is canceled mid-pipeline.
	faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Delay: time.Millisecond})
	plan := lowerOrDie(t, groupByNode(makeTable()), "cancq")
	lat := LatencyNone
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	res, err := ExecuteContext(ctx, plan, Options{
		Backend: BackendVectorized, Workers: 2, MorselSize: 256, Latency: &lat, Trace: true,
	})
	if err == nil {
		t.Fatal("query survived its deadline")
	}
	if !errors.Is(err, ErrDeadlineExceeded) && !errors.Is(err, ErrCanceled) {
		t.Fatalf("unexpected failure kind: %v", err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("failed query dropped its trace")
	}
	if tr.Rec.Err == "" || tr.Rec.Wall <= 0 {
		t.Fatalf("partial trace not finalized: err=%q wall=%v", tr.Rec.Err, tr.Rec.Wall)
	}
	// Coherence: what the trace says ran matches the stats counters, and no
	// pipeline claims more morsels than were scheduled.
	for _, pt := range tr.Pipelines {
		if pt.MorselsRun() > pt.Morsels {
			t.Fatalf("%s: %d morsels run out of %d scheduled", pt.Name, pt.MorselsRun(), pt.Morsels)
		}
	}
	if tt := tr.Total(); tt.Tuples != res.Stats.Tuples || tt.MorselsCompiled != res.Stats.MorselsCompiled || tt.MorselsVectorized != res.Stats.MorselsVectorized {
		t.Fatalf("partial trace disagrees with stats:\n trace %s\n stats %s", &tt, &res.Stats)
	}
	// The dump of a partial trace renders without panicking.
	if !strings.Contains(tr.Dump(), "err=") {
		t.Fatal("partial trace dump missing error")
	}
}

func TestExplainAnalyzeAllBackends(t *testing.T) {
	tbl := makeTable()
	for _, backend := range allBackends() {
		t.Run(backend.String(), func(t *testing.T) {
			node := algebra.NewOrderBy(groupByNode(tbl), []string{"sum_b"}, []bool{true}, 0)
			plan := lowerOrDie(t, node, "explainq")
			lat := LatencyNone
			out, res, err := ExplainAnalyze(context.Background(), plan, Options{
				Backend: backend, Workers: 2, MorselSize: 512, Latency: &lat,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Trace == nil {
				t.Fatal("ExplainAnalyze did not enable tracing")
			}
			for _, want := range []string{
				"== explain analyze explainq",
				"backend=" + backend.String(),
				"pipeline ",
				"morsels",
				"== totals: tuples=",
				"post: order by",
			} {
				if !strings.Contains(out, want) {
					t.Errorf("explain output missing %q:\n%s", want, out)
				}
			}
			// Backends that compile report compile time in the annotations.
			if backend == BackendCompiling || backend == BackendROF {
				if !strings.Contains(out, "-- compile:") {
					t.Errorf("compiling backend output missing compile annotation:\n%s", out)
				}
			}
		})
	}
}

// TestExplainAnalyzeReportsRewrites: the compile annotation says what the
// closure compiler made of the fused code (DESIGN.md §17) on every backend that
// runs it — the hybrid one here through a cached artifact, as a plan-cache hit
// does, so that its code is certain to have landed.
func TestExplainAnalyzeReportsRewrites(t *testing.T) {
	tbl := makeTable()
	node := algebra.NewGroupBy(
		algebra.NewFilter(algebra.NewScan(tbl, "a", "b", "s"), algebra.And(
			algebra.Gt(algebra.Col("a"), algebra.I64(3)),
			algebra.Lt(algebra.F64(1), algebra.Col("b")),
			algebra.Ne(algebra.Col("s"), algebra.Str("red")))),
		[]string{"a", "s"}, algebra.Sum("b", "sum_b"), algebra.Avg("b", "avg_b"), algebra.Count("n"))
	lat := LatencyNone
	plan := lowerOrDie(t, node, "rewrites")
	arts := NewArtifactSet(plan)
	for _, backend := range []Backend{BackendCompiling, BackendHybrid, BackendROF} {
		out, res, err := ExplainAnalyze(context.Background(), plan, Options{
			Backend: backend, Workers: 2, Latency: &lat, Artifacts: arts,
		})
		if err != nil {
			t.Fatal(err)
		}
		arts.Rewind()
		for _, want := range []string{"fused: ", " stmts -> ", "cascades [3]", "1 fused key build(s)"} {
			if !strings.Contains(out, want) {
				t.Errorf("%v: explain output missing %q:\n%s", backend, want, out)
			}
		}
		if !strings.Contains(res.Trace.Dump(), "fused: ") {
			t.Errorf("%v: trace dump missing the fused entry:\n%s", backend, res.Trace.Dump())
		}
	}
}

func TestExplainAnalyzeDegradedHybrid(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.ExecHybridCompile, faultinject.Fault{Err: errors.New("injected compile failure")})
	// The background compile races the (tiny) query: when the query finishes
	// before the job is scheduled, abandon() cancels it and the run reports
	// no degradation — correctly, since nothing failed. The fault fires on
	// every passage, so retry until the injected failure lands.
	for attempt := 0; attempt < 50; attempt++ {
		plan := lowerOrDie(t, groupByNode(makeTable()), "degradedq")
		lat := LatencyNone
		out, res, err := ExplainAnalyze(context.Background(), plan, Options{
			Backend: BackendHybrid, Workers: 2, Latency: &lat,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Warnings) == 0 {
			continue
		}
		if !strings.Contains(out, "DEGRADED") || !strings.Contains(out, "== warning:") {
			t.Fatalf("explain output hides the degradation:\n%s", out)
		}
		return
	}
	t.Fatal("injected compile failure never surfaced as a degradation warning")
}
