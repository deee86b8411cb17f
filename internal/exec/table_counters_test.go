package exec

import (
	"context"
	"strings"
	"testing"

	"inkfuse/internal/tpch"
)

// The batched table kernels surface three counters (local pre-aggregation
// hits, flush spills, bloom-filter probe skips). These tests pin the whole
// reporting chain on real queries: Stats, the trace, and EXPLAIN ANALYZE.

func tpchExplain(t *testing.T, query string, backend Backend) (string, *Result) {
	t.Helper()
	cat := tpch.Generate(0.01, 42)
	node, err := tpch.Build(cat, query)
	if err != nil {
		t.Fatal(err)
	}
	plan := lowerOrDie(t, node, query)
	lat := LatencyNone
	out, res, err := ExplainAnalyze(context.Background(), plan, Options{
		Backend: backend, Workers: 2, Latency: &lat,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, res
}

func TestAggLocalHitsReported(t *testing.T) {
	for _, backend := range []Backend{BackendVectorized, BackendHybrid} {
		t.Run(backend.String(), func(t *testing.T) {
			out, res := tpchExplain(t, "q1", backend)
			// Q1 groups 60K lineitems into 4 groups: nearly every lookup must
			// be absorbed by the thread-local table.
			if res.Stats.HTLocalHits == 0 {
				t.Fatal("q1 reported no local pre-aggregation hits")
			}
			if res.Stats.HTSpills == 0 {
				t.Fatal("q1 reported no flush spills despite local hits")
			}
			for _, want := range []string{"-- counters: ", " ht_local_hits=", "== counters: "} {
				if !strings.Contains(out, want) {
					t.Errorf("explain output missing %q:\n%s", want, out)
				}
			}
			if tr := res.Trace; tr.Pipelines[0].Total().HTLocalHits == 0 {
				t.Error("trace pipeline 0 lost the local-hit counts")
			}
		})
	}
}

func TestJoinBloomSkipsReported(t *testing.T) {
	for _, backend := range []Backend{BackendVectorized, BackendHybrid} {
		t.Run(backend.String(), func(t *testing.T) {
			out, res := tpchExplain(t, "q3", backend)
			// Q3 probes every lineitem against the date-filtered orders build
			// side; the misses must be rejected by the bloom filter.
			if res.Stats.HTBloomSkips == 0 {
				t.Fatal("q3 reported no bloom-filter skips")
			}
			if !strings.Contains(out, " ht_bloom_skips=") {
				t.Errorf("explain output missing bloom_skips:\n%s", out)
			}
		})
	}
}
