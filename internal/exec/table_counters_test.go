package exec

import (
	"context"
	"strings"
	"testing"

	"inkfuse/internal/tpch"
)

// The batched join probe surfaces its bloom-filter probe skips. This test
// pins the reporting chain on real queries: Stats and EXPLAIN ANALYZE.

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
