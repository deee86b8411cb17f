package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"testing"

	"inkfuse/internal/benchkit"
)

// TestQueryLogCarriesCounters pins a drift the hand-copied event had:
// inkbench's copy of the canonical query event dropped counters the server's
// copy carried. A join query must log its table counters.
func TestQueryLogCarriesCounters(t *testing.T) {
	var buf bytes.Buffer
	cfg := benchkit.Config{SF: 0.005, Runs: 1, Workers: 2, Queries: []string{"q3"}}.WithDefaults()
	if err := explainQueries(cfg, "vectorized", false, slog.New(slog.NewJSONHandler(&buf, nil))); err != nil {
		t.Fatal(err)
	}
	var event map[string]any
	if err := json.Unmarshal(buf.Bytes(), &event); err != nil {
		t.Fatalf("query log is not one JSON event: %v (%s)", err, &buf)
	}
	for _, k := range []string{"tuples", "ht_inserts", "ht_bloom_skips"} {
		if v, _ := event[k].(float64); v <= 0 {
			t.Errorf("q3 event has %s = %v, want > 0: %s", k, event[k], &buf)
		}
	}
}
