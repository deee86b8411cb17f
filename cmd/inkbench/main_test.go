package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"testing"

	"inkfuse/internal/benchkit"
)

// TestQueryLogCarriesExchangeCounters pins a drift the hand-copied event had:
// inkbench's copy of the canonical query event dropped the exchange counters
// the server's copy carried. An exchange-on run must log them.
func TestQueryLogCarriesExchangeCounters(t *testing.T) {
	var buf bytes.Buffer
	cfg := benchkit.Config{SF: 0.005, Runs: 1, Workers: 2, Queries: []string{"q3"}, Exchange: true}.WithDefaults()
	if err := explainQueries(cfg, "vectorized", false, slog.New(slog.NewJSONHandler(&buf, nil))); err != nil {
		t.Fatal(err)
	}
	var event map[string]any
	if err := json.Unmarshal(buf.Bytes(), &event); err != nil {
		t.Fatalf("query log is not one JSON event: %v (%s)", err, &buf)
	}
	for _, k := range []string{"tuples", "ht_bloom_skips", "part_routed_rows", "part_max_part_rows"} {
		if v, _ := event[k].(float64); v <= 0 {
			t.Errorf("exchange-on q3 event has %s = %v, want > 0: %s", k, event[k], &buf)
		}
	}
}
