package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"inkfuse/internal/obs"
	"inkfuse/internal/stats"
	"inkfuse/internal/trace"
)

// TestEverySinkRendersEveryCounter is the schema's round trip: with every
// counter set to a distinct value, each stats.Schema row must come out of each
// sink under its declared name with that value — the engine registry (dump,
// expvar values, Prometheus text), the canonical query-log event, span
// attributes and the counter lines EXPLAIN ANALYZE and the trace dump share.
// A counter added to the schema is covered without touching this test; a sink
// that drops or renames one fails it.
func TestEverySinkRendersEveryCounter(t *testing.T) {
	var c stats.Counters
	for i := range stats.Schema {
		*stats.Schema[i].Of(&c) = int64(1000 + i)
	}

	reg := obs.NewRegistry()
	reg.QueryDone(&stats.QueryRecord{Backend: "vectorized", Stats: c, Wall: time.Millisecond}, nil, false)
	dump, prom, values := reg.Dump(), reg.PrometheusText(), reg.Values()

	var logged bytes.Buffer
	(&obs.QueryEvent{QueryRecord: stats.QueryRecord{ID: 1, Stats: c}, Query: "q", Outcome: "ok"}).Emit(slog.New(slog.NewJSONHandler(&logged, nil)))
	var event map[string]any
	if err := json.Unmarshal(logged.Bytes(), &event); err != nil {
		t.Fatalf("query event is not one JSON line: %v (%s)", err, &logged)
	}

	q := trace.NewQuery(&stats.QueryRecord{Name: "q", Backend: "vectorized", Workers: 1, Begin: time.Unix(1700000000, 0)})
	q.StartPipeline("p0", 10, 1).Workers[0] = trace.Worker{Morsels: 1, Counters: c}
	text := q.Dump()
	raw, err := q.Spans("", "")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					Name       string
					Attributes []struct {
						Key   string
						Value struct{ IntValue string }
					}
				}
			}
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	spanAttrs := map[string]map[string]string{}
	for _, s := range doc.ResourceSpans[0].ScopeSpans[0].Spans {
		spanAttrs[s.Name] = map[string]string{}
		for _, a := range s.Attributes {
			spanAttrs[s.Name][a.Key] = a.Value.IntValue
		}
	}

	for i := range stats.Schema {
		r, v := &stats.Schema[i], int64(1000+i)
		if want := fmt.Sprintf("inkfuse_%s %d\n", r.Engine, v); !strings.Contains(dump, want) {
			t.Errorf("registry dump missing %q", want)
		}
		if values[r.Engine] != v {
			t.Errorf("registry values[%q] = %d, want %d", r.Engine, values[r.Engine], v)
		}
		kind := "counter"
		if r.Max {
			kind = "gauge"
		}
		if want := fmt.Sprintf("# TYPE inkfuse_%[1]s %[2]s\ninkfuse_%[1]s %[3]d\n", r.Engine, kind, v); !strings.Contains(prom, want) {
			t.Errorf("Prometheus text missing %q", want)
		}
		if got, _ := event[r.Name].(float64); int64(got) != v { // slog's JSON renders a Duration as nanoseconds
			t.Errorf("query event %q = %v, want %d", r.Name, event[r.Name], v)
		}
		for _, span := range []string{"query q", "pipeline p0"} {
			if got := spanAttrs[span]["inkfuse."+r.NumName()]; got != strconv.FormatInt(v, 10) {
				t.Errorf("span %q attribute inkfuse.%s = %q, want %d", span, r.NumName(), got, v)
			}
		}
		line := fmt.Sprintf(" %s=%d", r.Name, v)
		if r.Dur {
			line = fmt.Sprintf(" %s=%v", r.Name, time.Duration(v).Round(time.Microsecond))
		}
		if n := strings.Count(text, line); n != 2 { // the pipeline's counters line and its worker's
			t.Errorf("trace dump renders %q %d times, want 2:\n%s", line, n, text)
		}
	}
	lintPrometheus(t, prom)
}

// lintPrometheus checks what a scraper relies on: every sample belongs to a
// family declared by exactly one preceding # TYPE line of a known kind.
func lintPrometheus(t *testing.T, text string) {
	t.Helper()
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? \S+$`)
	types := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			if _, dup := types[f[2]]; dup {
				t.Errorf("family %s has more than one # TYPE line", f[2])
			}
			if f[3] != "counter" && f[3] != "gauge" && f[3] != "histogram" {
				t.Errorf("family %s has unknown type %q", f[2], f[3])
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		family := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(family, suffix); base != family && types[base] == "histogram" {
				family = base
			}
		}
		if types[family] == "" {
			t.Errorf("sample %q has no preceding # TYPE line", line)
		}
	}
}
