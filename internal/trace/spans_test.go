package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"inkfuse/internal/stats"
)

// buildTestTrace assembles a two-pipeline hybrid-ish trace with queue wait,
// compile accounting and an error-free outcome.
func buildTestTrace() *Query {
	q := NewQuery(&stats.QueryRecord{
		ID: 42, Name: "q6", Backend: "hybrid", Workers: 4, Begin: time.Unix(1700000000, 0),
		QueueWait: 3 * time.Millisecond, Wall: 120 * time.Millisecond,
	})

	p1 := q.StartPipeline("p1", 60000, 4)
	p1.Start = 5 * time.Millisecond
	p1.Wall = 70 * time.Millisecond
	p1.Finalize = 2 * time.Millisecond
	p1.Counters.CompileTime = 30 * time.Millisecond
	p1.ArtifactReady = 40 * time.Millisecond
	p1.Workers[0].Morsels = 4
	p1.Workers[0].Counters = stats.Counters{Tuples: 60000, MorselsCompiled: 2, MorselsVectorized: 2}

	p2 := q.StartPipeline("p2", 100, 1)
	p2.Start = 80 * time.Millisecond
	p2.Wall = 30 * time.Millisecond
	p2.Counters = stats.Counters{CompileErrors: 1, CompileTime: time.Millisecond}
	return q
}

func TestSpansShape(t *testing.T) {
	q := buildTestTrace()
	raw, err := q.Spans("", "")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ResourceSpans []struct {
			Resource struct {
				Attributes []struct {
					Key   string `json:"key"`
					Value struct {
						StringValue string `json:"stringValue"`
					} `json:"value"`
				} `json:"attributes"`
			} `json:"resource"`
			ScopeSpans []struct {
				Spans []struct {
					TraceID      string `json:"traceId"`
					SpanID       string `json:"spanId"`
					ParentSpanID string `json:"parentSpanId"`
					Name         string `json:"name"`
					Start        string `json:"startTimeUnixNano"`
					End          string `json:"endTimeUnixNano"`
					Status       struct {
						Code    int    `json:"code"`
						Message string `json:"message"`
					} `json:"status"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.ResourceSpans) != 1 || len(doc.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("unexpected nesting: %s", raw)
	}
	if got := doc.ResourceSpans[0].Resource.Attributes[0].Value.StringValue; got != "inkfuse" {
		t.Fatalf("service.name = %q", got)
	}
	spans := doc.ResourceSpans[0].ScopeSpans[0].Spans
	// query + queue + 2 pipelines + 2 compiles + 1 finalize
	if len(spans) != 7 {
		t.Fatalf("got %d spans, want 7: %s", len(spans), raw)
	}

	byName := map[string]int{}
	for i, s := range spans {
		byName[s.Name] = i
		if len(s.TraceID) != 32 {
			t.Fatalf("span %q trace id %q not 32 hex chars", s.Name, s.TraceID)
		}
		if len(s.SpanID) != 16 {
			t.Fatalf("span %q span id %q not 16 hex chars", s.Name, s.SpanID)
		}
		if s.Start == "" || s.End == "" || s.Start > s.End && len(s.Start) == len(s.End) {
			t.Fatalf("span %q has bad time range [%s, %s]", s.Name, s.Start, s.End)
		}
	}
	root := spans[byName["query q6"]]
	if root.ParentSpanID != "" {
		t.Fatalf("root span has parent %q", root.ParentSpanID)
	}
	for _, name := range []string{"admission queue", "pipeline p1", "pipeline p2"} {
		i, ok := byName[name]
		if !ok {
			t.Fatalf("span %q missing", name)
		}
		if spans[i].ParentSpanID != root.SpanID {
			t.Fatalf("span %q parent = %q, want root %q", name, spans[i].ParentSpanID, root.SpanID)
		}
	}
	if i, ok := byName["compile p1"]; !ok {
		t.Fatal("compile span missing")
	} else if spans[i].ParentSpanID != spans[byName["pipeline p1"]].SpanID {
		t.Fatal("compile p1 not parented to its pipeline")
	}
	if i := byName["compile p2"]; spans[i].Status.Code != 2 {
		t.Fatalf("degraded pipeline's compile span status = %d, want 2 (error)", spans[i].Status.Code)
	}
}

func TestSpansDeterministic(t *testing.T) {
	a, err := buildTestTrace().Spans("", "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildTestTrace().Spans("", "")
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("span export is not deterministic across renders of the same trace")
	}
}

func TestSpansTraceCorrelation(t *testing.T) {
	q := buildTestTrace()
	raw, err := q.Spans("4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7")
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	if !strings.Contains(s, `"traceId":"4bf92f3577b34da6a3ce929d0e0e4736"`) {
		t.Fatalf("client trace id not honoured: %s", s)
	}
	if !strings.Contains(s, `"parentSpanId":"00f067aa0ba902b7"`) {
		t.Fatalf("client parent span id not attached to the root: %s", s)
	}
}

func TestSpansErrorStatus(t *testing.T) {
	q := buildTestTrace()
	q.Rec.Err = "exec: boom"
	raw, err := q.Spans("", "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"message":"exec: boom"`) {
		t.Fatalf("query error not carried in root span status: %s", raw)
	}
}
