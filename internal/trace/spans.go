// Span export: renders a trace.Query as OTLP-shaped JSON (the
// resourceSpans/scopeSpans/spans nesting of the OpenTelemetry protocol's JSON
// encoding), so the engine's existing execution traces become consumable by
// standard tracing tools without an OTel SDK dependency. One query renders as
//
//	query span
//	├─ queue-wait span (when the admission queue held the query)
//	└─ per-pipeline spans
//	   ├─ compile span (foreground wait or background land)
//	   └─ finalize span
//
// Trace correlation: when the caller passes a W3C trace id (serve parses the
// traceparent header), spans join the caller's trace under the given parent
// span; otherwise a deterministic trace id is derived from the engine query
// id, so repeated exports of one query are stable.
package trace

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"inkfuse/internal/stats"
)

// Span ids are derived, not random: FNV-1a over the query id and a span path
// makes exports deterministic and repeatable (same trace → same ids), which
// tests and diffing rely on.
func spanID(qid uint64, path string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", qid, path)
	var b [8]byte
	v := h.Sum64()
	for i := range b {
		b[i] = byte(v >> (56 - 8*i))
	}
	return hex.EncodeToString(b[:])
}

// derivedTraceID builds a stable 16-byte trace id from the query id when no
// client traceparent was supplied.
func derivedTraceID(qid uint64) string {
	h := fnv.New128a()
	fmt.Fprintf(h, "inkfuse-query-%d", qid)
	return hex.EncodeToString(h.Sum(nil))
}

// otlpAttr is one OTLP key-value attribute. Only the value shapes the engine
// emits are modeled (string and int; OTLP encodes ints as decimal strings).
type otlpAttr struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

type otlpValue struct {
	StringValue string `json:"stringValue,omitempty"`
	IntValue    string `json:"intValue,omitempty"`
	BoolValue   *bool  `json:"boolValue,omitempty"`
}

func strAttr(k, v string) otlpAttr {
	return otlpAttr{Key: k, Value: otlpValue{StringValue: v}}
}

func intAttr(k string, v int64) otlpAttr {
	return otlpAttr{Key: k, Value: otlpValue{IntValue: strconv.FormatInt(v, 10)}}
}

func boolAttr(k string, v bool) otlpAttr {
	return otlpAttr{Key: k, Value: otlpValue{BoolValue: &v}}
}

// otlpSpan is one span in OTLP JSON shape: hex ids, nanosecond epoch
// timestamps as decimal strings.
type otlpSpan struct {
	TraceID           string     `json:"traceId"`
	SpanID            string     `json:"spanId"`
	ParentSpanID      string     `json:"parentSpanId,omitempty"`
	Name              string     `json:"name"`
	Kind              int        `json:"kind"` // 1 = SPAN_KIND_INTERNAL
	StartTimeUnixNano string     `json:"startTimeUnixNano"`
	EndTimeUnixNano   string     `json:"endTimeUnixNano"`
	Attributes        []otlpAttr `json:"attributes,omitempty"`
	Status            otlpStatus `json:"status"`
}

// otlpStatus carries the span outcome (code 2 = STATUS_CODE_ERROR).
type otlpStatus struct {
	Code    int    `json:"code,omitempty"`
	Message string `json:"message,omitempty"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpScope struct {
	Name string `json:"name"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpAttr `json:"attributes"`
}

// otlpExport is the top-level OTLP JSON document (one per exported query).
type otlpExport struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

// appendCounters renders every set counter as an "inkfuse.<name>" attribute
// (durations in nanoseconds, "_ns"-suffixed).
func appendCounters(attrs []otlpAttr, c stats.Counters) []otlpAttr {
	for r, v := range c.Nonzero() {
		attrs = append(attrs, intAttr("inkfuse."+r.NumName(), v))
	}
	return attrs
}

func nanos(t time.Time) string {
	return strconv.FormatInt(t.UnixNano(), 10)
}

// Spans renders the query trace as one OTLP-shaped JSON document:
// query → (queue-wait, pipelines → (compile, finalize)), the root span
// rendered from the query's record. traceID and parentSpanID place the root
// span in a caller's trace; an empty traceID derives one from the query id.
// Returns the marshaled document; rendering never fails on a well-formed
// trace, so the error only reports JSON encoding problems.
func (q *Query) Spans(traceID, parentSpanID string) ([]byte, error) {
	r := q.Rec
	if traceID == "" {
		traceID = derivedTraceID(r.ID)
	}
	begin := r.Begin
	end := begin.Add(r.Wall)
	qsID := spanID(r.ID, "query")

	root := otlpSpan{
		TraceID:           traceID,
		SpanID:            qsID,
		ParentSpanID:      parentSpanID,
		Name:              "query " + r.Name,
		Kind:              1,
		StartTimeUnixNano: nanos(begin),
		EndTimeUnixNano:   nanos(end),
		Attributes: []otlpAttr{
			strAttr("inkfuse.query", r.Name),
			strAttr("inkfuse.backend", r.Backend),
			intAttr("inkfuse.query_id", int64(r.ID)),
			intAttr("inkfuse.workers", int64(r.Workers)),
		},
	}
	root.Attributes = appendCounters(root.Attributes, q.Total())
	if r.Err != "" {
		root.Status = otlpStatus{Code: 2, Message: r.Err}
	}
	spans := []otlpSpan{root}

	if r.QueueWait > 0 {
		// The admission wait precedes Begin's pipeline work but is inside the
		// query wall; render it as the leading child.
		spans = append(spans, otlpSpan{
			TraceID: traceID, SpanID: spanID(r.ID, "queue"), ParentSpanID: qsID,
			Name: "admission queue", Kind: 1,
			StartTimeUnixNano: nanos(begin),
			EndTimeUnixNano:   nanos(begin.Add(r.QueueWait)),
			Attributes:        []otlpAttr{intAttr("inkfuse.queue_wait_ns", int64(r.QueueWait))},
		})
	}

	for i, p := range q.Pipelines {
		pPath := "pipeline/" + strconv.Itoa(i)
		pID := spanID(r.ID, pPath)
		// A pipeline whose compile failed was served by the vectorized
		// interpreter alone.
		degraded := p.Counters.CompileErrors > 0
		pStart := begin.Add(p.Start)
		pEnd := pStart.Add(p.Wall)
		ps := otlpSpan{
			TraceID: traceID, SpanID: pID, ParentSpanID: qsID,
			Name: "pipeline " + p.Name, Kind: 1,
			StartTimeUnixNano: nanos(pStart),
			EndTimeUnixNano:   nanos(pEnd),
			Attributes: appendCounters([]otlpAttr{
				intAttr("inkfuse.rows", int64(p.Rows)),
				intAttr("inkfuse.morsels", int64(p.Morsels)),
				intAttr("inkfuse.morsels_run", int64(p.MorselsRun())),
				boolAttr("inkfuse.degraded", degraded),
			}, p.Total()),
		}
		spans = append(spans, ps)

		if c := &p.Counters; c.CompileTime > 0 || c.CompileWait > 0 || c.CompileErrors > 0 {
			// Foreground backends: the compile wait leads the pipeline.
			// Hybrid: the artifact landed ArtifactReady after query begin,
			// having compiled for CompileTime in the background.
			cStart := pStart
			cEnd := cStart.Add(max(c.CompileTime, c.CompileWait))
			if p.ArtifactReady > 0 {
				cEnd = begin.Add(p.ArtifactReady)
				cStart = cEnd.Add(-c.CompileTime)
			}
			cs := otlpSpan{
				TraceID: traceID, SpanID: spanID(r.ID, pPath+"/compile"), ParentSpanID: pID,
				Name: "compile " + p.Name, Kind: 1,
				StartTimeUnixNano: nanos(cStart),
				EndTimeUnixNano:   nanos(cEnd),
				Attributes:        []otlpAttr{strAttr("inkfuse.fused", p.Fused)},
			}
			if degraded {
				cs.Status = otlpStatus{Code: 2, Message: "background compile failed; pipeline degraded to vectorized"}
			}
			spans = append(spans, cs)
		}

		if p.Finalize > 0 {
			spans = append(spans, otlpSpan{
				TraceID: traceID, SpanID: spanID(r.ID, pPath+"/finalize"), ParentSpanID: pID,
				Name: "finalize " + p.Name, Kind: 1,
				StartTimeUnixNano: nanos(pEnd.Add(-p.Finalize)),
				EndTimeUnixNano:   nanos(pEnd),
			})
		}
	}

	doc := otlpExport{ResourceSpans: []otlpResourceSpans{{
		Resource: otlpResource{Attributes: []otlpAttr{
			strAttr("service.name", "inkfuse"),
		}},
		ScopeSpans: []otlpScopeSpans{{
			Scope: otlpScope{Name: "inkfuse/trace"},
			Spans: spans,
		}},
	}}}
	return json.Marshal(doc)
}
