package serve

// Observability-surface tests: the flight recorder endpoint, flight context
// on error responses, W3C traceparent ingestion and span export, the
// canonical query log (with fingerprint and plan-cache outcome), and the
// per-query admission detail on /queries.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"inkfuse/internal/faultinject"
	"inkfuse/internal/sched"
)

func TestParseTraceparent(t *testing.T) {
	cases := []struct {
		in          string
		trace, span string
	}{
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", "4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7"},
		{" 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00 ", "4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7"},
		{"", "", ""},
		{"garbage", "", ""},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", "", ""},          // missing flags
		{"00-00000000000000000000000000000000-00f067aa0ba902b7-01", "", ""},       // zero trace id
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", "", ""},       // zero span id
		{"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", "", ""},       // uppercase forbidden
		{"00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7xx-01", "", ""},       // wrong lengths
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", "", ""}, // trailing part
		{"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", "", ""},       // non-hex version
	}
	for _, c := range cases {
		gotT, gotS := parseTraceparent(c.in)
		if gotT != c.trace || gotS != c.span {
			t.Errorf("parseTraceparent(%q) = (%q, %q), want (%q, %q)", c.in, gotT, gotS, c.trace, c.span)
		}
	}
}

func TestFlightEndpointRecordsQueries(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	resp, body := postQuery(t, ts, `{"query":"q6","backend":"vectorized"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.QueryID == 0 {
		t.Fatal("response missing engine query id")
	}

	fresp, fbody := get(t, ts, "/debug/flight")
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flight status %d", fresp.StatusCode)
	}
	dump := string(fbody)
	if !strings.Contains(dump, "flight recorder:") {
		t.Fatalf("dump missing header:\n%s", dump)
	}
	for _, kind := range []string{"query_start", "admitted", "morsel_batch", "query_done"} {
		if !strings.Contains(dump, kind) {
			t.Fatalf("dump missing %q events:\n%s", kind, dump)
		}
	}

	// Per-query filtering returns only this query's (and engine-wide) events.
	fresp, fbody = get(t, ts, "/debug/flight?q="+jsonNumber(qr.QueryID))
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flight?q status %d", fresp.StatusCode)
	}
	if !strings.Contains(string(fbody), "query_done") {
		t.Fatalf("filtered dump missing this query's completion:\n%s", fbody)
	}
}

// TestFlightLabelsSurviveManyShapes: every distinct SQL shape a server sees
// is recorded under its own statement name and fingerprint, however many
// came before — the 2 100th shape's query_start names its sql-… statement
// and its plancache_miss its fingerprint, not a shared placeholder.
func TestFlightLabelsSurviveManyShapes(t *testing.T) {
	h := testServer().Handler()
	const shapes = 2100
	var qr QueryResponse
	for i := 0; i < shapes; i++ {
		body := fmt.Sprintf(`{"sql":"select count(*) as c%d from nation","backend":"vectorized"}`, i)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("shape %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if i == shapes-1 {
			qr = decodeQuery(t, rec.Body.Bytes())
		}
	}
	if !strings.HasPrefix(qr.Query, "sql-") || qr.Fingerprint == "" || qr.PlanCache != "miss" {
		t.Fatalf("last shape answered query=%q fingerprint=%q plan_cache=%q", qr.Query, qr.Fingerprint, qr.PlanCache)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/flight?q="+jsonNumber(qr.QueryID), nil))
	var start, miss bool
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		switch {
		case f[1] == "query_start" && f[2] == "q="+jsonNumber(qr.QueryID):
			if len(f) < 4 || f[3] != qr.Query {
				t.Fatalf("query_start of shape %d is labelled %v, want %s", shapes, f[3:], qr.Query)
			}
			start = true
		case f[1] == "plancache_miss" && f[2] == qr.Fingerprint:
			miss = true
		}
	}
	if !start || !miss {
		t.Fatalf("flight context of shape %d lacks its query_start (%v) or its plancache_miss %s (%v):\n%s",
			shapes, start, qr.Fingerprint, miss, rec.Body)
	}
}

func jsonNumber(v uint64) string {
	raw, _ := json.Marshal(v)
	return string(raw)
}

func TestErrorResponseCarriesFlightContext(t *testing.T) {
	defer faultinject.Reset()
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Err: faultinject.ErrInjected})
	resp, body := postQuery(t, ts, `{"query":"q6","backend":"vectorized"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.QueryID == 0 {
		t.Fatalf("error response missing query id: %s", body)
	}
	if len(er.Flight) == 0 {
		t.Fatalf("error response missing flight context: %s", body)
	}
	joined := strings.Join(er.Flight, "\n")
	for _, kind := range []string{"query_start", "query_error"} {
		if !strings.Contains(joined, kind) {
			t.Fatalf("flight context missing %q:\n%s", kind, joined)
		}
	}
}

func TestShedResponseCarriesFlightContext(t *testing.T) {
	defer faultinject.Reset()
	srv := newShedServer(t, Config{MaxConcurrent: 1, QueueDepth: -1})
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Delay: 50 * time.Millisecond})
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		postQuery(t, ts, `{"query":"q6","backend":"vectorized"}`)
	}()
	waitSched(t, srv, func(s sched.Stats) bool { return s.Running == 1 })

	resp, body := postQuery(t, ts, `{"query":"q6","backend":"vectorized"}`)
	<-firstDone
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != "shed" || len(er.Flight) == 0 {
		t.Fatalf("shed response missing flight context: %s", body)
	}
	if !strings.Contains(strings.Join(er.Flight, "\n"), "shed") {
		t.Fatalf("flight context missing the shed event: %v", er.Flight)
	}
}

func TestSpanExportInlineAndSink(t *testing.T) {
	var sink bytes.Buffer
	srv := newShedServer(t, Config{SpanSink: &syncWriter{w: &sink}})
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, err := http.NewRequest("POST", ts.URL+"/query",
		strings.NewReader(`{"query":"q6","backend":"vectorized","spans":true}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id not echoed: %q", qr.TraceID)
	}
	if len(qr.Spans) == 0 {
		t.Fatal("spans requested but not returned inline")
	}
	// writeJSON re-indents the embedded document, so match values, not
	// compact key:value pairs.
	s := string(qr.Spans)
	if !strings.Contains(s, `"resourceSpans"`) ||
		!strings.Contains(s, `"4bf92f3577b34da6a3ce929d0e0e4736"`) ||
		!strings.Contains(s, `"00f067aa0ba902b7"`) {
		t.Fatalf("inline spans did not join the client trace: %s", s)
	}

	// The sink got the same document, one JSON line per query.
	line := strings.TrimSpace(sink.String())
	if line == "" {
		t.Fatal("span sink empty")
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &doc); err != nil {
		t.Fatalf("span sink line is not JSON: %v", err)
	}
	if _, ok := doc["resourceSpans"]; !ok {
		t.Fatalf("span sink line missing resourceSpans: %s", line)
	}
}

// syncWriter guards a bytes.Buffer the test reads back (the server also
// serializes sink writes; this covers the test's own read).
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestCanonicalQueryLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{mu: &mu, w: &buf}, nil))
	srv := New(Config{SF: 0.005, Logger: logger, SlowQuery: time.Nanosecond})
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postQuery(t, ts, `{"sql":"select count(*) as n from lineitem where l_quantity < 24"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	var event map[string]any
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line is not JSON: %v (%q)", err, line)
		}
		if m["msg"] == "query" {
			event = m
			break
		}
	}
	if event == nil {
		t.Fatalf("no canonical query event in log:\n%s", out)
	}
	// The wide event carries identity, routing and the slow-query verdict —
	// including fingerprint and plan_cache, which the old slow log dropped.
	for _, k := range []string{"id", "query", "source", "backend", "outcome", "wall", "queue_wait", "rows", "tuples", "fingerprint", "plan_cache", "slow"} {
		if _, ok := event[k]; !ok {
			t.Fatalf("canonical event missing %q: %v", k, event)
		}
	}
	if event["source"] != "sql" || event["outcome"] != "ok" || event["level"] != "WARN" {
		t.Fatalf("event source/outcome/level = %v/%v/%v", event["source"], event["outcome"], event["level"])
	}
	if event["plan_cache"] != "miss" && event["plan_cache"] != "hit" {
		t.Fatalf("plan_cache = %v", event["plan_cache"])
	}
}

// TestQueryLogCarriesCounters: a join query's canonical event carries its
// table counters: every set stats.Schema row of the query's record, not a
// hand-picked subset.
func TestQueryLogCarriesCounters(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{mu: &mu, w: &buf}, nil))
	srv := New(Config{SF: 0.005, Logger: logger})
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, body := postQuery(t, ts, `{"query":"q3","backend":"vectorized"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("q3 status %d: %s", resp.StatusCode, body)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	var event map[string]any
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err == nil && m["msg"] == "query" && m["query"] == "q3" {
			event = m
		}
	}
	if event == nil {
		t.Fatalf("no q3 query event in log:\n%s", out)
	}
	for _, k := range []string{"tuples", "ht_inserts", "ht_bloom_skips"} {
		if v, _ := event[k].(float64); v <= 0 {
			t.Errorf("q3 event has %s = %v, want > 0: %v", k, event[k], event)
		}
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestQueriesEndpointShowsActiveQueries(t *testing.T) {
	defer faultinject.Reset()
	srv := newShedServer(t, Config{MaxConcurrent: 1})
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Delay: 50 * time.Millisecond})
	done := make(chan struct{})
	go func() {
		defer close(done)
		postQuery(t, ts, `{"query":"q6","backend":"vectorized"}`)
	}()
	go func() {
		postQuery(t, ts, `{"query":"q1","backend":"vectorized"}`)
	}()
	waitSched(t, srv, func(s sched.Stats) bool { return s.Running == 1 && s.Queued == 1 })

	_, body := get(t, ts, "/queries")
	var ql struct {
		Active []struct {
			ID          uint64  `json:"id"`
			Query       string  `json:"query"`
			Backend     string  `json:"backend"`
			State       string  `json:"state"`
			QueueWaitMS float64 `json:"queue_wait_ms"`
		} `json:"active"`
	}
	if err := json.Unmarshal(body, &ql); err != nil {
		t.Fatal(err)
	}
	faultinject.Reset()
	<-done

	states := map[string]int{}
	for _, a := range ql.Active {
		states[a.State]++
		if a.ID == 0 || a.Query == "" || a.Backend == "" {
			t.Fatalf("active entry missing identity: %+v", a)
		}
	}
	if states["running"] != 1 || states["queued"] != 1 {
		t.Fatalf("active states = %v, want 1 running + 1 queued (%s)", states, body)
	}
	for _, a := range ql.Active {
		if a.State == "queued" && a.QueueWaitMS <= 0 {
			t.Fatalf("queued entry has no queue wait so far: %+v", a)
		}
	}
}

// spanRoot is the query span of an OTLP span document: its id attributes,
// timestamps and status.
type spanRoot struct {
	Start, End   int64
	Attrs        map[string]string
	StatusCode   int
	StatusReason string
}

func parseSpanRoot(t *testing.T, raw []byte) spanRoot {
	t.Helper()
	var doc struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					Name       string `json:"name"`
					Start      string `json:"startTimeUnixNano"`
					End        string `json:"endTimeUnixNano"`
					Attributes []struct {
						Key   string `json:"key"`
						Value struct {
							StringValue string `json:"stringValue"`
							IntValue    string `json:"intValue"`
						} `json:"value"`
					} `json:"attributes"`
					Status struct {
						Code    int    `json:"code"`
						Message string `json:"message"`
					} `json:"status"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("span document is not JSON: %v\n%s", err, raw)
	}
	s := doc.ResourceSpans[0].ScopeSpans[0].Spans[0]
	if !strings.HasPrefix(s.Name, "query ") {
		t.Fatalf("first span %q is not the query span", s.Name)
	}
	root := spanRoot{Attrs: map[string]string{}, StatusCode: s.Status.Code, StatusReason: s.Status.Message}
	var err error
	if root.Start, err = strconv.ParseInt(s.Start, 10, 64); err != nil {
		t.Fatal(err)
	}
	if root.End, err = strconv.ParseInt(s.End, 10, 64); err != nil {
		t.Fatal(err)
	}
	for _, a := range s.Attributes {
		root.Attrs[a.Key] = a.Value.StringValue + a.Value.IntValue
	}
	return root
}

// queryEvents returns the canonical query events of a JSON log, in order.
func queryEvents(t *testing.T, mu *sync.Mutex, log *bytes.Buffer) []map[string]any {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line is not JSON: %v (%q)", err, line)
		}
		if m["msg"] == "query" {
			out = append(out, m)
		}
	}
	return out
}

// TestOneRequestOneStory: the response, the canonical log event and the span
// export of one request report the same query — its id, backend, rows, wall
// time and queue wait, and for a failed request the same error.
func TestOneRequestOneStory(t *testing.T) {
	defer faultinject.Reset()
	var logBuf, sink bytes.Buffer
	var mu sync.Mutex
	srv := New(Config{
		SF:       0.005,
		Logger:   slog.New(slog.NewJSONHandler(&lockedWriter{mu: &mu, w: &logBuf}, nil)),
		SpanSink: &syncWriter{w: &sink},
	})
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postQuery(t, ts, `{"query":"q6","backend":"vectorized","spans":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	qr := decodeQuery(t, body)
	events := queryEvents(t, &mu, &logBuf)
	if len(events) != 1 {
		t.Fatalf("%d query events after one request", len(events))
	}
	ev := events[0]
	ms := func(v any) float64 { f, _ := v.(float64); return f / float64(time.Millisecond) }
	if id, _ := ev["id"].(float64); uint64(id) != qr.QueryID || qr.QueryID == 0 {
		t.Errorf("log id %v, response query_id %d", ev["id"], qr.QueryID)
	}
	if ms(ev["wall"]) != qr.WallMS || ms(ev["queue_wait"]) != qr.QueueWaitMS {
		t.Errorf("log wall/queue_wait %v/%v ns, response %v/%v ms", ev["wall"], ev["queue_wait"], qr.WallMS, qr.QueueWaitMS)
	}
	if rows, _ := ev["rows"].(float64); int(rows) != qr.Rows || ev["backend"] != qr.Backend {
		t.Errorf("log rows/backend %v/%v, response %d/%s", ev["rows"], ev["backend"], qr.Rows, qr.Backend)
	}
	root := parseSpanRoot(t, qr.Spans)
	if root.Attrs["inkfuse.query_id"] != jsonNumber(qr.QueryID) || root.Attrs["inkfuse.backend"] != ev["backend"] {
		t.Errorf("span root query_id/backend %s/%s, log %v/%v",
			root.Attrs["inkfuse.query_id"], root.Attrs["inkfuse.backend"], ev["id"], ev["backend"])
	}
	if wall, _ := ev["wall"].(float64); float64(root.End-root.Start) != wall {
		t.Errorf("span root lasts %d ns, log wall %v ns", root.End-root.Start, ev["wall"])
	}

	// A request that misses its deadline tells one story too: the log's err
	// is the span root's status, and the error response names the logged id.
	faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Delay: 100 * time.Millisecond})
	resp, body = postQuery(t, ts, `{"query":"q6","backend":"vectorized","timeout_ms":20}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	er := decodeError(t, body)
	events = queryEvents(t, &mu, &logBuf)
	if len(events) != 2 {
		t.Fatalf("%d query events after two requests", len(events))
	}
	ev = events[1]
	if id, _ := ev["id"].(float64); uint64(id) != er.QueryID || er.QueryID == 0 {
		t.Errorf("log id %v, error response query_id %d", ev["id"], er.QueryID)
	}
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("span sink holds %d documents, want 2", len(lines))
	}
	root = parseSpanRoot(t, []byte(lines[1]))
	if root.Attrs["inkfuse.query_id"] != jsonNumber(er.QueryID) {
		t.Fatalf("second span document is query %s, want %d", root.Attrs["inkfuse.query_id"], er.QueryID)
	}
	if ev["err"] == nil || ev["err"] != root.StatusReason || root.StatusCode != 2 {
		t.Errorf("log err %q, span root status %d %q", ev["err"], root.StatusCode, root.StatusReason)
	}
}
