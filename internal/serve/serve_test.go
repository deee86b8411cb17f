package serve

// Serving-layer tests: queries over HTTP execute and advance the metrics, a
// panicking query returns a structured 500 with the engine's *QueryError
// location while the server keeps serving, and the fault-injection points in
// the request path fire.

import (
	"encoding/json"
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
	"inkfuse/internal/sql"
	"inkfuse/internal/tpch"
)

var (
	testSrvOnce sync.Once
	testSrv     *Server
)

// testServer shares one SF 0.01 catalog across the package's tests.
func testServer() *Server {
	testSrvOnce.Do(func() {
		testSrv = New(Config{
			SF:        0.01,
			SlowQuery: time.Hour, // keep the log quiet at Info
			Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
	})
	return testSrv
}

// planName is the engine's name for a named query's plan: the statement
// name its tpch text compiles to.
func planName(t *testing.T, q string) string {
	t.Helper()
	text, _ := tpch.Text(q)
	stmt, err := sql.Compile(testServer().cat, text)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.Name
}

func postQuery(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestQuerySuccessAdvancesMetrics(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	// Scrape before, so the test asserts a delta, not an absolute count
	// (other tests share the process-wide registries).
	_, before := get(t, ts, "/metrics")
	resp, body := postQuery(t, ts, `{"query":"q6","backend":"vectorized"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	if qr.Rows == 0 || qr.WallMS <= 0 || len(qr.Columns) == 0 || len(qr.Data) == 0 {
		t.Fatalf("thin response: %+v", qr)
	}
	_, after := get(t, ts, "/metrics")
	for _, metric := range []string{
		"inkfuse_queries_started",
		`inkfuse_query_seconds_bucket{backend="vectorized",le="+Inf"}`,
		`inkfuse_morsel_seconds_count{backend="vectorized"}`,
	} {
		if !strings.Contains(string(after), metric) {
			t.Errorf("/metrics missing %q", metric)
		}
	}
	if counterValue(t, after, "inkfuse_queries_succeeded") <= counterValue(t, before, "inkfuse_queries_succeeded") {
		t.Error("query counter did not advance")
	}
	if counterValue(t, after, `inkfuse_query_seconds_count{backend="vectorized"}`) <=
		counterValue(t, before, `inkfuse_query_seconds_count{backend="vectorized"}`) {
		t.Error("query latency histogram did not advance")
	}
}

// counterValue extracts one metric's value from an exposition body (0 when
// the metric is not present yet).
func counterValue(t *testing.T, exposition []byte, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(exposition), "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("unparsable metric line %q: %v", line, err)
		}
		return v
	}
	return 0
}

func TestPanicQueryReturns500AndServerSurvives(t *testing.T) {
	defer faultinject.Reset()
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Panic: "injected query panic"})
	resp, body := postQuery(t, ts, `{"query":"q1","backend":"vectorized"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("bad error JSON: %v\n%s", err, body)
	}
	if er.Kind != "panic" {
		t.Fatalf("kind %q, want panic: %+v", er.Kind, er)
	}
	if er.QueryError == nil || er.QueryError.Query != planName(t, "q1") ||
		er.QueryError.Backend != "vectorized" || er.QueryError.Pipeline == "" {
		t.Fatalf("missing/incomplete query error location: %+v", er.QueryError)
	}

	// The panic was query-scoped: the same server keeps serving.
	faultinject.Reset()
	resp, body = postQuery(t, ts, `{"query":"q1","backend":"vectorized"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server did not survive the panic: status %d: %s", resp.StatusCode, body)
	}
}

func TestQueryTimeoutClassified(t *testing.T) {
	defer faultinject.Reset()
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Delay: 2 * time.Millisecond})
	resp, body := postQuery(t, ts, `{"query":"q1","backend":"vectorized","timeout_ms":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != "deadline" && er.Kind != "canceled" {
		t.Fatalf("kind %q: %+v", er.Kind, er)
	}
}

func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	resp, _ := postQuery(t, ts, `{not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d, want 400", resp.StatusCode)
	}
	resp, body := postQuery(t, ts, `{"query":"q99"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown query: status %d, want 404: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != "unknown_query" {
		t.Fatalf("kind %q, want unknown_query", er.Kind)
	}
	resp, _ = postQuery(t, ts, `{"query":"q6","backend":"turbo"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown backend: status %d, want 400", resp.StatusCode)
	}
}

func TestServeFaultPoints(t *testing.T) {
	defer faultinject.Reset()
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	// Each request-path point fires and fails only its own request.
	faultinject.Arm(faultinject.ServeParse, faultinject.Fault{Nth: 1})
	resp, _ := postQuery(t, ts, `{"query":"q6"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ServeParse fault: status %d, want 400", resp.StatusCode)
	}
	if faultinject.Calls(faultinject.ServeParse) == 0 {
		t.Fatal("ServeParse point not wired")
	}
	faultinject.Reset()

	faultinject.Arm(faultinject.ServeExecute, faultinject.Fault{Nth: 1, Panic: "execute-path panic"})
	resp, body := postQuery(t, ts, `{"query":"q6","backend":"vectorized"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("ServeExecute panic: status %d, want 500: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != "internal" {
		t.Fatalf("kind %q, want internal", er.Kind)
	}
	faultinject.Reset()

	faultinject.Arm(faultinject.ServeRespond, faultinject.Fault{Nth: 1})
	resp, _ = postQuery(t, ts, `{"query":"q6","backend":"vectorized"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("ServeRespond fault: status %d, want 500", resp.StatusCode)
	}
	faultinject.Reset()

	// And after all that, the server still serves.
	resp, _ = postQuery(t, ts, `{"query":"q6","backend":"vectorized"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server unhealthy after faults: status %d", resp.StatusCode)
	}
}

func TestExplainAndProfileOverHTTP(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	resp, body := postQuery(t, ts, `{"query":"q1","backend":"vectorized","explain":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qr.Explain, "== explain analyze "+planName(t, "q1")) || !strings.Contains(qr.Explain, "-- subops:") {
		t.Fatalf("explain rendering missing suboperator profile:\n%s", qr.Explain)
	}
	resp, body = postQuery(t, ts, `{"query":"q6","backend":"vectorized","profile":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qr.Trace, "subops: sampled") {
		t.Fatalf("profile trace missing suboperator section:\n%s", qr.Trace)
	}
}

func TestAuxEndpoints(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status": "ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	resp, body = get(t, ts, "/queries")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"q6"`) {
		t.Fatalf("queries: %d %s", resp.StatusCode, body)
	}
	resp, _ = get(t, ts, "/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof: %d", resp.StatusCode)
	}
	resp, body = get(t, ts, "/debug/vars")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "inkfuse") {
		t.Fatalf("expvar: %d %s", resp.StatusCode, body)
	}
	resp, _ = get(t, ts, "/metrics")
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
		t.Fatalf("metrics content type %q", got)
	}
}

func TestRowCapTruncates(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	resp, body := postQuery(t, ts, `{"query":"q1","backend":"vectorized","max_rows":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Data) != 1 || !qr.RowsTruncated || qr.Rows <= 1 {
		t.Fatalf("row cap not applied: rows=%d data=%d truncated=%v", qr.Rows, len(qr.Data), qr.RowsTruncated)
	}
}

// TestQueriesListsEveryServedQuery: GET /queries names every query POST /query
// serves by name — the paper's eight and the extended ones — and each name it
// lists answers.
func TestQueriesListsEveryServedQuery(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	_, body := get(t, ts, "/queries")
	var ql struct {
		Queries []string `json:"queries"`
	}
	if err := json.Unmarshal(body, &ql); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, q := range ql.Queries {
		listed[q] = true
		if resp, body := postQuery(t, ts, `{"query":"`+q+`","backend":"vectorized"}`); resp.StatusCode != http.StatusOK {
			t.Errorf("/queries lists %s, but POST /query answers %d: %s", q, resp.StatusCode, body)
		}
	}
	for _, q := range append(append([]string{}, tpch.Queries...), tpch.ExtendedQueries...) {
		if !listed[q] {
			t.Errorf("/queries does not list %s: %v", q, ql.Queries)
		}
	}
}
