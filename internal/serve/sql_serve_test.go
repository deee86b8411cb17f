package serve

// Tests for the SQL text path of the serve layer: raw SQL over HTTP, the
// prepared-statement lifecycle, plan-cache hit reporting, pre-admission
// rejection of malformed statements, and the bugfix sweep (rows_truncated
// semantics, 413 memory_budget classification).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"inkfuse/internal/faultinject"
)

func decodeQuery(t *testing.T, body []byte) QueryResponse {
	t.Helper()
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	return qr
}

func decodeError(t *testing.T, body []byte) ErrorResponse {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("bad error JSON: %v\n%s", err, body)
	}
	return er
}

func TestSQLOverHTTP(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	// Cold: the shape has never been seen, so the plan cache misses.
	resp, body := postQuery(t, ts,
		`{"sql":"select count(*) as n from lineitem where l_quantity < 10"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	qr := decodeQuery(t, body)
	if qr.Rows != 1 || len(qr.Data) != 1 || qr.Columns[0] != "n" {
		t.Fatalf("thin response: %+v", qr)
	}
	if qr.Fingerprint == "" || qr.PlanCache != "miss" {
		t.Fatalf("want fingerprint + plan_cache=miss, got %q/%q", qr.Fingerprint, qr.PlanCache)
	}

	// Warm: same shape, different literal — same fingerprint, cache hit.
	resp, body = postQuery(t, ts,
		`{"sql":"select count(*) as n from lineitem where l_quantity < 45"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	hit := decodeQuery(t, body)
	if hit.Fingerprint != qr.Fingerprint {
		t.Fatalf("literal change altered fingerprint: %q vs %q", hit.Fingerprint, qr.Fingerprint)
	}
	if hit.PlanCache != "hit" {
		t.Fatalf("want plan_cache=hit, got %q", hit.PlanCache)
	}

	// /queries reports the cache.
	resp, body = get(t, ts, "/queries")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("queries: %d", resp.StatusCode)
	}
	var idx struct {
		PlanCache struct {
			Enabled bool  `json:"enabled"`
			Hits    int64 `json:"hits"`
		} `json:"plan_cache"`
	}
	if err := json.Unmarshal(body, &idx); err != nil {
		t.Fatal(err)
	}
	if !idx.PlanCache.Enabled || idx.PlanCache.Hits < 1 {
		t.Fatalf("plan_cache stats not reported: %s", body)
	}
}

// TestNamedQueryIsTheSQLPath: a named TPC-H query runs its tpch text through
// the SQL path, so it is verified and plan-cached like any statement: sent
// twice it misses and then hits, under its name as the label. With caching
// off it reports "off" both times.
func TestNamedQueryIsTheSQLPath(t *testing.T) {
	for _, tc := range []struct {
		entries int
		want    []string
	}{{0, []string{"miss", "hit"}}, {-1, []string{"off", "off"}}} {
		srv := New(Config{SF: 0.002, PlanCacheEntries: tc.entries, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		ts := httptest.NewServer(srv.Handler())
		for _, want := range tc.want {
			resp, body := postQuery(t, ts, `{"query":"q12","backend":"vectorized"}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			qr := decodeQuery(t, body)
			if qr.Query != "q12" || qr.Rows == 0 || qr.Fingerprint == "" || qr.PlanCache != want {
				t.Fatalf("cache entries %d: want label q12, rows, a fingerprint and plan_cache=%s, got %+v",
					tc.entries, want, qr)
			}
		}
		ts.Close()
		srv.Close(context.Background())
	}
}

func TestPreparedLifecycle(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/prepare", "application/json",
		strings.NewReader(`{"sql":"select sum(l_extendedprice) as s from lineitem where l_quantity < ? and l_discount >= ?"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare: %d %s", resp.StatusCode, body)
	}
	var pr PrepareResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Handle == "" || pr.Params != 2 || pr.Fingerprint == "" {
		t.Fatalf("thin prepare response: %+v", pr)
	}

	// Execute twice with different parameter values; the second run must hit
	// the plan cache (same fingerprint, instance returned after run one).
	exec1 := fmt.Sprintf(`{"prepared":%q,"params":[30, 0.02]}`, pr.Handle)
	resp2, body := postQuery(t, ts, exec1)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("execute 1: %d %s", resp2.StatusCode, body)
	}
	first := decodeQuery(t, body)
	if first.Fingerprint != pr.Fingerprint {
		t.Fatalf("fingerprint mismatch: %q vs %q", first.Fingerprint, pr.Fingerprint)
	}
	resp2, body = postQuery(t, ts, fmt.Sprintf(`{"prepared":%q,"params":[11, 0.05]}`, pr.Handle))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("execute 2: %d %s", resp2.StatusCode, body)
	}
	if second := decodeQuery(t, body); second.PlanCache != "hit" {
		t.Fatalf("second execution should hit the plan cache, got %q", second.PlanCache)
	}

	// Wrong parameter count is rejected before execution.
	resp2, body = postQuery(t, ts, fmt.Sprintf(`{"prepared":%q,"params":[30]}`, pr.Handle))
	if er := decodeError(t, body); resp2.StatusCode != http.StatusBadRequest || er.Kind != "bad_params" {
		t.Fatalf("want 400 bad_params, got %d %s", resp2.StatusCode, body)
	}

	// Close the handle: 204, then the handle is gone for execute and DELETE.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/prepare/"+pr.Handle, nil)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNoContent {
		t.Fatalf("close: %d", resp3.StatusCode)
	}
	resp2, body = postQuery(t, ts, exec1)
	if er := decodeError(t, body); resp2.StatusCode != http.StatusNotFound || er.Kind != "unknown_prepared" {
		t.Fatalf("closed handle should 404, got %d %s", resp2.StatusCode, body)
	}
	resp3, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("double close: %d", resp3.StatusCode)
	}
}

// TestParseErrorsRejectBeforeAdmission: malformed SQL fails with 400 and a
// source location, and — the bugfix contract — never reaches the scheduler.
// The SchedAdmit injection point (armed with an unreachable Nth so it counts
// passages without firing) proves no admission attempt happened, and the pool
// stats prove no admission slot or memory reservation was held.
func TestParseErrorsRejectBeforeAdmission(t *testing.T) {
	srv := testServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	faultinject.Arm(faultinject.SchedAdmit, faultinject.Fault{Nth: 1 << 40})
	defer faultinject.Reset()
	admitCalls := faultinject.Calls(faultinject.SchedAdmit)
	admitted := srv.SchedStats().Admitted

	// Parse error: position points at the token where FROM was expected.
	resp, body := postQuery(t, ts, `{"sql":"select l_orderkey frm lineitem"}`)
	er := decodeError(t, body)
	if resp.StatusCode != http.StatusBadRequest || er.Kind != "parse_error" {
		t.Fatalf("want 400 parse_error, got %d %s", resp.StatusCode, body)
	}
	if er.Location == nil || er.Location.Line != 1 || er.Location.Col != 23 {
		t.Fatalf("bad location: %s", body)
	}

	// Bind error: well-formed text, unknown column.
	resp, body = postQuery(t, ts, `{"sql":"select nope from lineitem"}`)
	er = decodeError(t, body)
	if resp.StatusCode != http.StatusBadRequest || er.Kind != "bind_error" {
		t.Fatalf("want 400 bind_error, got %d %s", resp.StatusCode, body)
	}
	if er.Location == nil || er.Location.Line != 1 || er.Location.Col != 8 {
		t.Fatalf("bad location: %s", body)
	}

	// Wrong parameter count on raw SQL, same guarantee.
	resp, body = postQuery(t, ts, `{"sql":"select count(*) as n from lineitem where l_quantity < ?","params":[1,2]}`)
	if er = decodeError(t, body); resp.StatusCode != http.StatusBadRequest || er.Kind != "bad_params" {
		t.Fatalf("want 400 bad_params, got %d %s", resp.StatusCode, body)
	}

	if got := faultinject.Calls(faultinject.SchedAdmit); got != admitCalls {
		t.Fatalf("rejected statements reached the scheduler: %d admission passages", got-admitCalls)
	}
	st := srv.SchedStats()
	if st.Admitted != admitted || st.MemReserved != 0 {
		t.Fatalf("rejected statements held scheduler state: %+v", st)
	}
}

// TestRowCapBoundary: rows_truncated flips exactly at the cap — false when
// max_rows equals the result cardinality, true one below it.
func TestRowCapBoundary(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	resp, body := postQuery(t, ts, `{"query":"q1","backend":"vectorized"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	full := decodeQuery(t, body)
	if full.TotalRows < 2 || full.RowsTruncated || full.TotalRows != full.Rows {
		t.Fatalf("baseline run unusable: %+v", full)
	}

	resp, body = postQuery(t, ts, fmt.Sprintf(`{"query":"q1","backend":"vectorized","max_rows":%d}`, full.TotalRows))
	atCap := decodeQuery(t, body)
	if resp.StatusCode != http.StatusOK || atCap.RowsTruncated ||
		len(atCap.Data) != full.TotalRows || atCap.TotalRows != full.TotalRows {
		t.Fatalf("cap == cardinality must not truncate: %d %+v", resp.StatusCode, atCap)
	}

	resp, body = postQuery(t, ts, fmt.Sprintf(`{"query":"q1","backend":"vectorized","max_rows":%d}`, full.TotalRows-1))
	below := decodeQuery(t, body)
	if resp.StatusCode != http.StatusOK || !below.RowsTruncated ||
		len(below.Data) != full.TotalRows-1 || below.TotalRows != full.TotalRows {
		t.Fatalf("cap == cardinality-1 must truncate: %d %+v", resp.StatusCode, below)
	}
}

// TestMemoryBudgetIs413: a query that exceeds its own memory budget is a
// client-sized request, not a server fault — 413 memory_budget, not 500.
func TestMemoryBudgetIs413(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	resp, body := postQuery(t, ts, `{"query":"q1","backend":"vectorized","memory_budget":1}`)
	er := decodeError(t, body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || er.Kind != "memory_budget" {
		t.Fatalf("want 413 memory_budget, got %d %s", resp.StatusCode, body)
	}
}

// TestNonFiniteAggregateEncodes pins the fix for the empty 200: a global
// avg/min/max over zero rows computes NaN/±Inf, which JSON cannot carry. The
// response must be a complete body with null in that cell.
func TestNonFiniteAggregateEncodes(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	resp, body := postQuery(t, ts,
		`{"sql":"select avg(l_quantity) as a from lineitem where l_quantity < 0"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	qr := decodeQuery(t, body)
	if qr.Rows != 1 || len(qr.Data) != 1 || len(qr.Data[0]) != 1 {
		t.Fatalf("want one row of one cell, got %s", body)
	}
	if qr.Data[0][0] != nil {
		t.Fatalf("avg over zero rows = %v, want null", qr.Data[0][0])
	}
}

// TestWriteJSONEncodeFailureIsTyped500 covers the writer itself: whatever the
// encoder rejects must not go out as the promised status over an empty body.
func TestWriteJSONEncodeFailureIsTyped500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"v": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if er := decodeError(t, rec.Body.Bytes()); er.Kind != "encode" || er.Error == "" {
		t.Fatalf("want typed encode error, got %s", rec.Body.Bytes())
	}
}
