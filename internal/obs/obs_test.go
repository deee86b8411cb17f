package obs

import (
	"errors"
	"expvar"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"inkfuse/internal/stats"
)

func TestDecadesLayout(t *testing.T) {
	b := decades(1e-3, 1e0)
	want := []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1}
	if len(b) != len(want) {
		t.Fatalf("bounds %v, want %v", b, want)
	}
	for i := range b {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("bound %d = %g, want %g", i, b[i], want[i])
		}
	}
	for i := 1; i < len(LatencyBounds); i++ {
		if LatencyBounds[i] <= LatencyBounds[i-1] {
			t.Fatalf("LatencyBounds not ascending at %d: %v", i, LatencyBounds)
		}
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5, 10})
	for _, v := range []float64{0.5, 1, 1.5, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 113.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	// Bucket layout: le=1 gets {0.5, 1}, le=2 gets {1.5}, le=5 gets {3},
	// le=10 gets {7}, +Inf gets {100}.
	for i, want := range []int64{2, 1, 1, 1, 1} {
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket %d = %d, want %d", i, got, want)
		}
	}
	if q := h.Quantile(0.99); q != 10 {
		t.Fatalf("p99 = %g, want clamp to highest bound 10", q)
	}
	if q := h.Quantile(0.5); q <= 0 || q > 2 {
		t.Fatalf("p50 = %g, want within (0, 2]", q)
	}
	if (Summary{}) == h.Summarize() {
		t.Fatal("summary empty")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(LatencyBounds)
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram must read as zeros")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(LatencyBounds)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ObserveDuration(time.Duration(w*i%1_000_000) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	var sum int64
	for i := range h.counts {
		sum += h.counts[i].Load()
	}
	if sum != workers*per {
		t.Fatalf("bucket sum = %d, want %d", sum, workers*per)
	}
}

// TestFamilyConcurrentMerge races writers across family children (including
// racing child creation for the same label) against readers rendering the
// registry; afterwards the merged counts must be exact. Run under -race this
// also proves exposition never reads torn histogram state.
func TestFamilyConcurrentMerge(t *testing.T) {
	r := NewRegistry()
	backends := []string{"vectorized", "compiling", "rof", "hybrid"}
	const workers, per = 8, 2000
	// A family without children renders nothing: give it one before the
	// readers start, or a reader scheduled ahead of every writer sees no
	// header.
	r.QueryLatency.With(backends[0])

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if out := r.PrometheusText(); !strings.Contains(out, "# TYPE inkfuse_query_seconds histogram") {
					t.Error("exposition lost its TYPE header mid-write")
					return
				}
				_ = r.SummaryText()
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < workers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < per; i++ {
				b := backends[(w+i)%len(backends)]
				r.QueryLatency.With(b).ObserveDuration(time.Duration(i%1000+1) * time.Microsecond)
				r.MorselLatency.With(b).ObserveDuration(time.Duration(i%100+1) * time.Microsecond)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	var total int64
	for _, b := range backends {
		total += r.QueryLatency.With(b).Count()
	}
	if total != workers*per {
		t.Fatalf("merged query count = %d, want %d", total, workers*per)
	}
	// The final exposition must agree with the merged counts.
	out := r.PrometheusText()
	for _, b := range backends {
		want := `inkfuse_query_seconds_count{backend="` + b + `"} ` + strconv.FormatInt(r.QueryLatency.With(b).Count(), 10)
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestFamilyChildrenAndRegistry(t *testing.T) {
	r := NewRegistry()
	r.QueryDone(&stats.QueryRecord{Backend: "hybrid", Stats: stats.Counters{Tuples: 1_000_000}, Wall: 20 * time.Millisecond}, nil, false)
	r.QueryDone(&stats.QueryRecord{Backend: "hybrid", Stats: stats.Counters{Tuples: 2_000_000}, Wall: 40 * time.Millisecond}, nil, false)
	r.QueryDone(&stats.QueryRecord{Backend: "vectorized", Stats: stats.Counters{Tuples: 500_000}, Wall: 5 * time.Millisecond}, nil, false)
	r.MorselLatency.With("hybrid").ObserveDuration(300 * time.Microsecond)

	if got := r.QueryLatency.With("hybrid").Count(); got != 2 {
		t.Fatalf("hybrid query count = %d", got)
	}
	if got := r.QueryRows.With("vectorized").Count(); got != 1 {
		t.Fatalf("vectorized throughput count = %d", got)
	}
	// Zero-wall / zero-tuple queries must not feed a nonsense rate.
	r.QueryDone(&stats.QueryRecord{Backend: "rof", Stats: stats.Counters{Tuples: 0}, Wall: 10 * time.Millisecond}, nil, false)
	if got := r.QueryRows.With("rof").Count(); got != 0 {
		t.Fatalf("zero-tuple query fed the throughput histogram: %d", got)
	}
	if !strings.Contains(r.SummaryText(), `inkfuse_query_seconds{backend="hybrid"} count=2`) {
		t.Fatalf("summary text:\n%s", r.SummaryText())
	}
}

func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.QueryDone(&stats.QueryRecord{Backend: "hybrid", Stats: stats.Counters{Tuples: 100_000}, Wall: 3 * time.Millisecond}, nil, false)
	out := r.PrometheusText()
	for _, want := range []string{
		"# TYPE inkfuse_queries_started counter",
		"# TYPE inkfuse_mem_peak_bytes gauge",
		"# TYPE inkfuse_query_seconds histogram",
		`inkfuse_query_seconds_bucket{backend="hybrid",le="0.005"} 1`,
		`inkfuse_query_seconds_bucket{backend="hybrid",le="+Inf"} 1`,
		`inkfuse_query_seconds_count{backend="hybrid"} 1`,
		`inkfuse_query_rows_per_second_count{backend="hybrid"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: each le count >= the previous.
	r2 := NewRegistry()
	for i := 1; i <= 50; i++ {
		r2.QueryLatency.With("rof").Observe(float64(i) * 1e-4)
	}
	var prev int64 = -1
	for _, line := range strings.Split(r2.PrometheusText(), "\n") {
		if !strings.HasPrefix(line, `inkfuse_query_seconds_bucket{backend="rof"`) {
			continue
		}
		n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("buckets not cumulative: %q after %d", line, prev)
		}
		prev = n
	}
	if prev != 50 {
		t.Fatalf("final cumulative bucket = %d, want 50", prev)
	}
}

func TestRegistryFolding(t *testing.T) {
	r := NewRegistry()
	r.Add(QueriesStarted, 3)

	// A success that ran degraded counts; a failure never does, whatever its
	// compile errors.
	r.QueryDone(&stats.QueryRecord{Backend: "hybrid", Wall: 2 * time.Millisecond, Warnings: []error{errors.New("degraded")},
		Stats: stats.Counters{Tuples: 100, EmittedRows: 10, CompileTime: time.Millisecond, MemPeakBytes: 512}}, nil, false)
	r.QueryDone(&stats.QueryRecord{Backend: "hybrid", Wall: time.Millisecond,
		Stats: stats.Counters{Tuples: 50, PanicsRecovered: 1, MemPeakBytes: 256}}, errors.New("boom"), false)
	r.QueryDone(&stats.QueryRecord{Backend: "hybrid", Wall: time.Millisecond,
		Stats: stats.Counters{Tuples: 7, CompileErrors: 1}}, errors.New("ctx"), true)

	// A query that died before executing carries no counters.
	r.QueryDone(&stats.QueryRecord{Backend: "hybrid", Wall: time.Millisecond}, errors.New("early"), false)

	want := map[string]int64{
		"queries_started": 3, "queries_succeeded": 1, "queries_failed": 2, "queries_canceled": 1,
		"degraded_queries": 1, "tuples": 157, "emitted_rows": 10, "panics_recovered": 1, "compile_errors": 1,
		"compile_nanos": int64(time.Millisecond), "query_nanos": int64(5 * time.Millisecond),
		"mem_peak_bytes": 512, // a high-water gauge: the largest per-query peak
	}
	got := r.Values()
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
	if n := r.QueryLatency.With("hybrid").Count(); n != 4 {
		t.Errorf("latency histogram saw %d queries, want 4", n)
	}
}

func TestDumpFormat(t *testing.T) {
	r := NewRegistry()
	r.Add(QueriesStarted, 1)
	r.Add(SchedRunning, 1)
	r.Add(SchedRunning, -1)
	r.QueryDone(&stats.QueryRecord{Backend: "vectorized", Stats: stats.Counters{Tuples: 5}, Wall: time.Millisecond}, nil, false)
	out := r.Dump()
	for _, want := range []string{"inkfuse_queries_started 1\n", "inkfuse_queries_succeeded 1\n", "inkfuse_tuples 5\n", "inkfuse_sched_running 0\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(flat) || !sortedStrings(lines) {
		t.Errorf("dump must list all %d series in name order:\n%s", len(flat), out)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

func TestExpvarPublished(t *testing.T) {
	v := expvar.Get("inkfuse")
	if v == nil {
		t.Fatal("default registry not published under expvar key \"inkfuse\"")
	}
	if !strings.Contains(v.String(), `"queries_started":`) {
		t.Fatalf("expvar value is not the name-keyed series map: %s", v)
	}
}
