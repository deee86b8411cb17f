// Package obs is the engine-wide observability registry: the flat series
// (engine events such as queries_started or sched_shed, plus one series per
// stats.Schema counter, folded in once at query end) and lock-free
// fixed-bucket histograms for latency and throughput distributions, grouped
// into label families (one child per execution backend), with p50/p90/p99
// summaries. One table declares the flat series; the text dump, the expvar
// value ("inkfuse" on /debug/vars) and the Prometheus exposition render from it.
//
// The recording discipline matches the rest of the engine's observability
// stack: nothing is fed per row or per chunk. Flat series take one atomic add
// per event or per counter at query end; a histogram observation (morsel
// granularity or coarser) is two atomic adds plus a binary search over ~25
// bucket bounds — no locks, no allocations, safe for every worker concurrently.
//
//inklint:lockscope
package obs

import (
	"expvar"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"inkfuse/internal/stats"
)

// LatencyBounds are the default histogram bounds for durations, in seconds:
// a 1-2-5 series from 1µs to 100s. Morsels land in the µs-ms decades,
// queries in the ms-s decades; one layout serves both so summaries are
// comparable.
var LatencyBounds = decades(1e-6, 1e2)

// ThroughputBounds are the default bounds for rates (rows/sec): a 1-2-5
// series from 1K/s to 10G/s.
var ThroughputBounds = decades(1e3, 1e10)

// decades builds a 1-2-5 series covering [lo, hi].
func decades(lo, hi float64) []float64 {
	var out []float64
	for d := lo; d <= hi*1.0001; d *= 10 {
		for _, m := range []float64{1, 2, 5} {
			if v := d * m; v <= hi*1.0001 {
				out = append(out, v)
			}
		}
	}
	return out
}

// atomicFloat is a float64 accumulated with CAS (for histogram sums).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-bucket histogram. Buckets hold the count of
// observations v <= bound[i] (non-cumulative internally; rendered
// cumulatively, Prometheus-style, with a +Inf overflow bucket). All methods
// are safe for concurrent use.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomicFloat
	count  atomic.Int64
}

// NewHistogram creates a histogram over the given ascending bucket bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket holding the target rank. Values in the +Inf bucket clamp
// to the highest bound. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if cum+c < rank || c == 0 {
			cum += c
			continue
		}
		if i >= len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		return lo + (h.bounds[i]-lo)*(rank-cum)/c
	}
	return h.bounds[len(h.bounds)-1]
}

// Summary is the compact quantile view of a histogram.
type Summary struct {
	Count         int64
	Sum           float64
	P50, P90, P99 float64
}

// Summarize estimates the standard serving quantiles.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.Count(), Sum: h.Sum(),
		P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
	}
}

// Family is one named histogram metric with a single label dimension
// (default "backend"); children are created on first use and live forever,
// matching the bounded label cardinality.
type Family struct {
	Name  string
	Help  string
	Label string // label name, e.g. "backend" or "outcome"

	bounds []float64
	mu     sync.RWMutex
	kids   map[string]*Histogram
}

// NewFamily creates an empty histogram family labeled by "backend".
func NewFamily(name, help string, bounds []float64) *Family {
	return NewLabeledFamily(name, help, "backend", bounds)
}

// NewLabeledFamily creates an empty histogram family with an explicit label
// dimension name.
func NewLabeledFamily(name, help, label string, bounds []float64) *Family {
	return &Family{Name: name, Help: help, Label: label, bounds: bounds, kids: map[string]*Histogram{}}
}

// With returns the child histogram for a label value, creating it on first
// use. Callers on hot paths resolve the child once (per query or pipeline)
// and then observe through the returned pointer.
func (f *Family) With(label string) *Histogram {
	f.mu.RLock()
	h := f.kids[label]
	f.mu.RUnlock()
	if h != nil {
		return h
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if h = f.kids[label]; h == nil {
		h = NewHistogram(f.bounds)
		f.kids[label] = h
	}
	return h
}

// labels returns the child label values, sorted for deterministic rendering.
func (f *Family) labels() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.kids))
	for l := range f.kids {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Event names one flat engine-wide series that is not a per-query counter:
// query outcomes, scheduler admissions and plan-cache lookups. Their owners
// feed them through Registry.Add.
type Event int

const (
	QueriesStarted Event = iota
	QueriesSucceeded
	QueriesFailed
	QueriesCanceled
	DegradedQueries
	QueryNanos
	SchedAdmitted
	SchedShed
	SchedQueueTimeouts
	SchedDrainCanceled
	SchedRunning
	SchedQueued
	PlanCacheHits
	PlanCacheMisses
	PlanCacheEvictions
	numEvents
)

// series declares one flat series: its name (without the "inkfuse_" prefix),
// its Prometheus type and its help text.
type series struct{ name, kind, help string }

// A gauge is a point-in-time value or a high-water mark, a counter monotonic.
const counter, gauge = "counter", "gauge"

// flat is every flat series: the events, indexed by Event, then one per
// stats.Schema row in schema order. sorted lists the indexes by name, the
// order every rendering uses.
var flat, sorted = func() ([]series, []int) {
	s := []series{
		QueriesStarted:     {"queries_started", counter, "Queries that entered the engine."},
		QueriesSucceeded:   {"queries_succeeded", counter, "Queries that returned a result."},
		QueriesFailed:      {"queries_failed", counter, "Queries that ended in an error other than cancellation (rejections included)."},
		QueriesCanceled:    {"queries_canceled", counter, "Queries ended by context cancellation or deadline."},
		DegradedQueries:    {"degraded_queries", counter, "Successful queries that ran with a failed background compile."},
		QueryNanos:         {"query_nanos", counter, "Summed end-to-end query wall time."},
		SchedAdmitted:      {"sched_admitted", counter, "Queries admitted into a worker pool."},
		SchedShed:          {"sched_shed", counter, "Queries shed because the admission queue was full."},
		SchedQueueTimeouts: {"sched_queue_timeouts", counter, "Queued admissions abandoned by their context."},
		SchedDrainCanceled: {"sched_drain_canceled", counter, "Queries canceled by a drain deadline."},
		SchedRunning:       {"sched_running", gauge, "Admitted queries now."},
		SchedQueued:        {"sched_queued", gauge, "Admissions waiting in the queue now."},
		PlanCacheHits:      {"plancache_hits", counter, "Fingerprint lookups served from the plan cache."},
		PlanCacheMisses:    {"plancache_misses", counter, "Fingerprint lookups that built a fresh plan."},
		PlanCacheEvictions: {"plancache_evictions", counter, "Plan-cache entries evicted by the LRU bound."},
	}
	for _, r := range stats.Schema {
		kind := counter
		if r.Max {
			kind = gauge
		}
		s = append(s, series{r.Engine, kind, "Per-query counter " + r.Name + ", folded in at query end."})
	}
	order := make([]int, len(s))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return s[order[a]].name < s[order[b]].name })
	return s, order
}()

// Registry holds the engine's flat series and histogram families. The exported
// distributions are labeled by backend only: per-pipeline and per-suboperator
// breakdowns have unbounded name cardinality and live in the per-query trace /
// EXPLAIN ANALYZE instead (DESIGN.md §9).
type Registry struct {
	// QueryLatency is end-to-end query wall time, per backend.
	QueryLatency *Family
	// MorselLatency is per-morsel execution time (the scheduler's unit of
	// work), per backend. Fed once per morsel.
	MorselLatency *Family
	// QueryRows is per-query source-tuple throughput (rows/sec), per backend.
	QueryRows *Family
	// QueueWait is the time a query spent in the scheduler's admission queue,
	// labeled by outcome ("admitted", "shed", "timeout", "draining",
	// "over_capacity"). Fed by internal/sched once per admission attempt.
	QueueWait *Family

	values []atomic.Int64 // one per flat series, same indexes
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		QueryLatency:  NewFamily("inkfuse_query_seconds", "End-to-end query latency by backend.", LatencyBounds),
		MorselLatency: NewFamily("inkfuse_morsel_seconds", "Per-morsel execution latency by backend.", LatencyBounds),
		QueryRows:     NewFamily("inkfuse_query_rows_per_second", "Per-query source-row throughput by backend.", ThroughputBounds),
		QueueWait:     NewLabeledFamily("inkfuse_queue_wait_seconds", "Admission-queue wait by outcome.", "outcome", LatencyBounds),
		values:        make([]atomic.Int64, len(flat)),
	}
}

// Default is the process-wide registry: internal/exec feeds it once per query
// at query end (plus one per-morsel latency observation), internal/sched and
// internal/plancache feed their events. It is exported via expvar as "inkfuse".
var Default = NewRegistry()

func init() {
	expvar.Publish("inkfuse", expvar.Func(func() any { return Default.Values() }))
}

// Add moves an event series by delta: +1 per occurrence for counters, ±1 for
// the running/queued gauges.
func (r *Registry) Add(e Event, delta int64) { r.values[e].Add(delta) }

// QueryDone folds one finished query's record into the registry, success or
// failure: its outcome (err nil, a cancellation/deadline, or any other
// failure — rejections included), wall time and merged counters (all zero
// when it died before executing). Only a successful query counts as degraded.
func (r *Registry) QueryDone(rec *stats.QueryRecord, err error, canceled bool) {
	switch {
	case err == nil:
		r.Add(QueriesSucceeded, 1)
		if rec.Degraded() {
			r.Add(DegradedQueries, 1)
		}
	case canceled:
		r.Add(QueriesCanceled, 1)
	default:
		r.Add(QueriesFailed, 1)
	}
	c, wall := &rec.Stats, rec.Wall
	r.Add(QueryNanos, int64(wall))
	for i := range stats.Schema {
		row, v := &stats.Schema[i], &r.values[int(numEvents)+i]
		if n := *row.Of(c); !row.Max {
			v.Add(n)
		} else {
			for cur := v.Load(); n > cur && !v.CompareAndSwap(cur, n); cur = v.Load() {
			}
		}
	}
	r.QueryLatency.With(rec.Backend).ObserveDuration(wall)
	if s := wall.Seconds(); s > 0 && c.Tuples > 0 {
		r.QueryRows.With(rec.Backend).Observe(float64(c.Tuples) / s)
	}
}

// Values is a point-in-time copy of the flat series, keyed by series name
// (without the "inkfuse_" prefix) — the expvar value.
func (r *Registry) Values() map[string]int64 {
	out := make(map[string]int64, len(flat))
	for i := range flat {
		out[flat[i].name] = r.values[i].Load()
	}
	return out
}

// Dump renders the flat series as sorted "inkfuse_name value" lines — the
// text export for logs and CLIs.
func (r *Registry) Dump() string {
	var b strings.Builder
	for _, i := range sorted {
		fmt.Fprintf(&b, "inkfuse_%s %d\n", flat[i].name, r.values[i].Load())
	}
	return b.String()
}

// PrometheusText renders the whole registry in Prometheus text exposition
// format: the flat series, typed from their declaration, followed by the
// histograms (cumulative buckets, sum, count).
func (r *Registry) PrometheusText() string {
	var b strings.Builder
	for _, i := range sorted {
		fmt.Fprintf(&b, "# HELP inkfuse_%[1]s %[2]s\n# TYPE inkfuse_%[1]s %[3]s\ninkfuse_%[1]s %[4]d\n",
			flat[i].name, flat[i].help, flat[i].kind, r.values[i].Load())
	}
	for _, f := range []*Family{r.QueryLatency, r.MorselLatency, r.QueryRows, r.QueueWait} {
		writeFamily(&b, f)
	}
	return b.String()
}

func writeFamily(b *strings.Builder, f *Family) {
	labels := f.labels()
	if len(labels) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", f.Name, f.Help, f.Name)
	for _, l := range labels {
		h := f.With(l)
		var cum int64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(b, "%s_bucket{%s=%q,le=%q} %d\n", f.Name, f.Label, l, formatBound(bound), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(b, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", f.Name, f.Label, l, cum)
		fmt.Fprintf(b, "%s_sum{%s=%q} %g\n", f.Name, f.Label, l, h.Sum())
		fmt.Fprintf(b, "%s_count{%s=%q} %d\n", f.Name, f.Label, l, h.Count())
	}
}

// formatBound renders a bucket bound without float noise ("0.001", "50000").
func formatBound(v float64) string {
	return fmt.Sprintf("%g", v)
}

// SummaryText renders the families' quantile summaries as human-readable
// lines — the compact view for logs and CLIs.
func (r *Registry) SummaryText() string {
	var b strings.Builder
	for _, f := range []*Family{r.QueryLatency, r.MorselLatency, r.QueryRows, r.QueueWait} {
		for _, l := range f.labels() {
			s := f.With(l).Summarize()
			fmt.Fprintf(&b, "%s{%s=%q} count=%d p50=%g p90=%g p99=%g\n",
				f.Name, f.Label, l, s.Count, s.P50, s.P90, s.P99)
		}
	}
	return b.String()
}
