// Package stats collects engine-internal execution counters. They stand in
// for the hardware performance counters of the paper's Table I (see
// DESIGN.md §2): VM value operations approximate retired instructions, and
// materialized buffer traffic plus hash-table probe volume approximate the
// memory-system behaviour the paper attributes LLC-miss differences to.
package stats

import (
	"fmt"
	"iter"
	"strings"
	"time"
)

// Counters accumulates per-worker execution statistics. Workers own private
// instances (no atomics on hot paths) that are merged after the query.
type Counters struct {
	// Tuples is the number of tuples entering pipelines (source rows).
	Tuples int64
	// VMOps counts the rows compiled programs and primitives actually visit:
	// every emitted operation adds the length of the loop it runs — the
	// instruction proxy. It is not rows × IR statements: each selector of a
	// filter's cascade counts only the survivors it is handed, and a
	// statement run fused into one operation (the key build) counts its rows
	// once (DESIGN.md §17). Gathers through a selection are not counted.
	VMOps int64
	// MaterializedBytes counts bytes written into tuple buffers between
	// steps — the vectorized interpreter's extra memory traffic.
	MaterializedBytes int64
	// PrimitiveCalls counts vectorized-primitive invocations.
	PrimitiveCalls int64
	// FusedCalls counts fused-program invocations (whole-pipeline programs run
	// a morsel in batches, ROF steps chunk by chunk).
	FusedCalls int64
	// HTProbes / HTMatches count hash-table lookups and produced matches.
	HTProbes  int64
	HTMatches int64
	// HTInserts counts hash-table inserts (join build + new agg groups).
	HTInserts int64
	// HTLocalHits and HTSpills counted the thread-local pre-aggregation
	// tier's hits and flushed rows. The engine has no such tier any more and
	// Schema no row for them, so they stay 0; the benchmark harness's
	// rt.local_hit_ratio and rt.spills_per_query (bench/replay.go) are their
	// only readers, and they go when those metrics are retired.
	HTLocalHits int64
	HTSpills    int64
	// HTBloomSkips counts join probes answered "definitely absent" by the
	// build-side bloom/tag filter without touching bucket memory.
	HTBloomSkips int64
	// EmittedRows counts rows emitted by sinks.
	EmittedRows int64
	// MorselsVectorized / MorselsCompiled count the hybrid backend's routing.
	MorselsVectorized int64
	MorselsCompiled   int64
	// CompileWait is the wall-clock time the query spent with no compiled
	// code available while a backend wanted it (the dashed bars of Fig 10).
	CompileWait time.Duration
	// CompileTime is the total time spent compiling (background or not).
	CompileTime time.Duration
	// CompileErrors counts failed compilation jobs. Background (hybrid)
	// failures degrade the pipeline to the vectorized interpreter instead of
	// failing the query, so a nonzero count with a successful result means
	// the engine ran degraded.
	CompileErrors int64
	// CompilesAbandoned counts background (hybrid) compilation jobs that had
	// not landed when their query ended: compile effort too late to serve the
	// query. Without an artifact set the job is then canceled; with one it
	// lands later and serves the plan instance's next execution.
	CompilesAbandoned int64
	// PanicsRecovered counts panics the lifecycle layer caught and converted
	// into per-query errors (one per failed morsel or finalization).
	PanicsRecovered int64
	// MemPeakBytes is the high-water mark of budget-accounted runtime-state
	// bytes (arenas, hash-table bookkeeping); 0 unless a budget was set.
	MemPeakBytes int64
}

// Row declares one counter: the name each sink exports it under and how two
// values of it combine. Schema is the only list of counters in the repository;
// merging, the engine-wide registry, /metrics, the query log, span attributes
// and EXPLAIN ANALYZE / trace counter lines all loop over it (DESIGN.md §8
// "Telemetry schema").
type Row struct {
	// Name is the per-query name: query-log key, span attribute ("inkfuse." +
	// NumName) and the label on EXPLAIN ANALYZE / trace lines.
	Name string
	// Engine is the name of the process-wide series this counter folds into at
	// query end (/metrics and /debug/vars add the "inkfuse_" prefix).
	Engine string
	// Max marks a high-water mark: it merges by max instead of by sum, and the
	// engine-wide series is a gauge, not a counter.
	Max bool
	// Dur marks a time.Duration field: logs and EXPLAIN render it as a
	// duration, numeric sinks as nanoseconds under NumName.
	Dur bool
	// Of locates the counter's field inside a Counters.
	Of func(*Counters) *int64
}

// NumName is the name the numeric per-query sink (span attributes) uses:
// durations carry their unit.
func (r *Row) NumName() string {
	if r.Dur {
		return r.Name + "_ns"
	}
	return r.Name
}

// Schema lists every counter, in rendering order. Adding a counter is a field
// on Counters, a row here and the increment site — nothing else.
var Schema = []Row{
	{Name: "tuples", Engine: "tuples", Of: func(c *Counters) *int64 { return &c.Tuples }},
	{Name: "emitted_rows", Engine: "emitted_rows", Of: func(c *Counters) *int64 { return &c.EmittedRows }},
	{Name: "vm_ops", Engine: "vm_ops", Of: func(c *Counters) *int64 { return &c.VMOps }},
	{Name: "materialized_bytes", Engine: "materialized_bytes", Of: func(c *Counters) *int64 { return &c.MaterializedBytes }},
	{Name: "primitive_calls", Engine: "primitive_calls", Of: func(c *Counters) *int64 { return &c.PrimitiveCalls }},
	{Name: "fused_calls", Engine: "fused_calls", Of: func(c *Counters) *int64 { return &c.FusedCalls }},
	{Name: "ht_probes", Engine: "ht_probes_total", Of: func(c *Counters) *int64 { return &c.HTProbes }},
	{Name: "ht_matches", Engine: "ht_matches_total", Of: func(c *Counters) *int64 { return &c.HTMatches }},
	{Name: "ht_inserts", Engine: "ht_inserts_total", Of: func(c *Counters) *int64 { return &c.HTInserts }},
	{Name: "ht_bloom_skips", Engine: "ht_bloom_skips_total", Of: func(c *Counters) *int64 { return &c.HTBloomSkips }},
	{Name: "morsels_jit", Engine: "morsels_jit", Of: func(c *Counters) *int64 { return &c.MorselsCompiled }},
	{Name: "morsels_vec", Engine: "morsels_vec", Of: func(c *Counters) *int64 { return &c.MorselsVectorized }},
	{Name: "compile_time", Engine: "compile_nanos", Dur: true, Of: func(c *Counters) *int64 { return (*int64)(&c.CompileTime) }},
	{Name: "compile_wait", Engine: "compile_wait_nanos", Dur: true, Of: func(c *Counters) *int64 { return (*int64)(&c.CompileWait) }},
	{Name: "compile_errors", Engine: "compile_errors", Of: func(c *Counters) *int64 { return &c.CompileErrors }},
	{Name: "compiles_abandoned", Engine: "compiles_abandoned", Of: func(c *Counters) *int64 { return &c.CompilesAbandoned }},
	{Name: "panics_recovered", Engine: "panics_recovered", Of: func(c *Counters) *int64 { return &c.PanicsRecovered }},
	{Name: "mem_peak_bytes", Engine: "mem_peak_bytes", Max: true, Of: func(c *Counters) *int64 { return &c.MemPeakBytes }},
}

// zero is the reading Add measures from.
var zero Counters

// Add merges o into c.
func (c *Counters) Add(o *Counters) { c.AddDelta(o, &zero) }

// AddDelta merges what happened between two readings of one accumulating
// Counters (since, then now) into c: sums grow by the difference; a high-water
// mark counts only if it rose in between (one that did not says nothing about
// the interval). The executor takes the readings around a morsel, so a trace
// attributes counters to pipelines and workers without touching hot paths.
func (c *Counters) AddDelta(now, since *Counters) {
	for i := range Schema {
		r := &Schema[i]
		v, n, s := r.Of(c), *r.Of(now), *r.Of(since)
		switch {
		case !r.Max:
			*v += n - s
		case n > s:
			*v = max(*v, n)
		}
	}
}

// Nonzero yields the counters that are set, in schema order — the elision
// every per-query sink applies.
func (c *Counters) Nonzero() iter.Seq2[*Row, int64] {
	return func(yield func(*Row, int64) bool) {
		for i := range Schema {
			if v := *Schema[i].Of(c); v != 0 && !yield(&Schema[i], v) {
				return
			}
		}
	}
}

// String renders the set counters as "name=value" pairs, the counter line of
// EXPLAIN ANALYZE and the trace dump.
func (c *Counters) String() string {
	var b strings.Builder
	for r, v := range c.Nonzero() {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if r.Dur {
			fmt.Fprintf(&b, "%s=%v", r.Name, time.Duration(v).Round(time.Microsecond))
		} else {
			fmt.Fprintf(&b, "%s=%d", r.Name, v)
		}
	}
	return b.String()
}

// PerTuple formats a counter normalized by processed tuples.
func (c *Counters) PerTuple(v int64) string {
	if c.Tuples == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", float64(v)/float64(c.Tuples))
}
