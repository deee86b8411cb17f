// Package stats collects engine-internal execution counters. They stand in
// for the hardware performance counters of the paper's Table I (see
// DESIGN.md §2): VM value operations approximate retired instructions, and
// materialized buffer traffic plus hash-table probe volume approximate the
// memory-system behaviour the paper attributes LLC-miss differences to.
package stats

import (
	"fmt"
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
	// FusedCalls counts fused-program invocations (one per morsel).
	FusedCalls int64
	// HTProbes / HTMatches count hash-table lookups and produced matches.
	HTProbes  int64
	HTMatches int64
	// HTInserts counts hash-table inserts (join build + new agg groups).
	HTInserts int64
	// HTLocalHits counts aggregation lookups absorbed by a worker's bounded
	// thread-local pre-aggregation table (no shard lock taken).
	HTLocalHits int64
	// HTSpills counts local pre-aggregation group rows merged into the
	// worker's sharded table at morsel boundaries or on overflow.
	HTSpills int64
	// HTBloomSkips counts join probes answered "definitely absent" by the
	// build-side bloom/tag filter without touching bucket memory.
	HTBloomSkips int64
	// PartRoutedRows counts rows hash-routed through local exchanges
	// (DESIGN.md §15); 0 unless a plan was lowered with Exchange on.
	PartRoutedRows int64
	// PartMaxPartRows is the largest single exchange partition's routed-row
	// count across the query — the skew signal (a perfectly uniform exchange
	// has PartRoutedRows / partitions per partition).
	PartMaxPartRows int64
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
	// PanicsRecovered counts panics the lifecycle layer caught and converted
	// into per-query errors (one per failed morsel or finalization).
	PanicsRecovered int64
	// MemPeakBytes is the high-water mark of budget-accounted runtime-state
	// bytes (arenas, hash-table bookkeeping); 0 unless a budget was set.
	MemPeakBytes int64
}

// Add merges o into c.
func (c *Counters) Add(o *Counters) {
	c.Tuples += o.Tuples
	c.VMOps += o.VMOps
	c.MaterializedBytes += o.MaterializedBytes
	c.PrimitiveCalls += o.PrimitiveCalls
	c.FusedCalls += o.FusedCalls
	c.HTProbes += o.HTProbes
	c.HTMatches += o.HTMatches
	c.HTInserts += o.HTInserts
	c.HTLocalHits += o.HTLocalHits
	c.HTSpills += o.HTSpills
	c.HTBloomSkips += o.HTBloomSkips
	c.PartRoutedRows += o.PartRoutedRows
	c.PartMaxPartRows = max(c.PartMaxPartRows, o.PartMaxPartRows)
	c.EmittedRows += o.EmittedRows
	c.MorselsVectorized += o.MorselsVectorized
	c.MorselsCompiled += o.MorselsCompiled
	c.CompileWait += o.CompileWait
	c.CompileTime += o.CompileTime
	c.CompileErrors += o.CompileErrors
	c.PanicsRecovered += o.PanicsRecovered
	c.MemPeakBytes = max(c.MemPeakBytes, o.MemPeakBytes)
}

// PerTuple formats a counter normalized by processed tuples.
func (c *Counters) PerTuple(v int64) string {
	if c.Tuples == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", float64(v)/float64(c.Tuples))
}
