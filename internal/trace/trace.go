// Package trace records opt-in per-query execution traces: per pipeline the
// morsel count, per-worker busy time and tuple counts, the hybrid backend's
// routing decisions (which morsels ran on compiled code vs the vectorized
// interpreter, the EWMA throughput series, when the background artifact
// landed), compile timing, and finalization time.
//
// The recording discipline keeps tracing out of the per-row hot path: every
// write happens at morsel granularity or coarser, each worker writes only its
// own pre-allocated Worker entry (no locks, no atomics), and with tracing off
// the scheduler skips all of it behind a single nil check per morsel.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"inkfuse/internal/stats"
)

// MaxEWMASamples caps the per-worker EWMA throughput series so long queries
// cannot grow a trace without bound; samples beyond the cap are counted in
// Worker.EWMADropped instead of stored.
const MaxEWMASamples = 512

// Query is the execution trace of one query: its pipelines, under the
// query's record, whose header (name, backend, workers, id, begin, wall,
// error) Dump and Spans render. A failed or canceled query still carries the
// pipelines that ran as a partial trace.
type Query struct {
	Rec       *stats.QueryRecord
	Pipelines []*Pipeline
}

// Pipeline is the trace of one pipeline's execution.
type Pipeline struct {
	Name string
	// Rows is the pipeline's source cardinality; Morsels the number of
	// morsels scheduled over it. On cancellation workers stop early, so the
	// per-worker morsel counts may sum to less than Morsels.
	Rows    int
	Morsels int
	// Start is the pipeline's begin offset from the record's Begin, so span export
	// can place pipelines on the query timeline.
	Start time.Duration
	// Workers is indexed by worker ID; each worker writes only its own entry.
	Workers []Worker
	// Wall spans runner construction (including any foreground compile wait)
	// through finalization; Finalize is the seal/merge tail alone.
	Wall     time.Duration
	Finalize time.Duration
	// Counters holds what the pipeline counted outside its morsels: the
	// runner's compile accounting (time, dead wait on foreground backends,
	// failed jobs). Total adds the workers' shares.
	Counters stats.Counters
	// Fused is what the closure compiler made of the pipeline's fused code
	// (vm.Rewrites: IR statements vs closures emitted, selection cascades,
	// fused key builds), one entry per compiled step; empty when the pipeline
	// had no compiled code (vectorized backend, hybrid before the artifact
	// landed). Present on plan-cache hits too, where nothing was compiled.
	Fused string
	// ArtifactReady is the offset from the record's Begin at which the hybrid
	// background artifact became available (0 = never landed).
	ArtifactReady time.Duration
	// SubOps is the sampled per-suboperator profile, merged across workers in
	// pipeline order; present only when the suboperator profiler ran (backends
	// serving through the vectorized interpreter with profiling enabled).
	SubOps []SubOpProf
	// ProfileEvery / ProfiledChunks describe the sample behind SubOps: one in
	// every ProfileEvery chunks was timed, ProfiledChunks in total.
	ProfileEvery   int
	ProfiledChunks int64
}

// SubOpProf is one suboperator's share of a pipeline's sampled profile: the
// primitive identity plus the calls, input tuples and nanoseconds attributed
// to it over the timed chunks.
type SubOpProf struct {
	ID     string
	Calls  int64
	Tuples int64
	Nanos  int64
}

// NanosPerTuple is the attributed cost per input tuple (0 when no tuples).
func (s SubOpProf) NanosPerTuple() float64 {
	if s.Tuples == 0 {
		return 0
	}
	return float64(s.Nanos) / float64(s.Tuples)
}

// Worker is one worker's share of a pipeline.
type Worker struct {
	// Busy is the time spent running morsels (excludes scheduling gaps).
	Busy    time.Duration
	Morsels int
	// Counters is what the worker's morsels counted, every stats.Schema row:
	// source tuples, the hybrid policy's routing (morsels_jit / morsels_vec;
	// for the compiling and ROF backends every morsel is JIT, the pure
	// vectorized backend reports neither), hash-table behaviour.
	Counters stats.Counters
	// EWMA is the hybrid routing-decision series (capped at MaxEWMASamples).
	EWMA        []EWMASample
	EWMADropped int
}

// EndMorsel adds a morsel's run time to the worker. Its counters reach the
// worker once per pipeline, as the difference of the slot's counters before
// and after the pipeline's morsels (stats.Counters.AddDelta).
func (w *Worker) EndMorsel(busy time.Duration) {
	w.Busy += busy
	w.Morsels++
}

// EWMASample is one measured morsel of the hybrid backend's throughput
// estimator: which backend served it and both EWMA estimates after the
// update (tuples/second).
type EWMASample struct {
	Morsel   int // worker-local morsel ordinal
	JIT      bool
	Tuples   int
	Duration time.Duration
	VecTput  float64
	JITTput  float64
}

// AddEWMA appends a sample, honouring the series cap.
//
//inkfuse:hotpath
func (w *Worker) AddEWMA(s EWMASample) {
	if len(w.EWMA) >= MaxEWMASamples {
		w.EWMADropped++
		return
	}
	w.EWMA = append(w.EWMA, s) //inklint:allow alloc — bounded by MaxEWMASamples and only when tracing is on
}

// NewQuery starts the trace of the query rec records.
func NewQuery(rec *stats.QueryRecord) *Query { return &Query{Rec: rec} }

// StartPipeline appends a pipeline trace with one pre-allocated Worker entry
// per worker, so the morsel loop records without allocating or locking.
func (q *Query) StartPipeline(name string, rows, morsels int) *Pipeline {
	p := &Pipeline{Name: name, Rows: rows, Morsels: morsels, Workers: make([]Worker, q.Rec.Workers)}
	q.Pipelines = append(q.Pipelines, p)
	return p
}

// Busy sums worker busy time across the pipeline.
func (p *Pipeline) Busy() time.Duration {
	var d time.Duration
	for i := range p.Workers {
		d += p.Workers[i].Busy
	}
	return d
}

// MorselsRun sums the morsels the workers actually ran (≤ Morsels scheduled
// when the query failed or was canceled mid-pipeline).
func (p *Pipeline) MorselsRun() int {
	n := 0
	for i := range p.Workers {
		n += p.Workers[i].Morsels
	}
	return n
}

// Total merges the pipeline's own counters with its workers' shares.
func (p *Pipeline) Total() stats.Counters {
	t := p.Counters
	for i := range p.Workers {
		t.Add(&p.Workers[i].Counters)
	}
	return t
}

// Total merges the counters of every pipeline that ran. On a query that
// completed it equals Result.Stats, except for the memory high-water mark,
// which is read off the budget at query end.
func (q *Query) Total() stats.Counters {
	var t stats.Counters
	for _, p := range q.Pipelines {
		pt := p.Total()
		t.Add(&pt)
	}
	return t
}

// Annotate writes the pipeline's measured numbers, one line each behind
// prefix: morsels and worker busy time, compile outcome, the sampled
// suboperator profile, the counters, hybrid routing, and finalization. A
// pipeline whose compile failed was served by the vectorized interpreter
// alone: it renders as degraded. EXPLAIN ANALYZE and Dump both render
// pipelines through it.
func (p *Pipeline) Annotate(b *strings.Builder, prefix string) {
	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	t := p.Total()
	fmt.Fprintf(b, "%s%d rows in %d morsels", prefix, p.Rows, p.Morsels)
	if run := p.MorselsRun(); run != p.Morsels {
		fmt.Fprintf(b, " (%d run before the query stopped)", run)
	}
	fmt.Fprintf(b, "; busy %v across %d workers", us(p.Busy()), len(p.Workers))
	if lo, med, hi, ok := p.BusyQuantiles(); ok {
		fmt.Fprintf(b, " (min %v / med %v / max %v)", us(lo), us(med), us(hi))
	}
	b.WriteByte('\n')
	if t.CompileTime > 0 || t.CompileWait > 0 || t.CompileErrors > 0 || p.Fused != "" {
		fmt.Fprintf(b, "%scompile: %v", prefix, us(t.CompileTime))
		if t.CompileWait > 0 {
			fmt.Fprintf(b, " (dead wait %v)", us(t.CompileWait))
		}
		if p.Fused != "" {
			fmt.Fprintf(b, ", fused: %s", p.Fused)
		}
		if p.ArtifactReady > 0 {
			fmt.Fprintf(b, ", artifact ready at +%v", us(p.ArtifactReady))
		}
		if t.CompileErrors > 0 {
			fmt.Fprintf(b, ", %d compile error(s) — DEGRADED to vectorized-only", t.CompileErrors)
		}
		b.WriteByte('\n')
	}
	if len(p.SubOps) > 0 {
		var total int64
		for _, s := range p.SubOps {
			total += s.Nanos
		}
		fmt.Fprintf(b, "%ssubops: sampled 1/%d chunks (%d profiled)\n", prefix, p.ProfileEvery, p.ProfiledChunks)
		for _, s := range p.SubOps {
			share := 0.0
			if total > 0 {
				share = 100 * float64(s.Nanos) / float64(total)
			}
			fmt.Fprintf(b, "%*s%-44s %5.1f%% %10v  calls=%-6d tuples=%-9d ns/tuple=%.1f\n", len(prefix)+2, "",
				s.ID, share, us(time.Duration(s.Nanos)), s.Calls, s.Tuples, s.NanosPerTuple())
		}
	}
	fmt.Fprintf(b, "%scounters: %s\n", prefix, &t)
	if jit, vec := t.MorselsCompiled, t.MorselsVectorized; jit+vec > 0 {
		fmt.Fprintf(b, "%srouting: %d jit / %d vectorized", prefix, jit, vec)
		if jit+vec == int64(p.MorselsRun()) {
			fmt.Fprintf(b, " (%.0f%% jit)", 100*float64(jit)/float64(jit+vec))
		}
		if ej, ev := p.FinalEWMA(); ej > 0 || ev > 0 {
			fmt.Fprintf(b, "; ewma jit=%s vec=%s", FormatTput(ej), FormatTput(ev))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(b, "%sfinalize %v; pipeline wall %v\n", prefix, us(p.Finalize), us(p.Wall))
}

// Dump renders the full trace, one block per pipeline with per-worker lines
// and the (truncated) EWMA series — the -trace output of cmd/inkbench.
func (q *Query) Dump() string {
	var b strings.Builder
	r := q.Rec
	fmt.Fprintf(&b, "trace %s: backend=%s workers=%d wall=%v", r.Name, r.Backend, r.Workers, r.Wall.Round(time.Microsecond))
	if r.Err != "" {
		fmt.Fprintf(&b, " err=%q", r.Err)
	}
	b.WriteByte('\n')
	for _, p := range q.Pipelines {
		fmt.Fprintf(&b, "pipeline %s:\n", p.Name)
		p.Annotate(&b, "  ")
		for w := range p.Workers {
			ws := &p.Workers[w]
			if ws.Morsels == 0 {
				continue
			}
			fmt.Fprintf(&b, "  w%d: %d morsels, busy=%v, %s\n", w, ws.Morsels, ws.Busy.Round(time.Microsecond), &ws.Counters)
			for _, s := range ws.EWMA {
				fmt.Fprintf(&b, "    m%-4d %-4s %7d tuples in %-10v ewma jit=%s vec=%s\n",
					s.Morsel, backendTag(s.JIT), s.Tuples, s.Duration.Round(100*time.Nanosecond),
					FormatTput(s.JITTput), FormatTput(s.VecTput))
			}
			if ws.EWMADropped > 0 {
				fmt.Fprintf(&b, "    ... %d further samples dropped (cap %d)\n", ws.EWMADropped, MaxEWMASamples)
			}
		}
	}
	return b.String()
}

func backendTag(jit bool) string {
	if jit {
		return "jit"
	}
	return "vec"
}

// FinalEWMA returns the mean of the workers' last EWMA estimates for the JIT
// and vectorized paths (0 when a path was never measured).
func (p *Pipeline) FinalEWMA() (jit, vec float64) {
	var jSum, vSum float64
	var jN, vN int
	for i := range p.Workers {
		ew := p.Workers[i].EWMA
		for k := len(ew) - 1; k >= 0; k-- {
			if ew[k].JITTput > 0 {
				jSum += ew[k].JITTput
				jN++
				break
			}
		}
		for k := len(ew) - 1; k >= 0; k-- {
			if ew[k].VecTput > 0 {
				vSum += ew[k].VecTput
				vN++
				break
			}
		}
	}
	if jN > 0 {
		jit = jSum / float64(jN)
	}
	if vN > 0 {
		vec = vSum / float64(vN)
	}
	return jit, vec
}

// BusyQuantiles reports min/median/max worker busy time over workers that ran
// at least one morsel; ok is false when no worker ran.
func (p *Pipeline) BusyQuantiles() (lo, med, hi time.Duration, ok bool) {
	var ds []time.Duration
	for i := range p.Workers {
		if p.Workers[i].Morsels > 0 {
			ds = append(ds, p.Workers[i].Busy)
		}
	}
	if len(ds) == 0 {
		return 0, 0, 0, false
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[0], ds[len(ds)/2], ds[len(ds)-1], true
}

// FormatTput renders a tuples/second rate compactly (e.g. "45.6M/s").
func FormatTput(v float64) string {
	switch {
	case v <= 0:
		return "-"
	case v >= 1e9:
		return fmt.Sprintf("%.1fG/s", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM/s", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fK/s", v/1e3)
	default:
		return fmt.Sprintf("%.0f/s", v)
	}
}
