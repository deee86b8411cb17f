// Package benchkit is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§VII): Fig 9 (relative backend
// throughput), Table I (low-level counters for Q1/Q4), Fig 10 (cross-system
// latency across scale factors with compile-wait accounting), and the
// ablation studies listed in DESIGN.md. It is shared by cmd/inkbench and the
// root bench_test.go.
package benchkit

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"inkfuse/internal/algebra"
	"inkfuse/internal/exec"
	"inkfuse/internal/stats"
	"inkfuse/internal/storage"
	"inkfuse/internal/tpch"
	"inkfuse/internal/volcano"
)

// Config parameterizes an experiment run.
type Config struct {
	SF      float64 // scale factor (SF 1 ≈ 6M lineitem rows)
	Seed    uint64
	Workers int
	Runs    int // timing repetitions; the median is reported
	Queries []string
}

// WithDefaults fills unset fields. Workers resolves to GOMAXPROCS here, once,
// so a table's heading, its env line and its runs name the same count.
func (c Config) WithDefaults() Config {
	if c.SF == 0 {
		c.SF = 0.05
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
	if len(c.Queries) == 0 {
		c.Queries = tpch.Queries
	}
	return c
}

// Cell is one measurement: the run's query record (wall time, rows,
// counters — compile wait among them — and warnings) under the query and
// system it measured. A degraded cell (a hybrid background compile failed and
// its pipeline was served vectorized-only) is not a faithful measurement of
// the configured system; it is flagged in every rendering so it cannot
// silently corrupt the Fig 9/10 shapes.
type Cell struct {
	Query, System string
	stats.QueryRecord
}

// System is a named execution configuration.
type System struct {
	Name    string
	Backend exec.Backend
	Latency exec.LatencyModel
	Volcano bool // tuple-at-a-time baseline instead of the engine
}

// Paper-aligned system lineups (stand-ins documented in DESIGN.md §2).
var (
	// Fig9Systems are the InkFuse execution backends compared in Fig 9.
	Fig9Systems = []System{
		{Name: "vectorized", Backend: exec.BackendVectorized},
		{Name: "compiling", Backend: exec.BackendCompiling, Latency: exec.LatencyC},
		{Name: "rof", Backend: exec.BackendROF, Latency: exec.LatencyC},
		{Name: "hybrid", Backend: exec.BackendHybrid, Latency: exec.LatencyC},
	}
	// Table1Systems are the two backends whose counter proxies Table I
	// contrasts.
	Table1Systems = []System{
		{Name: "vectorized", Backend: exec.BackendVectorized},
		{Name: "compiling", Backend: exec.BackendCompiling, Latency: exec.LatencyC},
	}
	// Table1Queries are the paper's Table I queries: Q1 (compute-bound) and
	// Q4 (probe-bound).
	Table1Queries = []string{"q1", "q4"}
	// Fig10Systems are the cross-system comparison of Fig 10.
	Fig10Systems = []System{
		{Name: "volcano", Volcano: true},
		{Name: "duckdb-class(vec)", Backend: exec.BackendVectorized},
		{Name: "umbra-llvm-like", Backend: exec.BackendCompiling, Latency: exec.LatencyLLVM},
		{Name: "umbra-hybrid-like", Backend: exec.BackendHybrid, Latency: exec.LatencyFastPath},
		{Name: "inkfuse-compiling", Backend: exec.BackendCompiling, Latency: exec.LatencyC},
		{Name: "inkfuse-rof", Backend: exec.BackendROF, Latency: exec.LatencyC},
		{Name: "inkfuse-hybrid", Backend: exec.BackendHybrid, Latency: exec.LatencyC},
	}
	// ROFSplitSystems are the pipeline-split granularities of the ROF-split
	// ablation: no splits, splits before probes, a split after every
	// suboperator.
	ROFSplitSystems = []System{
		{Name: "no-splits(compiling)", Backend: exec.BackendCompiling, Latency: exec.LatencyNone},
		{Name: "split-at-probes(rof)", Backend: exec.BackendROF, Latency: exec.LatencyNone},
		{Name: "split-everywhere(vectorized)", Backend: exec.BackendVectorized},
	}
)

// RunOnce executes one query on one system against a prepared catalog,
// lowering the plan fresh (cold compile, as each query enters the system
// anew in the paper's setup). Workers is the only Config field used.
func RunOnce(cat *storage.Catalog, query string, sys System, cfg Config) (Cell, error) {
	node, err := tpch.Build(cat, query)
	if err != nil {
		return Cell{}, err
	}
	if sys.Volcano {
		start := time.Now()
		out, err := volcano.Run(node)
		if err != nil {
			return Cell{}, err
		}
		c := Cell{Query: query, System: sys.Name}
		c.Wall, c.Rows = time.Since(start), out.Rows()
		return c, nil
	}
	plan, err := algebra.Lower(node, query)
	if err != nil {
		return Cell{}, err
	}
	lat := sys.Latency
	res, err := exec.Execute(plan, exec.Options{
		Backend: sys.Backend,
		Workers: cfg.Workers,
		Latency: &lat,
	})
	if err != nil {
		return Cell{}, err
	}
	// A degraded run (background compile failed, pipeline served by the
	// interpreter) must not masquerade as a normal measurement: surface the
	// warnings immediately and flag the cell.
	for _, w := range res.Warnings {
		fmt.Fprintf(os.Stderr, "benchkit: %s/%s: warning: %v\n", query, sys.Name, w)
	}
	return Cell{Query: query, System: sys.Name, QueryRecord: res.QueryRecord}, nil
}

// Measure repeats RunOnce and returns the cell with the median wall time.
// One untimed warmup run absorbs first-touch effects (heap growth, primitive
// cache instantiation) that would otherwise be charged to whichever system
// happens to run first. The median cell carries the warnings of every timed
// repetition, so it reads as degraded if ANY repetition degraded — a
// partially degraded series is not a faithful measurement even when the
// median run happened to be clean.
func Measure(cat *storage.Catalog, query string, sys System, cfg Config) (Cell, error) {
	if _, err := RunOnce(cat, query, sys, cfg); err != nil {
		return Cell{}, err
	}
	cells := make([]Cell, 0, cfg.Runs)
	var warnings []error
	for i := 0; i < cfg.Runs; i++ {
		c, err := RunOnce(cat, query, sys, cfg)
		if err != nil {
			return Cell{}, err
		}
		warnings = append(warnings, c.Warnings...)
		cells = append(cells, c)
	}
	sort.Slice(cells, func(a, b int) bool { return cells[a].Wall < cells[b].Wall })
	med := cells[len(cells)/2]
	med.Warnings = warnings
	return med, nil
}

// Fig9 measures the relative throughput of the InkFuse backends against the
// vectorized backend (paper Fig 9). Compile wait is subtracted before
// forming the ratio: the paper runs at SF 100 where compilation is fully
// amortized, which small local scale factors would otherwise distort.
func Fig9(cfg Config) (map[string]map[string]float64, []Cell, error) {
	cfg = cfg.WithDefaults()
	cat := tpch.Generate(cfg.SF, cfg.Seed)
	rel := make(map[string]map[string]float64)
	var cells []Cell
	for _, q := range cfg.Queries {
		rel[q] = make(map[string]float64)
		var vec time.Duration
		for _, sys := range Fig9Systems {
			c, err := Measure(cat, q, sys, cfg)
			if err != nil {
				return nil, nil, fmt.Errorf("fig9 %s/%s: %w", q, sys.Name, err)
			}
			cells = append(cells, c)
			execTime := c.Wall - c.Stats.CompileWait
			if execTime <= 0 {
				execTime = c.Wall
			}
			if sys.Name == "vectorized" {
				vec = execTime
			}
			rel[q][sys.Name] = float64(vec) / float64(execTime)
		}
	}
	return rel, cells, nil
}

// Table1 gathers the low-level counter proxies for the configured queries
// (the paper's are Table1Queries) on the vectorized and compiling backends
// (paper Table I).
func Table1(cfg Config) ([]Cell, error) {
	cfg = cfg.WithDefaults()
	cat := tpch.Generate(cfg.SF, cfg.Seed)
	var out []Cell
	for _, q := range cfg.Queries {
		for _, sys := range Table1Systems {
			c, err := Measure(cat, q, sys, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
	}
	return out, nil
}

// Fig10 measures end-to-end latency (with compile wait) across scale
// factors for the cross-system lineup (paper Fig 10).
func Fig10(cfg Config, sfs []float64) ([]Cell, error) {
	cfg = cfg.WithDefaults()
	var out []Cell
	for _, sf := range sfs {
		cat := tpch.Generate(sf, cfg.Seed)
		for _, q := range cfg.Queries {
			for _, sys := range Fig10Systems {
				c, err := Measure(cat, q, sys, cfg)
				if err != nil {
					return nil, fmt.Errorf("fig10 sf=%g %s/%s: %w", sf, q, sys.Name, err)
				}
				c.System = fmt.Sprintf("sf%g/%s", sf, c.System)
				out = append(out, c)
			}
		}
	}
	return out, nil
}

// DegradedCells indexes the degraded measurements by query and system, for
// renderings (like the Fig 9 ratio table) that no longer carry the cells.
func DegradedCells(cells []Cell) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, c := range cells {
		if !c.Degraded() {
			continue
		}
		if out[c.Query] == nil {
			out[c.Query] = map[string]bool{}
		}
		out[c.Query][c.System] = true
	}
	return out
}

// degradedFootnote explains the '*' marker once per table.
const degradedFootnote = "* degraded: a background compile failed during measurement (served vectorized-only); not a faithful measurement of this system"

// PrintFig9 renders Fig 9 as a relative-throughput table. degraded (from
// DegradedCells; nil allowed) marks cells measured under a failed background
// compile with '*'.
func PrintFig9(w io.Writer, rel map[string]map[string]float64, queries []string, degraded map[string]map[string]bool) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "query\tvectorized\tcompiling\trof\thybrid")
	anyDegraded := false
	for _, q := range queries {
		r := rel[q]
		fmt.Fprintf(tw, "%s", q)
		for _, sys := range []string{"vectorized", "compiling", "rof", "hybrid"} {
			mark := ""
			if degraded[q][sys] {
				mark = "*"
				anyDegraded = true
			}
			fmt.Fprintf(tw, "\t%.2fx%s", r[sys], mark)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	if anyDegraded {
		fmt.Fprintln(w, degradedFootnote)
	}
}

// PrintCells renders measurement cells with compile-wait accounting (the
// dashed bar areas of Fig 10). Degraded cells are marked with '*'.
func PrintCells(w io.Writer, cells []Cell) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "query\tsystem\twall\tcompile-wait\trows")
	anyDegraded := false
	for _, c := range cells {
		mark := ""
		if c.Degraded() {
			mark = "*"
			anyDegraded = true
		}
		fmt.Fprintf(tw, "%s\t%s%s\t%v\t%v\t%d\n",
			c.Query, c.System, mark, c.Wall.Round(10*time.Microsecond),
			c.Stats.CompileWait.Round(10*time.Microsecond), c.Rows)
	}
	tw.Flush()
	if anyDegraded {
		fmt.Fprintln(w, degradedFootnote)
	}
}

// PrintTable1 renders the Table I counter proxies per tuple. exec-time is
// wall minus compile wait, the paper's steady-state execution cost. Degraded
// cells are marked with '*'.
func PrintTable1(w io.Writer, cells []Cell) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "query\tbackend\texec-time\tcompile-wait\tvm-ops/tuple\tbuffer-bytes/tuple\tht-probes/tuple\tprimitive-calls\tfused-calls")
	anyDegraded := false
	for _, c := range cells {
		s := c.Stats
		mark := ""
		if c.Degraded() {
			mark = "*"
			anyDegraded = true
		}
		fmt.Fprintf(tw, "%s\t%s%s\t%v\t%v\t%s\t%s\t%s\t%d\t%d\n",
			c.Query, c.System, mark, (c.Wall - s.CompileWait).Round(10*time.Microsecond),
			s.CompileWait.Round(10*time.Microsecond),
			s.PerTuple(s.VMOps), s.PerTuple(s.MaterializedBytes), s.PerTuple(s.HTProbes),
			s.PrimitiveCalls, s.FusedCalls)
	}
	tw.Flush()
	if anyDegraded {
		fmt.Fprintln(w, degradedFootnote)
	}
}
