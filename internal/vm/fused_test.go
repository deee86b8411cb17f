package vm_test

// The fused build pipelines of TPC-H q1 and q6 and the lineitem probe pipelines
// of q3 and q5, compiled as the compiling, ROF and hybrid backends compile
// them, run morsel by morsel outside the executor: the closure compiler's own
// benchmark (DESIGN.md §17, §19) and its steady-state allocation guard. (The
// package is vm_test because the plans come from tpch/algebra/core, which the
// vm package itself must not import.)

import (
	"testing"

	"inkfuse/internal/algebra"
	"inkfuse/internal/core"
	"inkfuse/internal/storage"
	"inkfuse/internal/tpch"
	"inkfuse/internal/vm"
)

// fusedBuild is one pipeline of a query — the build pipeline of q1 or q6 (scan
// → filter → map → aggregate), the lineitem pipeline of q3 or q5 (scan → filter
// → probe(s) → aggregate) — closure-compiled, with the runtime state of its
// lowered plan — constants and tables pre-bound — and its source columns.
type fusedBuild struct {
	prog   *vm.Program
	states []any
	cols   []*storage.Vector
	rows   int
	// batch is the rows handed to the program per call: a whole morsel for the
	// build pipelines (the numbers of DESIGN.md §17), the executor's 2 048 for
	// the probe pipelines (§18, §19).
	batch int
}

func compilePipe(tb testing.TB, pipe *core.Pipeline, batch int) *fusedBuild {
	tb.Helper()
	fn, states, err := pipe.GenFused()
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := vm.Compile(fn)
	if err != nil {
		tb.Fatal(err)
	}
	scan := pipe.Source.(*core.TableScan)
	fb := &fusedBuild{prog: prog, states: states, rows: scan.Table.Rows(), batch: batch}
	for i := range scan.Cols {
		fb.cols = append(fb.cols, scan.Column(i))
	}
	return fb
}

func lowered(tb testing.TB, cat *storage.Catalog, query string) *core.Plan {
	tb.Helper()
	node, err := tpch.Build(cat, query)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := algebra.Lower(node, query)
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

func newFusedBuild(tb testing.TB, cat *storage.Catalog, query string) *fusedBuild {
	tb.Helper()
	return compilePipe(tb, lowered(tb, cat, query).Pipelines[0], storage.DefaultMorselRows)
}

// probeBatchRows is exec's fusedBatchRows: what a fused program is handed per
// call by the compiling and hybrid backends.
const probeBatchRows = 2048

// newFusedProbe returns the query's lineitem pipeline — its probes against
// tables the pipelines before it have built and sealed here, once.
func newFusedProbe(tb testing.TB, cat *storage.Catalog, query string) *fusedBuild {
	tb.Helper()
	for _, pipe := range lowered(tb, cat, query).Pipelines {
		scan, ok := pipe.Source.(*core.TableScan)
		if !ok {
			break
		}
		fb := compilePipe(tb, pipe, probeBatchRows)
		if scan.Table.Name == "lineitem" {
			return fb
		}
		fb.runRows(vm.NewCtx(), fb.views(), fb.rows)
		for _, js := range pipe.SealJoins {
			js.Table.Seal()
		}
	}
	tb.Fatalf("%s has no lineitem pipeline fed by table scans only", query)
	return nil
}

// morsel points views at rows [lo, hi) of the source.
func (fb *fusedBuild) morsel(views []*storage.Vector, lo, hi int) {
	for i, c := range fb.cols {
		c.SliceInto(views[i], lo, hi)
	}
}

// run executes the pipeline over every whole morsel of the source and returns
// the rows processed.
func (fb *fusedBuild) run(ctx *vm.Ctx, views []*storage.Vector) int {
	return fb.runRows(ctx, views, fb.rows-fb.rows%storage.DefaultMorselRows)
}

// runRows executes the pipeline over the first rows rows of the source.
func (fb *fusedBuild) runRows(ctx *vm.Ctx, views []*storage.Vector, rows int) int {
	for lo := 0; lo < rows; lo += storage.DefaultMorselRows {
		end := min(lo+storage.DefaultMorselRows, rows)
		for b := lo; b < end; b += fb.batch {
			fb.morsel(views, b, min(b+fb.batch, end))
			fb.prog.Run(ctx, fb.states, views, min(b+fb.batch, end)-b, nil)
		}
	}
	return rows
}

func (fb *fusedBuild) views() []*storage.Vector {
	views := make([]*storage.Vector, len(fb.cols))
	for i := range views {
		views[i] = &storage.Vector{}
	}
	return views
}

// fusedPrograms names the benchmarked pipelines and how each is set up.
var fusedPrograms = []struct {
	name, query string
	setup       func(testing.TB, *storage.Catalog, string) *fusedBuild
}{
	{"q1_build", "q1", newFusedBuild},
	{"q6_build", "q6", newFusedBuild},
	{"q3_probe", "q3", newFusedProbe},
	{"q5_probe", "q5", newFusedProbe},
}

// BenchmarkFusedProgram reports ns/row and allocs/op of the compiled build
// pipelines (q1, q6) and lineitem probe pipelines (q3, q5: against pre-built,
// sealed join tables) over 16 384-row morsels of SF 0.05 lineitem (18 morsels
// per op).
func BenchmarkFusedProgram(b *testing.B) {
	cat := tpch.Generate(0.05, 42)
	for _, fp := range fusedPrograms {
		b.Run(fp.name, func(b *testing.B) {
			fb := fp.setup(b, cat, fp.query)
			ctx, views := vm.NewCtx(), fb.views()
			fb.run(ctx, views) // registers, scratch and tables reach their size
			b.ReportAllocs()
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				rows += fb.run(ctx, views)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
		})
	}
}

// TestFusedProgramZeroAllocs: once registers, selection vectors, key buffers
// and the worker's aggregation table have reached their size, a morsel
// through the selection cascade (q6), the fused key build (q1) and the fused
// key probes with their carried columns (q3, q5) allocates nothing. q5 carries n_name
// through its joins as a dictionary code (DESIGN.md §20): no string is read
// out of a matched build row, so no match allocates either.
func TestFusedProgramZeroAllocs(t *testing.T) {
	cat := tpch.Generate(0.02, 42)
	for _, fp := range fusedPrograms {
		fb := fp.setup(t, cat, fp.query)
		ctx, views := vm.NewCtx(), fb.views()
		fb.run(ctx, views)
		if allocs := testing.AllocsPerRun(5, func() { fb.run(ctx, views) }); allocs > 0 {
			t.Errorf("%s: %.1f allocs per steady-state pass, want 0", fp.name, allocs)
		}
	}
}
