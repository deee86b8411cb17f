package vm_test

// The fused build pipelines of TPC-H q1 and q6, compiled as the compiling, ROF
// and hybrid backends compile them, run morsel by morsel outside the executor:
// the closure compiler's own benchmark (DESIGN.md §17) and its steady-state
// allocation guard. (The package is vm_test because the plans come from
// tpch/algebra/core, which the vm package itself must not import.)

import (
	"testing"

	"inkfuse/internal/algebra"
	"inkfuse/internal/core"
	"inkfuse/internal/storage"
	"inkfuse/internal/tpch"
	"inkfuse/internal/vm"
)

// fusedBuild is one query's build pipeline (scan → filter → map → aggregate),
// closure-compiled, with the runtime state of its lowered plan — constants
// and tables pre-bound — and its source columns.
type fusedBuild struct {
	prog   *vm.Program
	states []any
	cols   []*storage.Vector
	rows   int
}

func newFusedBuild(tb testing.TB, cat *storage.Catalog, query string) *fusedBuild {
	tb.Helper()
	node, err := tpch.Build(cat, query)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := algebra.Lower(node, query)
	if err != nil {
		tb.Fatal(err)
	}
	pipe := plan.Pipelines[0]
	fn, states, err := pipe.GenFused()
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := vm.Compile(fn)
	if err != nil {
		tb.Fatal(err)
	}
	scan := pipe.Source.(*core.TableScan)
	fb := &fusedBuild{prog: prog, states: states, rows: scan.Table.Rows()}
	for _, ci := range scan.Cols {
		fb.cols = append(fb.cols, scan.Table.Cols[ci])
	}
	return fb
}

// morsel points views at rows [lo, hi) of the source.
func (fb *fusedBuild) morsel(views []*storage.Vector, lo, hi int) {
	for i, c := range fb.cols {
		c.SliceInto(views[i], lo, hi)
	}
}

// run executes the pipeline over every whole morsel of the source, with the
// executor's morsel-boundary flush, and returns the rows processed.
func (fb *fusedBuild) run(ctx *vm.Ctx, views []*storage.Vector) int {
	n := 0
	for lo := 0; lo+storage.DefaultMorselRows <= fb.rows; lo += storage.DefaultMorselRows {
		fb.morsel(views, lo, lo+storage.DefaultMorselRows)
		fb.prog.Run(ctx, fb.states, views, storage.DefaultMorselRows, nil)
		ctx.FlushLocalAggs()
		n += storage.DefaultMorselRows
	}
	return n
}

func (fb *fusedBuild) views() []*storage.Vector {
	views := make([]*storage.Vector, len(fb.cols))
	for i := range views {
		views[i] = &storage.Vector{}
	}
	return views
}

// BenchmarkFusedProgram reports ns/row and allocs/op of the compiled build
// pipelines over 16 384-row morsels of SF 0.05 lineitem (18 morsels per op).
func BenchmarkFusedProgram(b *testing.B) {
	cat := tpch.Generate(0.05, 42)
	for _, q := range []string{"q1", "q6"} {
		b.Run(q+"_build", func(b *testing.B) {
			fb := newFusedBuild(b, cat, q)
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
// and the worker-local table have reached their size, a morsel through the
// selection cascade (q6) and the fused key build (q1) allocates nothing.
func TestFusedProgramZeroAllocs(t *testing.T) {
	cat := tpch.Generate(0.02, 42)
	for _, q := range []string{"q1", "q6"} {
		fb := newFusedBuild(t, cat, q)
		ctx, views := vm.NewCtx(), fb.views()
		fb.run(ctx, views)
		if allocs := testing.AllocsPerRun(5, func() { fb.run(ctx, views) }); allocs != 0 {
			t.Errorf("%s build pipeline: %.1f allocs per steady-state pass, want 0", q, allocs)
		}
	}
}
