package exec

// Microbenchmarks for the per-morsel hot loops, one per backend. Run with
// -benchmem: the interpreter's chunk loop and the fused step chain's batch
// loop must not allocate per chunk (the per-worker scratch headers are
// reused), which removes ~3 allocs per chunk (the []*Vector slice plus one
// header per input column) versus slicing fresh vectors each iteration.

import (
	"testing"

	"inkfuse/internal/algebra"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
)

func benchTable(rows int) *storage.Table {
	t := storage.NewTable("bench", types.Schema{
		{Name: "a", Kind: types.Int64},
		{Name: "b", Kind: types.Float64},
	})
	for i := 0; i < rows; i++ {
		t.AppendRow(int64(i%1000), float64(i%13)+0.25)
	}
	return t
}

func benchNode(tbl *storage.Table) algebra.Node {
	return algebra.NewGroupBy(
		algebra.NewFilter(algebra.NewScan(tbl, "a", "b"), algebra.Gt(algebra.Col("a"), algebra.I64(10))),
		nil, algebra.Sum("b", "s"), algebra.Count("n"))
}

func benchmarkBackend(b *testing.B, backend Backend, rows int) {
	benchmarkOpts(b, Options{Backend: backend, Workers: 2}, rows)
}

func benchmarkOpts(b *testing.B, opts Options, rows int) {
	tbl := benchTable(rows)
	node := benchNode(tbl)
	lat := LatencyNone
	opts.Latency = &lat
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := algebra.Lower(node, "bench")
		if err != nil {
			b.Fatal(err)
		}
		res, err := Execute(plan, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows() != 1 {
			b.Fatalf("rows = %d", res.Rows())
		}
	}
}

// Each backend runs at two data sizes so the per-chunk allocation component
// is visible in the delta between them.
func BenchmarkMorselLoopVectorized(b *testing.B) {
	b.Run("rows=100k", func(b *testing.B) { benchmarkBackend(b, BackendVectorized, 100_000) })
	b.Run("rows=400k", func(b *testing.B) { benchmarkBackend(b, BackendVectorized, 400_000) })
}

func BenchmarkMorselLoopCompiling(b *testing.B) {
	b.Run("rows=100k", func(b *testing.B) { benchmarkBackend(b, BackendCompiling, 100_000) })
	b.Run("rows=400k", func(b *testing.B) { benchmarkBackend(b, BackendCompiling, 400_000) })
}

func BenchmarkMorselLoopROF(b *testing.B) {
	b.Run("rows=100k", func(b *testing.B) { benchmarkBackend(b, BackendROF, 100_000) })
	b.Run("rows=400k", func(b *testing.B) { benchmarkBackend(b, BackendROF, 400_000) })
}

func BenchmarkMorselLoopHybrid(b *testing.B) {
	b.Run("rows=100k", func(b *testing.B) { benchmarkBackend(b, BackendHybrid, 100_000) })
	b.Run("rows=400k", func(b *testing.B) { benchmarkBackend(b, BackendHybrid, 400_000) })
}

// The suboperator-profiler guard: the profiled run must stay within noise of
// the plain vectorized run (compare against BenchmarkMorselLoopVectorized).
// With the default 1/8 sampling only one chunk in eight pays two timestamp
// reads per primitive; the other seven pay one counter increment and modulo,
// and with profiling off (the other benchmarks) the chunk loop pays a single
// nil check. The hard per-chunk-allocation guard is
// interp.TestProfilerOffPathNoAllocs / TestProfilerOnPathNoPerChunkAllocs.
func BenchmarkMorselLoopVectorizedProfiled(b *testing.B) {
	opts := Options{Backend: BackendVectorized, Workers: 2, Profile: true}
	b.Run("rows=100k", func(b *testing.B) { benchmarkOpts(b, opts, 100_000) })
	b.Run("rows=400k", func(b *testing.B) { benchmarkOpts(b, opts, 400_000) })
}
