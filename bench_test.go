package inkfuse

// Benchmarks regenerating the paper's evaluation (§VII). One bench family
// per table/figure:
//
//	BenchmarkFig9/...    — relative throughput of the four backends per query
//	BenchmarkTable1/...  — Q1/Q4 counter-proxy runs (vectorized vs compiling)
//	BenchmarkFig10/...   — cross-system end-to-end latency incl. compile wait
//	BenchmarkAblation... — design-choice ablations from DESIGN.md
//	BenchmarkPrimitives  — startup generation of the vectorized interpreter
//
// Scale with INKFUSE_BENCH_SF (default 0.01 so `go test -bench=.` stays
// fast); cmd/inkbench runs the full sweeps and prints the paper-style
// tables.

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"inkfuse/internal/algebra"
	"inkfuse/internal/benchkit"
	"inkfuse/internal/exec"
	"inkfuse/internal/interp"
	"inkfuse/internal/storage"
	"inkfuse/internal/tpch"
	"inkfuse/internal/volcano"
)

func benchSF() float64 {
	if s := os.Getenv("INKFUSE_BENCH_SF"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			return v
		}
	}
	return 0.01
}

var benchCat = sync.OnceValue(func() *storage.Catalog {
	return tpch.Generate(benchSF(), 42)
})

func runQuery(b *testing.B, cat *storage.Catalog, q string, sys benchkit.System) {
	b.Helper()
	cell, err := benchkit.RunOnce(cat, q, sys, benchkit.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if cell.Rows == 0 {
		b.Fatalf("%s/%s returned no rows", q, sys.Name)
	}
}

// BenchmarkFig9 regenerates Fig 9: every query on every InkFuse backend.
// Relative throughput = vectorized time / backend time (compile wait
// excluded, as at the paper's SF 100 it is fully amortized).
func BenchmarkFig9(b *testing.B) {
	cat := benchCat()
	for _, q := range tpch.Queries {
		for _, sys := range benchkit.Fig9Systems {
			b.Run(q+"/"+sys.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runQuery(b, cat, q, sys)
				}
			})
		}
	}
}

// BenchmarkTable1 regenerates Table I's measurement runs: Q1 and Q4 on the
// vectorized and compiling backends (counter proxies are printed by
// `inkbench -exp table1`).
func BenchmarkTable1(b *testing.B) {
	cat := benchCat()
	for _, q := range benchkit.Table1Queries {
		for _, sys := range benchkit.Table1Systems {
			b.Run(q+"/"+sys.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runQuery(b, cat, q, sys)
				}
			})
		}
	}
}

// BenchmarkFig10 regenerates Fig 10's per-cell measurements: the
// cross-system lineup (Volcano baseline, vectorized "DuckDB-class", the
// Umbra stand-ins, and the InkFuse backends) with cold compiles.
func BenchmarkFig10(b *testing.B) {
	cat := benchCat()
	for _, q := range tpch.Queries {
		for _, sys := range benchkit.Fig10Systems {
			b.Run(q+"/"+sys.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runQuery(b, cat, q, sys)
				}
			})
		}
	}
}

// BenchmarkVolcanoExpr pins the baseline gap the paper motivates with:
// tuple-at-a-time interpretation vs the vectorized interpreter on Q6.
func BenchmarkVolcanoExpr(b *testing.B) {
	cat := benchCat()
	node, err := tpch.Build(cat, "q6")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("volcano", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := volcano.Run(node); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vectorized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan, err := algebra.Lower(node, "q6")
			if err != nil {
				b.Fatal(err)
			}
			lat := exec.LatencyNone
			if _, err := exec.Execute(plan, exec.Options{Backend: exec.BackendVectorized, Latency: &lat}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationChunkSize sweeps the tuple-buffer size (DESIGN.md §4).
func BenchmarkAblationChunkSize(b *testing.B) {
	cat := benchCat()
	node, err := tpch.Build(cat, "q6")
	if err != nil {
		b.Fatal(err)
	}
	for _, cs := range []int{64, 256, 1024, 4096, 16384} {
		b.Run(strconv.Itoa(cs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan, err := algebra.Lower(node, "q6")
				if err != nil {
					b.Fatal(err)
				}
				lat := exec.LatencyNone
				if _, err := exec.Execute(plan, exec.Options{
					Backend: exec.BackendVectorized, ChunkSize: cs, Latency: &lat,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationKeyPacking contrasts key shapes for the packed row
// layout (paper §IV-D).
func BenchmarkAblationKeyPacking(b *testing.B) {
	cat := benchCat()
	li := cat.MustGet("lineitem")
	shapes := []struct {
		name string
		keys []string
	}{
		{"single_int", []string{"l_suppkey"}},
		{"compound_int", []string{"l_suppkey", "l_partkey"}},
		{"strings", []string{"l_returnflag", "l_linestatus"}},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			cols := append(append([]string{}, sh.keys...), "l_quantity")
			node := algebra.NewGroupBy(algebra.NewScan(li, cols...), sh.keys,
				algebra.Sum("l_quantity", "s"))
			for i := 0; i < b.N; i++ {
				plan, err := algebra.Lower(node, "pack")
				if err != nil {
					b.Fatal(err)
				}
				lat := exec.LatencyNone
				if _, err := exec.Execute(plan, exec.Options{Backend: exec.BackendCompiling, Latency: &lat}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationROFSplit contrasts split granularities on the join-heavy
// Q3 (none / at probes / everywhere).
func BenchmarkAblationROFSplit(b *testing.B) {
	cat := benchCat()
	for _, sys := range benchkit.ROFSplitSystems {
		b.Run(sys.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runQuery(b, cat, "q3", sys)
			}
		})
	}
}

// BenchmarkPrimitives measures generating the complete vectorized
// interpreter (the engine-startup cost the paper trades against per-query
// compilation).
func BenchmarkPrimitives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reg, err := interp.NewRegistry()
		if err != nil {
			b.Fatal(err)
		}
		if reg.Len() == 0 {
			b.Fatal("empty registry")
		}
	}
}

// BenchmarkTPCHGen measures the data generator.
func BenchmarkTPCHGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tpch.Generate(0.005, uint64(i+1))
	}
}
