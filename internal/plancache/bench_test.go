package plancache_test

import (
	"sort"
	"testing"

	"inkfuse/internal/algebra"
	"inkfuse/internal/exec"
	"inkfuse/internal/plancache"
	"inkfuse/internal/sql"
	"inkfuse/internal/tpch"
)

// BenchmarkHotShapes is the in-process twin of the hot_shapes_sf001 benchmark
// workload: the eight TPC-H SQL shapes at SF 0.01 on the hybrid backend, every
// execution after the first a plan-cache hit. -benchmem shows what a hit
// allocates; -cpuprofile / -memprofile attribute it.
func BenchmarkHotShapes(b *testing.B) {
	cat := tpch.Generate(0.01, 42)
	cache := plancache.New(plancache.Config{})
	names := make([]string, 0, len(tpch.SQL))
	for name := range tpch.SQL {
		names = append(names, name)
	}
	sort.Strings(names)
	stmts := make([]*sql.Statement, len(names))
	for i, name := range names {
		stmt, err := sql.Compile(cat, tpch.SQL[name])
		if err != nil {
			b.Fatal(err)
		}
		stmts[i] = stmt
	}
	lat := exec.LatencyNone
	run := func(stmt *sql.Statement) {
		prep := cache.Acquire(stmt.Fingerprint)
		if prep == nil {
			plan, params, err := algebra.LowerWithParams(stmt.Root, stmt.Name)
			if err != nil {
				b.Fatal(err)
			}
			prep = plancache.NewPrepared(stmt.Fingerprint, plan, params)
		}
		defer cache.Put(prep)
		if err := stmt.BindArgs(prep.Params(), nil); err != nil {
			b.Fatal(err)
		}
		if _, err := exec.Execute(prep.Plan(), exec.Options{
			Backend: exec.BackendHybrid, Latency: &lat, Artifacts: prep.Artifacts(),
		}); err != nil {
			b.Fatal(err)
		}
	}
	for _, stmt := range stmts {
		run(stmt)
		run(stmt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(stmts[i%len(stmts)])
	}
}
