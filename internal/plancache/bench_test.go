package plancache_test

import (
	"sort"
	"testing"
	"time"

	"inkfuse/internal/algebra"
	"inkfuse/internal/exec"
	"inkfuse/internal/plancache"
	"inkfuse/internal/sql"
	"inkfuse/internal/tpch"
)

// BenchmarkHotShapes is the in-process twin of the hot_shapes_sf001 benchmark
// workload: the eight TPC-H SQL shapes at SF 0.01 on the hybrid backend with
// inkserve's default compile latency (exec.LatencyC), every execution after
// the first a plan-cache hit. The warm-up runs each shape twice and then waits
// (up to five seconds) for the instances' compile jobs to land, so the timed
// loop sees the state the workload settles in; jit-share is the share of the
// timed loop's morsels that ran on fused code. -benchmem shows what a hit
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
	var jit, vec int64
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
		res, err := exec.Execute(prep.Plan(), exec.Options{Backend: exec.BackendHybrid, Artifacts: prep.Artifacts()})
		if err != nil {
			b.Fatal(err)
		}
		jit += res.Stats.MorselsCompiled
		vec += res.Stats.MorselsVectorized
	}
	landed := func(stmt *sql.Statement) bool {
		prep := cache.Acquire(stmt.Fingerprint)
		defer cache.Put(prep)
		return prep.Artifacts().FusedPipelines() == len(prep.Plan().Pipelines)
	}
	for _, stmt := range stmts {
		run(stmt)
		run(stmt)
	}
	for deadline, i := time.Now().Add(5*time.Second), 0; i < len(stmts) && time.Now().Before(deadline); {
		if landed(stmts[i]) {
			i++
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	jit, vec = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(stmts[i%len(stmts)])
	}
	b.StopTimer()
	if jit+vec > 0 {
		b.ReportMetric(float64(jit)/float64(jit+vec), "jit-share")
	}
}
