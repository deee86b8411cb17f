package exec_test

// Compile-job lifetime (DESIGN.md §5, §16): a background compile job lives as
// long as something can run its chain. In a plan instance's artifact set it
// outlives the query that started it and serves the instance's next
// executions; without a set, and once the plan cache drops the instance, it
// is canceled. Every test runs queries far shorter than the modelled compile
// latency, so each job is still in flight when its query returns.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"inkfuse/internal/algebra"
	"inkfuse/internal/core"
	"inkfuse/internal/exec"
	"inkfuse/internal/faultinject"
	"inkfuse/internal/flight"
	"inkfuse/internal/plancache"
)

const (
	lifetimeLatency = 30 * time.Millisecond
	lifetimeRows    = 10_000
	lifetimeMorsel  = 2_048 // five morsels: on a hit with landed code, all run compiled
)

var lifetimeLat = exec.LatencyModel{Base: lifetimeLatency}

// lifetimePlan lowers a one-pipeline filter query, so that one compile job
// serves the whole plan.
func lifetimePlan(t *testing.T) *core.Plan {
	t.Helper()
	node := algebra.NewFilter(algebra.NewScan(exec.BenchTable(lifetimeRows), "a", "b"), algebra.Gt(algebra.Col("a"), algebra.I64(10)))
	plan, err := algebra.Lower(node, "joblife")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Pipelines) != 1 {
		t.Fatalf("%d pipelines, want 1", len(plan.Pipelines))
	}
	return plan
}

// runHybrid executes the plan on the hybrid backend under the 30 ms model and
// checks that it returned before any job could land. The query's context ends
// when it returns, as a server's request context does.
func runHybrid(t *testing.T, plan *core.Plan, arts *exec.ArtifactSet) *exec.Result {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	res, err := exec.ExecuteContext(ctx, plan, exec.Options{
		Backend: exec.BackendHybrid, Workers: 1, MorselSize: lifetimeMorsel,
		Latency: &lifetimeLat, Artifacts: arts, QueryID: exec.NextQueryID(),
	})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if res.Wall >= lifetimeLatency {
		t.Fatalf("query took %v, not shorter than the %v compile latency", res.Wall, lifetimeLatency)
	}
	return res
}

// flightCount counts the recorder's events of one kind for the given queries.
func flightCount(kind flight.Kind, queries ...uint64) int {
	n := 0
	for _, ev := range flight.Default.Snapshot() {
		for _, q := range queries {
			if ev.Kind == kind && ev.Query == q {
				n++
			}
		}
	}
	return n
}

// (a) The query returns before its job lands and counts it abandoned; the job
// lands afterwards, and the next execution compiles nothing and runs every
// morsel compiled.
func TestJobLifetimeOutlivesQuery(t *testing.T) {
	plan := lifetimePlan(t)
	arts := exec.NewArtifactSet(plan)
	cold := runHybrid(t, plan, arts)
	if cold.Stats.CompilesAbandoned != 1 {
		t.Fatalf("compiles_abandoned = %d, want 1", cold.Stats.CompilesAbandoned)
	}
	arts.WaitJobs()
	if arts.Compiles() != 1 || arts.FusedPipelines() != 1 {
		t.Fatalf("after the query: %d compiles, %d fused pipelines; want the job landed", arts.Compiles(), arts.FusedPipelines())
	}
	arts.Rewind()
	hit := runHybrid(t, plan, arts)
	s := hit.Stats
	if arts.Compiles() != 1 || s.MorselsVectorized != 0 || s.MorselsCompiled != 5 || s.CompilesAbandoned != 0 || s.CompileTime != 0 {
		t.Fatalf("hit: %d compiles, %d compiled + %d interpreted morsels, %d abandoned, compile time %v; want 1, 5 + 0, 0, 0",
			arts.Compiles(), s.MorselsCompiled, s.MorselsVectorized, s.CompilesAbandoned, s.CompileTime)
	}
}

// (b) An execution that starts while the previous one's job is in flight
// attaches to it instead of compiling again.
func TestJobLifetimeAttachesInFlight(t *testing.T) {
	plan := lifetimePlan(t)
	arts := exec.NewArtifactSet(plan)
	first := runHybrid(t, plan, arts)
	arts.Rewind()
	second := runHybrid(t, plan, arts)
	arts.WaitJobs()
	if n := flightCount(flight.KindCompileStart, first.ID, second.ID); n != 1 {
		t.Fatalf("%d compile_start events over two executions, want 1", n)
	}
	if arts.Compiles() != 1 {
		t.Fatalf("Compiles() = %d, want 1", arts.Compiles())
	}
}

// (c) A failed job is dropped from the set: the next execution compiles again
// and lands.
func TestJobLifetimeFailedJobRetried(t *testing.T) {
	defer faultinject.Reset()
	plan := lifetimePlan(t)
	arts := exec.NewArtifactSet(plan)
	faultinject.Arm(faultinject.ExecHybridCompile, faultinject.Fault{Nth: 1})
	first := runHybrid(t, plan, arts)
	arts.WaitJobs()
	if arts.Compiles() != 0 || arts.FusedPipelines() != 0 {
		t.Fatalf("failed job: %d compiles, %d fused pipelines, want none", arts.Compiles(), arts.FusedPipelines())
	}
	arts.Rewind()
	second := runHybrid(t, plan, arts)
	arts.WaitJobs()
	if arts.Compiles() != 1 || arts.FusedPipelines() != 1 {
		t.Fatalf("retry: %d compiles, %d fused pipelines, want the job landed", arts.Compiles(), arts.FusedPipelines())
	}
	if n := flightCount(flight.KindCompileStart, first.ID, second.ID); n != 2 {
		t.Fatalf("%d compile_start events, want 2 (the failed job and its retry)", n)
	}
}

// (d) Dropping an instance — evicting its entry, finding its pool full at Put,
// or Put with caching off — cancels its jobs in flight: they end without
// landing, and no goroutine outlives them.
func TestJobLifetimeDroppedInstanceCancels(t *testing.T) {
	lat := exec.LatencyNone
	if _, err := exec.Execute(lifetimePlan(t), exec.Options{Backend: exec.BackendVectorized, Workers: 1, Latency: &lat}); err != nil {
		t.Fatal(err) // starts the shared pool's workers before the baseline
	}
	base := runtime.NumGoroutine()
	cache := plancache.New(plancache.Config{MaxEntries: 1, MaxInstances: 1})
	instance := func(fp byte) *plancache.Prepared {
		plan := lifetimePlan(t)
		p := plancache.NewPrepared(core.Fingerprint{fp}, plan, nil)
		runHybrid(t, plan, p.Artifacts())
		return p
	}
	// Each instance is dropped right after its own query, while its job is
	// still in flight.
	kept := instance(2)
	evicted := instance(1)
	cache.Put(evicted)
	cache.Put(kept) // evicts fingerprint 1
	full := instance(2)
	cache.Put(full) // fingerprint 2's pool holds one instance already
	if st := cache.Stats(); st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("cache %+v, want fingerprint 1 evicted", st)
	}
	uncached := instance(3)
	var off *plancache.Cache // caching off
	off.Put(uncached)
	for name, p := range map[string]*plancache.Prepared{"evicted": evicted, "dropped at Put": full, "uncached": uncached} {
		p.Artifacts().WaitJobs()
		if p.Artifacts().Compiles() != 0 {
			t.Fatalf("%s instance: its job landed instead of being canceled", name)
		}
	}
	kept.Artifacts().WaitJobs()
	if kept.Artifacts().Compiles() != 1 {
		t.Fatalf("pooled instance: %d compiles, want its job landed", kept.Artifacts().Compiles())
	}
	exec.WaitGoroutines(t, base)
}

// (e) Without an artifact set nothing could run the chain later: the job is
// canceled when its query ends, under a context that itself never ends, and
// never lands.
func TestJobLifetimeNoSetCancels(t *testing.T) {
	res, err := exec.Execute(lifetimePlan(t), exec.Options{
		Backend: exec.BackendHybrid, Workers: 1, MorselSize: lifetimeMorsel, Latency: &lifetimeLat,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wall >= lifetimeLatency {
		t.Fatalf("query took %v, not shorter than the %v compile latency", res.Wall, lifetimeLatency)
	}
	if res.Stats.CompilesAbandoned != 1 {
		t.Fatalf("compiles_abandoned = %d, want 1", res.Stats.CompilesAbandoned)
	}
	time.Sleep(2 * lifetimeLatency)
	if n := flightCount(flight.KindCompileLand, res.ID); n != 0 {
		t.Fatalf("%d compile_land events after the query ended, want 0", n)
	}
}
