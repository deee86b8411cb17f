package exec

// Lifecycle-robustness tests: deterministic fault injection proving that a
// failing query — panic, deadline, cancellation, memory budget, background
// compile failure — is contained to that query while the process and
// subsequent queries keep working.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"inkfuse/internal/algebra"
	"inkfuse/internal/core"
	"inkfuse/internal/faultinject"
	"inkfuse/internal/flight"
	"inkfuse/internal/obs"
	"inkfuse/internal/rt"
	"inkfuse/internal/sched"
	"inkfuse/internal/storage"
	"inkfuse/internal/tpch"
	"inkfuse/internal/types"
	"inkfuse/internal/vm"
)

// groupByNode builds a GROUP BY plan over the shared test table.
func groupByNode(tbl *storage.Table) algebra.Node {
	return algebra.NewGroupBy(algebra.NewScan(tbl, "s", "b"), []string{"s"},
		algebra.Sum("b", "sum_b"), algebra.Count("n"))
}

func lowerOrDie(t *testing.T, node algebra.Node, name string) *core.Plan {
	t.Helper()
	plan, err := algebra.Lower(node, name)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestPanicIsolatedPerQueryAllBackends(t *testing.T) {
	defer faultinject.Reset()
	tbl := makeTable()
	for _, backend := range []Backend{BackendVectorized, BackendCompiling, BackendROF, BackendHybrid} {
		t.Run(backend.String(), func(t *testing.T) {
			faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Panic: "injected primitive panic"})
			lat := LatencyNone
			plan := lowerOrDie(t, groupByNode(tbl), "panicq")
			res, err := Execute(plan, Options{Backend: backend, Workers: 2, Latency: &lat})
			if err == nil {
				t.Fatal("panicking query returned no error")
			}
			var qe *QueryError
			if !errors.As(err, &qe) {
				t.Fatalf("error is %T, want *QueryError: %v", err, err)
			}
			if !errors.Is(err, ErrPanic) {
				t.Fatalf("error does not wrap ErrPanic: %v", err)
			}
			if qe.Backend != backend || qe.Morsel < 0 || qe.Stack == "" {
				t.Fatalf("bad failure location: %+v", qe)
			}
			if res == nil || res.Stats.PanicsRecovered < 1 {
				t.Fatalf("recovery not counted: %+v", res)
			}

			// The process survives: the same query re-runs cleanly once the
			// fault is disarmed.
			faultinject.Reset()
			plan2 := lowerOrDie(t, groupByNode(tbl), "panicq2")
			res2, err := Execute(plan2, Options{Backend: backend, Workers: 2, Latency: &lat})
			if err != nil {
				t.Fatalf("follow-up query failed: %v", err)
			}
			if res2.Rows() == 0 || res2.Stats.PanicsRecovered != 0 {
				t.Fatalf("follow-up query degraded: rows=%d stats=%+v", res2.Rows(), res2.Stats)
			}
		})
	}
}

func TestPanicDoesNotPoisonConcurrentQueries(t *testing.T) {
	defer faultinject.Reset()
	// Nth=4: a few morsels succeed first, then one worker panics while the
	// other queries keep running in the same process.
	faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Nth: 4, Panic: "late panic"})
	tbl := makeTable()
	lat := LatencyNone

	type out struct {
		res *Result
		err error
	}
	outs := make(chan out, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			plan, err := algebra.Lower(groupByNode(tbl), fmt.Sprintf("conc%d", i))
			if err != nil {
				outs <- out{nil, err}
				return
			}
			res, err := Execute(plan, Options{Backend: BackendVectorized, Workers: 2, Latency: &lat})
			outs <- out{res, err}
		}(i)
	}
	var failures, successes int
	for i := 0; i < 3; i++ {
		o := <-outs
		if o.err != nil {
			if !errors.Is(o.err, ErrPanic) {
				t.Fatalf("unexpected failure kind: %v", o.err)
			}
			failures++
		} else {
			if o.res.Rows() == 0 {
				t.Fatal("successful query returned no rows")
			}
			successes++
		}
	}
	// Exactly one passage is the 4th: one query dies, the rest complete.
	if failures != 1 || successes != 2 {
		t.Fatalf("failures=%d successes=%d, want 1/2", failures, successes)
	}
}

func TestCancellationStopsQuery(t *testing.T) {
	tbl := makeTable()
	lat := LatencyNone
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first morsel
	plan := lowerOrDie(t, groupByNode(tbl), "cancelq")
	_, err := ExecuteContext(ctx, plan, Options{Backend: BackendVectorized, Workers: 2, Latency: &lat})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("context cause lost: %v", err)
	}
}

func TestDeadlineStopsMidScan(t *testing.T) {
	defer faultinject.Reset()
	// Each morsel passage sleeps 5ms, the deadline is 15ms, and the scan has
	// ~79 morsels: the deadline must fire after a handful of morsels and the
	// workers must drain within one morsel batch instead of finishing the
	// scan.
	faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Delay: 5 * time.Millisecond})
	tbl := makeTable()
	lat := LatencyNone
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	plan := lowerOrDie(t, groupByNode(tbl), "deadlineq")
	res, err := ExecuteContext(ctx, plan, Options{
		Backend: BackendVectorized, Workers: 2, Latency: &lat, MorselSize: 64,
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	if res.Stats.Tuples >= int64(tbl.Rows()) {
		t.Fatalf("deadline did not stop the scan: %d tuples processed", res.Stats.Tuples)
	}
}

func TestDeadlineInterruptsCompileWait(t *testing.T) {
	defer faultinject.Reset()
	// The compiling backend's simulated machine-code latency must observe
	// the context instead of sleeping through it.
	faultinject.Arm(faultinject.ExecCompileDelay, faultinject.Fault{Delay: time.Second})
	tbl := makeTable()
	lat := LatencyNone
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	plan := lowerOrDie(t, groupByNode(tbl), "compilewait")
	start := time.Now()
	_, err := ExecuteContext(ctx, plan, Options{Backend: BackendCompiling, Workers: 2, Latency: &lat})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("compile wait ignored the deadline: took %v", el)
	}
}

func TestForegroundCompileFaultFailsQuery(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.ExecCompile, faultinject.Fault{})
	tbl := makeTable()
	lat := LatencyNone
	for _, backend := range []Backend{BackendCompiling, BackendROF} {
		plan := lowerOrDie(t, groupByNode(tbl), "compilefail")
		_, err := Execute(plan, Options{Backend: backend, Workers: 2, Latency: &lat})
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("%v: want injected compile error, got %v", backend, err)
		}
	}
}

func TestMemoryBudgetFailsOversizedGroupBy(t *testing.T) {
	// ~50k distinct keys cannot fit a 32 KiB runtime-state budget: the query
	// must fail with the typed budget error instead of OOM-ing the process.
	tbl := storage.NewTable("wide", types.Schema{
		{Name: "k", Kind: types.Int64},
		{Name: "v", Kind: types.Float64},
	})
	for i := 0; i < 50000; i++ {
		tbl.AppendRow(int64(i), 1.0)
	}
	node := algebra.NewGroupBy(algebra.NewScan(tbl, "k", "v"), []string{"k"}, algebra.Sum("v", "s"))
	lat := LatencyNone
	plan := lowerOrDie(t, node, "bigagg")
	res, err := Execute(plan, Options{Backend: BackendVectorized, Workers: 2, Latency: &lat, MemoryBudget: 32 << 10})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget, got %v", err)
	}
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("budget failure not located: %T %v", err, err)
	}
	if res.Stats.MemPeakBytes == 0 {
		t.Fatal("budget accounting reported no peak")
	}

	// Under budget, the same query completes and reports its footprint.
	plan2 := lowerOrDie(t, node, "bigagg2")
	res2, err := Execute(plan2, Options{Backend: BackendVectorized, Workers: 2, Latency: &lat, MemoryBudget: 1 << 30})
	if err != nil {
		t.Fatalf("generous budget still failed: %v", err)
	}
	if res2.Rows() != 50000 || res2.Stats.MemPeakBytes == 0 {
		t.Fatalf("rows=%d peak=%d", res2.Rows(), res2.Stats.MemPeakBytes)
	}
}

func TestMemoryBudgetCoversJoinBuild(t *testing.T) {
	tbl := makeTable()
	big := storage.NewTable("bigdim", types.Schema{
		{Name: "k", Kind: types.Int64},
		{Name: "w", Kind: types.Float64},
	})
	for i := 0; i < 50000; i++ {
		big.AppendRow(int64(i%97), float64(i))
	}
	join := &algebra.HashJoin{
		Build:     algebra.NewScan(big, "k", "w"),
		Probe:     algebra.NewScan(tbl, "a", "b"),
		BuildKeys: []string{"k"},
		ProbeKeys: []string{"a"},
		BuildCols: []string{"w"},
	}
	node := algebra.NewGroupBy(join, nil, algebra.Sum("w", "s"))
	lat := LatencyNone
	plan := lowerOrDie(t, node, "bigjoin")
	_, err := Execute(plan, Options{Backend: BackendVectorized, Workers: 2, Latency: &lat, MemoryBudget: 32 << 10})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget, got %v", err)
	}
}

// TestMemoryBudgetCoversAggSlots: a GROUP BY of 800 groups charges the budget
// for every slot its workers' tables hold beyond the initial 64, cold and on
// the warm execution that regrows them into kept capacity. Each slot costs 32
// bytes (rt's aggSlotBytes) and each group 32 more of entry bookkeeping (rt's
// entryOverhead), so the peak charge is at least their sum, arena blocks
// aside. The slot array's length is read by reflection: it has no accessor.
func TestMemoryBudgetCoversAggSlots(t *testing.T) {
	const groups, slotBytes, entryBytes = 800, 32, 32
	tbl := storage.NewTable("groups", types.Schema{
		{Name: "k", Kind: types.Int64},
		{Name: "v", Kind: types.Float64},
	})
	for i := 0; i < 10*groups; i++ {
		tbl.AppendRow(int64(i%groups), 1.0)
	}
	node := algebra.NewGroupBy(algebra.NewScan(tbl, "k", "v"), []string{"k"}, algebra.Sum("v", "s"))
	plan := lowerOrDie(t, node, "aggslots")
	var st *rt.AggTableState
	for _, pipe := range plan.Pipelines {
		for _, fin := range pipe.MergeAggs {
			st = fin.State
		}
	}
	arts := NewArtifactSet(plan)
	lat := LatencyNone
	opts := Options{Backend: BackendVectorized, Workers: 2, MorselSize: 1024, Latency: &lat, MemoryBudget: 1 << 30, Artifacts: arts}
	for _, run := range []string{"cold", "warm"} {
		res, err := Execute(plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows() != groups {
			t.Fatalf("%s: %d groups, want %d", run, res.Rows(), groups)
		}
		var want int64
		for _, ctx := range arts.state.ctxs {
			if tab := ctx.BuiltAggTable(st); tab != nil {
				slots := reflect.ValueOf(tab).Elem().FieldByName("slots").Len()
				want += int64(slots-64)*slotBytes + int64(tab.Groups())*entryBytes
			}
		}
		if want == 0 || res.Stats.MemPeakBytes < want {
			t.Fatalf("%s: peak charge %d bytes, below the %d its tables' grown slots and entries cost", run, res.Stats.MemPeakBytes, want)
		}
		arts.Rewind()
	}
}

func TestHybridDegradesOnBackgroundCompileFailure(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.ExecHybridCompile, faultinject.Fault{})
	tbl := makeTable()
	lat := LatencyNone
	// The background compile races the (tiny) query: a pipeline that finishes
	// before its job is scheduled cancels it, and then nothing failed. The
	// fault fires on every passage, so retry until a failure lands.
	var res *Result
	for attempt := 0; attempt < 50 && (res == nil || res.Stats.CompileErrors == 0); attempt++ {
		plan := lowerOrDie(t, groupByNode(tbl), "degraded")
		var err error
		res, err = Execute(plan, Options{Backend: BackendHybrid, Workers: 2, Latency: &lat})
		if err != nil {
			t.Fatalf("degraded hybrid query failed outright: %v", err)
		}
	}
	if res.Stats.CompileErrors == 0 {
		t.Fatalf("compile failures not counted: %+v", res.Stats)
	}
	if res.Stats.MorselsCompiled != 0 {
		t.Fatalf("morsels ran on supposedly failed compiled code: %+v", res.Stats)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("degradation not surfaced in Result.Warnings")
	}

	// Correctness under degradation: same rows as the pure vectorized run.
	faultinject.Reset()
	plan2 := lowerOrDie(t, groupByNode(tbl), "reference")
	ref, err := Execute(plan2, Options{Backend: BackendVectorized, Workers: 2, Latency: &lat})
	if err != nil {
		t.Fatal(err)
	}
	got, want := rowsAsStrings(res.Chunk), rowsAsStrings(ref.Chunk)
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("rows: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %s want %s", i, got[i], want[i])
		}
	}
}

func TestHybridDegradationOnTPCH(t *testing.T) {
	// Acceptance shape: a forced background-compile failure on the hybrid
	// backend still returns correct TPC-H results with CompileErrors > 0.
	defer faultinject.Reset()
	cat := tpch.Generate(0.01, 42)
	node, err := tpch.Build(cat, "q1")
	if err != nil {
		t.Fatal(err)
	}
	lat := LatencyNone
	refPlan := lowerOrDie(t, node, "q1ref")
	ref, err := Execute(refPlan, Options{Backend: BackendVectorized, Workers: 2, Latency: &lat})
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(faultinject.ExecHybridCompile, faultinject.Fault{})
	node2, _ := tpch.Build(cat, "q1")
	plan := lowerOrDie(t, node2, "q1degraded")
	res, err := Execute(plan, Options{Backend: BackendHybrid, Workers: 2, Latency: &lat})
	if err != nil {
		t.Fatalf("degraded q1 failed: %v", err)
	}
	if res.Stats.CompileErrors == 0 {
		t.Fatal("CompileErrors not recorded")
	}
	got, want := rowsAsStrings(res.Chunk), rowsAsStrings(ref.Chunk)
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("rows: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

func TestFinalizeFaultIsIsolated(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.ExecFinalize, faultinject.Fault{Panic: "seal failure"})
	tbl := makeTable()
	lat := LatencyNone
	plan := lowerOrDie(t, groupByNode(tbl), "finalize")
	res, err := Execute(plan, Options{Backend: BackendVectorized, Workers: 2, Latency: &lat})
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("want ErrPanic from finalization, got %v", err)
	}
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Morsel != -1 {
		t.Fatalf("finalization failure mislocated: %v", err)
	}
	if res.Stats.PanicsRecovered == 0 {
		t.Fatal("finalization recovery not counted")
	}
}

// TestSealBudgetTripIsLocated: a pipeline's join tables seal as a scheduler
// round with the morsel loop's isolation, so a budget trip inside a seal task
// is ErrMemoryBudget located at the worker slot that ran it, with no morsel.
func TestSealBudgetTripIsLocated(t *testing.T) {
	jt := &rt.JoinTableState{}
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = make([]byte, 8)
		rt.PutI64(keys[i], 0, int64(i))
	}
	// The first worker's build charged nothing; the sealed layout costs 32 B
	// per row.
	ctxs := []*vm.Ctx{vm.NewCtx(), vm.NewCtx()}
	tbl := ctxs[0].JoinTable(jt)
	tbl.InsertBatch(keys, make([][]byte, len(keys)), rt.HashBatch(keys, nil), nil)
	tbl.SetBudget(rt.NewMemBudget(1 << 10))

	pool := sched.NewPool(sched.Config{Workers: 2})
	defer pool.Close(context.Background())
	adm, err := pool.Admit(context.Background(), sched.AdmitInfo{Name: "sealq", Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Release()
	pipe := &core.Pipeline{Name: "build", SealJoins: []*rt.JoinTableState{jt}}
	err = sealJoins(context.Background(), adm, "sealq", pipe, BackendVectorized, ctxs)
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget from the seal, got %v", err)
	}
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Morsel != -1 || qe.Pipeline != "build" || qe.Worker < 0 || qe.Worker >= len(ctxs) {
		t.Fatalf("seal failure mislocated: %+v", qe)
	}
	if ctxs[0].Counters.PanicsRecovered+ctxs[1].Counters.PanicsRecovered == 0 {
		t.Fatal("seal recovery not counted")
	}
}

// TestJoinBuildPerWorker: each worker of a join build inserts into its own
// table and the sealed table adopts them all. q3 runs on two workers over
// morsels small (and slow) enough that both take part in both of its builds;
// per build, both contexts report a table, the one not sealed holds its
// worker's inserts, and the sealed one holds the inserts of both.
func TestJoinBuildPerWorker(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Delay: 100 * time.Microsecond})
	cat := tpch.Generate(0.01, 42)
	node, err := tpch.Build(cat, "q3")
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(sched.Config{Workers: 2})
	defer pool.Close(context.Background())
	for _, backend := range []Backend{BackendVectorized, BackendCompiling} {
		t.Run(backend.String(), func(t *testing.T) {
			plan := lowerOrDie(t, node, "q3")
			arts := NewArtifactSet(plan)
			lat := LatencyNone
			res, err := Execute(plan, Options{Backend: backend, Workers: 2, MorselSize: 64,
				Latency: &lat, Pool: pool, Artifacts: arts, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			builds := 0
			for pi, pipe := range plan.Pipelines {
				for _, js := range pipe.SealJoins {
					builds++
					sum := 0
					for w, c := range arts.state.ctxs {
						tbl := c.BuiltJoinTable(js)
						inserts := int(res.Trace.Pipelines[pi].Workers[w].Counters.HTInserts)
						switch {
						case tbl == nil || inserts == 0:
							t.Fatalf("%s: worker %d built no join table (%d inserts)", pipe.Name, w, inserts)
						case tbl != js.Table && tbl.Rows() != inserts:
							t.Fatalf("%s: worker %d's table holds %d rows, it inserted %d", pipe.Name, w, tbl.Rows(), inserts)
						}
						sum += inserts
					}
					if js.Table.Rows() != sum {
						t.Fatalf("%s: the sealed table holds %d rows, the workers inserted %d", pipe.Name, js.Table.Rows(), sum)
					}
				}
			}
			if builds != 2 {
				t.Fatalf("q3 has %d join builds, want 2", builds)
			}
		})
	}
}

// TestEveryOutcomeCompletesOnce: however a query ends — including the ways
// that never reach a worker: a plan the executor rejects, a shed or
// over-capacity admission — ExecuteContext's single completion path counts it
// as started, advances exactly one of queries_succeeded / failed / canceled,
// feeds the latency histogram once and records exactly one terminal flight
// event (query_done or query_error) under its query id.
func TestEveryOutcomeCompletesOnce(t *testing.T) {
	defer faultinject.Reset()
	tbl := makeTable()
	lat := LatencyNone
	good := func() algebra.Node { return groupByNode(tbl) }

	full := sched.NewPool(sched.Config{Workers: 1, MaxConcurrent: 1, QueueDepth: -1})
	defer full.Close(context.Background())
	hold, err := full.Admit(context.Background(), sched.AdmitInfo{Name: "hold", Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Release()
	small := sched.NewPool(sched.Config{Workers: 1, MemLimit: 1 << 10})
	defer small.Close(context.Background())

	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name    string
		opts    Options
		ctx     context.Context
		arm     func(plan *core.Plan) // breaks the plan or arms a fault
		timeout time.Duration
		want    error // nil = success
		series  string
		kind    flight.Kind
	}{
		{name: "ok", series: "queries_succeeded", kind: flight.KindQueryDone},
		{name: "invalid_plan", want: ErrInvalidPlan, series: "queries_failed", kind: flight.KindQueryError,
			arm: func(plan *core.Plan) {
				// Drop the aggregation's build pipeline: the executor meets
				// an AggRead whose build never ran.
				if _, ok := plan.Pipelines[1].Source.(*core.AggRead); !ok {
					t.Fatalf("p1 reads %T, want the aggregate", plan.Pipelines[1].Source)
				}
				plan.Pipelines = plan.Pipelines[1:]
			}},
		{name: "shed", opts: Options{Pool: full}, want: sched.ErrQueueFull, series: "queries_failed", kind: flight.KindQueryError},
		{name: "over_capacity", opts: Options{Pool: small, MemoryBudget: 1 << 20}, want: sched.ErrOverCapacity, series: "queries_failed", kind: flight.KindQueryError},
		{name: "cancel", ctx: canceledCtx, want: ErrCanceled, series: "queries_canceled", kind: flight.KindQueryError},
		{name: "deadline", timeout: 15 * time.Millisecond, opts: Options{MorselSize: 64}, want: ErrDeadlineExceeded, series: "queries_canceled", kind: flight.KindQueryError,
			arm: func(*core.Plan) {
				faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Delay: 5 * time.Millisecond})
			}},
		{name: "budget", opts: Options{MemoryBudget: 64}, want: ErrMemoryBudget, series: "queries_failed", kind: flight.KindQueryError},
		{name: "panic", want: ErrPanic, series: "queries_failed", kind: flight.KindQueryError,
			arm: func(*core.Plan) {
				faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Nth: 2, Panic: "boom"})
			}},
	}
	outcomes := []string{"queries_succeeded", "queries_failed", "queries_canceled"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Reset()
			plan := lowerOrDie(t, good(), "outcome_"+tc.name)
			if tc.arm != nil {
				tc.arm(plan)
			}
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			if tc.timeout > 0 {
				var stop context.CancelFunc
				ctx, stop = context.WithTimeout(ctx, tc.timeout)
				defer stop()
			}
			opts := tc.opts
			opts.Backend, opts.Workers, opts.Latency, opts.QueryID = BackendVectorized, 2, &lat, NextQueryID()

			before := obs.Default.Values()
			latency := obs.Default.QueryLatency.With("vectorized").Count()
			_, err := ExecuteContext(ctx, plan, opts)
			if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want %v", err, tc.want)
			}
			after := obs.Default.Values()

			if d := after["queries_started"] - before["queries_started"]; d != 1 {
				t.Errorf("queries_started advanced by %d, want 1", d)
			}
			for _, s := range outcomes {
				want := int64(0)
				if s == tc.series {
					want = 1
				}
				if d := after[s] - before[s]; d != want {
					t.Errorf("%s advanced by %d, want %d", s, d, want)
				}
			}
			if d := obs.Default.QueryLatency.With("vectorized").Count() - latency; d != 1 {
				t.Errorf("latency histogram observed the query %d times, want 1", d)
			}
			var terminal []flight.Kind
			for _, ev := range flight.Default.Recent(0, opts.QueryID) {
				if ev.Query == opts.QueryID && (ev.Kind == flight.KindQueryDone || ev.Kind == flight.KindQueryError) {
					terminal = append(terminal, ev.Kind)
				}
			}
			if len(terminal) != 1 || terminal[0] != tc.kind {
				t.Errorf("terminal flight events = %v, want exactly one %v", terminal, tc.kind)
			}
		})
	}
}
