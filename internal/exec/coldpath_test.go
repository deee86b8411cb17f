package exec

// Tests of the never-seen path (DESIGN.md §18): the interpreter reads its
// source through views and must never write through one; the hybrid
// backend's background jobs go through the one compile sequence, verifier
// included; compile effort that lands too late is counted.

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"inkfuse/internal/algebra"
	"inkfuse/internal/core"
	"inkfuse/internal/ir"
	"inkfuse/internal/storage"
	"inkfuse/internal/tpch"
	"inkfuse/internal/types"
)

// tableChecksum hashes every value of every column, whole backing arrays
// included: a view extends (by capacity) to the end of its column, so an
// append through one would land in the rows behind it.
func tableChecksum(t *storage.Table) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, col := range t.Cols {
		put(uint64(col.Len()))
		switch col.Kind {
		case types.Bool:
			for _, v := range col.B[:cap(col.B)] {
				if v {
					put(1)
				} else {
					put(0)
				}
			}
		case types.Int32, types.Date:
			for _, v := range col.I32[:cap(col.I32)] {
				put(uint64(v))
			}
		case types.Int64:
			for _, v := range col.I64[:cap(col.I64)] {
				put(uint64(v))
			}
		case types.Float64:
			for _, v := range col.F64[:cap(col.F64)] {
				put(math.Float64bits(v))
			}
		case types.String:
			for _, v := range col.Str[:cap(col.Str)] {
				put(uint64(len(v)))
				h.Write([]byte(v))
			}
		}
	}
	return h.Sum64()
}

// planTables lists the base tables a lowered plan scans.
func planTables(plan *core.Plan) []*storage.Table {
	var out []*storage.Table
	for _, pipe := range plan.Pipelines {
		if scan, ok := pipe.Source.(*core.TableScan); ok {
			out = append(out, scan.Table)
		}
	}
	return out
}

// TestExecutionNeverWritesBaseTables: the eight TPC-H plans and the random
// differential corpus, on the two backends that interpret (vectorized, and
// hybrid switching mid-query), across chunk and morsel sizes — afterwards
// every column of every scanned table hashes as before.
func TestExecutionNeverWritesBaseTables(t *testing.T) {
	lat := LatencyNone
	run := func(t *testing.T, node algebra.Node, name string, r *rand.Rand) {
		for _, backend := range []Backend{BackendVectorized, BackendHybrid} {
			plan := lowerOrDie(t, node, name)
			before := map[*storage.Table]uint64{}
			for _, tbl := range planTables(plan) {
				before[tbl] = tableChecksum(tbl)
			}
			opts := Options{Backend: backend, Workers: 2, Latency: &lat}
			if r != nil {
				opts.ChunkSize, opts.MorselSize = 1<<(3+r.Intn(6)), 1<<(6+r.Intn(6))
			}
			if _, err := Execute(plan, opts); err != nil {
				t.Fatalf("%s on %v: %v", name, backend, err)
			}
			for tbl, sum := range before {
				if got := tableChecksum(tbl); got != sum {
					t.Fatalf("%s on %v: table %s changed under the query (a view was written through)", name, backend, tbl.Name)
				}
			}
		}
	}
	cat := tpch.Generate(0.01, 42)
	for _, q := range tpch.Queries {
		node, err := tpch.Build(cat, q)
		if err != nil {
			t.Fatal(err)
		}
		run(t, node, q, nil)
	}
	iters := 60
	if testing.Short() {
		iters = 12
	}
	for seed := 0; seed < iters; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		node, _ := randomPlan(r)
		run(t, node, fmt.Sprintf("random%d", seed), r)
	}
}

// redefining wraps a suboperator so that the step generated from it assigns
// its output variable a second time: structurally malformed IR that ir.Verify
// rejects ("defined twice") and the closure compiler, which only re-binds the
// slot, would run. The interpreter never generates code from it — it maps the
// suboperator to its primitive — so only the compile path sees the damage.
type redefining struct{ core.SubOp }

func (m redefining) Consume(g *core.Gen) error {
	if err := m.SubOp.Consume(g); err != nil {
		return err
	}
	v, err := g.Var(m.Desc().Outputs()[0])
	if err != nil {
		return err
	}
	g.Append(ir.Assign{Dst: v, E: ir.Ref(v)})
	return nil
}

// malformFirstProducer wraps the first suboperator of the plan's first
// pipeline that has an output.
func malformFirstProducer(t *testing.T, plan *core.Plan) {
	t.Helper()
	ops := plan.Pipelines[0].Ops
	for i, op := range ops {
		if _, scope := op.(*core.FilterScope); !scope && len(op.Desc().Out) > 0 {
			ops[i] = redefining{op}
			return
		}
	}
	t.Fatal("no suboperator with an output to malform")
}

// TestHybridVerifiesBackgroundSteps: a background job whose generated step is
// malformed fails in the verifier, like a foreground compile of it does, and
// the pipeline degrades to the interpreter with the failure counted once.
func TestHybridVerifiesBackgroundSteps(t *testing.T) {
	tbl := makeTable()
	lat := LatencyNone
	want, err := Execute(lowerOrDie(t, groupByNode(tbl), "reference"), Options{Backend: BackendVectorized, Workers: 2, Latency: &lat})
	if err != nil {
		t.Fatal(err)
	}

	// The foreground backends refuse the step outright.
	plan := lowerOrDie(t, groupByNode(tbl), "malformed")
	malformFirstProducer(t, plan)
	if _, err := Execute(plan, Options{Backend: BackendCompiling, Workers: 2, Latency: &lat}); err == nil {
		t.Fatal("the compiling backend ran a step that defines a variable twice")
	}

	// The background compile races the (tiny) query: a pipeline that finishes
	// before its job ran abandons it, and then nothing failed. Retry until
	// the job of the malformed pipeline got to run.
	var res *Result
	for attempt := 0; attempt < 50 && (res == nil || res.Stats.CompileErrors == 0); attempt++ {
		plan := lowerOrDie(t, groupByNode(tbl), "malformed")
		malformFirstProducer(t, plan)
		if res, err = Execute(plan, Options{Backend: BackendHybrid, Workers: 2, Latency: &lat}); err != nil {
			t.Fatalf("hybrid query over a malformed step failed outright: %v", err)
		}
	}
	if res.Stats.CompileErrors != 1 {
		t.Fatalf("compile_errors = %d, want 1 (the malformed pipeline, once): %s", res.Stats.CompileErrors, &res.Stats)
	}
	if len(res.Warnings) != 1 {
		t.Fatalf("want one degradation warning, got %v", res.Warnings)
	}
	got, ref := rowsAsStrings(res.Chunk), rowsAsStrings(want.Chunk)
	sort.Strings(got)
	sort.Strings(ref)
	if fmt.Sprint(got) != fmt.Sprint(ref) {
		t.Fatalf("degraded result differs from the interpreter's:\n got  %v\n want %v", got, ref)
	}
}

// TestCompilesAbandonedCounted: with a compile latency far beyond the query's
// run time every background job is cut short at query end, and the counter —
// in the result and, pipeline by pipeline, in the trace — says so; with no
// latency and a long enough query, nothing is abandoned.
func TestCompilesAbandonedCounted(t *testing.T) {
	tbl := makeTable()
	slow := LatencyModel{Base: time.Minute}
	plan := lowerOrDie(t, groupByNode(tbl), "abandoned")
	res, err := Execute(plan, Options{Backend: BackendHybrid, Workers: 2, Latency: &slow, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(plan.Pipelines)); res.Stats.CompilesAbandoned != want || res.Stats.MorselsCompiled != 0 {
		t.Fatalf("compiles_abandoned = %d with %d pipelines (%d morsels on compiled code)",
			res.Stats.CompilesAbandoned, want, res.Stats.MorselsCompiled)
	}
	if got := res.Trace.Total(); got != res.Stats {
		t.Fatalf("trace total != stats:\n trace %s\n stats %s", &got, &res.Stats)
	}
	for _, backend := range []Backend{BackendVectorized, BackendCompiling, BackendROF} {
		lat := LatencyNone
		res, err := Execute(lowerOrDie(t, groupByNode(tbl), "none"), Options{Backend: backend, Workers: 2, Latency: &lat})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.CompilesAbandoned != 0 {
			t.Fatalf("%v abandoned %d compiles: it starts none in the background", backend, res.Stats.CompilesAbandoned)
		}
	}
}
