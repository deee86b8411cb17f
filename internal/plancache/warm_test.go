package plancache_test

// Tests of the execution-state lifecycle (DESIGN.md §16): a leased instance
// re-executes on the worker contexts, frames and table memory of its previous
// run, and that must never show — same answers in the same order as a fresh
// instance, the same memory-budget behaviour, and nothing carried over from a
// failed run.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"inkfuse/internal/algebra"
	"inkfuse/internal/exec"
	"inkfuse/internal/faultinject"
	"inkfuse/internal/plancache"
	"inkfuse/internal/sql"
	"inkfuse/internal/storage"
	"inkfuse/internal/tpch"
	"inkfuse/internal/types"
)

var dateYear = regexp.MustCompile(`date '\d{4}`)

// redraw returns the TPC-H text with its literals redrawn for round k: same
// shape (the frontend auto-parameterizes literals), different values.
func redraw(text string, k int) string {
	shift := []int{0, -1, 1, -2, 2}[k%5]
	text = dateYear.ReplaceAllStringFunc(text, func(m string) string {
		y, _ := strconv.Atoi(m[len(m)-4:])
		return m[:len(m)-4] + strconv.Itoa(y+shift)
	})
	return strings.NewReplacer(
		"BUILDING", []string{"BUILDING", "MACHINERY", "AUTOMOBILE", "FURNITURE", "HOUSEHOLD"}[k%5],
		"ASIA", []string{"ASIA", "EUROPE", "AMERICA", "AFRICA", "MIDDLE EAST"}[k%5],
		"special", []string{"special", "pending", "unusual", "express"}[k%4],
		"l_quantity < 24", fmt.Sprintf("l_quantity < %d", 24+k),
		"Brand#12", fmt.Sprintf("Brand#1%d", 1+k%5),
	).Replace(text)
}

func tpchNames() []string {
	names := make([]string, 0, len(tpch.SQL))
	for name := range tpch.SQL {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func compile(t *testing.T, text string) *sql.Statement {
	t.Helper()
	stmt, err := sql.Compile(cat, text)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

func prepare(t *testing.T, stmt *sql.Statement) *plancache.Prepared {
	t.Helper()
	plan, params, err := algebra.LowerWithParams(stmt.Root, stmt.Name)
	if err != nil {
		t.Fatal(err)
	}
	return plancache.NewPrepared(stmt.Fingerprint, plan, params)
}

// execute binds stmt's literals into the instance and runs it.
func execute(ctx context.Context, t *testing.T, stmt *sql.Statement, prep *plancache.Prepared, opts exec.Options) (*exec.Result, error) {
	t.Helper()
	if err := stmt.BindArgs(prep.Params(), nil); err != nil {
		t.Fatal(err)
	}
	lat := exec.LatencyNone
	opts.Latency = &lat
	opts.Artifacts = prep.Artifacts()
	return exec.ExecuteContext(ctx, prep.Plan(), opts)
}

func mustExecute(t *testing.T, stmt *sql.Statement, prep *plancache.Prepared, opts exec.Options) *storage.Chunk {
	t.Helper()
	res, err := execute(context.Background(), t, stmt, prep, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Chunk
}

// diffChunks reports the first difference between two results, "" if none.
// With exact set, floats must match bit for bit; otherwise to a relative 1e-9:
// with several workers the order in which partial sums meet depends on morsel
// scheduling, warm or cold.
func diffChunks(got, want *storage.Chunk, exact bool) string {
	if got.Rows() != want.Rows() || len(got.Cols) != len(want.Cols) {
		return fmt.Sprintf("shape %dx%d, want %dx%d", got.Rows(), len(got.Cols), want.Rows(), len(want.Cols))
	}
	for j, col := range got.Cols {
		for i := 0; i < got.Rows(); i++ {
			g, w := col.Value(i), want.Cols[j].Value(i)
			if col.Kind == types.Float64 && !exact {
				gf, wf := g.(float64), w.(float64)
				if math.Abs(gf-wf) <= 1e-9*math.Max(math.Abs(gf), math.Abs(wf)) {
					continue
				}
			}
			if g != w {
				return fmt.Sprintf("row %d col %d: %v, want %v", i, j, g, w)
			}
		}
	}
	return ""
}

// TestWarmMatchesCold is the warm-vs-cold differential: one instance of every
// TPC-H shape executed six times with redrawn literals, on every backend,
// answers each time what a fresh instance answers.
// One worker over many small morsels makes every run deterministic, so the
// comparison is exact, row order included; two workers exercise the per-worker
// state and the merge under the race detector.
func TestWarmMatchesCold(t *testing.T) {
	backends := []exec.Backend{exec.BackendVectorized, exec.BackendCompiling, exec.BackendROF, exec.BackendHybrid}
	for _, backend := range backends {
		for _, workers := range []int{1, 2} {
			opts := exec.Options{Backend: backend, Workers: workers, MorselSize: 1024}
			for _, name := range tpchNames() {
				first := compile(t, tpch.SQL[name])
				warm := prepare(t, first)
				for k := 0; k < 6; k++ {
					stmt := compile(t, redraw(tpch.SQL[name], k))
					if stmt.Fingerprint != first.Fingerprint {
						t.Fatalf("%s: redrawn literals changed the shape", name)
					}
					got := mustExecute(t, stmt, warm, opts)
					want := mustExecute(t, stmt, prepare(t, stmt), opts)
					if d := diffChunks(got, want, workers == 1); d != "" {
						t.Fatalf("%s %v workers=%d execution %d: warm differs from cold: %s",
							name, backend, workers, k+1, d)
					}
					warm.Artifacts().Rewind()
				}
			}
		}
	}
}

// TestFailedExecutionLeavesNothingBehind: after a canceled, a budget-exceeded
// and a panicking execution, the next execution of the same instance answers
// what a fresh instance answers.
func TestFailedExecutionLeavesNothingBehind(t *testing.T) {
	defer faultinject.Reset()
	stmt := compile(t, tpch.SQL["q3"])
	opts := exec.Options{Backend: exec.BackendHybrid, Workers: 1, MorselSize: 1024}
	want := mustExecute(t, stmt, prepare(t, stmt), opts)

	failures := []struct {
		name string
		run  func(prep *plancache.Prepared) error
		is   error
	}{
		{"canceled", func(prep *plancache.Prepared) error {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := execute(ctx, t, stmt, prep, opts)
			return err
		}, exec.ErrCanceled},
		{"budget", func(prep *plancache.Prepared) error {
			small := opts
			small.MemoryBudget = 4096
			_, err := execute(context.Background(), t, stmt, prep, small)
			return err
		}, exec.ErrMemoryBudget},
		{"panic", func(prep *plancache.Prepared) error {
			// The fifth morsel: the first pipeline's tables are half built.
			faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Nth: 5, Panic: "injected"})
			defer faultinject.Reset()
			_, err := execute(context.Background(), t, stmt, prep, opts)
			return err
		}, exec.ErrPanic},
	}
	prep := prepare(t, stmt)
	for _, f := range failures {
		// A warm instance first, so there is kept state to spoil.
		mustExecute(t, stmt, prep, opts)
		prep.Artifacts().Rewind()
		if err := f.run(prep); !errors.Is(err, f.is) {
			t.Fatalf("%s: got %v, want %v", f.name, err, f.is)
		}
		prep.Artifacts().Rewind()
		if n := prep.Artifacts().StateBytes(); n != 0 {
			t.Fatalf("%s: %d bytes of execution state survived the failure", f.name, n)
		}
		if d := diffChunks(mustExecute(t, stmt, prep, opts), want, true); d != "" {
			t.Fatalf("execution after %s differs from cold: %s", f.name, d)
		}
		prep.Artifacts().Rewind()
	}
}

// TestWarmInstanceMeetsBudgetLikeCold: kept arena blocks and bucket arrays are
// charged to the new query's budget as they are reused, so a warm execution
// peaks where a cold one does (within one arena block) and fails under a budget
// below its needs.
func TestWarmInstanceMeetsBudgetLikeCold(t *testing.T) {
	// Arena blocks double from 1 KiB; no shard of this build gets past 4 KiB.
	const arenaBlock = 4 << 10
	stmt := compile(t, tpch.SQL["q3"])
	opts := exec.Options{Backend: exec.BackendHybrid, Workers: 1, MemoryBudget: 1 << 40}
	peak := func(prep *plancache.Prepared) int64 {
		res, err := execute(context.Background(), t, stmt, prep, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.MemPeakBytes
	}
	prep := prepare(t, stmt)
	cold := peak(prep)
	if cold < 4*arenaBlock {
		t.Fatalf("cold peak %d: the shape builds too little to tell", cold)
	}
	for i := 0; i < 3; i++ {
		prep.Artifacts().Rewind()
		if warm := peak(prep); warm < cold-arenaBlock || warm > cold+arenaBlock {
			t.Fatalf("warm execution %d peaked at %d bytes, cold at %d", i+1, warm, cold)
		}
	}
	prep.Artifacts().Rewind()
	opts.MemoryBudget = cold / 2
	if _, err := execute(context.Background(), t, stmt, prep, opts); !errors.Is(err, exec.ErrMemoryBudget) {
		t.Fatalf("warm instance under half its needs: got %v, want ErrMemoryBudget", err)
	}
}

// TestStateTrimNeverCostsAHit: a cache whose MaxBytes is below one instance's
// execution state pools the instance without it — the shape keeps hitting,
// nothing is evicted, and the cache's byte count stays bounded.
func TestStateTrimNeverCostsAHit(t *testing.T) {
	const maxBytes = 64 << 10
	c := plancache.New(plancache.Config{MaxBytes: maxBytes})
	stmt := compile(t, tpch.SQL["q3"])
	opts := exec.Options{Backend: exec.BackendHybrid, Workers: 2}
	var artifacts int64
	for i := 0; i < 6; i++ {
		prep := c.Acquire(stmt.Fingerprint)
		if (prep != nil) != (i > 0) {
			t.Fatalf("execution %d: hit = %v", i+1, prep != nil)
		}
		if prep == nil {
			prep = prepare(t, stmt)
		}
		mustExecute(t, stmt, prep, opts)
		artifacts = prep.Artifacts().ArtifactBytes()
		c.Put(prep)
		if i > 0 && prep.Artifacts().StateBytes() != 0 {
			t.Fatalf("execution %d: %d bytes of state kept past MaxBytes=%d",
				i+1, prep.Artifacts().StateBytes(), maxBytes)
		}
		if st := c.Stats(); st.Bytes > maxBytes+artifacts {
			t.Fatalf("execution %d: cache holds %d bytes, bound %d + %d of artifacts", i+1, st.Bytes, maxBytes, artifacts)
		}
	}
	if st := c.Stats(); st.Hits != 5 || st.Evictions != 0 {
		t.Fatalf("want 5 hits and no eviction, got %+v", st)
	}

	// With room, the same traffic keeps the state (from the first hit on).
	roomy := plancache.New(plancache.Config{})
	for i := 0; i < 3; i++ {
		prep := roomy.Acquire(stmt.Fingerprint)
		if prep == nil {
			prep = prepare(t, stmt)
		}
		mustExecute(t, stmt, prep, opts)
		roomy.Put(prep)
	}
	if st := roomy.Stats(); st.Bytes <= maxBytes {
		t.Fatalf("roomy cache keeps %d bytes: execution state was not kept", st.Bytes)
	}
}
