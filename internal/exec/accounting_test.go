package exec

import (
	"fmt"
	"testing"

	"inkfuse/internal/algebra"
	"inkfuse/internal/ir"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
)

// TestBackendAccounting pins what each backend counts on one two-pipeline
// plan — a join build over a 40-row dimension, then a probe over 5 000 rows —
// at fixed sizes: which morsels ran compiled, how many fused calls each one
// made, who waited for code, and what the trace says the closure compiler
// made of it. The second execution of each backend reuses the first's
// artifacts (a plan-cache hit): nothing is compiled or waited for, and the
// hybrid backend, which has code from its first morsel, runs every morsel of
// these short pipelines compiled (HybridExploreEvery).
func TestBackendAccounting(t *testing.T) {
	const (
		morselRows = 4096
		chunkRows  = 512
		buildRows  = 40
		probeRows  = 5000
	)
	// Per-pipeline morsels and fused calls. A whole-pipeline program runs a
	// morsel fusedBatchRows rows at a time; the ROF chain runs each of its
	// steps once per chunk.
	morsels := func(rows int) []int {
		var out []int
		for lo := 0; lo < rows; lo += morselRows {
			out = append(out, min(morselRows, rows-lo))
		}
		return out
	}
	calls := func(rows, batch, steps int) int64 {
		var n int64
		for _, m := range morsels(rows) {
			n += int64((m+batch-1)/batch) * int64(steps)
		}
		return n
	}
	allMorsels := int64(len(morsels(buildRows)) + len(morsels(probeRows)))
	wholeCalls := calls(buildRows, fusedBatchRows, 1) + calls(probeRows, fusedBatchRows, 1)
	rofCalls := calls(buildRows, chunkRows, 1) + calls(probeRows, chunkRows, 2)
	if wholeCalls != 1+3 || rofCalls != 1+2*10 {
		t.Fatalf("test arithmetic: whole %d, rof %d", wholeCalls, rofCalls)
	}
	const (
		buildFused = "5 stmts -> 5 closures"
		probeFused = "6 stmts -> 3 closures, 1 fused key probe(s)"
		probeROF   = "4 stmts -> 4 closures | 4 stmts -> 4 closures"
	)

	// makeTable's column a cycles through 0..96: a probe row matches when
	// its a is below buildRows.
	joinRows := 0
	for i := 0; i < probeRows; i++ {
		if i%97 < buildRows {
			joinRows++
		}
	}
	dim := storage.NewTable("dim", types.Schema{{Name: "k", Kind: types.Int64}, {Name: "w", Kind: types.Float64}})
	for i := 0; i < buildRows; i++ {
		dim.AppendRow(int64(i), float64(i)*1.5)
	}
	node := &algebra.HashJoin{
		Build: algebra.NewScan(dim, "k", "w"), Probe: algebra.NewScan(makeTable(), "a", "b"),
		BuildKeys: []string{"k"}, ProbeKeys: []string{"a"}, BuildCols: []string{"w"},
		Mode: ir.InnerJoin,
	}

	type want struct {
		compiled, vectorized, fusedCalls int64
		wait                             bool
		fused                            [2]string
	}
	for _, tc := range []struct {
		backend   Backend
		cold, hit want
	}{
		// Only the hybrid backend counts interpreted morsels: it is the one
		// that chooses.
		{BackendVectorized,
			want{0, 0, 0, false, [2]string{"", ""}},
			want{0, 0, 0, false, [2]string{"", ""}}},
		{BackendCompiling,
			want{allMorsels, 0, wholeCalls, true, [2]string{buildFused, probeFused}},
			want{allMorsels, 0, wholeCalls, false, [2]string{buildFused, probeFused}}},
		{BackendROF,
			want{allMorsels, 0, rofCalls, true, [2]string{buildFused, probeROF}},
			want{allMorsels, 0, rofCalls, false, [2]string{buildFused, probeROF}}},
		// The hybrid cold run races its background compiles (checked below);
		// only its hit is pinned here.
		{BackendHybrid,
			want{},
			want{allMorsels, 0, wholeCalls, false, [2]string{buildFused, probeFused}}},
	} {
		t.Run(tc.backend.String(), func(t *testing.T) {
			plan := lowerOrDie(t, node, "accounting")
			if len(plan.Pipelines) != 2 {
				t.Fatalf("%d pipelines, want 2", len(plan.Pipelines))
			}
			arts := NewArtifactSet(plan)
			lat := LatencyNone
			opts := Options{
				Backend: tc.backend, Workers: 1, MorselSize: morselRows, ChunkSize: chunkRows,
				Latency: &lat, Trace: true, Artifacts: arts,
			}
			for run, w := range []want{tc.cold, tc.hit} {
				res, err := Execute(plan, opts)
				if err != nil {
					t.Fatal(err)
				}
				// The hit must find the cold run's background jobs landed,
				// not attach to them in flight.
				arts.WaitJobs()
				arts.Rewind()
				s := res.Stats
				label := [...]string{"cold", "hit"}[run]
				if res.Rows() != joinRows {
					t.Fatalf("%s: %d result rows", label, res.Rows())
				}
				if s.CompileErrors != 0 {
					t.Errorf("%s: CompileErrors = %d", label, s.CompileErrors)
				}
				if tc.backend == BackendHybrid && run == 0 {
					if s.MorselsCompiled+s.MorselsVectorized != allMorsels || s.CompileWait != 0 || s.CompilesAbandoned > 2 {
						t.Errorf("cold: %d compiled + %d interpreted of %d morsels, wait %v, %d abandoned",
							s.MorselsCompiled, s.MorselsVectorized, allMorsels, s.CompileWait, s.CompilesAbandoned)
					}
					continue
				}
				got := fmt.Sprintf("compiled %d, vectorized %d, fused calls %d, abandoned %d, wait %v",
					s.MorselsCompiled, s.MorselsVectorized, s.FusedCalls, s.CompilesAbandoned, s.CompileWait > 0)
				exp := fmt.Sprintf("compiled %d, vectorized %d, fused calls %d, abandoned %d, wait %v",
					w.compiled, w.vectorized, w.fusedCalls, 0, w.wait)
				if got != exp {
					t.Errorf("%s:\n got  %s\n want %s", label, got, exp)
				}
				for pi, pt := range res.Trace.Pipelines {
					if pt.Fused != w.fused[pi] {
						t.Errorf("%s: pipeline %s: Fused = %q, want %q", label, pt.Name, pt.Fused, w.fused[pi])
					}
				}
			}
		})
	}
}
