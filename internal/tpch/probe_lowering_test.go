package tpch

import (
	"context"
	"strings"
	"testing"

	"inkfuse/internal/algebra"
	"inkfuse/internal/core"
	"inkfuse/internal/exec"
	"inkfuse/internal/ir"
)

// TestProbeSidePacksOnlyItsKey: no TPC-H plan builds more of a probe tuple
// than its key (DESIGN.md §19). The packed row a JoinProbe consumes is a
// MakeRow followed by key-region packs and the seal — no payload pack writes
// into it and no unpack reads it back; every probe-side column above the join
// is a ProbeCopy through the probe's own selection.
func TestProbeSidePacksOnlyItsKey(t *testing.T) {
	for _, q := range append(append([]string{}, Queries...), ExtendedQueries...) {
		node, err := Build(testCat, q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := algebra.Lower(node, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, pipe := range plan.Pipelines {
			// producer: the op that defines a packed-row IU.
			producer := map[int]core.SubOp{}
			for _, op := range pipe.Ops {
				for _, out := range op.Desc().Outputs() {
					producer[out.ID] = op
				}
			}
			probeKeyRows := map[int]bool{} // every handle of a probe key row
			sels := map[int]bool{}
			for _, op := range pipe.Ops {
				probe, ok := op.(*core.JoinProbe)
				if !ok {
					continue
				}
				sels[probe.SelOut.ID] = true
				for row := probe.Row; row != nil; {
					probeKeyRows[row.ID] = true
					switch p := producer[row.ID].(type) {
					case *core.SealKey:
						row = p.Row
					case *core.PackFixed:
						if p.Region != ir.KeyRegion {
							t.Errorf("%s/%s: %s packs payload into a probe key row", q, pipe.Name, p.PrimitiveID())
						}
						row = p.Row
					case *core.PackStr:
						if p.Region != ir.KeyRegion {
							t.Errorf("%s/%s: %s packs payload into a probe key row", q, pipe.Name, p.PrimitiveID())
						}
						row = p.Row
					case *core.MakeRow:
						row = nil
					default:
						t.Fatalf("%s/%s: probe key row %s produced by %T", q, pipe.Name, row, p)
					}
				}
			}
			for _, op := range pipe.Ops {
				switch op := op.(type) {
				case *core.UnpackFixed:
					if probeKeyRows[op.Row.ID] {
						t.Errorf("%s/%s: %s reads a probe key row back", q, pipe.Name, op.PrimitiveID())
					}
				case *core.UnpackStr:
					if probeKeyRows[op.Row.ID] {
						t.Errorf("%s/%s: %s reads a probe key row back", q, pipe.Name, op.PrimitiveID())
					}
				case *core.ProbeCopy:
					if !sels[op.Sel.ID] {
						t.Errorf("%s/%s: probe copy of %s through %s, which no probe of the pipeline produced", q, pipe.Name, op.Src, op.Sel)
					}
				}
			}
		}
	}
}

// TestQ5LineitemPipelineShape pins the suboperator sequence of q5's lineitem
// pipeline — two probes, an aggregation — at 21 suboperators: it was 30 while
// the probes packed l_suppkey, the two prices and later n_name into their
// probe rows (six payload packs) and unpacked them again (six unpacks), and
// carries the same six columns through six probe copies now; 24 while n_name
// was a string, whose group key took a packed row (makerow, packstr, sealkey)
// where its dictionary code takes the one-column direct lookup.
func TestQ5LineitemPipelineShape(t *testing.T) {
	node, err := Build(testCat, "q5")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := algebra.Lower(node, "q5")
	if err != nil {
		t.Fatal(err)
	}
	for _, pipe := range plan.Pipelines {
		scan, ok := pipe.Source.(*core.TableScan)
		if !ok || scan.Table.Name != "lineitem" {
			continue
		}
		count := map[string]int{}
		for _, op := range pipe.Ops {
			switch op.(type) {
			case *core.JoinProbe:
				count["probe"]++
			case *core.ProbeCopy:
				count["probecopy"]++
			case *core.UnpackFixed, *core.UnpackStr:
				count["unpack"]++ // of build rows: c_nationkey, n_name
			}
		}
		if len(pipe.Ops) != 21 || count["probe"] != 2 || count["probecopy"] != 6 || count["unpack"] != 2 {
			t.Fatalf("q5 lineitem pipeline: %d suboperators %v, want 21 with 2 probes, 6 probe copies, 2 unpacks:\n%s",
				len(pipe.Ops), count, pipe.Describe())
		}
		return
	}
	t.Fatal("q5 has no lineitem pipeline")
}

// TestExplainReportsFusedKeyProbes: EXPLAIN ANALYZE and the trace dump say what
// the closure compiler made of q5's lineitem pipeline — both probes' key runs
// fused — on the compiling backend and on the hybrid one (through a kept
// artifact, as a plan-cache hit runs). ROF stages a prefetch of every probe
// key, a second reader of the handle: its probes compile statement by
// statement. The aggregation's key is n_name's dictionary code, which the
// direct lookup takes without a key build on every backend.
func TestExplainReportsFusedKeyProbes(t *testing.T) {
	node, err := Build(testCat, "q5")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := algebra.Lower(node, "q5")
	if err != nil {
		t.Fatal(err)
	}
	arts := exec.NewArtifactSet(plan)
	lat := exec.LatencyNone
	for _, tc := range []struct {
		backend exec.Backend
		want    string
		absent  string
	}{
		{exec.BackendCompiling, "2 fused key probe(s)", "fused key build"},
		{exec.BackendHybrid, "2 fused key probe(s)", "fused key build"},
		{exec.BackendROF, "fused: ", "fused key"},
	} {
		out, res, err := exec.ExplainAnalyze(context.Background(), plan, exec.Options{
			Backend: tc.backend, Workers: 2, Latency: &lat, Artifacts: arts,
		})
		if err != nil {
			t.Fatal(err)
		}
		arts.Rewind()
		for _, text := range []string{out, res.Trace.Dump()} {
			if !strings.Contains(text, tc.want) || tc.absent != "" && strings.Contains(text, tc.absent) {
				t.Errorf("%v: want %q (and not %q) in:\n%s", tc.backend, tc.want, tc.absent, text)
			}
		}
	}
}
