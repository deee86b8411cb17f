package benchkit

import (
	"errors"
	"strings"
	"testing"

	"inkfuse/internal/exec"
	"inkfuse/internal/stats"
	"inkfuse/internal/tpch"
)

// Fast harness checks at a tiny scale factor: the experiment machinery must
// run end to end and produce structurally sound output.

var tinyCfg = Config{SF: 0.001, Runs: 1, Queries: []string{"q1", "q6"}}

// TestWithDefaultsResolvesWorkers pins that the worker count a heading prints
// is the one the runs use: never the unresolved 0.
func TestWithDefaultsResolvesWorkers(t *testing.T) {
	if w := (Config{}).WithDefaults().Workers; w <= 0 {
		t.Fatalf("WithDefaults().Workers = %d, want > 0", w)
	}
	if w := (Config{Workers: 3}).WithDefaults().Workers; w != 3 {
		t.Fatalf("WithDefaults overrode an explicit worker count: %d", w)
	}
}

func TestFig9Harness(t *testing.T) {
	rel, cells, err := Fig9(tinyCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(tinyCfg.Queries)*len(Fig9Systems) {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, q := range tinyCfg.Queries {
		if rel[q]["vectorized"] != 1.0 {
			t.Fatalf("%s: vectorized relative = %v, want 1.0", q, rel[q]["vectorized"])
		}
		for _, sys := range Fig9Systems {
			if rel[q][sys.Name] <= 0 {
				t.Fatalf("%s/%s: non-positive relative throughput", q, sys.Name)
			}
		}
	}
	var sb strings.Builder
	PrintFig9(&sb, rel, tinyCfg.Queries, DegradedCells(cells))
	if !strings.Contains(sb.String(), "q6") {
		t.Fatal("fig9 table missing query row")
	}
}

func TestDegradedCellMarking(t *testing.T) {
	cells := []Cell{
		{Query: "q1", System: "hybrid", QueryRecord: stats.QueryRecord{Warnings: []error{errors.New("background compile failed")}}},
		{Query: "q1", System: "vectorized"},
	}
	deg := DegradedCells(cells)
	if !deg["q1"]["hybrid"] || deg["q1"]["vectorized"] {
		t.Fatalf("DegradedCells wrong: %v", deg)
	}
	var sb strings.Builder
	PrintCells(&sb, cells)
	out := sb.String()
	if !strings.Contains(out, "hybrid*") {
		t.Fatalf("degraded cell not marked:\n%s", out)
	}
	if !strings.Contains(out, "* degraded") {
		t.Fatalf("degraded footnote missing:\n%s", out)
	}
	if strings.Contains(out, "vectorized*") {
		t.Fatalf("clean cell wrongly marked:\n%s", out)
	}

	sb.Reset()
	rel := map[string]map[string]float64{"q1": {"vectorized": 1, "compiling": 1, "rof": 1, "hybrid": 1}}
	PrintFig9(&sb, rel, []string{"q1"}, deg)
	if !strings.Contains(sb.String(), "1.00x*") {
		t.Fatalf("fig9 degraded cell not marked:\n%s", sb.String())
	}
}

func TestTable1Harness(t *testing.T) {
	cells, err := Table1(Config{SF: 0.001, Runs: 1, Queries: Table1Queries})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
	// The structural Table I claim: the vectorized backend materializes
	// buffer traffic the fused code avoids.
	for i := 0; i < 4; i += 2 {
		vec, jit := cells[i], cells[i+1]
		if vec.System != "vectorized" || jit.System != "compiling" {
			t.Fatalf("unexpected order: %s/%s", vec.System, jit.System)
		}
		if vec.Stats.MaterializedBytes <= jit.Stats.MaterializedBytes {
			t.Fatalf("%s: vectorized buffer traffic not larger", vec.Query)
		}
	}
	var sb strings.Builder
	PrintTable1(&sb, cells)
	if !strings.Contains(sb.String(), "vm-ops/tuple") {
		t.Fatal("table1 header missing")
	}
}

func TestFig10Harness(t *testing.T) {
	cfg := Config{SF: 0.001, Runs: 1, Queries: []string{"q6"}}
	cells, err := Fig10(cfg, []float64{0.001})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(Fig10Systems) {
		t.Fatalf("cells = %d", len(cells))
	}
	var sawWait bool
	for _, c := range cells {
		if c.Rows == 0 {
			t.Fatalf("%s: empty result", c.System)
		}
		if strings.Contains(c.System, "compiling") && c.Stats.CompileWait > 0 {
			sawWait = true
		}
	}
	if !sawWait {
		t.Fatal("no compiling system reported compile wait (the Fig 10 dashed areas)")
	}
	var sb strings.Builder
	PrintCells(&sb, cells)
	if !strings.Contains(sb.String(), "compile-wait") {
		t.Fatal("cells header missing")
	}
}

func TestAblationHarnesses(t *testing.T) {
	cfg := Config{SF: 0.001, Runs: 1}
	if rows, err := AblationChunkSize(cfg, "q6", []int{256, 1024}); err != nil || len(rows) != 2 {
		t.Fatalf("chunk: %v %d", err, len(rows))
	}
	if rows, err := AblationHybridExploration(cfg, "q1", []int{10, 20}); err != nil || len(rows) != 2 {
		t.Fatalf("explore: %v %d", err, len(rows))
	}
	if exec.HybridExploreEvery != 20 {
		t.Fatal("exploration ablation leaked its override")
	}
	if rows, err := AblationKeyPacking(cfg); err != nil || len(rows) != 3 {
		t.Fatalf("pack: %v %d", err, len(rows))
	}
	if rows, err := AblationROFSplit(cfg, "q3"); err != nil || len(rows) != 3 {
		t.Fatalf("rof: %v %d", err, len(rows))
	}
	if rows, err := AblationMorselSize(cfg, "q1", []int{4096}); err != nil || len(rows) != 1 {
		t.Fatalf("morsel: %v %d", err, len(rows))
	}
	var sb strings.Builder
	PrintAblation(&sb, "t", []AblationRow{{Label: "l", Extra: "e"}})
	if !strings.Contains(sb.String(), "## t") {
		t.Fatal("ablation printer")
	}
}

func TestCatalogRows(t *testing.T) {
	cat := tpch.Generate(0.001, 1)
	s := CatalogRows(cat)
	if !strings.Contains(s, "lineitem=") {
		t.Fatalf("catalog summary: %s", s)
	}
}
