package main

import (
	"errors"
	"strings"
	"testing"

	"inkfuse/internal/benchkit"
	"inkfuse/internal/stats"
)

func report(cells ...benchkit.JSONCell) *benchkit.JSONReport {
	return &benchkit.JSONReport{SF: 0.01, Workers: 2, Runs: 3, Cells: cells}
}

func TestDiffRefusesIncomparableArtifacts(t *testing.T) {
	base := report(benchkit.JSONCell{Query: "q1", Backend: "hybrid", WallMS: 1})
	for name, mutate := range map[string]func(*benchkit.JSONReport){
		"sf":      func(r *benchkit.JSONReport) { r.SF = 0.1 },
		"workers": func(r *benchkit.JSONReport) { r.Workers = 8 },
		"runs":    func(r *benchkit.JSONReport) { r.Runs = 1 },
	} {
		next := report(base.Cells...)
		mutate(next)
		var out strings.Builder
		if _, err := diff(&out, base, next, 0.1); !errors.Is(err, errIncomparable) {
			t.Errorf("%s mismatch: err = %v, want errIncomparable", name, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s mismatch still printed a table:\n%s", name, &out)
		}
	}
}

// TestDiffRefusesDuplicateCells: an artifact of the removed `-exchange both`
// axis carries two cells per (query, backend); matching either is a guess.
func TestDiffRefusesDuplicateCells(t *testing.T) {
	single := report(benchkit.JSONCell{Query: "q1", Backend: "hybrid", WallMS: 1})
	double := report(single.Cells[0], benchkit.JSONCell{Query: "q1", Backend: "hybrid", WallMS: 5})
	for name, pair := range map[string][2]*benchkit.JSONReport{
		"baseline": {double, single},
		"new":      {single, double},
	} {
		var out strings.Builder
		_, err := diff(&out, pair[0], pair[1], 0.1)
		if !errors.Is(err, errIncomparable) || !strings.Contains(err.Error(), "duplicate cell q1/hybrid") {
			t.Errorf("duplicate in %s: err = %v, want errIncomparable naming q1/hybrid", name, err)
		}
		if out.Len() != 0 {
			t.Errorf("duplicate in %s still printed a table:\n%s", name, &out)
		}
	}
}

func TestDiffTableAndCounters(t *testing.T) {
	base := report(
		benchkit.JSONCell{Query: "q1", Backend: "hybrid", WallMS: 10, Counters: stats.Counters{HTSpills: 16, VMOps: 500}},
		benchkit.JSONCell{Query: "q3", Backend: "rof", WallMS: 0}, // an unmeasured baseline cell
		benchkit.JSONCell{Query: "q6", Backend: "vectorized", WallMS: 4},
	)
	next := report(
		benchkit.JSONCell{Query: "q1", Backend: "hybrid", WallMS: 12, Counters: stats.Counters{HTSpills: 0, VMOps: 500, CompileTime: 5}},
		benchkit.JSONCell{Query: "q3", Backend: "rof", WallMS: 7},
		benchkit.JSONCell{Query: "q5", Backend: "hybrid", WallMS: 3},
	)
	var sb strings.Builder
	regressions, err := diff(&sb, base, next, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if regressions != 1 {
		t.Errorf("regressions = %d, want 1 (q1/hybrid only):\n%s", regressions, out)
	}
	for _, want := range []string{
		"q1     hybrid               10.00      12.00    +20.0%  REGRESSION",
		"q3     rof                   0.00       7.00       n/a\n", // never +Inf%, never flagged
		"q5     hybrid                   -       3.00       new\n",
		"q6     vectorized            4.00          -   missing\n",
		"q1     hybrid          ht_spills 16 -> 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, not := range []string{"Inf", "vm_ops", "compile_time"} { // equal counters and timings are not diffed
		if strings.Contains(out, not) {
			t.Errorf("output mentions %q:\n%s", not, out)
		}
	}
}
