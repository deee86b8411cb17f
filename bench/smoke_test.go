package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the harness must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []benchmarkMetric       `json:"end_to_end"`
	PerLayer  []benchmarkMetric       `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload untraced and one of them traced, at SF 0.01
// with 0.5 s windows, and requires that the workload names, and the metric
// names and units of the printed result lines, are those of BENCHMARK.json.
// The runs are parallel subtests and no timing is asserted. On two cores the
// test takes 8 s; with 1 s windows it took the 10 s it may use.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(file.Workloads), len(workloads))
	}

	inkserve := filepath.Join(t.TempDir(), "inkserve")
	if out, err := exec.Command("go", "build", "-o", inkserve, "inkfuse/cmd/inkserve").CombinedOutput(); err != nil {
		t.Fatalf("building inkserve: %v\n%s", err, out)
	}
	// Every run writes inkserve-<workload>.log, so each gets its own directory.
	newConfig := func(t *testing.T) config {
		return config{inkserve: inkserve, benchDir: ".", outDir: t.TempDir(), seed: 3, seconds: 0.5, sf: 0.01}
	}

	check := func(t *testing.T, res *result, defs []metricDef, want []benchmarkMetric) {
		t.Helper()
		if !res.correct || res.failed > 0 {
			t.Errorf("%s: correct=%v, %d of %d requests failed", res.workload, res.correct, res.failed, res.attempted)
		}
		var line struct {
			Metrics map[string]struct{ Unit string } `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(resultLine(res, defs)), &line); err != nil {
			t.Fatal(err)
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", res.workload, len(line.Metrics), len(want))
		}
		for i, m := range want {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q is not made of letters, digits, '_', '.' and '-'", m.Name)
			}
			got, ok := line.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: metric %s of BENCHMARK.json is not printed", res.workload, m.Name)
				continue
			}
			if got.Unit != m.Unit {
				t.Errorf("%s: %s printed in %s, BENCHMARK.json says %s", res.workload, m.Name, got.Unit, m.Unit)
			}
			if d := defs[i]; d.name != m.Name || d.better != m.Better || d.bound != m.Bound {
				t.Errorf("metric %d is %+v in the harness and %+v in BENCHMARK.json", i, d, m)
			}
			if _, measured := res.metrics[m.Name]; !measured {
				t.Errorf("%s: %s has no measured value", res.workload, m.Name)
			}
		}
	}
	for i, fw := range file.Workloads {
		w, ok := findWorkload(fw.Name)
		if !ok || !nameRE.MatchString(fw.Name) {
			t.Fatalf("workload %q of BENCHMARK.json is unknown to the harness or badly named", fw.Name)
		}
		t.Run("untraced/"+w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runUntraced(newConfig(t), w)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, endToEnd, file.EndToEnd)
		})
		if i > 0 {
			continue
		}
		t.Run("traced/"+w.name, func(t *testing.T) {
			t.Parallel()
			cfg := newConfig(t)
			traced, err := runTraced(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			check(t, traced, perLayer, file.PerLayer)
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("the traced replay wrote no span file: %v", err)
			}
		})
	}
}
