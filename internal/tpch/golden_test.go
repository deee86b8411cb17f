package tpch

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"inkfuse/internal/algebra"
	"inkfuse/internal/exec"
)

// TestGoldenResults pins every query's result at SF 0.002 / seed 42 on all
// four backends against a checked-in golden file. This is the long-term
// regression net: any change to the generator, the SQL binder, the lowering,
// the suboperators, the VM, or the hash tables that alters query output
// fails here with a precise diff. Regenerate deliberately with
// `go run ./internal/tpch/testdata/gen`.
func TestGoldenResults(t *testing.T) {
	golden, err := loadGolden("testdata/golden_sf0002.txt")
	if err != nil {
		t.Fatal(err)
	}
	cat := Generate(0.002, 42)
	for _, q := range append(append([]string{}, Queries...), ExtendedQueries...) {
		t.Run(q, func(t *testing.T) {
			want, ok := golden[q]
			if !ok {
				t.Fatalf("golden file is missing %s — regenerate it", q)
			}
			node, err := Build(cat, q)
			if err != nil {
				t.Fatal(err)
			}
			_, ordered := node.(*algebra.OrderBy)
			for _, backend := range []exec.Backend{
				exec.BackendVectorized, exec.BackendCompiling, exec.BackendROF, exec.BackendHybrid,
			} {
				plan, err := algebra.Lower(node, q)
				if err != nil {
					t.Fatal(err)
				}
				lat := exec.LatencyNone
				res, err := exec.Execute(plan, exec.Options{Backend: backend, Workers: 2, Latency: &lat})
				if err != nil {
					t.Fatalf("%v: %v", backend, err)
				}
				got := make([]string, res.Rows())
				for i := range got {
					got[i] = fmt.Sprintf("%.6v", res.Chunk.Row(i))
				}
				if !ordered {
					sort.Strings(got)
				}
				if len(got) != len(want) {
					t.Fatalf("%v: %d rows, golden has %d", backend, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%v row %d:\n got  %s\n want %s", backend, i, got[i], want[i])
						break
					}
				}
			}
		})
	}
}

func loadGolden(path string) (map[string][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]string)
	var cur string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#") || line == "":
		case strings.HasPrefix(line, "== "):
			cur = strings.Fields(line)[1]
			out[cur] = []string{}
		default:
			out[cur] = append(out[cur], line)
		}
	}
	return out, sc.Err()
}
