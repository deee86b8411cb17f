package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"inkfuse/internal/sql"
	"inkfuse/internal/storage"
	"inkfuse/internal/tpch"
	"inkfuse/internal/types"
	"inkfuse/internal/volcano"
)

// An answer is what a SQL text must return, in the form a JSON reply decodes
// to: numbers as float64, strings and dates as string. Rows holds the first
// maxRows rows.
type answer struct {
	TotalRows int     `json:"total_rows"`
	Rows      [][]any `json:"rows"`
}

// volcanoAnswer evaluates text on internal/volcano, the tuple-at-a-time
// interpreter that shares no code with the engine's lowering, VM or hash
// tables.
func volcanoAnswer(cat *storage.Catalog, text string) (*answer, error) {
	stmt, err := sql.Compile(cat, text)
	if err != nil {
		return nil, err
	}
	out, err := volcano.Run(stmt.Root)
	if err != nil {
		return nil, err
	}
	a := &answer{TotalRows: out.Rows()}
	for i := 0; i < min(out.Rows(), maxRows); i++ {
		row := out.Row(i)
		for j, col := range out.Cols {
			switch v := row[j].(type) {
			case int32:
				if col.Kind == types.Date {
					row[j] = types.DateString(v)
				} else {
					row[j] = float64(v)
				}
			case int64:
				row[j] = float64(v)
			}
		}
		a.Rows = append(a.Rows, row)
	}
	return a, nil
}

// mismatch describes how a reply differs from the expected answer, or returns
// "" when they agree. Numbers agree at 6 significant digits: the engine sums
// floats in parallel, in an order that changes from run to run.
func mismatch(want *answer, got *reply) string {
	if got.TotalRows != want.TotalRows {
		return fmt.Sprintf("%d rows, want %d", got.TotalRows, want.TotalRows)
	}
	for i, wantRow := range want.Rows {
		gotRow := got.Data[i]
		if len(gotRow) != len(wantRow) {
			return fmt.Sprintf("row %d has %d columns, want %d", i, len(gotRow), len(wantRow))
		}
		for j := range wantRow {
			if !sameCell(wantRow[j], gotRow[j]) {
				return fmt.Sprintf("row %d column %d is %v, want %v", i, j, gotRow[j], wantRow[j])
			}
		}
	}
	return ""
}

func sameCell(want, got any) bool {
	w, wok := want.(float64)
	g, gok := got.(float64)
	if wok && gok {
		return math.Abs(w-g) <= 1e-6*math.Max(math.Abs(w), math.Abs(g))
	}
	return want == got
}

// From goldenSF up the live oracle is out of reach of a benchmark run (volcano
// needs 2-4 s per query at SF 0.5 and 15-40 s at SF 1), so answers come from
// a file that `-write-oracle` recorded from volcano for goldenVariants fixed
// literal draws of every shape. The catalog is a pure function of
// (SF, catalogSeed), so the file holds as long as tpch.Generate's output does.
const (
	goldenSF       = 0.5
	goldenVariants = 4
)

func goldenPath(benchDir string, w workload) string {
	return filepath.Join(benchDir, "testdata", "oracle-"+w.name+".json")
}

// goldenText is the text of variant v of a shape: a literal draw that does not
// depend on the run seed.
func goldenText(s shape, v int) string { return s.sql(rand.New(rand.NewSource(int64(v)))) }

// writeGolden records volcano's answers for every shape and variant of w.
func writeGolden(benchDir string, w workload) error {
	cat := tpch.Generate(w.sf, catalogSeed)
	answers := map[string]*answer{}
	for _, s := range w.shapes(0) {
		for v := 0; v < goldenVariants; v++ {
			text := goldenText(s, v)
			a, err := volcanoAnswer(cat, text)
			if err != nil {
				return fmt.Errorf("%w\n%s", err, text)
			}
			answers[text] = a
			fmt.Printf("%s variant %d: %d rows\n", s.family, v, a.TotalRows)
		}
	}
	raw, err := json.MarshalIndent(answers, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(benchDir, w), append(raw, '\n'), 0o644)
}

// verifyShapes picks which shapes a run verifies: w.verify of them, starting
// at a seeded offset and taking every family equally often.
func verifyShapes(w workload, shapes []shape, seed int64) []int {
	families := map[string]bool{}
	for _, s := range shapes {
		families[s.family] = true
	}
	perFamily := (w.verify + len(families) - 1) / len(families)
	taken := map[string]int{}
	var out []int
	offset := int(uint64(seed) % uint64(len(shapes)))
	for k := 0; k < len(shapes) && len(out) < w.verify; k++ {
		i := (offset + k) % len(shapes)
		if f := shapes[i].family; taken[f] < perFamily {
			taken[f]++
			out = append(out, i)
		}
	}
	return out
}

// verify sends a seeded sample of the workload's requests and compares every
// reply with the oracle's answer. It returns how many it sent and a
// description of each reply that differs. cat is the in-process copy of the
// server's catalog; it may be nil when the answers come from the golden file.
func verify(srv *server, w workload, shapes []shape, seed int64, cat *storage.Catalog, benchDir string) (int, []string, error) {
	var golden map[string]*answer
	if w.sf >= goldenSF {
		raw, err := os.ReadFile(goldenPath(benchDir, w))
		if err != nil {
			return 0, nil, err
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			return 0, nil, fmt.Errorf("%s: %w", goldenPath(benchDir, w), err)
		}
	}
	c := newClient(srv.url)
	defer c.http.CloseIdleConnections()
	r := rand.New(rand.NewSource(seed - 1)) // literal draws no client stream makes
	var bad []string
	picked := verifyShapes(w, shapes, seed)
	for _, i := range picked {
		var (
			text string
			want *answer
		)
		if golden != nil {
			text = goldenText(shapes[i], int(uint64(seed)%goldenVariants))
			if want = golden[text]; want == nil {
				return 0, nil, fmt.Errorf("%s has no answer for a %s text; run -write-oracle", goldenPath(benchDir, w), shapes[i].family)
			}
		} else {
			text = shapes[i].sql(r)
			var err error
			if want, err = volcanoAnswer(cat, text); err != nil {
				return 0, nil, fmt.Errorf("oracle: %w\n%s", err, text)
			}
		}
		got, _, err := c.query(text)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%v\n%s", err, text))
		} else if diff := mismatch(want, got); diff != "" {
			bad = append(bad, fmt.Sprintf("%s\n%s", diff, text))
		}
	}
	return len(picked), bad, nil
}
