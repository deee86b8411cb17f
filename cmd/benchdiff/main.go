// benchdiff compares two inkbench JSON artifacts cell by cell and prints the
// per-query/backend wall-time delta. Cells slower than the baseline by more
// than the regression threshold are flagged, and with -fail the exit status
// reflects them so a script can gate on it. Artifacts measured at a different
// scale factor, worker count or run count are refused (exit 2): their deltas
// would reflect the configuration, not the code. It is the in-process,
// per-cell companion of the repository's benchmark (`bash bench/run.sh`); the
// BENCH_PR<n>.json artifacts it was written for are in git history only.
//
//	go run ./cmd/inkbench -json > new.json
//	go run ./cmd/benchdiff -threshold 0.10 -fail old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"inkfuse/internal/benchkit"
	"inkfuse/internal/stats"
)

// errIncomparable marks two artifacts measured under different configurations.
var errIncomparable = errors.New("artifacts are not comparable")

// key identifies a cell across artifacts.
type key struct{ query, backend string }

func keyOf(c *benchkit.JSONCell) key { return key{c.Query, c.Backend} }

// index maps a report's cells by key. Two cells under one key cannot be
// matched against anything: an artifact recorded with the removed
// `inkbench -exchange both` axis decodes that way, and the second cell would
// silently replace the first.
func index(r *benchkit.JSONReport) (map[key]*benchkit.JSONCell, error) {
	m := make(map[key]*benchkit.JSONCell, len(r.Cells))
	for i := range r.Cells {
		c := &r.Cells[i]
		if _, dup := m[keyOf(c)]; dup {
			return nil, fmt.Errorf("%w: duplicate cell %s/%s", errIncomparable, c.Query, c.Backend)
		}
		m[keyOf(c)] = c
	}
	return m, nil
}

func load(path string) (*benchkit.JSONReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchkit.JSONReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// diff prints the wall-time table and, below it, every behaviour counter of
// the telemetry schema that differs between matched cells. It returns the
// number of cells that regressed past threshold; a baseline wall of 0 has no
// relative delta and is never flagged.
func diff(w io.Writer, base, next *benchkit.JSONReport, threshold float64) (int, error) {
	if base.SF != next.SF || base.Workers != next.Workers || base.Runs != next.Runs {
		return 0, fmt.Errorf("%w: baseline sf=%g workers=%d runs=%d, new sf=%g workers=%d runs=%d", errIncomparable,
			base.SF, base.Workers, base.Runs, next.SF, next.Workers, next.Runs)
	}
	old, err := index(base)
	if err != nil {
		return 0, err
	}
	cur, err := index(next)
	if err != nil {
		return 0, err
	}

	fmt.Fprintf(w, "%-6s %-15s %10s %10s %9s\n", "query", "backend", "base ms", "new ms", "delta")
	regressions := 0
	for i := range next.Cells {
		c := &next.Cells[i]
		b := old[keyOf(c)]
		switch {
		case b == nil:
			fmt.Fprintf(w, "%-6s %-15s %10s %10.2f %9s\n", c.Query, c.Backend, "-", c.WallMS, "new")
		case b.WallMS == 0:
			fmt.Fprintf(w, "%-6s %-15s %10.2f %10.2f %9s\n", c.Query, c.Backend, b.WallMS, c.WallMS, "n/a")
		default:
			delta := c.WallMS/b.WallMS - 1
			mark := ""
			if delta > threshold {
				mark = "  REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "%-6s %-15s %10.2f %10.2f %+8.1f%%%s\n", c.Query, c.Backend, b.WallMS, c.WallMS, 100*delta, mark)
		}
	}
	for i := range base.Cells {
		if b := &base.Cells[i]; cur[keyOf(b)] == nil {
			fmt.Fprintf(w, "%-6s %-15s %10.2f %10s %9s\n", b.Query, b.Backend, b.WallMS, "-", "missing")
		}
	}

	// Durations are timings, which the table above covers; everything else in
	// the schema is behaviour and should only move when the code did.
	header := false
	for i := range next.Cells {
		c := &next.Cells[i]
		b := old[keyOf(c)]
		if b == nil {
			continue
		}
		for j := range stats.Schema {
			r := &stats.Schema[j]
			if bv, cv := *r.Of(&b.Counters), *r.Of(&c.Counters); bv != cv && !r.Dur {
				if !header {
					fmt.Fprintf(w, "\ncounter deltas (base -> new):\n")
					header = true
				}
				fmt.Fprintf(w, "%-6s %-15s %s %d -> %d\n", c.Query, c.Backend, r.Name, bv, cv)
			}
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d cell(s) regressed more than %.0f%%\n", regressions, 100*threshold)
	}
	return regressions, nil
}

func main() {
	threshold := flag.Float64("threshold", 0.10, "flag cells slower than baseline by more than this fraction")
	failOnRegress := flag.Bool("fail", false, "exit 1 if any cell regresses past the threshold")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [flags] baseline.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	var reports [2]*benchkit.JSONReport
	for i := range reports {
		var err error
		if reports[i], err = load(flag.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
	}
	regressions, err := diff(os.Stdout, reports[0], reports[1], *threshold)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if regressions > 0 && *failOnRegress {
		os.Exit(1)
	}
}
