// benchdiff compares two inkbench JSON artifacts cell by cell and prints the
// per-query/backend wall-time delta. Cells slower than the baseline by more
// than the regression threshold are flagged, and with -fail the exit status
// reflects them so a script can gate on it. It is the in-process, per-cell
// companion of the repository's benchmark (`bash bench/run.sh`); the
// BENCH_PR<n>.json artifacts it was written for are in git history only.
//
//	go run ./cmd/inkbench -json > new.json
//	go run ./cmd/benchdiff -threshold 0.10 -fail old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type cell struct {
	Query    string  `json:"query"`
	Backend  string  `json:"backend"`
	WallMS   float64 `json:"wall_ms"`
	Rows     int64   `json:"rows"`
	Exchange bool    `json:"exchange"`

	HTLocalHits     int64 `json:"ht_local_hits"`
	HTSpills        int64 `json:"ht_spills"`
	HTBloomSkips    int64 `json:"ht_bloom_skips"`
	PartRoutedRows  int64 `json:"part_routed_rows"`
	PartMaxPartRows int64 `json:"part_max_part_rows"`
}

// key identifies a cell across artifacts; the exchange axis is part of the
// identity so on/off cells of the same query/backend never diff against each
// other.
func (c cell) key() string {
	k := c.Query + "/" + c.Backend
	if c.Exchange {
		k += "/exchange"
	}
	return k
}

// counters reports whether the cell carries any behaviour counters worth
// diffing (older artifacts predate them and decode as all-zero).
func (c cell) counters() bool {
	return c.HTLocalHits != 0 || c.HTSpills != 0 || c.HTBloomSkips != 0 || c.PartRoutedRows != 0
}

type report struct {
	SF      float64 `json:"sf"`
	Workers int     `json:"workers"`
	Runs    int     `json:"runs"`
	Cells   []cell  `json:"cells"`
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
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
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	next, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	if base.SF != next.SF {
		fmt.Printf("note: scale factors differ (baseline SF %g, new SF %g) — deltas are not comparable\n", base.SF, next.SF)
	}
	if base.Workers != next.Workers {
		fmt.Printf("note: worker counts differ (baseline %d, new %d) — wall-time deltas reflect parallelism, not code\n",
			base.Workers, next.Workers)
	}

	old := make(map[string]cell, len(base.Cells))
	for _, c := range base.Cells {
		old[c.key()] = c
	}

	fmt.Printf("%-6s %-15s %10s %10s %9s\n", "query", "backend", "base ms", "new ms", "delta")
	regressions := 0
	anyCounters := false
	for _, c := range next.Cells {
		name := c.Backend
		if c.Exchange {
			name += "+ex"
		}
		b, ok := old[c.key()]
		if !ok {
			fmt.Printf("%-6s %-15s %10s %10.2f %9s\n", c.Query, name, "-", c.WallMS, "new")
			continue
		}
		anyCounters = anyCounters || b.counters() || c.counters()
		delta := c.WallMS/b.WallMS - 1
		mark := ""
		if delta > *threshold {
			mark = "  REGRESSION"
			regressions++
		}
		fmt.Printf("%-6s %-15s %10.2f %10.2f %+8.1f%%%s\n", c.Query, name, b.WallMS, c.WallMS, 100*delta, mark)
	}
	if anyCounters {
		fmt.Printf("\ncounter deltas (local_hits/spills/bloom_skips/routed, base -> new):\n")
		for _, c := range next.Cells {
			b, ok := old[c.key()]
			if !ok || (!b.counters() && !c.counters()) {
				continue
			}
			name := c.Backend
			if c.Exchange {
				name += "+ex"
			}
			fmt.Printf("%-6s %-15s %d/%d/%d/%d -> %d/%d/%d/%d\n", c.Query, name,
				b.HTLocalHits, b.HTSpills, b.HTBloomSkips, b.PartRoutedRows,
				c.HTLocalHits, c.HTSpills, c.HTBloomSkips, c.PartRoutedRows)
		}
	}
	if regressions > 0 {
		fmt.Printf("%d cell(s) regressed more than %.0f%%\n", regressions, 100**threshold)
		if *failOnRegress {
			os.Exit(1)
		}
	}
}
