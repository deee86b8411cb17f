// Command inkbench regenerates the paper's tables and figures:
//
//	inkbench -exp fig9   [-sf 0.5]   — Fig 9: relative backend throughput
//	inkbench -exp table1 [-sf 0.5]   — Table I: counter proxies for Q1/Q4 (or -queries)
//	inkbench -exp fig10  [-sfs 0.005,0.05,0.5] — Fig 10: cross-system latency
//	inkbench -exp ablations          — DESIGN.md ablation suite
//	inkbench -exp all                — everything above
//
// -runs, -workers and -queries narrow any experiment. One observability mode
// skips the experiments:
//
//	inkbench -explain [-backend hybrid] [-queries q1,q6] — EXPLAIN ANALYZE:
//	    run each query once and print the suboperator plan annotated with
//	    measured morsel counts, busy time, compile timing and hybrid routing
//	inkbench -explain -trace          — additionally dump the full per-worker
//	    execution trace (morsel-level EWMA series of the hybrid router)
//
// Every -exp table is preceded by an env line naming the host and the run
// (CPUs, GOMAXPROCS, Go version, vcs.revision, workers, SF, runs).
//
// Degraded measurements (a background compile failed mid-run and the
// pipeline was served vectorized-only) are flagged with '*' in every table
// and reported on stderr.
//
// Absolute numbers depend on the host; the shapes (who wins, where the
// crossovers fall) are what EXPERIMENTS.md records against the paper. The
// benchmark a change is judged by is bench/run.sh, not this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"inkfuse"
	"inkfuse/internal/benchkit"
	"inkfuse/internal/tpch"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig9 | table1 | fig10 | ablations | all")
	sf := flag.Float64("sf", 0.05, "scale factor for fig9/table1/ablations")
	sfs := flag.String("sfs", "0.005,0.05,0.5", "comma-separated scale factors for fig10")
	runs := flag.Int("runs", 3, "timing repetitions (median reported)")
	workers := flag.Int("workers", 0, "worker threads (0 = GOMAXPROCS)")
	queries := flag.String("queries", "", "comma-separated query subset (default: all eight)")
	explain := flag.Bool("explain", false, "EXPLAIN ANALYZE mode: run each -queries query once on -backend and print the annotated plan, then exit")
	traceFlag := flag.Bool("trace", false, "with -explain: also dump the full per-worker execution trace")
	backend := flag.String("backend", "hybrid", "backend for -explain: vectorized | compiling | rof | hybrid")
	flag.Parse()

	cfg := benchkit.Config{SF: *sf, Runs: *runs, Workers: *workers}
	if *queries != "" {
		cfg.Queries = strings.Split(*queries, ",")
	}
	cfg = cfg.WithDefaults()

	if *explain {
		if err := explainQueries(cfg, *backend, *traceFlag); err != nil {
			fmt.Fprintf(os.Stderr, "inkbench: explain: %v\n", err)
			os.Exit(1)
		}
		return
	}

	run := func(name string, f func() error) {
		if *exp != name && *exp != "all" {
			return
		}
		fmt.Println(envLine(cfg))
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "inkbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("fig9", func() error {
		fmt.Printf("# Fig 9 — relative throughput vs vectorized backend (SF %g, %d workers)\n", cfg.SF, cfg.Workers)
		rel, cells, err := benchkit.Fig9(cfg)
		if err != nil {
			return err
		}
		benchkit.PrintFig9(os.Stdout, rel, cfg.Queries, benchkit.DegradedCells(cells))
		fmt.Println()
		return nil
	})

	run("table1", func() error {
		tcfg := cfg
		if *queries == "" {
			tcfg.Queries = benchkit.Table1Queries
		}
		fmt.Printf("# Table I — counter proxies, %s (SF %g, %d workers)\n", strings.Join(tcfg.Queries, ", "), cfg.SF, cfg.Workers)
		cells, err := benchkit.Table1(tcfg)
		if err != nil {
			return err
		}
		benchkit.PrintTable1(os.Stdout, cells)
		fmt.Println()
		return nil
	})

	run("fig10", func() error {
		var factors []float64
		for _, s := range strings.Split(*sfs, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("bad -sfs element %q: %w", s, err)
			}
			factors = append(factors, v)
		}
		fmt.Printf("# Fig 10 — end-to-end latency across systems and scale factors %v\n", factors)
		fmt.Println("# (compile-wait = the dashed bar areas of the paper)")
		cells, err := benchkit.Fig10(cfg, factors)
		if err != nil {
			return err
		}
		benchkit.PrintCells(os.Stdout, cells)
		fmt.Println()
		return nil
	})

	run("ablations", func() error {
		fmt.Printf("# Ablations (SF %g)\n", cfg.SF)
		if rows, err := benchkit.AblationChunkSize(cfg, "q6", []int{64, 256, 1024, 4096, 16384}); err != nil {
			return err
		} else {
			benchkit.PrintAblation(os.Stdout, "vectorized chunk size (q6)", rows)
		}
		if rows, err := benchkit.AblationHybridExploration(cfg, "q1", []int{4, 20, 100}); err != nil {
			return err
		} else {
			benchkit.PrintAblation(os.Stdout, "hybrid exploration period (q1)", rows)
		}
		if rows, err := benchkit.AblationKeyPacking(cfg); err != nil {
			return err
		} else {
			benchkit.PrintAblation(os.Stdout, "key packing shapes (compiling backend)", rows)
		}
		if rows, err := benchkit.AblationROFSplit(cfg, "q3"); err != nil {
			return err
		} else {
			benchkit.PrintAblation(os.Stdout, "pipeline split granularity (q3)", rows)
		}
		if rows, err := benchkit.AblationMorselSize(cfg, "q1", []int{4096, 16384, 65536}); err != nil {
			return err
		} else {
			benchkit.PrintAblation(os.Stdout, "hybrid morsel size (q1)", rows)
		}
		return nil
	})

	if *exp == "all" || *exp == "fig9" {
		cat := tpch.Generate(cfg.SF, cfg.Seed)
		fmt.Printf("# data: %s\n", benchkit.CatalogRows(cat))
	}
}

// envLine names the host and the run a table was measured on, so a recorded
// number can be compared with its predecessor (ROADMAP "measured performance").
// vcs.revision is stamped by `go build`, not by `go run`.
func envLine(cfg benchkit.Config) string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value[:min(12, len(s.Value))]
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return fmt.Sprintf("# env: cpus=%d gomaxprocs=%d go=%s vcs.revision=%s workers=%d sf=%g runs=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev+dirty, cfg.Workers, cfg.SF, cfg.Runs)
}

// explainQueries runs each configured query once with tracing enabled and
// prints the EXPLAIN ANALYZE rendering (plus the raw trace with -trace).
func explainQueries(cfg benchkit.Config, backendName string, dumpTrace bool) error {
	be, err := inkfuse.ParseBackend(backendName)
	if err != nil {
		return err
	}
	cat := inkfuse.GenerateTPCH(cfg.SF, cfg.Seed)
	for _, q := range cfg.Queries {
		node, err := inkfuse.TPCHQuery(cat, q)
		if err != nil {
			return err
		}
		out, res, err := inkfuse.ExplainAnalyze(node, q, inkfuse.Options{
			Backend: be,
			Workers: cfg.Workers,
		})
		if out != "" {
			fmt.Print(out)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
		for _, w := range res.Warnings {
			fmt.Fprintf(os.Stderr, "inkbench: %s: warning: %v\n", q, w)
		}
		if dumpTrace && res.Trace != nil {
			fmt.Print(res.Trace.Dump())
		}
		fmt.Println()
	}
	return nil
}
