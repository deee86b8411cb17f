// Command bench is the repository's benchmark: it starts a real inkserve child
// process per workload, drives it over loopback HTTP with SQL text in a closed
// loop, checks answers against an independent oracle and prints the
// end-to-end metrics; a traced run replays the same requests in-process
// through the exported functions of every layer and prints the per-layer
// metrics. BENCHMARK.json is its contract and README.md its manual.
//
//	bash bench/run.sh --workload scan_agg_sf1 --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --seed 1          # all workloads, untraced and traced
//	bash bench/run.sh --seed 1 -aa      # the untraced set twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"inkfuse/internal/interp"
	"inkfuse/internal/storage"
	"inkfuse/internal/tpch"
)

// config locates the files a run needs and sizes it.
type config struct {
	inkserve string  // the inkserve binary
	benchDir string  // this directory: testdata/ is read from it
	outDir   string  // logs and span files are written here
	seed     int64   // drives literal draws, shape generation and request order
	seconds  float64 // length of the timed window
	sf       float64 // set by the smoke test only: when > 0, every workload runs at this scale factor
}

// result is one run of one workload.
type result struct {
	workload  string
	metrics   map[string]float64
	correct   bool
	attempted int
	failed    int
	samples   int     // timed requests that succeeded
	cacheHits int     // timed replies that said plan_cache hit
	verifyS   float64 // time spent on the answer check, outside every metric
}

func main() {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	cfg := config{outDir: filepath.Dir(exe)}
	cfg.benchDir = filepath.Dir(cfg.outDir)
	cfg.inkserve = filepath.Join(cfg.outDir, "inkserve")
	var (
		name        = flag.String("workload", "", "run one workload and end with the one-line JSON result; default runs all")
		trace       = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		aa          = flag.Bool("aa", false, "run the untraced set twice on this build and compare the two against the bounds")
		writeOracle = flag.Bool("write-oracle", false, "record volcano's answers for the workloads above the live oracle's reach")
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated requests")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of the timed window")
	flag.Parse()

	switch {
	case *writeOracle:
		for _, w := range workloads {
			if w.sf >= goldenSF {
				if err := writeGolden(cfg.benchDir, w); err != nil {
					fatal(err)
				}
			}
		}
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		run, defs := runUntraced, endToEnd
		if *trace == 1 {
			run, defs = runTraced, perLayer
		}
		res, err := run(cfg, w)
		if err != nil {
			fatal(err)
		}
		printMetrics(res, defs)
		fmt.Println(resultLine(res, defs))
		if !res.correct || res.failed > 0 {
			os.Exit(1)
		}
	case *aa:
		if !runAA(cfg) {
			os.Exit(1)
		}
	default:
		if !runAll(cfg) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// atSF applies the smoke test's scale factor.
func (cfg config) atSF(w workload) workload {
	if cfg.sf > 0 {
		w.sf = cfg.sf
	}
	return w
}

// setUp starts a server and warms it up. It returns the server, the client
// streams the warm-up drew from, and the time from spawn to warm-up done.
func setUp(cfg config, w workload, shapes []shape) (*server, []*stream, float64, error) {
	srv, err := startServer(cfg.inkserve, cfg.outDir, w.name, w.sf)
	if err != nil {
		return nil, nil, 0, err
	}
	streams := newStreams(w, shapes, cfg.seed)
	if err := warmUp(srv, w, streams, cfg.seconds); err != nil {
		srv.stop()
		return nil, nil, 0, err
	}
	return srv, streams, time.Since(srv.spawned).Seconds(), nil
}

// check verifies the server's answers and books the outcome on res.
func check(cfg config, srv *server, w workload, shapes []shape, cat *storage.Catalog, res *result) error {
	start := time.Now()
	n, bad, err := verify(srv, w, shapes, cfg.seed, cat, cfg.benchDir)
	if err != nil {
		return err
	}
	res.verifyS = time.Since(start).Seconds()
	res.attempted += n
	res.failed += len(bad)
	res.correct = len(bad) == 0
	for _, b := range bad {
		fmt.Println("verify mismatch:", b)
	}
	return nil
}

func (res *result) addWindow(win *window) {
	res.attempted += win.attempted
	res.failed += win.failed
	res.samples = len(win.samples)
	res.cacheHits = win.cacheHits
	if win.firstErr != nil {
		fmt.Println("request failed:", win.firstErr)
	}
}

// runUntraced measures the end-to-end metrics of one workload: w.setups
// server set-ups (the first one also serves the answer check, the last one
// the timed window) and one closed-loop window.
func runUntraced(cfg config, w workload) (*result, error) {
	w = cfg.atSF(w)
	shapes := w.shapes(cfg.seed)
	res := &result{workload: w.name}
	var cat *storage.Catalog
	if w.sf < goldenSF {
		cat = tpch.Generate(w.sf, catalogSeed)
	}
	var (
		srv     *server
		streams []*stream
		setups  []float64
	)
	for k := 0; k < w.setups; k++ {
		var (
			s   float64
			err error
		)
		if srv, streams, s, err = setUp(cfg, w, shapes); err != nil {
			return nil, err
		}
		setups = append(setups, s)
		if k == 0 {
			if err := check(cfg, srv, w, shapes, cat, res); err != nil {
				srv.stop()
				return nil, err
			}
		}
		if k < w.setups-1 {
			srv.stop()
		}
	}
	defer srv.stop()
	cat = nil // the oracle's copy is garbage by the time the window runs
	runtime.GC()

	win, err := runWindow(srv, w, streams, time.Duration(cfg.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	res.addWindow(win)
	if len(win.samples) == 0 {
		return nil, fmt.Errorf("%s: no request succeeded in the window", w.name)
	}

	var pooled []float64
	byFamily := map[string][]float64{}
	for _, s := range win.samples {
		pooled = append(pooled, s.latencyMS)
		f := shapes[s.shape].family
		byFamily[f] = append(byFamily[f], s.latencyMS)
	}
	var medians []float64
	for _, xs := range byFamily {
		medians = append(medians, median(xs))
	}
	res.metrics = map[string]float64{
		"query_ms_p50_gmean": geomean(medians),
		"query_ms_p90":       quantile(pooled, 0.9),
		"queries_per_s":      float64(len(win.samples)) / win.seconds,
		"cpu_s_per_query":    win.cpuS / float64(len(win.samples)),
		"setup_s":            median(setups),
	}
	return res, nil
}

// runTraced measures the per-layer metrics of one workload: a short HTTP
// window for the ones derived from response fields (source a), the in-process
// traced replay (b) and the rt kernel loops (c).
func runTraced(cfg config, w workload) (*result, error) {
	w = cfg.atSF(w)
	shapes := w.shapes(cfg.seed)
	res := &result{workload: w.name}

	start := time.Now()
	cat := tpch.Generate(w.sf, catalogSeed)
	generateS := time.Since(start).Seconds()
	start = time.Now()
	reg, err := interp.NewRegistry()
	if err != nil {
		return nil, err
	}
	registryMS := ms(time.Since(start))

	srv, streams, _, err := setUp(cfg, w, shapes)
	if err != nil {
		return nil, err
	}
	// The answer check comes after the window: before it, its requests would
	// leave shapes in the ad-hoc workload's plan cache.
	win, err := runWindow(srv, w, streams, time.Duration(0.2*cfg.seconds*float64(time.Second)))
	var rss float64
	if err == nil {
		rss, err = srv.peakRSSMiB()
	}
	if err == nil {
		err = check(cfg, srv, w, shapes, cat, res)
	}
	srv.stop() // the in-process phases get the memory and both cores
	if err != nil {
		return nil, err
	}
	res.addWindow(win)
	var outside, queued []float64
	for _, s := range win.samples {
		outside = append(outside, 1e3*(s.latencyMS-s.wallMS-s.queueWaitMS))
		queued = append(queued, 1e3*s.queueWaitMS)
	}

	n := max(4, int(w.replayPerSecond*cfg.seconds))
	m, failed, err := replay(w, shapes, cfg.seed, cat, n, cfg.outDir)
	if err != nil {
		return nil, err
	}
	res.attempted += n
	res.failed += failed
	m["serve.outside_exec_us"] = median(outside)
	m["serve.peak_rss_mb"] = rss
	m["sched.queue_wait_us"] = quantile(queued, 0.9)
	m["tpch.generate_s"] = generateS
	m["interp.registry_build_ms"] = registryMS
	m["interp.primitives"] = float64(reg.Len())
	for name, v := range runKernels(cfg.seed) {
		m[name] = v
	}
	res.metrics = m
	return res, nil
}

// p90MinSamples is the sample count below which query_ms_p90 has fewer than
// ten samples beyond it and is marked unresolved.
const p90MinSamples = 100

func printMetrics(res *result, defs []metricDef) {
	for _, d := range defs {
		value := fmt.Sprintf("%16.6g %s", res.metrics[d.name], d.unit)
		if d.name == "query_ms_p90" && res.samples < p90MinSamples {
			value = fmt.Sprintf("%16s (%d samples leave fewer than 10 beyond it)", "unresolved", res.samples)
		}
		fmt.Printf("%-18s %-34s %s\n", res.workload, d.name, value)
	}
	fmt.Printf("%-18s %-34s %16d of %d attempted (%d timed samples, %d plan-cache hits, answer check %.2f s)\n",
		res.workload, "failed", res.failed, res.attempted, res.samples, res.cacheHits, res.verifyS)
}

// resultLine is the one-line JSON object a driver reads off the last line. The
// driver requires a number for every metric, so an unresolved query_ms_p90 is
// still in it as measured.
func resultLine(res *result, defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.name] = value{res.metrics[d.name], d.unit}
	}
	raw, err := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // numbers, strings and a bool always encode
	}
	return string(raw)
}

// runAll runs every workload untraced, then traced, prints all metrics and
// the env block, and reports whether nothing failed.
func runAll(cfg config) bool {
	ok := true
	env := newEnv(cfg)
	for _, w := range workloads {
		res, err := runUntraced(cfg, w)
		if err != nil {
			fatal(err)
		}
		printMetrics(res, endToEnd)
		env.Samples[w.name], env.VerifyS[w.name] = res.samples, res.verifyS
		traced, err := runTraced(cfg, w)
		if err != nil {
			fatal(err)
		}
		printMetrics(traced, perLayer)
		ok = ok && res.correct && res.failed == 0 && traced.correct && traced.failed == 0
	}
	env.print()
	return ok
}

// runAA runs the untraced set twice on the same build and prints, per
// workload and end-to-end metric, how much worse the second run is next to
// the bound. It reports whether every difference stays within its bound.
func runAA(cfg config) bool {
	ok := true
	for _, w := range workloads {
		var runs [2]*result
		for i := range runs {
			res, err := runUntraced(cfg, w)
			if err != nil {
				fatal(err)
			}
			ok = ok && res.correct && res.failed == 0
			runs[i] = res
		}
		for _, d := range endToEnd {
			a, b := runs[0].metrics[d.name], runs[1].metrics[d.name]
			worse := (b - a) / a
			if d.better == "higher" {
				worse = (a - b) / a
			}
			verdict := "within"
			switch {
			case d.name == "query_ms_p90" && min(runs[0].samples, runs[1].samples) < p90MinSamples:
				verdict = "unresolved: fewer than 100 samples"
			case worse > d.bound:
				verdict, ok = "EXCEEDS", false
			}
			fmt.Printf("%-18s %-20s A %14.6g  B %14.6g %-4s worse by %+7.2f%%  bound %4.0f%%  %s\n",
				w.name, d.name, a, b, d.unit, 100*worse, 100*d.bound, verdict)
		}
	}
	return ok
}

// env is the block ROADMAP item 1(a) asks every performance artifact to carry.
type env struct {
	NProc      int                `json:"nproc"`
	GoMaxProcs int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"git_commit"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"window_seconds"`
	Samples    map[string]int     `json:"timed_samples"`
	VerifyS    map[string]float64 `json:"verify_seconds"`
}

func newEnv(cfg config) *env {
	commit := "unknown" // a checkout that is not a git repository has none
	if out, err := exec.Command("git", "-C", cfg.benchDir, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &env{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: cfg.seed, Seconds: cfg.seconds,
		Samples: map[string]int{}, VerifyS: map[string]float64{},
	}
}

func (e *env) print() {
	raw, err := json.Marshal(e)
	if err != nil {
		panic(err)
	}
	fmt.Println("env", string(raw))
}
