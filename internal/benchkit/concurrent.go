// Concurrency series: throughput and tail latency of the engine under N
// simultaneous clients driving queries through one admission-controlled
// scheduler pool — the serving-robustness companion to the single-query
// figures. Every successful result is checked against a sequential baseline,
// so the series doubles as a correctness harness for concurrent execution.

package benchkit

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"inkfuse/internal/algebra"
	"inkfuse/internal/exec"
	"inkfuse/internal/sched"
	"inkfuse/internal/storage"
	"inkfuse/internal/tpch"
)

// ConcConfig parameterizes the concurrency series.
type ConcConfig struct {
	// Concurrency is the top client count; the series measures doubling
	// levels 1, 2, 4, ... up to it.
	Concurrency int
	// Requests is the number of queries issued per level (0 = 4 per client,
	// at least 16).
	Requests int
	// MaxConcurrent is the pool's admitted-query cap (0 = half the level,
	// at least 1 — so the top levels genuinely queue and shed).
	MaxConcurrent int
	// QueueDepth bounds the admission queue (0 = sched default; negative =
	// no queue).
	QueueDepth int
	// Backend runs the clients' queries ("" = vectorized: no compile jitter
	// in a latency-distribution measurement).
	Backend string
}

// ConcCell is one concurrency-level measurement.
type ConcCell struct {
	Concurrency   int     `json:"concurrency"`
	MaxConcurrent int     `json:"max_concurrent"`
	Requests      int     `json:"requests"`
	Succeeded     int     `json:"succeeded"`
	Shed          int     `json:"shed"`
	WallMS        float64 `json:"wall_ms"`
	QPS           float64 `json:"qps"` // succeeded queries per second
	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`
	// PeakRunning is the highest sampled count of concurrently admitted
	// queries — must never exceed MaxConcurrent.
	PeakRunning int `json:"peak_running"`
}

// renderChunk renders a result for baseline comparison: row order for
// ordered queries, sorted rows otherwise (worker merge order is
// scheduler-dependent by design). Floats render at 6 significant digits —
// the same tolerance as the TPC-H oracle tests — because parallel float
// aggregation is non-associative and the accumulation order is
// scheduler-dependent too.
func renderChunk(c *storage.Chunk, ordered bool) string {
	rows := make([]string, c.Rows())
	for i := range rows {
		rows[i] = fmt.Sprintf("%.6v", c.Row(i))
	}
	if !ordered {
		sort.Strings(rows)
	}
	return strings.Join(rows, "\n")
}

// ConcurrentBench measures throughput and tail latency at doubling client
// counts up to cc.Concurrency. Each level drives cc.Requests queries
// round-robin over cfg.Queries through a fresh admission-controlled pool;
// shed queries (429-class) are counted, any other failure aborts, and every
// successful result must match the sequential baseline byte for byte.
func ConcurrentBench(cfg Config, cc ConcConfig) ([]ConcCell, error) {
	cfg = cfg.WithDefaults()
	if cc.Concurrency <= 0 {
		cc.Concurrency = 8
	}
	backend := cc.Backend
	if backend == "" {
		backend = "vectorized"
	}
	be, err := exec.ParseBackend(backend)
	if err != nil {
		return nil, err
	}
	cat := tpch.Generate(cfg.SF, cfg.Seed)

	// Sequential baseline, one result per query.
	cases := make([]queryCase, len(cfg.Queries))
	for i, q := range cfg.Queries {
		node, err := tpch.Build(cat, q)
		if err != nil {
			return nil, err
		}
		_, ordered := node.(*algebra.OrderBy)
		cases[i] = queryCase{name: q, node: node, ordered: ordered}
		res, err := runCase(cat, &cases[i], be, cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("baseline %s: %w", q, err)
		}
		cases[i].want = res
	}

	var out []ConcCell
	for _, level := range concLevels(cc.Concurrency) {
		cell, err := runConcLevel(cat, cases, be, cfg, cc, level)
		if err != nil {
			return nil, fmt.Errorf("concurrency %d: %w", level, err)
		}
		out = append(out, cell)
	}
	return out, nil
}

// concLevels doubles from 1 up to and including top.
func concLevels(top int) []int {
	var out []int
	for l := 1; l < top; l *= 2 {
		out = append(out, l)
	}
	return append(out, top)
}

// runCase lowers a fresh plan (plans carry per-execution state) and runs it.
func runCase(cat *storage.Catalog, qc *queryCase, be exec.Backend, cfg Config, pool *sched.Pool) (string, error) {
	plan, err := algebra.Lower(qc.node, qc.name)
	if err != nil {
		return "", err
	}
	lat := exec.LatencyNone
	ctx := context.Background()
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	res, err := exec.ExecuteContext(ctx, plan, exec.Options{
		Backend: be, Workers: cfg.Workers, Latency: &lat,
		MemoryBudget: cfg.MemBudget, Pool: pool,
	})
	if err != nil {
		return "", err
	}
	return renderChunk(res.Chunk, qc.ordered), nil
}

// queryCase is one benchmark query with its sequential-baseline rendering.
type queryCase struct {
	name    string
	node    algebra.Node
	ordered bool
	want    string
}

func runConcLevel(cat *storage.Catalog, cases []queryCase, be exec.Backend, cfg Config, cc ConcConfig, level int) (ConcCell, error) {
	maxConc := cc.MaxConcurrent
	if maxConc <= 0 {
		maxConc = max(1, level/2)
	}
	requests := cc.Requests
	if requests <= 0 {
		requests = max(16, 4*level)
	}
	pool := sched.NewPool(sched.Config{
		MaxConcurrent: maxConc,
		QueueDepth:    cc.QueueDepth,
	})
	defer pool.Close(context.Background())

	// A sampler records the peak number of concurrently admitted queries;
	// the admission cap is also enforced (and tested) inside the scheduler,
	// this validates it end to end.
	samplerStop := make(chan struct{})
	var peak atomic.Int64
	go func() {
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-samplerStop:
				return
			case <-tick.C:
				if r := int64(pool.Stats().Running); r > peak.Load() {
					peak.Store(r)
				}
			}
		}
	}()

	var (
		next      atomic.Int64
		shed      atomic.Int64
		mu        sync.Mutex
		latencies []time.Duration
		firstErr  error
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < level; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				qc := &cases[i%len(cases)]
				t0 := time.Now()
				got, err := runCase(cat, qc, be, cfg, pool)
				d := time.Since(t0)
				if err != nil {
					if errors.Is(err, sched.ErrQueueFull) {
						shed.Add(1)
						continue
					}
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("%s: %w", qc.name, err)
					}
					mu.Unlock()
					return
				}
				if got != qc.want {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("%s: concurrent result diverged from sequential baseline", qc.name)
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				latencies = append(latencies, d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	close(samplerStop)
	if firstErr != nil {
		return ConcCell{}, firstErr
	}
	if int(peak.Load()) > maxConc {
		return ConcCell{}, fmt.Errorf("admission cap violated: %d running, limit %d", peak.Load(), maxConc)
	}

	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	cell := ConcCell{
		Concurrency: level, MaxConcurrent: maxConc, Requests: requests,
		Succeeded: len(latencies), Shed: int(shed.Load()),
		WallMS:      float64(wall) / float64(time.Millisecond),
		PeakRunning: int(peak.Load()),
	}
	if secs := wall.Seconds(); secs > 0 {
		cell.QPS = float64(cell.Succeeded) / secs
	}
	if n := len(latencies); n > 0 {
		cell.P50MS = float64(latencies[n/2]) / float64(time.Millisecond)
		cell.P99MS = float64(latencies[min(n-1, n*99/100)]) / float64(time.Millisecond)
	}
	return cell, nil
}

// PrintConcurrency renders the concurrency series as a table.
func PrintConcurrency(w io.Writer, cells []ConcCell) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "clients\tmax-conc\trequests\tok\tshed\tqps\tp50\tp99\tpeak-running")
	for _, c := range cells {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%.1f\t%.1fms\t%.1fms\t%d\n",
			c.Concurrency, c.MaxConcurrent, c.Requests, c.Succeeded, c.Shed,
			c.QPS, c.P50MS, c.P99MS, c.PeakRunning)
	}
	tw.Flush()
}
