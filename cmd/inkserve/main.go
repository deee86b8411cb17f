// Command inkserve is the long-running HTTP engine server: it generates a
// TPC-H catalog at startup and serves JSON queries over it, with Prometheus
// metrics on /metrics, health on /healthz and Go profiling on /debug/pprof.
//
// Usage:
//
//	inkserve -addr :8080 -sf 0.1 -backend hybrid -slow 500ms
//
// Query it:
//
//	curl -s localhost:8080/query -d '{"query":"q6","backend":"hybrid"}'
//	curl -s localhost:8080/query -d '{"sql":"select count(*) as n from lineitem where l_quantity < 24"}'
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"inkfuse/internal/flight"
	"inkfuse/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address (use :0 for a random port)")
		sf      = flag.Float64("sf", 0.1, "TPC-H scale factor of the resident catalog")
		seed    = flag.Uint64("seed", 42, "catalog generator seed")
		backend = flag.String("backend", "hybrid", "default execution backend")
		timeout = flag.Duration("timeout", 30*time.Second, "default per-query timeout (0 = none)")
		slow    = flag.Duration("slow", 500*time.Millisecond, "slow-query log threshold (0 = off)")
		maxRows = flag.Int("max-rows", 100, "max result rows inlined into a response")
		jsonLog = flag.Bool("log-json", false, "write the query log as JSON lines")

		logSample = flag.Float64("log-sample", 1,
			"fraction of successful queries kept in the canonical query log (errors, shed, slow and degraded queries always log)")
		spanFile = flag.String("span-file", "",
			"append one OTLP JSON span document per query to this file (enables tracing on every query)")

		engineWorkers = flag.Int("engine-workers", 0, "engine-wide scheduler pool size (0 = max(2, GOMAXPROCS))")
		maxConcurrent = flag.Int("max-concurrent", 0, "max concurrently executing queries (0 = unlimited)")
		queueDepth    = flag.Int("queue-depth", 0, "admission queue bound (0 = default 64, negative = no queue)")
		memLimit      = flag.Int64("mem-limit", 0, "engine-wide cap on admitted queries' memory budgets in bytes (0 = unlimited)")
		drain         = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline for in-flight queries")

		planCache      = flag.Int("plan-cache", 0, "plan/artifact cache entries for SQL queries (0 = default 64, negative = disabled)")
		planCacheBytes = flag.Int64("plan-cache-bytes", 0, "cap on the plan cache's memory: compiled artifacts plus the execution state idle instances keep (0 = mem-limit/8 when mem-limit is set, else 256 MiB)")
		maxPrepared    = flag.Int("max-prepared", 0, "max registered prepared statements (0 = 4096)")

		mutexFraction = flag.Int("mutex-profile-fraction", 0,
			"sample 1/n of mutex contention events into /debug/pprof/mutex (0 = off); the hash tables take no lock, the scheduler and caches do")
		blockRate = flag.Int("block-profile-rate", 0,
			"sample blocking events of >= n ns into /debug/pprof/block (0 = off)")
	)
	flag.Parse()

	// Contention profiling is off by default (it costs a few percent on hot
	// lock paths); flags arm it to measure contention on the scheduler, plan
	// cache and admission locks. No hash table takes a lock: every worker
	// builds its own.
	if *mutexFraction > 0 {
		runtime.SetMutexProfileFraction(*mutexFraction)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *jsonLog {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	var spanSink *os.File
	if *spanFile != "" {
		var err error
		spanSink, err = os.OpenFile(*spanFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Error("opening span file", "path", *spanFile, "err", err)
			os.Exit(1)
		}
		defer spanSink.Close()
	}

	logger.Info("generating catalog", "sf", *sf, "seed", *seed)
	cfg := serve.Config{
		SF: *sf, Seed: *seed,
		DefaultBackend: *backend,
		DefaultTimeout: *timeout,
		SlowQuery:      *slow,
		MaxRows:        *maxRows,
		EngineWorkers:  *engineWorkers,
		MaxConcurrent:  *maxConcurrent,
		QueueDepth:     *queueDepth,
		MemLimit:       *memLimit,

		PlanCacheEntries: *planCache,
		PlanCacheBytes:   *planCacheBytes,
		MaxPrepared:      *maxPrepared,

		Logger:        logger,
		LogSampleRate: *logSample,
	}
	if *logSample <= 0 {
		// The flag means "drop all plain successes"; the Config zero value
		// means "sampling off", so translate explicitly.
		cfg.LogSampleRate = -1
	}
	if spanSink != nil {
		cfg.SpanSink = spanSink
	}
	srv := serve.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	// The one stdout line scripts parse for the (possibly random) port.
	fmt.Printf("inkserve: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	// SIGQUIT dumps the engine flight recorder to stderr and keeps serving —
	// the "what is the engine doing right now" snapshot for a wedged server.
	// (Registering the handler replaces the runtime's kill-with-stacks
	// default; use SIGABRT for that.)
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)

	var shutdown os.Signal
wait:
	for {
		select {
		case err := <-done:
			logger.Error("server stopped", "err", err)
			os.Exit(1)
		case <-quit:
			fmt.Fprintln(os.Stderr, "inkserve: SIGQUIT flight-recorder dump")
			flight.Default.Dump(os.Stderr)
		case shutdown = <-sig:
			break wait
		}
	}
	logger.Info("shutting down", "signal", shutdown.String(), "drain", *drain)
	// Two-phase graceful shutdown: first drain the engine (admissions
	// stop, new queries get 503 "draining", in-flight queries run until
	// the drain deadline and are then canceled), then close the HTTP side
	// — by then every query handler has returned or is unwinding.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drain)
	cs := srv.Close(drainCtx)
	cancelDrain()
	logger.Info("engine drained",
		"drained", cs.Drained, "canceled", cs.Canceled, "shed", cs.Shed)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logger.Error("shutdown failed", "err", err)
		os.Exit(1)
	}
}
