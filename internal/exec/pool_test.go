package exec

// Executor/scheduler integration: queries admitted through a shared
// admission-controlled pool, cancellation of queued (never-admitted) queries,
// and the exec half of the chaos satellite — concurrent queries under
// injected scheduler faults must each end in exactly one of {result, typed
// error} with no goroutine leaks.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inkfuse/internal/faultinject"
	"inkfuse/internal/sched"
)

func TestQueuedQueryCancelsWithoutRunning(t *testing.T) {
	defer faultinject.Reset()
	pool := sched.NewPool(sched.Config{Workers: 1, MaxConcurrent: 1})
	defer pool.Close(context.Background())

	// The admitted query runs slowly enough to hold its slot while the queued
	// one times out behind it.
	faultinject.Arm(faultinject.ExecMorsel, faultinject.Fault{Delay: 2 * time.Millisecond})
	lat := LatencyNone
	longPlan := lowerOrDie(t, groupByNode(makeTable()), "longq")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := Execute(longPlan, Options{
			Backend: BackendVectorized, Workers: 1, MorselSize: 64, Latency: &lat, Pool: pool,
		}); err != nil {
			t.Errorf("long query failed: %v", err)
		}
	}()
	// Wait until the long query holds the pool's single admission slot.
	deadline := time.Now().Add(5 * time.Second)
	for pool.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("long query never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	shortPlan := lowerOrDie(t, groupByNode(makeTable()), "shortq")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := ExecuteContext(ctx, shortPlan, Options{
		Backend: BackendVectorized, Workers: 1, MorselSize: 64, Latency: &lat, Pool: pool,
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("queued query error = %v, want ErrDeadlineExceeded", err)
	}
	// The query expired while queued: it never ran, so there is no partial
	// result or trace — unlike a mid-flight cancellation.
	if res != nil {
		t.Fatalf("queued query produced a result: %+v", res)
	}
	if s := pool.Stats(); s.QueueTimeouts != 1 {
		t.Fatalf("QueueTimeouts = %d, want 1", s.QueueTimeouts)
	}
	wg.Wait()
}

func TestExecSchedulerShedAndDrainingErrors(t *testing.T) {
	pool := sched.NewPool(sched.Config{Workers: 1, MaxConcurrent: 1, QueueDepth: -1})
	lat := LatencyNone

	// Hold the only slot directly so Execute finds the pool full.
	hold, err := pool.Admit(context.Background(), sched.AdmitInfo{Name: "hold", Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan := lowerOrDie(t, groupByNode(makeTable()), "shedq")
	if _, err := Execute(plan, Options{
		Backend: BackendVectorized, Workers: 1, Latency: &lat, Pool: pool,
	}); !errors.Is(err, sched.ErrQueueFull) {
		t.Fatalf("shed query error = %v, want sched.ErrQueueFull", err)
	}
	hold.Release()

	pool.Close(context.Background())
	plan2 := lowerOrDie(t, groupByNode(makeTable()), "drainq")
	if _, err := Execute(plan2, Options{
		Backend: BackendVectorized, Workers: 1, Latency: &lat, Pool: pool,
	}); !errors.Is(err, sched.ErrDraining) {
		t.Fatalf("post-drain query error = %v, want sched.ErrDraining", err)
	}
}

// TestExecChaosConcurrentQueries injects scheduler faults while 8 queries run
// concurrently through one admission-controlled pool: every request must end
// in exactly one of {result, typed error}, and the pool must wind down with
// no goroutine leaks.
func TestExecChaosConcurrentQueries(t *testing.T) {
	defer faultinject.Reset()
	base := runtime.NumGoroutine()
	faultinject.Arm(faultinject.SchedAdmit, faultinject.Fault{Prob: 0.2, Seed: 3})
	faultinject.Arm(faultinject.SchedDispatch, faultinject.Fault{Prob: 0.02, Seed: 5, Panic: "injected dispatch panic"})

	pool := sched.NewPool(sched.Config{Workers: 2, MaxConcurrent: 3, QueueDepth: 2})
	lat := LatencyNone
	const queries = 8
	var results, failures atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plan := lowerOrDie(t, groupByNode(makeTable()), "chaosq")
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			res, err := ExecuteContext(ctx, plan, Options{
				Backend: BackendVectorized, Workers: 2, MorselSize: 256, Latency: &lat, Pool: pool,
			})
			switch {
			case err == nil && res != nil && res.Chunk != nil:
				results.Add(1)
			case err != nil:
				if !errors.Is(err, faultinject.ErrInjected) &&
					!errors.Is(err, sched.ErrQueueFull) &&
					!errors.Is(err, sched.ErrTaskPanic) &&
					!errors.Is(err, ErrDeadlineExceeded) {
					t.Errorf("untyped chaos failure: %v", err)
				}
				failures.Add(1)
			default:
				t.Errorf("query %d ended with neither result nor error", i)
			}
		}(i)
	}
	wg.Wait()
	if got := results.Load() + failures.Load(); got != queries {
		t.Fatalf("%d results + %d failures = %d, want %d", results.Load(), failures.Load(), got, queries)
	}
	faultinject.Reset()
	pool.Close(context.Background())
	waitGoroutines(t, base)
}

// waitGoroutines waits for the goroutine count to settle back to at most
// want, failing with a full stack dump on a leak.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
