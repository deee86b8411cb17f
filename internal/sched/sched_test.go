package sched

// Scheduler contract tests: slot exclusivity and in-flight caps, round-robin
// fairness, admission control (concurrency cap, memory reservations, bounded
// queue, queued-context expiry), graceful drain vs force-cancel, and a chaos
// test that injects admission/dispatch/drain faults under concurrency and
// asserts every query ends in exactly one of {success, typed error} with no
// goroutine leaks.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inkfuse/internal/faultinject"
	"inkfuse/internal/obs"
)

// waitGoroutines waits for the goroutine count to drop back to at most want,
// tolerating the runtime's background goroutines settling.
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

func TestRunDispatchesAllTasksWithSlotExclusivity(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(Config{Workers: 4})
	q, err := p.Admit(context.Background(), AdmitInfo{Name: "q", Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}

	const n = 200
	var ran [n]atomic.Int32
	var inFlight, maxInFlight atomic.Int32
	slotBusy := make([]atomic.Bool, 3)
	err = q.Run(context.Background(), n, func(slot, idx int) error {
		if slot < 0 || slot >= 3 {
			t.Errorf("slot %d out of range", slot)
		}
		if !slotBusy[slot].CompareAndSwap(false, true) {
			t.Errorf("slot %d used concurrently", slot)
		}
		cur := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if cur <= m || maxInFlight.CompareAndSwap(m, cur) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		ran[idx].Add(1)
		inFlight.Add(-1)
		slotBusy[slot].Store(false)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times, want 1", i, got)
		}
	}
	if m := maxInFlight.Load(); m > 3 {
		t.Fatalf("in-flight tasks peaked at %d, want <= parallelism 3", m)
	}
	q.Release()
	p.Close(context.Background())
	waitGoroutines(t, base)
}

func TestRunStopsOnFirstTaskError(t *testing.T) {
	p := NewPool(Config{Workers: 2})
	defer p.Close(context.Background())
	q, err := p.Admit(context.Background(), AdmitInfo{Name: "q", Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Release()

	boom := errors.New("boom")
	var issued atomic.Int32
	err = q.Run(context.Background(), 1000, func(slot, idx int) error {
		issued.Add(1)
		if idx == 3 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	if n := issued.Load(); n >= 1000 {
		t.Fatalf("all %d tasks issued despite early error", n)
	}
}

func TestFairnessShortQueryNotStarved(t *testing.T) {
	// One worker, two queries: a long scan (many slow tasks) and a short
	// query admitted after it. Round-robin must interleave the short query's
	// single task long before the scan finishes.
	p := NewPool(Config{Workers: 1})
	defer p.Close(context.Background())

	long, err := p.Admit(context.Background(), AdmitInfo{Name: "long", Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer long.Release()
	short, err := p.Admit(context.Background(), AdmitInfo{Name: "short", Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer short.Release()

	const longTasks = 50
	var longDone atomic.Int32
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		long.Run(context.Background(), longTasks, func(slot, idx int) error {
			time.Sleep(2 * time.Millisecond)
			longDone.Add(1)
			return nil
		})
	}()

	// Let the long query occupy the worker first.
	for longDone.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	var progressAtShort int32
	err = short.Run(context.Background(), 1, func(slot, idx int) error {
		progressAtShort = longDone.Load()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// The short query's task must run within a couple of round-robin turns,
	// not after the whole scan: the scan's in-flight cap (1) bounds the wait.
	if progressAtShort > longTasks/2 {
		t.Fatalf("short query starved: ran after %d/%d long tasks", progressAtShort, longTasks)
	}
}

// queueWaitCounts reads how often each admission outcome has been observed in
// the process-wide queue-wait histogram family.
func queueWaitCounts() map[string]int64 {
	out := map[string]int64{}
	for _, o := range []string{"admitted", "shed", "timeout", "draining", "over_capacity"} {
		out[o] = obs.Default.QueueWait.With(o).Count()
	}
	return out
}

// TestAdmissionQueueFullSheds drives one admission attempt to each of the five
// outcomes — admitted (directly and from the queue), shed, over-capacity,
// queue timeout, draining — and checks, beside the pool's own accounting, that
// every attempt observed inkfuse_queue_wait_seconds exactly once, under its
// own outcome.
func TestAdmissionQueueFullSheds(t *testing.T) {
	p := NewPool(Config{Workers: 1, MaxConcurrent: 1, QueueDepth: 1, MemLimit: 100})
	defer p.Close(context.Background())
	before := queueWaitCounts()
	expect := func(step string, want map[string]int64) {
		t.Helper()
		after := queueWaitCounts()
		for o, n := range after {
			if d := n - before[o]; d != want[o] {
				t.Errorf("after %s: outcome %q observed %d times, want %d", step, o, d, want[o])
			}
		}
	}

	q1, err := p.Admit(context.Background(), AdmitInfo{Name: "q1", Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	expect("direct admit", map[string]int64{"admitted": 1})

	// q2 queues; q3 finds the queue full and is shed.
	var wg sync.WaitGroup
	wg.Add(1)
	admitted := make(chan error, 1)
	go func() {
		defer wg.Done()
		q2, err := p.Admit(context.Background(), AdmitInfo{Name: "q2", Parallelism: 1})
		admitted <- err
		if err == nil {
			q2.Release()
		}
	}()
	waitStats(t, p, func(s Stats) bool { return s.Queued == 1 })

	if _, err := p.Admit(context.Background(), AdmitInfo{Name: "q3", Parallelism: 1}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("q3 error = %v, want ErrQueueFull", err)
	}
	if s := p.Stats(); s.Shed != 1 {
		t.Fatalf("Stats.Shed = %d, want 1", s.Shed)
	}
	expect("shed", map[string]int64{"admitted": 1, "shed": 1})

	// A reservation over the pool's limit can never fit: refused outright.
	if _, err := p.Admit(context.Background(), AdmitInfo{Name: "huge", Mem: 200, Parallelism: 1}); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("over-limit admit error = %v, want ErrOverCapacity", err)
	}
	expect("over-capacity", map[string]int64{"admitted": 1, "shed": 1, "over_capacity": 1})

	q1.Release()
	wg.Wait()
	if err := <-admitted; err != nil {
		t.Fatalf("queued q2 failed: %v", err)
	}
	expect("queued admit", map[string]int64{"admitted": 2, "shed": 1, "over_capacity": 1})

	// q4 holds the slot while q5's context expires in the queue.
	q4, err := p.Admit(context.Background(), AdmitInfo{Name: "q4", Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Admit(ctx, AdmitInfo{Name: "q5", Parallelism: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued admit error = %v, want DeadlineExceeded", err)
	}
	expect("queue timeout", map[string]int64{"admitted": 3, "shed": 1, "over_capacity": 1, "timeout": 1})

	q4.Release()
	p.Close(context.Background())
	if _, err := p.Admit(context.Background(), AdmitInfo{Name: "late", Parallelism: 1}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-close admit error = %v, want ErrDraining", err)
	}
	expect("draining", map[string]int64{"admitted": 3, "shed": 1, "over_capacity": 1, "timeout": 1, "draining": 1})
}

func TestQueuedContextExpiryNeverRuns(t *testing.T) {
	p := NewPool(Config{Workers: 1, MaxConcurrent: 1})
	defer p.Close(context.Background())

	q1, err := p.Admit(context.Background(), AdmitInfo{Name: "q1", Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Admit(ctx, AdmitInfo{Name: "q2", Parallelism: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued admit error = %v, want DeadlineExceeded", err)
	}
	s := p.Stats()
	if s.QueueTimeouts != 1 {
		t.Fatalf("Stats.QueueTimeouts = %d, want 1", s.QueueTimeouts)
	}
	if s.Queued != 0 {
		t.Fatalf("abandoned waiter still queued: %+v", s)
	}

	// The abandoned slot is reusable.
	q1.Release()
	q3, err := p.Admit(context.Background(), AdmitInfo{Name: "q3", Parallelism: 1})
	if err != nil {
		t.Fatalf("admit after timeout: %v", err)
	}
	q3.Release()
}

func TestMemoryReservations(t *testing.T) {
	p := NewPool(Config{Workers: 1, MemLimit: 100})
	defer p.Close(context.Background())

	if _, err := p.Admit(context.Background(), AdmitInfo{Name: "huge", Mem: 200, Parallelism: 1}); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("over-limit admit error = %v, want ErrOverCapacity", err)
	}

	q1, err := p.Admit(context.Background(), AdmitInfo{Name: "q1", Mem: 60, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	// q2's reservation does not fit next to q1: it queues until q1 releases.
	done := make(chan error, 1)
	go func() {
		q2, err := p.Admit(context.Background(), AdmitInfo{Name: "q2", Mem: 60, Parallelism: 1})
		if err == nil {
			q2.Release()
		}
		done <- err
	}()
	waitStats(t, p, func(s Stats) bool { return s.Queued == 1 })
	if s := p.Stats(); s.MemReserved != 60 {
		t.Fatalf("MemReserved = %d, want 60", s.MemReserved)
	}
	q1.Release()
	if err := <-done; err != nil {
		t.Fatalf("queued q2 failed: %v", err)
	}
	if s := p.Stats(); s.MemReserved != 0 {
		t.Fatalf("MemReserved = %d after releases, want 0", s.MemReserved)
	}
}

func TestCloseDrainsThenRejects(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(Config{Workers: 2, MaxConcurrent: 2, QueueDepth: 4})
	q, err := p.Admit(context.Background(), AdmitInfo{Name: "q", Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A queued waiter present at Close fails with ErrDraining.
	qHold, err := p.Admit(context.Background(), AdmitInfo{Name: "hold", Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = qHold
	var wg sync.WaitGroup
	wg.Add(1)
	queuedErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := p.Admit(context.Background(), AdmitInfo{Name: "queued", Parallelism: 1})
		queuedErr <- err
	}()
	waitStats(t, p, func(s Stats) bool { return s.Queued == 1 })

	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := q.Run(context.Background(), 20, func(slot, idx int) error {
			time.Sleep(time.Millisecond)
			return nil
		}); err != nil {
			t.Errorf("drained Run failed: %v", err)
		}
		q.Release()
		qHold.Release()
	}()

	time.Sleep(5 * time.Millisecond) // let the Run start
	cs := p.Close(context.Background())
	wg.Wait()
	if cs.Drained != 2 || cs.Canceled != 0 || cs.Shed != 1 {
		t.Fatalf("CloseStats = %+v, want 2 drained, 0 canceled, 1 shed", cs)
	}
	if err := <-queuedErr; !errors.Is(err, ErrDraining) {
		t.Fatalf("queued waiter error = %v, want ErrDraining", err)
	}
	if _, err := p.Admit(context.Background(), AdmitInfo{Name: "late", Parallelism: 1}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-close admit error = %v, want ErrDraining", err)
	}
	waitGoroutines(t, base)
}

func TestCloseDeadlineForceCancels(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(Config{Workers: 1})
	q, err := p.Admit(context.Background(), AdmitInfo{Name: "q", Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() {
		runErr <- q.Run(context.Background(), 10_000, func(slot, idx int) error {
			time.Sleep(time.Millisecond)
			return nil
		})
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	closeDone := make(chan CloseStats, 1)
	go func() { closeDone <- p.Close(ctx) }()

	err = <-runErr
	if !errors.Is(err, ErrQueryCanceled) {
		t.Fatalf("force-canceled Run error = %v, want ErrQueryCanceled", err)
	}
	q.Release()
	cs := <-closeDone
	if cs.Canceled != 1 || cs.Drained != 0 {
		t.Fatalf("CloseStats = %+v, want 1 canceled", cs)
	}
	if s := p.Stats(); s.DrainCanceled != 1 {
		t.Fatalf("Stats.DrainCanceled = %d, want 1", s.DrainCanceled)
	}
	waitGoroutines(t, base)
}

func TestRunCtxCancelStopsIssuing(t *testing.T) {
	p := NewPool(Config{Workers: 2})
	defer p.Close(context.Background())
	q, err := p.Admit(context.Background(), AdmitInfo{Name: "q", Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Release()

	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int32
	go func() {
		for n.Load() < 3 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	err = q.Run(ctx, 100_000, func(slot, idx int) error {
		n.Add(1)
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Run error = %v, want context.Canceled", err)
	}
	// In-flight tasks completed before Run returned: the count is stable now.
	settled := n.Load()
	time.Sleep(10 * time.Millisecond)
	if got := n.Load(); got != settled {
		t.Fatalf("tasks still running after Run returned: %d -> %d", settled, got)
	}
}

// TestChaosConcurrentQueriesWithFaults is the scheduler half of the chaos
// satellite: 8 concurrent queries run through a small pool while the
// sched/admit and sched/dispatch fault points fire probabilistically. Every
// query must end in exactly one of {success, typed error} — no hangs, no
// double results — and the pool must wind down without leaking goroutines.
func TestChaosConcurrentQueriesWithFaults(t *testing.T) {
	defer faultinject.Reset()
	base := runtime.NumGoroutine()
	faultinject.Arm(faultinject.SchedAdmit, faultinject.Fault{Prob: 0.2, Seed: 7})
	faultinject.Arm(faultinject.SchedDispatch, faultinject.Fault{Prob: 0.05, Seed: 11, Panic: "injected dispatch panic"})

	p := NewPool(Config{Workers: 2, MaxConcurrent: 4, QueueDepth: 2})
	const queries = 8
	type outcome struct {
		ok  bool
		err error
	}
	results := make(chan outcome, queries)
	for i := 0; i < queries; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			q, err := p.Admit(ctx, AdmitInfo{Name: "chaos", Parallelism: 2})
			if err != nil {
				results <- outcome{err: err}
				return
			}
			err = q.Run(ctx, 20, func(slot, idx int) error {
				time.Sleep(200 * time.Microsecond)
				return nil
			})
			q.Release()
			results <- outcome{ok: err == nil, err: err}
		}()
	}
	var succeeded, failed int
	for i := 0; i < queries; i++ {
		select {
		case o := <-results:
			switch {
			case o.ok && o.err == nil:
				succeeded++
			case !o.ok && o.err != nil:
				// Every failure must be typed: an injected fault, a shed, or a
				// dispatch panic — never an untyped surprise.
				if !errors.Is(o.err, faultinject.ErrInjected) &&
					!errors.Is(o.err, ErrQueueFull) &&
					!errors.Is(o.err, ErrTaskPanic) &&
					!errors.Is(o.err, context.DeadlineExceeded) {
					t.Errorf("untyped chaos failure: %v", o.err)
				}
				failed++
			default:
				t.Errorf("query ended in impossible state: %+v", o)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("chaos query hung: %d/%d reported", i, queries)
		}
	}
	if succeeded+failed != queries {
		t.Fatalf("outcomes = %d success + %d failure, want %d total", succeeded, failed, queries)
	}
	faultinject.Reset()
	p.Close(context.Background())
	waitGoroutines(t, base)
}

// waitStats polls the pool until cond holds (with a deadline), for asserting
// asynchronous admission-state transitions.
func waitStats(t *testing.T, p *Pool, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(p.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("pool never reached expected state: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}
