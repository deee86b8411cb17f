// Package sched is the engine-wide morsel scheduler: one shared worker pool
// that every query dispatches morsel tasks into, replacing per-query goroutine
// spawning. N concurrent queries no longer oversubscribe the CPU — the pool
// runs a fixed number of workers and interleaves queries at morsel
// granularity.
//
// On top of the pool sit the serving-robustness layers:
//
//   - Admission control: a query enters the pool through Admit, which gates on
//     a max-concurrent-queries limit and an engine-wide memory reservation
//     (the query's Options.MemoryBudget counted against Config.MemLimit).
//   - Bounded admission queue: queries that do not fit wait FIFO in a bounded
//     queue; a full queue sheds the query immediately with ErrQueueFull, and a
//     query whose context expires while queued returns the context error
//     without ever running.
//   - Fair sharing: pool workers pick tasks round-robin across the admitted
//     queries, and each query caps its in-flight morsels at its requested
//     parallelism, so a long scan cannot starve a short query by more than
//     that cap.
//   - Graceful drain: Close stops admissions, waits for in-flight queries up
//     to the context deadline, then cancels the stragglers.
//
// Per-query per-worker state (vector scratch, profilers, aggregation
// tables) is keyed by a query-local slot in [0, parallelism): the
// scheduler guarantees at most one task per (query, slot) at any time, so a
// slot's state is never touched concurrently even though different pool
// workers may serve it over the query's lifetime.
package sched

// sched is an error boundary: admission and dispatch failures must surface as
// the typed sentinels below (or wrap them via %w) so exec and serve classify
// overload precisely. Enforced by the typederr analyzer (cmd/inklint).
//
//inklint:errorboundary

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"inkfuse/internal/faultinject"
	"inkfuse/internal/flight"
	"inkfuse/internal/obs"
)

// Typed scheduler failures. Callers classify with errors.Is.
var (
	// ErrQueueFull reports that the admission queue was full and the query was
	// shed. Serving layers map this to 429 + Retry-After.
	ErrQueueFull = errors.New("sched: admission queue full, query shed")
	// ErrDraining reports that the pool has stopped admitting queries (Close
	// was called). Serving layers map this to 503.
	ErrDraining = errors.New("sched: scheduler draining, admissions closed")
	// ErrOverCapacity reports a memory reservation larger than the engine
	// limit: the query could never be admitted, so it fails immediately
	// instead of queueing forever.
	ErrOverCapacity = errors.New("sched: query memory budget exceeds engine limit")
	// ErrQueryCanceled reports that the drain deadline expired and the pool
	// canceled this in-flight query.
	ErrQueryCanceled = errors.New("sched: query canceled by scheduler drain")
	// ErrTaskPanic reports a panic that escaped a task function (the executor
	// isolates query panics itself, so this guards scheduler-level faults and
	// wrapper bugs).
	ErrTaskPanic = errors.New("sched: task panicked")
)

// Config configures a Pool.
type Config struct {
	// Workers is the number of pool worker goroutines — the engine's total
	// execution parallelism across all queries. <= 0 defaults to
	// max(2, GOMAXPROCS).
	Workers int
	// MaxConcurrent caps the number of admitted (running) queries.
	// <= 0 = unlimited (no admission control; the queue is never used).
	MaxConcurrent int
	// QueueDepth bounds the admission queue holding queries that wait for a
	// slot. 0 = DefaultQueueDepth; negative = no queue (shed immediately when
	// the pool is at MaxConcurrent).
	QueueDepth int
	// MemLimit caps the sum of admitted queries' memory reservations (each
	// query reserves its Options.MemoryBudget). 0 = unlimited. Queries with a
	// zero budget reserve nothing.
	MemLimit int64
}

// DefaultQueueDepth is the admission queue bound when Config.QueueDepth is 0.
const DefaultQueueDepth = 64

// DefaultWorkers is the pool size when Config.Workers is unset: GOMAXPROCS,
// floored at 2 so single-CPU hosts still interleave concurrent queries.
func DefaultWorkers() int {
	return max(2, runtime.GOMAXPROCS(0))
}

// CloseStats reports how a Close resolved the queries it found running.
type CloseStats struct {
	// Drained queries completed within the drain deadline.
	Drained int
	// Canceled queries were still running at the deadline and were canceled.
	Canceled int
	// Shed admissions were waiting in the queue when Close arrived; they
	// failed with ErrDraining.
	Shed int
}

// Stats is a point-in-time view of the pool, for health endpoints.
type Stats struct {
	Workers       int   // pool size
	MaxConcurrent int   // admitted-query cap (0 = unlimited)
	QueueDepth    int   // admission queue bound
	Running       int   // admitted queries
	Queued        int   // admissions waiting
	MemReserved   int64 // sum of admitted memory reservations
	MemLimit      int64
	Admitted      int64 // total admissions
	Shed          int64 // total queue-full rejections
	QueueTimeouts int64 // admissions abandoned by context while queued
	DrainCanceled int64 // queries canceled by drain deadlines
	Draining      bool  // admissions closed
}

// Pool is the engine-wide worker pool plus its admission machinery.
type Pool struct {
	workers       int
	maxConcurrent int
	queueDepth    int
	memLimit      int64

	mu       sync.Mutex
	taskCond *sync.Cond // task availability, waited on by pool workers
	idleCond *sync.Cond // active-set emptiness, waited on by Close
	active   []*Query   // admitted queries, round-robin order
	rr       int
	memUsed  int64
	queue    []*waiter
	closed   bool // admissions closed
	stopped  bool // workers told to exit
	wg       sync.WaitGroup

	admitted      atomic.Int64
	shed          atomic.Int64
	queueTimeouts atomic.Int64
	drainCanceled atomic.Int64
}

// NewPool builds the pool and starts its workers.
func NewPool(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers()
	}
	qd := cfg.QueueDepth
	switch {
	case qd == 0:
		qd = DefaultQueueDepth
	case qd < 0:
		qd = 0
	}
	p := &Pool{
		workers:       cfg.Workers,
		maxConcurrent: cfg.MaxConcurrent,
		queueDepth:    qd,
		memLimit:      cfg.MemLimit,
	}
	p.taskCond = sync.NewCond(&p.mu)
	p.idleCond = sync.NewCond(&p.mu)
	for w := 0; w < p.workers; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Stats snapshots the pool.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	s := Stats{
		Workers:       p.workers,
		MaxConcurrent: p.maxConcurrent,
		QueueDepth:    p.queueDepth,
		Running:       len(p.active),
		Queued:        len(p.queue),
		MemReserved:   p.memUsed,
		MemLimit:      p.memLimit,
		Draining:      p.closed,
	}
	p.mu.Unlock()
	s.Admitted = p.admitted.Load()
	s.Shed = p.shed.Load()
	s.QueueTimeouts = p.queueTimeouts.Load()
	s.DrainCanceled = p.drainCanceled.Load()
	return s
}

// Draining reports whether admissions are closed.
func (p *Pool) Draining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// ---------------------------------------------------------------------------
// Admission

// Query is one admitted query's handle: a slot-capped task dispatcher plus
// the admission it must Release.
type Query struct {
	pool *Pool
	name string
	mem  int64
	cap  int

	info     AdmitInfo
	admitted time.Time     // when the admission was granted
	waited   time.Duration // time spent in the admission queue

	// slots is the free-slot stack; len(slots) == cap - in-flight tasks.
	slots    []int
	set      *taskSet
	canceled error // set by drain force-cancel; sticky
	released bool
}

type waiter struct {
	info  AdmitInfo
	enq   time.Time // when the waiter entered the queue
	q     *Query    // set under the pool lock when admitted
	err   error     // set under the pool lock when rejected
	ready chan struct{}
}

// AdmitInfo describes one admission request. Name, Mem and Parallelism drive
// admission itself; ID, Backend and Fingerprint are observability passthrough:
// they key flight-recorder events and surface in QueryInfos so operators can
// see what is occupying (or saturating) the pool.
type AdmitInfo struct {
	// ID is the engine-wide query id (0 = unassigned; flight events then
	// attach to no particular query).
	ID uint64
	// Name labels the query in errors, stats and flight events.
	Name string
	// Backend is the execution backend the query will run on.
	Backend string
	// Fingerprint is the plan-cache fingerprint, when the query came through
	// the SQL frontend.
	Fingerprint string
	// Mem is the memory reservation against Config.MemLimit (0 = none).
	Mem int64
	// Parallelism is the in-flight morsel cap (<= 0 = pool size).
	Parallelism int
}

// QueryInfo is one row of Pool.QueryInfos: an admitted or queued query with
// enough identity for an operator to see what is saturating admission.
type QueryInfo struct {
	ID          uint64
	Name        string
	Backend     string
	Fingerprint string
	Mem         int64
	Parallelism int
	// State is "running" for admitted queries, "queued" for waiters.
	State string
	// QueueWait is the time spent in the admission queue: final for running
	// queries, elapsed-so-far for queued ones.
	QueueWait time.Duration
}

// QueryInfos snapshots the admitted and queued queries, running first (in
// admission order), then waiters in FIFO order.
func (p *Pool) QueryInfos() []QueryInfo {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]QueryInfo, 0, len(p.active)+len(p.queue))
	for _, q := range p.active {
		out = append(out, QueryInfo{
			ID: q.info.ID, Name: q.info.Name, Backend: q.info.Backend,
			Fingerprint: q.info.Fingerprint, Mem: q.mem, Parallelism: q.cap,
			State: "running", QueueWait: q.waited,
		})
	}
	for _, w := range p.queue {
		out = append(out, QueryInfo{
			ID: w.info.ID, Name: w.info.Name, Backend: w.info.Backend,
			Fingerprint: w.info.Fingerprint, Mem: w.info.Mem, Parallelism: w.info.Parallelism,
			State: "queued", QueueWait: now.Sub(w.enq),
		})
	}
	return out
}

// Admit enters one query into the pool, waiting in the bounded admission
// queue if the pool is at capacity. parallelism is the query's in-flight
// morsel cap and slot count (<= 0 defaults to the pool size); mem is its
// memory reservation against Config.MemLimit (0 reserves nothing). The caller
// must Release the returned Query exactly once, after its last Run.
//
// Typed failures: ErrQueueFull (queue full — shed), ErrDraining (admissions
// closed), ErrOverCapacity (reservation can never fit), or the context error
// when ctx expires while queued — in that case the query never ran.
func (p *Pool) Admit(ctx context.Context, name string, mem int64, parallelism int) (*Query, error) {
	return p.AdmitWith(ctx, AdmitInfo{Name: name, Mem: mem, Parallelism: parallelism})
}

// AdmitWith is Admit with full identity: the extra AdmitInfo fields flow into
// flight-recorder events and QueryInfos but do not change admission policy.
func (p *Pool) AdmitWith(ctx context.Context, info AdmitInfo) (*Query, error) {
	if err := faultinject.Inject(faultinject.SchedAdmit); err != nil {
		return nil, fmt.Errorf("sched: admit %s: %w", info.Name, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if info.Parallelism <= 0 {
		info.Parallelism = p.workers
	}
	start := time.Now()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		observeQueueWait("draining", 0)
		return nil, ErrDraining
	}
	if p.memLimit > 0 && info.Mem > p.memLimit {
		p.mu.Unlock()
		observeQueueWait("over_capacity", 0)
		flight.Default.RecordStr(flight.KindShed, info.ID, info.Name, info.Mem, p.memLimit)
		return nil, fmt.Errorf("%w: budget %d > limit %d", ErrOverCapacity, info.Mem, p.memLimit)
	}
	if p.fitsLocked(info.Mem) {
		q := p.admitLocked(info, 0)
		p.mu.Unlock()
		observeQueueWait("admitted", 0)
		return q, nil
	}
	if len(p.queue) >= p.queueDepth {
		p.mu.Unlock()
		p.shed.Add(1)
		obs.Default.Add(obs.SchedShed, 1)
		observeQueueWait("shed", 0)
		flight.Default.RecordStr(flight.KindShed, info.ID, info.Name, int64(p.queueDepth), 0)
		return nil, ErrQueueFull
	}
	w := &waiter{info: info, enq: start, ready: make(chan struct{})}
	p.queue = append(p.queue, w)
	depth := len(p.queue)
	obs.Default.Add(obs.SchedQueued, 1)
	p.mu.Unlock()
	flight.Default.RecordStr(flight.KindQueued, info.ID, info.Name, int64(depth), 0)

	select {
	case <-w.ready:
		if w.err != nil {
			observeQueueWait("draining", time.Since(start))
			return nil, w.err
		}
		observeQueueWait("admitted", time.Since(start))
		return w.q, nil
	case <-ctx.Done():
		p.mu.Lock()
		if w.q != nil {
			// Admitted concurrently with the context expiring: give the slot
			// back; the query still reports the context error and never runs.
			p.releaseLocked(w.q)
			p.mu.Unlock()
		} else if w.err != nil {
			p.mu.Unlock()
			observeQueueWait("draining", time.Since(start))
			return nil, w.err
		} else {
			p.removeWaiterLocked(w)
			p.mu.Unlock()
		}
		p.queueTimeouts.Add(1)
		obs.Default.Add(obs.SchedQueueTimeouts, 1)
		waited := time.Since(start)
		observeQueueWait("timeout", waited)
		flight.Default.RecordStr(flight.KindQueueTimeout, info.ID, info.Name, int64(waited), 0)
		return nil, ctx.Err()
	}
}

func observeQueueWait(outcome string, d time.Duration) {
	obs.Default.QueueWait.With(outcome).ObserveDuration(d)
}

// fitsLocked reports whether one more query with this reservation fits now.
func (p *Pool) fitsLocked(mem int64) bool {
	if p.maxConcurrent > 0 && len(p.active) >= p.maxConcurrent {
		return false
	}
	if p.memLimit > 0 && mem > 0 && p.memUsed+mem > p.memLimit {
		return false
	}
	return true
}

func (p *Pool) admitLocked(info AdmitInfo, waited time.Duration) *Query {
	q := &Query{
		pool: p, name: info.Name, mem: info.Mem, cap: info.Parallelism,
		info: info, admitted: time.Now(), waited: waited,
	}
	q.slots = make([]int, q.cap)
	for i := range q.slots {
		q.slots[i] = q.cap - 1 - i // pop order 0, 1, 2, ...
	}
	p.active = append(p.active, q)
	p.memUsed += q.mem
	p.admitted.Add(1)
	obs.Default.Add(obs.SchedAdmitted, 1)
	obs.Default.Add(obs.SchedRunning, 1)
	flight.Default.RecordStr(flight.KindAdmit, info.ID, info.Name, int64(waited), 0)
	if q.mem > 0 {
		flight.Default.RecordStr(flight.KindMemReserve, info.ID, info.Name, q.mem, p.memUsed)
	}
	return q
}

func (p *Pool) removeWaiterLocked(w *waiter) {
	for i, o := range p.queue {
		if o == w {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			obs.Default.Add(obs.SchedQueued, -1)
			return
		}
	}
}

// releaseLocked frees a query's admission and promotes queued waiters that
// now fit. Promotion is strictly FIFO: a large reservation at the head blocks
// smaller ones behind it, keeping admission order predictable.
func (p *Pool) releaseLocked(q *Query) {
	if q.released {
		return
	}
	q.released = true
	for i, o := range p.active {
		if o == q {
			p.active = append(p.active[:i], p.active[i+1:]...)
			break
		}
	}
	if len(p.active) > 0 {
		p.rr %= len(p.active)
	} else {
		p.rr = 0
	}
	p.memUsed -= q.mem
	obs.Default.Add(obs.SchedRunning, -1)
	if q.mem > 0 {
		flight.Default.RecordStr(flight.KindMemRelease, q.info.ID, q.name, -q.mem, p.memUsed)
	}
	for len(p.queue) > 0 && p.fitsLocked(p.queue[0].info.Mem) {
		w := p.queue[0]
		p.queue = p.queue[1:]
		obs.Default.Add(obs.SchedQueued, -1)
		w.q = p.admitLocked(w.info, time.Since(w.enq))
		close(w.ready)
	}
	if len(p.active) == 0 {
		p.idleCond.Broadcast()
	}
}

// QueueWait reports how long this query waited in the admission queue before
// being admitted (zero when it was admitted immediately).
func (q *Query) QueueWait() time.Duration { return q.waited }

// Release frees the query's admission (idempotent). Any still-running task
// set is stopped first; Release does not wait for in-flight tasks — callers
// reach it only after their last Run returned.
func (q *Query) Release() {
	p := q.pool
	p.mu.Lock()
	if q.set != nil {
		q.set.stopped = true
		p.finishLocked(q.set)
	}
	p.releaseLocked(q)
	p.mu.Unlock()
	p.taskCond.Broadcast()
}

// ---------------------------------------------------------------------------
// Dispatch

// TaskFunc runs one task. slot is the query-local worker slot in
// [0, parallelism) — stable state keyed by it is never touched concurrently;
// idx is the task index in [0, n). Returning a non-nil error stops the set:
// no further tasks are issued and Run returns the first error.
type TaskFunc func(slot, idx int) error

// taskSet is one Run call: n tasks dispatched through the pool.
type taskSet struct {
	q        *Query
	n        int
	next     int // next index to issue
	running  int // issued and not yet finished
	fn       TaskFunc
	err      error
	stopped  bool
	finished bool
	done     chan struct{}
}

// Run dispatches n tasks into the pool and blocks until they finish, the
// first task error, or ctx expires (in-flight tasks always complete before
// Run returns, so slot state is quiescent afterwards). A query runs one set
// at a time — pipelines are sequential. Returns the first task error, the
// drain-cancellation error, or ctx.Err().
func (q *Query) Run(ctx context.Context, n int, fn TaskFunc) error {
	p := q.pool
	p.mu.Lock()
	if q.canceled != nil {
		p.mu.Unlock()
		return q.canceled
	}
	if q.released {
		p.mu.Unlock()
		panic("sched: Run after Release")
	}
	if q.set != nil {
		p.mu.Unlock()
		panic("sched: concurrent Run calls on one Query")
	}
	if n <= 0 {
		p.mu.Unlock()
		return nil
	}
	s := &taskSet{q: q, n: n, fn: fn, done: make(chan struct{})}
	q.set = s
	p.mu.Unlock()
	p.taskCond.Broadcast()

	completed := false
	select {
	case <-s.done:
		completed = true
	case <-ctx.Done():
		p.mu.Lock()
		s.stopped = true
		p.finishLocked(s)
		p.mu.Unlock()
		p.taskCond.Broadcast()
		<-s.done
	}
	// done is closed: no task is running and no field of s is being written.
	if s.err != nil {
		return s.err
	}
	if !completed && s.next < s.n {
		return ctx.Err()
	}
	return nil
}

// finishLocked completes a set once nothing more will run for it.
func (p *Pool) finishLocked(s *taskSet) {
	if !s.finished && s.running == 0 && (s.stopped || s.next >= s.n) {
		s.finished = true
		if s.q.set == s {
			s.q.set = nil
		}
		close(s.done)
	}
}

// take blocks until a task is available (round-robin across queries, slot cap
// per query) or the pool is stopped.
func (p *Pool) take() (*taskSet, int, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.stopped {
			return nil, 0, 0
		}
		if n := len(p.active); n > 0 {
			for k := 0; k < n; k++ {
				q := p.active[(p.rr+k)%n]
				s := q.set
				if s == nil || s.stopped || s.next >= s.n || len(q.slots) == 0 {
					continue
				}
				idx := s.next
				s.next++
				slot := q.slots[len(q.slots)-1]
				q.slots = q.slots[:len(q.slots)-1]
				s.running++
				p.rr = (p.rr + k + 1) % n
				return s, slot, idx
			}
		}
		p.taskCond.Wait()
	}
}

func (p *Pool) worker(id int) {
	defer p.wg.Done()
	labels := pprof.Labels("sched-worker", strconv.Itoa(id))
	pprof.Do(context.Background(), labels, func(context.Context) {
		for {
			s, slot, idx := p.take()
			if s == nil {
				return
			}
			err := runTask(s, slot, idx)
			p.mu.Lock()
			s.running--
			s.q.slots = append(s.q.slots, slot)
			if err != nil && s.err == nil {
				s.err = err
				s.stopped = true
			}
			p.finishLocked(s)
			p.mu.Unlock()
			p.taskCond.Broadcast()
		}
	})
}

// runTask executes one task with scheduler-level panic isolation. The
// executor already converts query panics into typed *QueryError values; this
// recover guards the dispatch path itself (and the sched/dispatch fault
// point) so a scheduler fault fails one query, never the pool.
func runTask(s *taskSet, slot, idx int) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: %v", ErrTaskPanic, rec)
		}
	}()
	if err := faultinject.Inject(faultinject.SchedDispatch); err != nil {
		return fmt.Errorf("sched: dispatch %s: %w", s.q.name, err)
	}
	return s.fn(slot, idx)
}

// ---------------------------------------------------------------------------
// Drain

// Close shuts the pool down gracefully: admissions stop immediately (queued
// waiters fail with ErrDraining), in-flight queries drain until ctx expires,
// stragglers are then canceled (their Run calls return ErrQueryCanceled), and
// the workers exit once every query has released. Close blocks until the pool
// is fully quiescent and is safe to call once; the sched/drain fault point
// can skip the graceful wait to exercise the cancellation path.
func (p *Pool) Close(ctx context.Context) CloseStats {
	var cs CloseStats
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return cs
	}
	p.closed = true
	cs.Shed = len(p.queue)
	for _, w := range p.queue {
		w.err = ErrDraining
		close(w.ready)
		obs.Default.Add(obs.SchedQueued, -1)
	}
	p.queue = nil
	atCloseActive := len(p.active)
	p.mu.Unlock()
	flight.Default.Record(flight.KindDrainBegin, 0, flight.NoLabel, int64(atCloseActive), int64(cs.Shed))

	if err := faultinject.Inject(faultinject.SchedDrain); err != nil {
		// An armed drain fault skips the graceful wait: cancel immediately.
		expired, cancel := context.WithCancel(context.Background())
		cancel()
		ctx = expired
	}

	done := make(chan struct{})
	go func() {
		p.mu.Lock()
		for len(p.active) > 0 {
			p.idleCond.Wait()
		}
		p.mu.Unlock()
		close(done)
	}()

	select {
	case <-done:
	case <-ctx.Done():
		p.mu.Lock()
		cs.Canceled = len(p.active)
		for _, q := range p.active {
			q.canceled = ErrQueryCanceled
			if q.set != nil {
				q.set.stopped = true
				if q.set.err == nil {
					q.set.err = ErrQueryCanceled
				}
				p.finishLocked(q.set)
			}
		}
		p.mu.Unlock()
		p.taskCond.Broadcast()
		p.drainCanceled.Add(int64(cs.Canceled))
		obs.Default.Add(obs.SchedDrainCanceled, int64(cs.Canceled))
		flight.Default.Record(flight.KindDrainCancel, 0, flight.NoLabel, int64(cs.Canceled), 0)
		// Canceled queries still unwind through their owners' Release calls.
		<-done
	}
	cs.Drained = atCloseActive - cs.Canceled
	flight.Default.Record(flight.KindDrainEnd, 0, flight.NoLabel, int64(cs.Drained), int64(cs.Canceled))

	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.taskCond.Broadcast()
	p.wg.Wait()
	return cs
}

// ---------------------------------------------------------------------------
// Shared default pool

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide default pool: DefaultWorkers() workers and
// unlimited admission, so standalone callers (tests, CLIs, library embedders)
// get engine-wide scheduling without configuring anything. Servers that want
// admission control build their own Pool and pass it per query.
func Shared() *Pool {
	sharedOnce.Do(func() {
		sharedPool = NewPool(Config{Workers: DefaultWorkers()})
	})
	return sharedPool
}
