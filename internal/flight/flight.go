// Package flight is the engine's always-on flight recorder: a bounded ring of
// coarse lifecycle events (admission accept/queue/shed, morsel dispatch
// batches, compile start/land/fail, plan-cache hit/miss/evict, memory
// reservation/release, hybrid degradation, drain phases). It answers "what
// was the engine doing in the seconds before this query failed/shed/degraded"
// without logs, sampling infrastructure, or per-row cost.
//
// The recording discipline matches the rest of the observability stack
// (DESIGN.md §8): events are emitted at query/pipeline/compile granularity —
// never per row or per chunk — about a dozen per query. At that rate one
// fixed []Event ring behind one sync.Mutex is enough: Record reads the clock,
// takes the lock and stores one struct, allocating nothing, and a snapshot
// copies the ring under the same lock, so no event is ever torn or lost to
// contention. Labels are the strings callers already hold (query names,
// pipeline names, fingerprints); the ring keeps them alive until overwritten.
//
// Memory is strictly bounded: DefaultSlots fixed-size events. The
// process-wide Default recorder is what the engine records into; servers
// expose its Snapshot at /debug/flight and attach Recent events to failing
// queries.
//
//inklint:lockscope
package flight

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"
)

// Kind classifies a flight event.
type Kind uint8

// Event kinds, grouped by the subsystem that records them.
const (
	// KindQueryStart / KindQueryDone / KindQueryError bracket one query's
	// life inside the executor. Done carries A = wall nanos, B = result rows;
	// Error carries A = wall nanos.
	KindQueryStart Kind = 1 + iota
	KindQueryDone
	KindQueryError

	// Admission (internal/sched). KindQueued marks entry into the bounded
	// admission queue (A = queue length after enqueue); KindAdmit an accepted
	// admission (A = queue-wait nanos); KindShed a queue-full rejection;
	// KindQueueTimeout a queued admission abandoned by its context
	// (A = queued nanos); KindMemReserve / KindMemRelease the engine-wide
	// memory reservation ledger (A = delta bytes, B = total reserved after).
	KindQueued
	KindAdmit
	KindShed
	KindQueueTimeout
	KindMemReserve
	KindMemRelease

	// KindMorselBatch is one pipeline's morsel dispatch into the scheduler:
	// A = morsels scheduled, B = source rows. Recorded once per pipeline,
	// never per morsel.
	KindMorselBatch

	// Compilation. Start marks a compile job beginning (foreground or hybrid
	// background); Land a deposited artifact (A = compile nanos); Fail a
	// permanently failed job. KindFirstJIT is the hybrid router serving its
	// first compiled morsel on a worker (A = worker slot) — the observable
	// moment incremental fusion switches backends mid-query.
	KindCompileStart
	KindCompileLand
	KindCompileFail
	KindFirstJIT

	// KindDegraded marks a hybrid pipeline that permanently fell back to the
	// vectorized interpreter after its background compile failed.
	KindDegraded

	// Plan cache (internal/plancache). Hit/Miss label the fingerprint;
	// Evict carries A = evicted entry's cached bytes.
	KindPlanCacheHit
	KindPlanCacheMiss
	KindPlanCacheEvict

	// Drain (sched.Close). Begin carries A = active queries, B = shed
	// waiters; Cancel A = force-canceled queries; End A = drained queries.
	KindDrainBegin
	KindDrainCancel
	KindDrainEnd

	kindMax // sentinel for validity checks
)

var kindNames = [...]string{
	KindQueryStart:     "query_start",
	KindQueryDone:      "query_done",
	KindQueryError:     "query_error",
	KindQueued:         "admission_queued",
	KindAdmit:          "admitted",
	KindShed:           "shed",
	KindQueueTimeout:   "queue_timeout",
	KindMemReserve:     "mem_reserve",
	KindMemRelease:     "mem_release",
	KindMorselBatch:    "morsel_batch",
	KindCompileStart:   "compile_start",
	KindCompileLand:    "compile_land",
	KindCompileFail:    "compile_fail",
	KindFirstJIT:       "first_jit_morsel",
	KindDegraded:       "degraded",
	KindPlanCacheHit:   "plancache_hit",
	KindPlanCacheMiss:  "plancache_miss",
	KindPlanCacheEvict: "plancache_evict",
	KindDrainBegin:     "drain_begin",
	KindDrainCancel:    "drain_cancel",
	KindDrainEnd:       "drain_end",
}

func (k Kind) String() string {
	if k == 0 || k >= kindMax {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// Event is one flight-recorder event, as returned by Snapshot.
type Event struct {
	// Seq is the event's sequence number: the order events were recorded in,
	// starting at 1.
	Seq uint64
	// TS is the coarse monotonic timestamp: elapsed time since the
	// recorder's epoch, which Dump's header line prints on the wall clock.
	TS time.Duration
	// Kind classifies the event; Query is the engine-wide query id it
	// belongs to (0 = engine-lifecycle event not tied to one query).
	Kind  Kind
	Query uint64
	// Label names what the event is about (query, pipeline or fingerprint;
	// "" when none).
	Label string
	// A and B are kind-specific arguments (see the Kind constants).
	A, B int64
}

// String renders one event as a compact single line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "+%-12s %-16s", e.TS.Round(10*time.Microsecond), e.Kind)
	if e.Query != 0 {
		fmt.Fprintf(&b, " q=%d", e.Query)
	}
	if e.Label != "" {
		fmt.Fprintf(&b, " %s", e.Label)
	}
	switch e.Kind {
	case KindQueryDone:
		fmt.Fprintf(&b, " wall=%v rows=%d", time.Duration(e.A).Round(time.Microsecond), e.B)
	case KindQueryError:
		fmt.Fprintf(&b, " wall=%v", time.Duration(e.A).Round(time.Microsecond))
	case KindAdmit, KindQueueTimeout:
		fmt.Fprintf(&b, " waited=%v", time.Duration(e.A).Round(time.Microsecond))
	case KindCompileLand:
		fmt.Fprintf(&b, " compile=%v", time.Duration(e.A).Round(time.Microsecond))
	case KindMemReserve, KindMemRelease:
		fmt.Fprintf(&b, " delta=%d reserved=%d", e.A, e.B)
	case KindMorselBatch:
		fmt.Fprintf(&b, " morsels=%d rows=%d", e.A, e.B)
	default:
		if e.A != 0 || e.B != 0 {
			fmt.Fprintf(&b, " a=%d b=%d", e.A, e.B)
		}
	}
	return b.String()
}

// Recorder is a bounded flight recorder. The zero value is not usable; build
// with New or use Default.
type Recorder struct {
	epoch time.Time

	mu   sync.Mutex
	ring []Event
	next int    // ring index the next event is stored at
	seq  uint64 // events recorded so far; the newest event's Seq
}

// DefaultSlots sizes Default: 8192 events of 64 bytes ≈ 0.5 MiB of fixed
// memory, several minutes of engine history under load.
const DefaultSlots = 8192

// Default is the process-wide recorder every engine layer records into.
var Default = New(DefaultSlots)

// New builds a recorder that keeps the newest slots events (at least one).
func New(slots int) *Recorder {
	return &Recorder{epoch: time.Now(), ring: make([]Event, max(slots, 1))}
}

// Record appends one event, overwriting the oldest once the ring is full.
// Allocation-free and safe from any goroutine, including the morsel hot path
// — but call it at morsel-batch granularity or coarser, never per row/chunk.
//
//inkfuse:hotpath
func (r *Recorder) Record(k Kind, query uint64, label string, a, b int64) {
	ts := time.Since(r.epoch)
	r.mu.Lock()
	r.seq++
	r.ring[r.next] = Event{Seq: r.seq, TS: ts, Kind: k, Query: query, Label: label, A: a, B: b}
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
	}
	r.mu.Unlock()
}

// Snapshot returns every event the ring holds, oldest first.
func (r *Recorder) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq < uint64(len(r.ring)) {
		return append([]Event(nil), r.ring[:r.next]...)
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	return append(out, r.ring[:r.next]...)
}

// Recent returns the newest n events relevant to the given query: its own
// events plus engine-lifecycle events (query 0 — drain phases, evictions,
// memory ledger), oldest first. query 0 selects everything; n <= 0 returns
// every relevant event the ring holds.
func (r *Recorder) Recent(n int, query uint64) []Event {
	r.mu.Lock()
	held := int(min(r.seq, uint64(len(r.ring))))
	var sel []Event
	for i := 1; i <= held && (n <= 0 || len(sel) < n); i++ {
		ev := &r.ring[(r.next-i+len(r.ring))%len(r.ring)]
		if query == 0 || ev.Query == query || ev.Query == 0 {
			sel = append(sel, *ev)
		}
	}
	r.mu.Unlock()
	slices.Reverse(sel)
	return sel
}

// Dump writes the full snapshot as text, one event per line — the SIGQUIT
// rendering.
func (r *Recorder) Dump(w io.Writer) {
	evs := r.Snapshot()
	fmt.Fprintf(w, "flight recorder: %d events, epoch %s\n",
		len(evs), r.epoch.Format(time.RFC3339Nano))
	for _, ev := range evs {
		fmt.Fprintf(w, "  %s\n", ev)
	}
}
