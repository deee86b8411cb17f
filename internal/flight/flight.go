// Package flight is the engine's always-on flight recorder: a bounded,
// lock-free, sharded ring buffer of coarse lifecycle events (admission
// accept/queue/shed, morsel dispatch batches, compile start/land/fail,
// plan-cache hit/miss/evict, memory reservation/release, hybrid degradation,
// drain phases). It answers "what was the engine doing in the seconds before
// this query failed/shed/degraded" without logs, sampling infrastructure, or
// per-row cost.
//
// The recording discipline matches the rest of the observability stack
// (DESIGN.md §8): events are emitted at query/pipeline/compile granularity —
// never per row or per chunk — and Record itself is allocation-free and
// wait-free for writers. Every slot field is an atomic, claimed with a
// single CAS and published under a double sequence word, so concurrent
// snapshots observe each event either completely or not at all (never torn),
// and the race detector sees only atomic accesses. A writer that loses the
// claim CAS (possible only when a snapshot-visible slot is being overwritten
// after a full ring wrap) drops its event and counts it, rather than spin.
//
// Memory is strictly bounded: shards * slots fixed-size records plus a
// capped label-interning table. The process-wide Default recorder is what
// the engine records into; servers expose its Snapshot at /debug/flight and
// attach Recent events to failing queries.
//
//inklint:lockscope
package flight

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// Label is an interned event label (query name, pipeline name, fingerprint
// prefix). Hot call sites intern once at setup and pass the Label so Record
// stays map-free; cold sites use RecordStr.
type Label uint32

// NoLabel is the zero label (rendered as "-").
const NoLabel Label = 0

// Event is one decoded flight-recorder event, as returned by Snapshot.
type Event struct {
	// Seq is the event's global sequence number: the total order events were
	// claimed in, across all shards.
	Seq uint64
	// TS is the coarse monotonic timestamp: elapsed time since the
	// recorder's epoch (Recorder.Epoch anchors it on the wall clock).
	TS time.Duration
	// Kind classifies the event; Query is the engine-wide query id it
	// belongs to (0 = engine-lifecycle event not tied to one query).
	Kind  Kind
	Query uint64
	// Label is the resolved interned label ("" when none).
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

// slot is one ring entry. All fields are atomics so concurrent writers and
// snapshot readers never race: a writer claims the slot with busy, stores
// seq1, the payload, then seq2; a reader accepts a slot only when the seq
// words agree (see Snapshot).
type slot struct {
	busy atomic.Uint32
	seq1 atomic.Uint64
	seq2 atomic.Uint64
	ts   atomic.Int64
	meta atomic.Uint64 // kind<<32 | label
	qid  atomic.Uint64
	a    atomic.Int64
	b    atomic.Int64
}

type shard struct {
	head  atomic.Uint64
	slots []slot
	mask  uint64
}

// Recorder is a bounded flight recorder. The zero value is not usable; build
// with New or use Default.
type Recorder struct {
	epoch  time.Time
	shards []shard
	smask  uint64
	seq    atomic.Uint64
	drops  atomic.Int64

	labelMu  sync.RWMutex
	labelIdx map[string]Label
	labels   []string // labels[Label] — labels[0] is ""
}

// DefaultShards and DefaultSlots size Default: 8 shards × 1024 events
// ≈ 0.5 MiB of fixed memory, several minutes of engine history under load.
const (
	DefaultShards = 8
	DefaultSlots  = 1024
	// maxLabels caps the interning table; past it every new label collapses
	// onto the overflow label so cardinality attacks (e.g. unbounded SQL
	// fingerprints) cannot grow memory.
	maxLabels = 4096
)

// Default is the process-wide recorder every engine layer records into.
var Default = New(DefaultShards, DefaultSlots)

// New builds a recorder with the given shard count and per-shard slot count
// (both rounded up to powers of two, floored at 1 and 64).
func New(shards, slotsPerShard int) *Recorder {
	shards = ceilPow2(max(shards, 1))
	slotsPerShard = ceilPow2(max(slotsPerShard, 64))
	r := &Recorder{
		epoch:    time.Now(),
		shards:   make([]shard, shards),
		smask:    uint64(shards - 1),
		labelIdx: make(map[string]Label),
		labels:   []string{""},
	}
	for i := range r.shards {
		r.shards[i].slots = make([]slot, slotsPerShard)
		r.shards[i].mask = uint64(slotsPerShard - 1)
	}
	// Reserve the overflow label at index 1 so interning can fall back to it.
	r.Intern("…")
	return r
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Epoch is the wall-clock anchor of event timestamps.
func (r *Recorder) Epoch() time.Time { return r.epoch }

// Dropped reports events lost to slot-claim contention (writers never spin).
func (r *Recorder) Dropped() int64 { return r.drops.Load() }

// Intern resolves a label string to its stable Label, creating it on first
// use. The table is capped: past maxLabels every unknown string maps to the
// overflow label. Not for per-morsel paths — intern at query/pipeline setup.
func (r *Recorder) Intern(s string) Label {
	if s == "" {
		return NoLabel
	}
	r.labelMu.RLock()
	l, ok := r.labelIdx[s]
	r.labelMu.RUnlock()
	if ok {
		return l
	}
	r.labelMu.Lock()
	defer r.labelMu.Unlock()
	if l, ok = r.labelIdx[s]; ok {
		return l
	}
	if len(r.labels) >= maxLabels {
		return Label(1) // overflow
	}
	l = Label(len(r.labels))
	r.labels = append(r.labels, s)
	r.labelIdx[s] = l
	return l
}

// labelString resolves a Label back to its string.
func (r *Recorder) labelString(l Label) string {
	r.labelMu.RLock()
	defer r.labelMu.RUnlock()
	if int(l) < len(r.labels) {
		return r.labels[l]
	}
	return "?"
}

// Record appends one event. Wait-free and allocation-free: one global
// sequence fetch-add, one shard head fetch-add, one slot CAS claim, seven
// atomic stores. Safe from any goroutine, including the morsel hot path —
// but call it at morsel-batch granularity or coarser, never per row/chunk.
//
//inkfuse:hotpath
func (r *Recorder) Record(k Kind, query uint64, label Label, a, b int64) {
	seq := r.seq.Add(1)
	sh := &r.shards[(query^seq>>12)&r.smask]
	i := sh.head.Add(1) - 1
	s := &sh.slots[i&sh.mask]
	// The claim fails only when a writer lapped the ring onto a slot still
	// being written (or snapshotted mid-write) — drop rather than spin so
	// the hot path never blocks.
	if !s.busy.CompareAndSwap(0, 1) {
		r.drops.Add(1)
		return
	}
	s.seq1.Store(seq)
	s.ts.Store(int64(time.Since(r.epoch)))
	s.meta.Store(uint64(k)<<32 | uint64(label))
	s.qid.Store(query)
	s.a.Store(a)
	s.b.Store(b)
	s.seq2.Store(seq)
	s.busy.Store(0)
}

// RecordStr is the convenience form for cold call sites: interns the label
// and records. Never call from a hot path (interning takes a lock).
func (r *Recorder) RecordStr(k Kind, query uint64, label string, a, b int64) {
	r.Record(k, query, r.Intern(label), a, b)
}

// Snapshot returns every completely-published event, oldest first (global
// sequence order). Reads are non-blocking: a slot mid-write is skipped this
// pass (its event appears in the next snapshot), so the result is always
// well-formed even while every shard is being written concurrently.
func (r *Recorder) Snapshot() []Event {
	var out []Event
	for si := range r.shards {
		sh := &r.shards[si]
		for i := range sh.slots {
			s := &sh.slots[i]
			// Read seq2 first and seq1 last: the writer stores them in the
			// opposite order around the payload, so equality means one
			// writer's stores fully bracket our loads (the slot CAS claim
			// guarantees writers are mutually exclusive per slot).
			q2 := s.seq2.Load()
			if q2 == 0 {
				continue // never written
			}
			ev := Event{
				Seq:   q2,
				TS:    time.Duration(s.ts.Load()),
				Query: s.qid.Load(),
				A:     s.a.Load(),
				B:     s.b.Load(),
			}
			meta := s.meta.Load()
			if s.seq1.Load() != q2 {
				continue // torn: a writer is mid-overwrite, skip
			}
			ev.Kind = Kind(meta >> 32)
			ev.Label = r.labelString(Label(meta & 0xffffffff))
			if ev.Kind == 0 || ev.Kind >= kindMax {
				continue
			}
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Recent returns the newest n events relevant to the given query: its own
// events plus engine-lifecycle events (query 0 — drain phases, evictions,
// memory ledger), oldest first. query 0 returns the newest n of everything.
func (r *Recorder) Recent(n int, query uint64) []Event {
	all := r.Snapshot()
	var sel []Event
	for _, ev := range all {
		if query == 0 || ev.Query == query || ev.Query == 0 {
			sel = append(sel, ev)
		}
	}
	if n > 0 && len(sel) > n {
		sel = sel[len(sel)-n:]
	}
	return sel
}

// Dump writes the full snapshot as text, one event per line — the SIGQUIT
// rendering.
func (r *Recorder) Dump(w io.Writer) {
	evs := r.Snapshot()
	fmt.Fprintf(w, "flight recorder: %d events, epoch %s, %d dropped\n",
		len(evs), r.epoch.Format(time.RFC3339Nano), r.Dropped())
	for _, ev := range evs {
		fmt.Fprintf(w, "  %s\n", ev)
	}
}
