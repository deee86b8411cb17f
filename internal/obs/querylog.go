// Canonical query log: one structured wide event per query completion, the
// single source of truth for "what did this query do" in logs. Serve emits it
// through log/slog around the executor's stats.QueryRecord, so a slow,
// failed, shed or degraded query carries the same fields everywhere: identity
// (engine query id, fingerprint, source), routing (backend, plan-cache
// outcome, degradations), scheduling (admission queue wait), compilation
// (compiles run vs artifacts reused, cached bytes), the execution counters
// (every stats.Schema row that is set), and the duration breakdown.
//
// Tail-based sampling: the interesting tail — errors, shed admissions, slow
// queries, degraded pipelines — is always kept; plain successes are sampled
// probabilistically (deterministic in the query id, so a fleet of servers
// keeps a consistent subset and reruns are reproducible).

package obs

import (
	"context"
	"log/slog"
	"reflect"
	"time"

	"inkfuse/internal/stats"
)

// QueryEvent is the canonical wide event of one query completion: the
// executor's record (id, backend, fingerprint, rows, durations, the error,
// every set counter under its stats.Schema name, the degraded verdict) plus
// what the serving layer adds.
type QueryEvent struct {
	stats.QueryRecord

	Query     string // the request's label, e.g. "q6" (the record's Name is the statement's)
	Source    string // "plan" (named query), "sql" (text), "prepared" (handle)
	TraceID   string // W3C trace id when the client sent traceparent
	PlanCache string // "hit", "miss", or "off"

	// Outcome is "ok" for successes, otherwise the error kind the serving
	// layer classified ("shed", "deadline", "canceled", "panic", ...).
	Outcome string
	Slow    bool // wall exceeded the slow-query threshold

	// Compilation amortization (plan/artifact cache).
	Compiles        int64 // compile jobs this execution ran
	ArtifactsReused int64 // fused pipelines served from cached artifacts
	ArtifactBytes   int64 // cached artifact bytes leased with the plan
}

// Interesting reports whether the event is in the always-keep tail: any
// non-ok outcome, an explicit error, a shed/degraded/slow query.
func (e *QueryEvent) Interesting() bool {
	return e.Outcome != "ok" || e.Err != "" || e.Degraded() || e.Slow
}

// attrs renders the event as slog attributes. Zero-valued optional fields
// (fingerprint, trace id, counters the query never touched) are elided so the
// line stays readable in text handlers.
func (e *QueryEvent) attrs() []slog.Attr {
	out := make([]slog.Attr, 0, 32)
	out = append(out,
		slog.Uint64("id", e.ID),
		slog.String("query", e.Query),
		slog.String("source", e.Source),
		slog.String("backend", e.Backend),
		slog.String("outcome", e.Outcome),
		slog.Duration("wall", e.Wall),
		slog.Duration("queue_wait", e.QueueWait),
		slog.Int("rows", e.Rows),
	)
	for _, a := range []slog.Attr{
		slog.String("fingerprint", e.Fingerprint),
		slog.String("plan_cache", e.PlanCache),
		slog.String("trace_id", e.TraceID),
		slog.String("err", e.Err),
		slog.Bool("slow", e.Slow),
		slog.Bool("degraded", e.Degraded()),
		slog.Int64("compiles", e.Compiles),
		slog.Int64("artifacts_reused", e.ArtifactsReused),
		slog.Int64("artifact_bytes", e.ArtifactBytes),
	} {
		if !reflect.ValueOf(a.Value.Any()).IsZero() {
			out = append(out, a)
		}
	}
	for r, v := range e.Stats.Nonzero() {
		if r.Dur {
			out = append(out, slog.Duration(r.Name, time.Duration(v)))
		} else {
			out = append(out, slog.Int64(r.Name, v))
		}
	}
	return out
}

// Emit writes the canonical event to the logger at a level matching its
// severity: Error for failed queries, Warn for slow/degraded ones, Info
// otherwise. The message is always "query" so downstream filters key on the
// attributes, not the text.
func (e *QueryEvent) Emit(logger *slog.Logger) {
	if logger == nil {
		return
	}
	level := slog.LevelInfo
	switch {
	case e.Outcome != "ok" || e.Err != "":
		level = slog.LevelError
	case e.Slow || e.Degraded():
		level = slog.LevelWarn
	}
	logger.LogAttrs(context.Background(), level, "query", e.attrs()...)
}

// TailSampler decides which canonical query events are logged. The tail —
// every event whose Interesting() is true — is always kept; plain successes
// are kept with probability SuccessRate, decided deterministically from the
// query id (splitmix64), so the kept subset is stable across reruns and
// consistent between a server's log and its span file.
type TailSampler struct {
	// SuccessRate is the fraction of non-interesting (plain success) events
	// kept: 1 keeps everything, 0 drops every plain success, 0.01 keeps ~1%.
	SuccessRate float64
}

// Keep reports whether the event should be emitted.
func (s TailSampler) Keep(e *QueryEvent) bool {
	if e.Interesting() {
		return true
	}
	switch {
	case s.SuccessRate >= 1:
		return true
	case s.SuccessRate <= 0:
		return false
	}
	// splitmix64 finalizer: uniform in [0, 2^53) after the shift.
	x := e.ID + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < s.SuccessRate
}
