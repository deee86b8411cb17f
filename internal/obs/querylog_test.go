package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math/rand"
	"strings"
	"testing"
	"time"

	"inkfuse/internal/stats"
)

func TestQueryEventEmitLevelsAndFields(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))

	ok := &QueryEvent{
		QueryRecord: stats.QueryRecord{
			ID: 7, Backend: "hybrid", Fingerprint: "abc123", Rows: 1, Stats: stats.Counters{Tuples: 60000},
			Wall: 12 * time.Millisecond, QueueWait: 1 * time.Millisecond,
		},
		Query: "q6", Source: "sql", Outcome: "ok", PlanCache: "hit",
	}
	ok.Emit(logger)
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("canonical event is not one JSON line: %v (%q)", err, buf.String())
	}
	if line["level"] != "INFO" || line["msg"] != "query" {
		t.Fatalf("success event level/msg = %v/%v", line["level"], line["msg"])
	}
	for _, k := range []string{"id", "query", "source", "backend", "outcome", "wall", "queue_wait", "rows", "tuples", "fingerprint", "plan_cache"} {
		if _, present := line[k]; !present {
			t.Fatalf("canonical event missing %q: %v", k, line)
		}
	}

	buf.Reset()
	slow := &QueryEvent{QueryRecord: stats.QueryRecord{ID: 8, Backend: "vectorized"}, Query: "q1", Source: "plan", Outcome: "ok", Slow: true}
	slow.Emit(logger)
	if !strings.Contains(buf.String(), `"level":"WARN"`) || !strings.Contains(buf.String(), `"slow":true`) {
		t.Fatalf("slow event not warned: %s", buf.String())
	}

	buf.Reset()
	failed := &QueryEvent{QueryRecord: stats.QueryRecord{ID: 9, Backend: "hybrid", Err: "queue full"}, Query: "q9", Source: "plan", Outcome: "shed"}
	failed.Emit(logger)
	if !strings.Contains(buf.String(), `"level":"ERROR"`) {
		t.Fatalf("failed event not logged at error: %s", buf.String())
	}
}

// TestTailSamplerChaos drives a randomized mix of outcomes through the
// sampler and proves the acceptance property: 100% of error/shed/degraded
// (and slow) events are kept, while plain successes are kept at roughly the
// configured rate.
func TestTailSamplerChaos(t *testing.T) {
	s := TailSampler{SuccessRate: 0.1}
	rng := rand.New(rand.NewSource(1))
	outcomes := []string{"ok", "shed", "deadline", "internal", "panic", "memory_budget"}

	var tail, tailKept, okTotal, okKept int
	for i := 0; i < 50_000; i++ {
		e := &QueryEvent{QueryRecord: stats.QueryRecord{ID: uint64(i), Backend: "hybrid"}, Query: "q"}
		e.Outcome = outcomes[rng.Intn(len(outcomes))]
		if e.Outcome != "ok" {
			e.Err = "boom"
		} else {
			// Successes can still be tail-worthy: slow or degraded.
			e.Slow = rng.Intn(20) == 0
			if rng.Intn(20) == 0 {
				e.Warnings = []error{errors.New("background compile failed")}
			}
		}
		interesting := e.Interesting()
		kept := s.Keep(e)
		if interesting {
			tail++
			if kept {
				tailKept++
			}
		} else {
			okTotal++
			if kept {
				okKept++
			}
		}
	}
	if tail == 0 || okTotal == 0 {
		t.Fatal("chaos mix degenerate")
	}
	if tailKept != tail {
		t.Fatalf("tail retention %d/%d — sampler dropped interesting events", tailKept, tail)
	}
	rate := float64(okKept) / float64(okTotal)
	if rate < 0.05 || rate > 0.2 {
		t.Fatalf("success sampling rate %.3f far from configured 0.1", rate)
	}
}

func TestTailSamplerDeterministic(t *testing.T) {
	s := TailSampler{SuccessRate: 0.5}
	for id := uint64(0); id < 1000; id++ {
		e := &QueryEvent{QueryRecord: stats.QueryRecord{ID: id}, Outcome: "ok"}
		if s.Keep(e) != s.Keep(e) {
			t.Fatalf("sampling of id %d is not deterministic", id)
		}
	}
}

func TestTailSamplerEdgeRates(t *testing.T) {
	all := TailSampler{SuccessRate: 1}
	none := TailSampler{SuccessRate: 0}
	e := &QueryEvent{QueryRecord: stats.QueryRecord{ID: 3}, Outcome: "ok"}
	if !all.Keep(e) {
		t.Fatal("rate 1 must keep every success")
	}
	if none.Keep(e) {
		t.Fatal("rate 0 must drop plain successes")
	}
	err := &QueryEvent{QueryRecord: stats.QueryRecord{ID: 3, Err: "x"}, Outcome: "deadline"}
	if !none.Keep(err) {
		t.Fatal("rate 0 must still keep the tail")
	}
}

// BenchmarkQueryLog prices the canonical query log per query: one plain-success
// event — a plan-cache hit with the counters a q6 sets — through the tail
// sampler and, when kept, rendered by the text handler inkserve logs with
// (written to io.Discard). "kept" samples every success, "dropped" none.
func BenchmarkQueryLog(b *testing.B) {
	e := &QueryEvent{
		QueryRecord: stats.QueryRecord{
			ID: 42, Name: "q6", Backend: "hybrid", Workers: 2, Fingerprint: "9f1c2b7e5d3a4c60",
			Wall: 12 * time.Millisecond, QueueWait: 20 * time.Microsecond, Rows: 1,
			Stats: stats.Counters{
				Tuples: 60175, EmittedRows: 551483, VMOps: 421225, MaterializedBytes: 4411864,
				FusedCalls: 4, MorselsCompiled: 4, CompileTime: 3 * time.Millisecond,
			},
		},
		Query: "q6", Source: "plan", Outcome: "ok", PlanCache: "hit", ArtifactsReused: 1, ArtifactBytes: 1984,
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	for _, c := range []struct {
		name string
		rate float64
	}{{"kept", 1}, {"dropped", 0}} {
		b.Run(c.name, func(b *testing.B) {
			s := TailSampler{SuccessRate: c.rate}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if s.Keep(e) {
					e.Emit(logger)
				}
			}
		})
	}
}
