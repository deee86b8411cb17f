package flight

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWraparoundBounded: a ring written far past its capacity keeps only the
// newest events, in sequence order, with nothing torn or duplicated.
func TestWraparoundBounded(t *testing.T) {
	r := New(64)
	const n = 1000
	for i := 1; i <= n; i++ {
		r.Record(KindQueryDone, uint64(i), "wrap", int64(i), int64(-i))
	}
	evs := r.Snapshot()
	if len(evs) != 64 {
		t.Fatalf("snapshot has %d events, want 64", len(evs))
	}
	for i, ev := range evs {
		if i > 0 && ev.Seq <= evs[i-1].Seq {
			t.Fatalf("sequence not strictly increasing at %d: %d then %d", i, evs[i-1].Seq, ev.Seq)
		}
		if ev.Seq != uint64(n-64+1+i) {
			t.Fatalf("event %d has seq %d, want %d: not the newest 64", i, ev.Seq, n-64+1+i)
		}
		if ev.A != int64(ev.Query) || ev.B != -int64(ev.Query) {
			t.Fatalf("torn event: %+v", ev)
		}
		if ev.Label != "wrap" || ev.Kind != KindQueryDone {
			t.Fatalf("corrupt event: %+v", ev)
		}
	}
	if last := evs[len(evs)-1].Seq; last != n {
		t.Fatalf("newest seq = %d, want %d", last, n)
	}
}

// TestConcurrentWritersSnapshotsWellFormed hammers a tiny ring from many
// writers while snapshotting concurrently: every returned event must be
// internally consistent (A/B invariant intact, kind valid, label resolved) —
// the never-torn guarantee — and the snapshot itself always well-formed.
// Run under -race this also proves every ring access is properly guarded.
func TestConcurrentWritersSnapshotsWellFormed(t *testing.T) {
	r := New(128) // tiny: force constant wraparound under contention
	labels := []string{"w0", "w1", "w2", "w3"}
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := int64(w*perWriter + i)
				// Invariant: B == v*3 + int64(kind). Kind cycles.
				k := KindQueryStart + Kind(i%3)
				r.Record(k, uint64(w+1), labels[w%len(labels)], v, v*3+int64(k))
			}
		}(w)
	}

	var snaps sync.WaitGroup
	for s := 0; s < 4; s++ {
		snaps.Add(1)
		go func() {
			defer snaps.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, ev := range r.Snapshot() {
					if ev.Kind == 0 || ev.Kind >= kindMax {
						t.Errorf("invalid kind in snapshot: %+v", ev)
						return
					}
					if ev.B != ev.A*3+int64(ev.Kind) {
						t.Errorf("torn event: %+v", ev)
						return
					}
					if !strings.HasPrefix(ev.Label, "w") {
						t.Errorf("label not resolved: %+v", ev)
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	snaps.Wait()

	// After quiescence, exactly ring-capacity events survive and they are the
	// newest ones recorded: nothing is dropped, so the last is the total.
	evs := r.Snapshot()
	total := uint64(writers * perWriter)
	if len(evs) != 128 {
		t.Fatalf("snapshot has %d events after %d writes, want 128", len(evs), total)
	}
	if last := evs[len(evs)-1].Seq; last != total {
		t.Fatalf("newest seq = %d, want %d", last, total)
	}
	seen := map[uint64]bool{}
	for _, ev := range evs {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d in snapshot", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

func TestRecentFiltersByQuery(t *testing.T) {
	r := New(256)
	for i := 0; i < 10; i++ {
		r.Record(KindMorselBatch, 7, "mine", int64(i), 0)
		r.Record(KindMorselBatch, 8, "other", int64(i), 0)
	}
	r.Record(KindDrainBegin, 0, "", 2, 0) // engine-lifecycle: always relevant
	got := r.Recent(6, 7)
	if len(got) != 6 {
		t.Fatalf("Recent returned %d events, want 6", len(got))
	}
	for _, ev := range got {
		if ev.Query != 7 && ev.Query != 0 {
			t.Fatalf("Recent(7) leaked query %d: %+v", ev.Query, ev)
		}
	}
	if last := got[len(got)-1]; last.Kind != KindDrainBegin {
		t.Fatalf("newest relevant event = %+v, want the drain marker", last)
	}
}

// TestDistinctLabelsKeptVerbatim: labels are stored as given, however many
// distinct ones arrive — a ring fed 10 000 of them holds exactly the newest 64,
// each with its own label.
func TestDistinctLabelsKeptVerbatim(t *testing.T) {
	r := New(64)
	const n = 10000
	for i := 0; i < n; i++ {
		r.Record(KindQueryStart, uint64(i+1), fmt.Sprintf("sql-%08x", i), 0, 0)
	}
	evs := r.Snapshot()
	if len(evs) != 64 {
		t.Fatalf("snapshot has %d events, want 64", len(evs))
	}
	for i, ev := range evs {
		want := n - 64 + i
		if ev.Query != uint64(want+1) || ev.Label != fmt.Sprintf("sql-%08x", want) {
			t.Fatalf("event %d = %+v, want query %d labelled sql-%08x", i, ev, want+1, want)
		}
	}
}

// TestRecordNoAllocs pins the recorder's hot-path contract: recording with a
// label string performs zero heap allocations.
func TestRecordNoAllocs(t *testing.T) {
	r := New(1024)
	allocs := testing.AllocsPerRun(500, func() {
		r.Record(KindMorselBatch, 42, "alloc-test", 16, 1<<20)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f times per call, want 0", allocs)
	}
}

func TestDumpRendersEvents(t *testing.T) {
	r := New(64)
	r.Record(KindAdmit, 3, "q6", int64(1500*time.Microsecond), 0)
	var b strings.Builder
	r.Dump(&b)
	out := b.String()
	if !strings.Contains(out, "flight recorder: 1 events") {
		t.Fatalf("dump header missing: %q", out)
	}
	if !strings.Contains(out, "admitted") || !strings.Contains(out, "q=3") || !strings.Contains(out, "q6") {
		t.Fatalf("dump line incomplete: %q", out)
	}
}

// BenchmarkRecord prices one Record from every benchmark goroutine at once,
// with a label string as the engine's call sites pass it.
func BenchmarkRecord(b *testing.B) {
	r := New(DefaultSlots)
	label := fmt.Sprintf("sql-%08x", 42)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Record(KindMorselBatch, 42, label, 16, 1<<20)
		}
	})
}

// BenchmarkSnapshot prices copying a full default-size ring, what
// /debug/flight and the SIGQUIT dump do.
func BenchmarkSnapshot(b *testing.B) {
	r := New(DefaultSlots)
	for i := 0; i < 4*DefaultSlots; i++ {
		r.Record(KindMorselBatch, uint64(i), fmt.Sprintf("p%d", i%16), int64(i), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink = r.Snapshot()
	}
}

var snapshotSink []Event
