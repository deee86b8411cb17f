package trace

import (
	"strings"
	"testing"
	"time"

	"inkfuse/internal/stats"
)

func TestTotalsAndQuantiles(t *testing.T) {
	q := NewQuery("q", "hybrid", 3, time.Now())
	p := q.StartPipeline("p0", 1000, 10)
	if len(p.Workers) != 3 {
		t.Fatalf("workers: got %d, want 3", len(p.Workers))
	}
	p.Workers[0] = Worker{Busy: 2 * time.Millisecond, Morsels: 4, Counters: stats.Counters{Tuples: 400, MorselsCompiled: 3, MorselsVectorized: 1}}
	p.Workers[1] = Worker{Busy: 1 * time.Millisecond, Morsels: 3, Counters: stats.Counters{Tuples: 300, MorselsCompiled: 1, MorselsVectorized: 2}}
	p.Workers[2] = Worker{Busy: 3 * time.Millisecond, Morsels: 3, Counters: stats.Counters{Tuples: 300, MorselsCompiled: 2, MorselsVectorized: 1}}
	p.Counters = stats.Counters{CompileTime: time.Millisecond, MemPeakBytes: 9}

	if got := p.MorselsRun(); got != 10 {
		t.Errorf("MorselsRun: got %d, want 10", got)
	}
	want := stats.Counters{Tuples: 1000, MorselsCompiled: 6, MorselsVectorized: 4, CompileTime: time.Millisecond, MemPeakBytes: 9}
	if got := p.Total(); got != want {
		t.Errorf("pipeline total: got %+v, want %+v", got, want)
	}
	if got := q.Total(); got != want {
		t.Errorf("query total: got %+v, want %+v", got, want)
	}
	lo, med, hi, ok := p.BusyQuantiles()
	if !ok || lo != time.Millisecond || med != 2*time.Millisecond || hi != 3*time.Millisecond {
		t.Errorf("quantiles: got %v %v %v %v", lo, med, hi, ok)
	}
}

// TestMorselDeltas: a worker's counters are what its slot's accumulating
// counters gained over its own morsels, whatever other pipelines left there.
func TestMorselDeltas(t *testing.T) {
	q := NewQuery("q", "hybrid", 1, time.Now())
	w := &q.StartPipeline("p1", 0, 0).Workers[0]
	slot := stats.Counters{Tuples: 500, HTInserts: 3, MemPeakBytes: 155} // an earlier pipeline's work
	for i := 0; i < 2; i++ {
		w.BeginMorsel(&slot)
		slot.Tuples += 100
		slot.HTBloomSkips += 7
		w.EndMorsel(&slot, time.Millisecond)
	}
	if want := (stats.Counters{Tuples: 200, HTBloomSkips: 14}); w.Counters != want || w.Morsels != 2 || w.Busy != 2*time.Millisecond {
		t.Fatalf("worker = %d morsels, busy %v, %+v; want 2, 2ms, %+v", w.Morsels, w.Busy, w.Counters, want)
	}
}

func TestEWMACapAndFinal(t *testing.T) {
	q := NewQuery("q", "hybrid", 1, time.Now())
	p := q.StartPipeline("p0", 0, 0)
	w := &p.Workers[0]
	for i := 0; i < MaxEWMASamples+7; i++ {
		w.AddEWMA(EWMASample{Morsel: i, JIT: i%2 == 0, JITTput: 100, VecTput: 50})
	}
	if len(w.EWMA) != MaxEWMASamples {
		t.Fatalf("series length: got %d, want %d", len(w.EWMA), MaxEWMASamples)
	}
	if w.EWMADropped != 7 {
		t.Fatalf("dropped: got %d, want 7", w.EWMADropped)
	}
	jit, vec := p.FinalEWMA()
	if jit != 100 || vec != 50 {
		t.Fatalf("final ewma: got %v/%v, want 100/50", jit, vec)
	}
}

func TestDumpPartialTrace(t *testing.T) {
	q := NewQuery("canceled", "vectorized", 2, time.Now())
	p := q.StartPipeline("p0", 500, 8)
	p.Workers[0] = Worker{Busy: time.Millisecond, Morsels: 2, Counters: stats.Counters{Tuples: 128}}
	q.Err = "canceled"
	q.Wall = 5 * time.Millisecond
	out := q.Dump()
	for _, want := range []string{"trace canceled", `err="canceled"`, "500 rows in 8 morsels (2 run before the query stopped)", "counters: tuples=128", "w0: 2 morsels"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	// The idle worker prints no line.
	if strings.Contains(out, "w1:") {
		t.Errorf("idle worker should be omitted:\n%s", out)
	}
}

func TestFormatTput(t *testing.T) {
	cases := map[float64]string{0: "-", 12: "12/s", 4500: "4.5K/s", 4.56e7: "45.6M/s", 2e9: "2.0G/s"}
	for v, want := range cases {
		if got := FormatTput(v); got != want {
			t.Errorf("FormatTput(%v) = %q, want %q", v, got, want)
		}
	}
}
