package stats

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSchemaCoversEveryField: every numeric field of Counters has exactly one
// schema row, so a field added without a row (or a row pointing at the wrong
// field) fails here instead of silently missing from every sink. The two
// fields of the retired pre-aggregation tier are the exception: they have no
// row and always read 0. Sum rows add and max rows max, through Add and
// through AddDelta.
func TestSchemaCoversEveryField(t *testing.T) {
	rowless := map[string]bool{"HTLocalHits": true, "HTSpills": true}
	var a Counters
	av := reflect.ValueOf(&a).Elem()
	rowOf := map[uintptr]string{}
	names, engines := map[string]bool{}, map[string]bool{}
	for i := range Schema {
		r := &Schema[i]
		addr := uintptr(reflect.ValueOf(r.Of(&a)).Pointer())
		if prev, dup := rowOf[addr]; dup {
			t.Errorf("rows %q and %q locate the same field", prev, r.Name)
		}
		rowOf[addr] = r.Name
		if names[r.Name] || engines[r.Engine] || r.Name == "" || r.Engine == "" {
			t.Errorf("row %q/%q: names must be set and unique", r.Name, r.Engine)
		}
		names[r.Name], engines[r.Engine] = true, true
	}
	for i := 0; i < av.NumField(); i++ {
		f := av.Type().Field(i)
		if k := f.Type.Kind(); k != reflect.Int64 {
			t.Fatalf("field %s is a %v: Counters holds int64 and time.Duration fields only", f.Name, k)
		}
		name, ok := rowOf[av.Field(i).Addr().Pointer()]
		if ok == rowless[f.Name] {
			t.Errorf("field %s: has a schema row = %v", f.Name, ok)
		}
		if !ok {
			continue
		}
		if dur := f.Type == reflect.TypeOf(time.Duration(0)); dur != rowByName(t, name).Dur {
			t.Errorf("row %q: Dur = %v, but field %s is a %v", name, !dur, f.Name, f.Type)
		}
		av.Field(i).SetInt(int64(10 * (i + 1)))
	}
	if len(rowOf)+len(rowless) != av.NumField() {
		t.Errorf("%d rows for %d fields", len(rowOf), av.NumField())
	}

	// b is a everywhere plus one: sums double (+1), maxes take b's value.
	b := a
	for i := range Schema {
		*Schema[i].Of(&b)++
	}
	sum, delta := a, a
	sum.Add(&b)
	delta.AddDelta(&b, &a) // b rose by one since a
	for i := range Schema {
		r := &Schema[i]
		av, bv := *r.Of(&a), *r.Of(&b)
		wantSum, wantDelta := av+bv, av+1
		if r.Max {
			wantSum, wantDelta = bv, bv
		}
		if got := *r.Of(&sum); got != wantSum {
			t.Errorf("Add %s: got %d, want %d", r.Name, got, wantSum)
		}
		if got := *r.Of(&delta); got != wantDelta {
			t.Errorf("AddDelta %s: got %d, want %d", r.Name, got, wantDelta)
		}
	}
}

// TestAddDeltaIgnoresOldHighWaterMarks: a mark that did not rise during the
// interval says nothing about the interval, so it must not leak into it.
func TestAddDeltaIgnoresOldHighWaterMarks(t *testing.T) {
	acc := Counters{MemPeakBytes: 9}
	since := acc
	acc.Tuples += 7
	var got Counters
	got.AddDelta(&acc, &since)
	if want := (Counters{Tuples: 7}); got != want {
		t.Fatalf("delta = %+v, want %+v", got, want)
	}
}

func rowByName(t *testing.T, name string) *Row {
	t.Helper()
	for i := range Schema {
		if Schema[i].Name == name {
			return &Schema[i]
		}
	}
	t.Fatalf("no schema row %q", name)
	return nil
}

func TestNonzeroAndString(t *testing.T) {
	c := Counters{Tuples: 4, HTInserts: 2, CompileWait: 1500 * time.Microsecond}
	var names []string
	for r, v := range c.Nonzero() {
		if v != *r.Of(&c) {
			t.Errorf("%s: yielded %d, field holds %d", r.Name, v, *r.Of(&c))
		}
		names = append(names, r.NumName())
	}
	if got := strings.Join(names, ","); got != "tuples,ht_inserts,compile_wait_ns" {
		t.Errorf("nonzero rows = %s", got)
	}
	if got, want := c.String(), "tuples=4 ht_inserts=2 compile_wait=1.5ms"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got := (&Counters{}).String(); got != "" {
		t.Errorf("zero counters render %q", got)
	}
}

func TestPerTuple(t *testing.T) {
	c := Counters{Tuples: 4, VMOps: 10}
	if c.PerTuple(c.VMOps) != "2.50" {
		t.Fatalf("per tuple = %s", c.PerTuple(c.VMOps))
	}
	var zero Counters
	if zero.PerTuple(1) != "n/a" {
		t.Fatal("zero tuples should report n/a")
	}
}
