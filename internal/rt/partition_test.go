package rt

import "testing"

// TestExchangeWriterRoutesByHashBits: a row lands, as a copy, in the partition
// hash bits 48..55 select under the normalized fan-out.
func TestExchangeWriterRoutesByHashBits(t *testing.T) {
	if got := NormalizePartitions(5); got != 8 {
		t.Fatalf("NormalizePartitions(5) = %d, want 8", got)
	}
	w := (&ExchangeState{Partitions: 5}).NewWriter()
	row := i64Key(7)
	for p := uint64(0); p < 8; p++ {
		w.Route(row, p<<48|0xff<<56|0xffff) // bits outside 48..55 must not matter
	}
	row[0] ^= 0xff // the writer must hold its own copy
	for p, rows := range w.rows {
		if len(rows) != 1 || string(rows[0]) != string(i64Key(7)) {
			t.Fatalf("partition %d holds %v", p, rows)
		}
	}
}
