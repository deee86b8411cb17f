package rt

// What is left of the local hash-partitioned exchange (removed in PR 18,
// DESIGN.md §15): the per-worker routing writer. Nothing in the engine calls
// it; its only caller is the frozen benchmark harness (bench/kernels.go), which
// times Route for the rt.partition_route_ns_per_row metric. Retire the metric
// and this file together.

// MaxPartitions bounds the fan-out: partition indices come from 8 hash bits.
const MaxPartitions = 256

// NormalizePartitions rounds n up to a power of two in [1, MaxPartitions] so
// partition dispatch is a mask of the routing hash bits.
func NormalizePartitions(n int) int {
	if n < 1 {
		n = 1
	}
	p := 1
	for p < n && p < MaxPartitions {
		p <<= 1
	}
	return p
}

// partitionOf extracts the partition index from hash bits 48..55.
//
//inkfuse:hotpath
func partitionOf(h, pmask uint64) uint64 { return (h >> 48) & pmask }

// ExchangeState declares a routing fan-out (power of two ≤ MaxPartitions).
type ExchangeState struct {
	Partitions int
}

// ExchangeWriter is one worker's private routing buffer: per-partition row
// lists backed by a worker-owned arena. Not safe for concurrent use.
type ExchangeWriter struct {
	pmask uint64
	arena *Arena
	rows  [][][]byte
}

// NewWriter creates a writer with one empty row list per partition.
func (s *ExchangeState) NewWriter() *ExchangeWriter {
	p := NormalizePartitions(s.Partitions)
	return &ExchangeWriter{pmask: uint64(p - 1), arena: NewArena(0), rows: make([][][]byte, p)}
}

// Route copies one packed row into the partition its key hash selects.
//
//inkfuse:hotpath
func (w *ExchangeWriter) Route(row []byte, h uint64) {
	p := partitionOf(h, w.pmask)
	cp := w.arena.Alloc(len(row))
	copy(cp, row)
	w.rows[p] = append(w.rows[p], cp) //inklint:allow alloc — amortized — per-partition row lists double; O(1) amortized per routed row
}
