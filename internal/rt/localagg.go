package rt

import (
	"bytes"
	"encoding/binary"
)

// LocalAggTable is a bounded pre-aggregation table in front of an AggTable.
// The engine no longer calls it: a worker's AggTable is its own and takes no
// lock, so aggregations write into it directly (DESIGN.md §10). The type
// stays only for the benchmark harness's rt.local_agg_ns_per_row kernel,
// and goes when that metric is retired.
//
// High-locality group-bys (TPC-H Q1's four groups) resolve almost every
// lookup here, and the accumulated groups are flushed (merged) into the
// backing AggTable at morsel boundaries or on overflow.
//
// Group rows are packed into one flat buffer that is never reallocated while
// it holds rows: rows handed out by FindOrCreate stay valid for the rest of
// the chunk (the aggregate-update primitives write into them in place), so
// the buffer must not move under them. When the buffer or the group budget is
// exhausted, FindOrCreate reports a miss and the caller routes the key to the
// backing table's batched path instead; flushes happen between chunks at the
// earliest (MaybeFlush) and at every morsel boundary (Flush), never mid-chunk.
//
// The table starts small (localAggMinGroups groups, ~11 KiB) and grows only
// where it is empty anyway: a drain that follows an overflow quadruples the
// capacity, up to localAggGroups groups and localAggBytes of row storage
// (704 KiB all told). A four-group aggregation therefore never pays for —
// or walks — more than the first size, and a never-seen query does not
// allocate and clear 704 KiB per worker and aggregation up front.
//
// The table is adaptive: if after a warm-up the hit ratio stays low (a
// high-cardinality key like Q13's custkey, where pre-aggregation only doubles
// the hashing work), it disables itself for the rest of the pipeline.
type LocalAggTable struct {
	st      *AggTableState
	backing *AggTable

	buckets []int32 // entry index + 1; 0 = empty; 4 slots per group of capacity
	hashes  []uint64
	rows    [][]byte
	buf     []byte // row storage; reallocated only while empty (grow)
	groups  int    // current capacity in groups: cap(rows), cap(hashes), len(buckets)/4

	probes   int64
	hits     int64
	disabled bool

	// overflow records that a lookup since the last flush bounced off a full
	// table, with ovProbes/ovHits snapshotting the counters at that moment;
	// flushProbes/flushHits snapshot them at the last flush. MaybeFlush judges
	// the hit ratio over the responsive window alone — the probes between the
	// last flush and the overflow, while the table could still absorb keys.
	// Everything after the overflow is a forced miss and says nothing about
	// whether the keys repeat.
	overflow    bool
	ovProbes    int64
	ovHits      int64
	flushProbes int64
	flushHits   int64
}

const (
	localAggMinGroups     = 64      // groups a new table can hold
	localAggGroups        = 4096    // groups a fully grown one can hold before lookups overflow
	localAggBytes         = 1 << 19 // its row storage; bounded, outside MemBudget
	localAggBucketsPerGrp = 4       // bucket slots per group of capacity: keeps probes short
	localAggGrowth        = 4       // capacity factor of one growth step
	localAggBytesPerGroup = localAggBytes / localAggGroups
	// Adaptive disable: after this many probes, a hit ratio below the
	// threshold means the keys don't repeat within a morsel and local
	// pre-aggregation is pure overhead.
	localAggMinProbes = 4096
	localAggHitRatio  = 0.5
)

// NewLocalAggTable creates a local table that flushes into backing.
func NewLocalAggTable(st *AggTableState, backing *AggTable) *LocalAggTable {
	l := &LocalAggTable{st: st, backing: backing}
	l.resize(localAggMinGroups)
	return l
}

// resize gives the (empty) table new arrays for the given group capacity.
func (l *LocalAggTable) resize(groups int) {
	l.groups = groups
	l.buckets = make([]int32, groups*localAggBucketsPerGrp)
	l.hashes = make([]uint64, 0, groups)
	l.rows = make([][]byte, 0, groups)
	l.buf = make([]byte, 0, groups*localAggBytesPerGroup)
}

// Reset readies the table for another pipeline run over the same backing
// table: any resident groups are dropped unmerged (a completed run has
// flushed them already) and the adaptive policy starts over, as it does for a
// newly created table. The capacity the last run grew to is kept.
func (l *LocalAggTable) Reset() {
	if len(l.rows) > 0 {
		clear(l.buckets)
	}
	*l = LocalAggTable{
		st: l.st, backing: l.backing, groups: l.groups,
		buckets: l.buckets, hashes: l.hashes[:0], rows: l.rows[:0], buf: l.buf[:0],
	}
}

// RetainedBytes returns the memory of the table's buffers at their current
// capacity.
func (l *LocalAggTable) RetainedBytes() int64 {
	return int64(cap(l.buckets))*4 + int64(cap(l.hashes))*8 +
		int64(cap(l.rows))*sliceHeaderBytes + int64(cap(l.buf))
}

// Disabled reports whether the adaptive policy has turned the table off;
// callers then route whole chunks straight to the backing batched path.
func (l *LocalAggTable) Disabled() bool { return l.disabled }

// Hits returns how many lookups were absorbed locally (an existing local
// group, no shard-table work at all).
func (l *LocalAggTable) Hits() int64 { return l.hits }

// FindOrCreate resolves one key against the local table. hit reports an
// existing local group; ok=false means the table is full (or disabled) and
// the caller must resolve the key against the backing table instead. The
// returned row stays valid until the next Flush.
//
//inkfuse:hotpath
func (l *LocalAggTable) FindOrCreate(key []byte, h uint64, seed []byte) (row []byte, hit, ok bool) {
	if l.disabled {
		return nil, false, false
	}
	l.probes++
	mask := uint64(len(l.buckets) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		b := l.buckets[i]
		if b == 0 {
			size := 4 + len(key) + len(l.st.Init) + len(seed)
			if len(l.rows) >= l.groups || len(l.buf)+size > cap(l.buf) {
				if !l.overflow {
					l.overflow = true
					l.ovProbes, l.ovHits = l.probes, l.hits
				}
				return nil, false, false
			}
			off := len(l.buf)
			l.buf = l.buf[:off+size]
			r := l.buf[off : off+size : off+size]
			binary.LittleEndian.PutUint32(r, uint32(len(key)))
			copy(r[4:], key)
			copy(r[4+len(key):], l.st.Init)
			copy(r[4+len(key)+len(l.st.Init):], seed)
			l.hashes = append(l.hashes, h) //inklint:allow alloc — within the capacity checked above; never grows here
			l.rows = append(l.rows, r)     //inklint:allow alloc — within the capacity checked above; never grows here
			l.buckets[i] = int32(len(l.rows))
			return r, false, true
		}
		e := b - 1
		if l.hashes[e] == h && bytes.Equal(RowKey(l.rows[e]), key) {
			l.hits++
			return l.rows[e], true, true
		}
	}
}

// Flush merges every local group into the backing shard table and resets the
// local table. It must only run at a morsel boundary (rows handed out during
// the current chunk become stale). Returns the number of group rows spilled.
// After the warm-up the adaptive policy may disable the table permanently for
// this worker/pipeline.
//
//inkfuse:hotpath
func (l *LocalAggTable) Flush() int64 {
	if !l.disabled && l.probes >= localAggMinProbes &&
		float64(l.hits) < localAggHitRatio*float64(l.probes) {
		l.disabled = true
	}
	return l.drain()
}

// MaybeFlush runs the between-chunk adaptive policy. A no-op until a lookup
// has bounced off a full table; then, if the hit ratio over the responsive
// window (the probes before the table filled) shows the keys repeat
// (clustered streams like lineitems of one order, or a join output's
// duplicated probe keys), the table drains and keeps absorbing into fresh
// capacity — while a non-repeating stream disables the table on the spot
// instead of waiting for a morsel boundary that a single-morsel pipeline
// never reaches. Safe only between chunks (like Flush, draining invalidates
// handed-out rows). Returns the number of group rows spilled.
//
//inkfuse:hotpath
func (l *LocalAggTable) MaybeFlush() int64 {
	if l.disabled || !l.overflow {
		return 0
	}
	ip, ih := l.ovProbes-l.flushProbes, l.ovHits-l.flushHits
	if l.probes >= localAggMinProbes && float64(ih) < localAggHitRatio*float64(ip) {
		l.disabled = true
	}
	return l.drain()
}

// drain merges every local group into the backing shard table and resets the
// row storage, leaving the adaptive counters' interval snapshot behind. This
// is the one place the table is empty with no row handed out, so it is where
// a table that overflowed (and has not turned itself off) grows.
//
//inkfuse:hotpath
func (l *LocalAggTable) drain() int64 {
	n := int64(len(l.rows))
	if n > 0 {
		initLen := len(l.st.Init)
		for ri, row := range l.rows {
			key := RowKey(row)
			seed := row[RowPayloadOff(row)+initLen:]
			drow := l.backing.FindOrCreateSeed(key, l.hashes[ri], seed)
			l.st.mergePayload(drow, row)
		}
		clear(l.buckets)
		l.hashes = l.hashes[:0]
		l.rows = l.rows[:0]
		l.buf = l.buf[:0]
	}
	if l.overflow && !l.disabled && l.groups < localAggGroups {
		l.resize(min(l.groups*localAggGrowth, localAggGroups)) //inklint:allow call — at most three growth steps per table, each at a flush boundary
	}
	l.overflow = false
	l.flushProbes, l.flushHits = l.probes, l.hits
	return n
}
