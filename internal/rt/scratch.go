package rt

import "encoding/binary"

// RowScratch builds packed rows (key + payload) for a batch of tuples before
// they are handed to a hash table or a probe. All rows of a batch live in one
// contiguous slab, one stride apart, so preparing a batch costs no allocation
// per row — a fused program packs a whole morsel at once. A RowScratch is
// owned by one worker's execution context: the suboperator state only carries
// the layout widths, keeping the shared state immutable (paper Fig 8).
type RowScratch struct {
	keyFixed     int
	payloadFixed int
	// stride is the slab bytes reserved per row: the fixed regions plus room
	// for the longest var-len tail seen so far (longest). A row whose strings
	// outgrow its stride spills into its own allocation for that batch (append
	// does it), and the next Prepare widens the stride.
	stride  int
	longest int
	most    int // largest batch prepared so far
	slab    []byte
	rows    [][]byte
	zeros   []byte // payloadFixed zero bytes, the region SealKey reserves
}

// NewRowScratch creates scratch space for rows with the given fixed-region
// widths.
func NewRowScratch(keyFixed, payloadFixed int) *RowScratch {
	return &RowScratch{
		keyFixed: keyFixed, payloadFixed: payloadFixed,
		stride: 4 + keyFixed + payloadFixed,
		zeros:  make([]byte, payloadFixed),
	}
}

// Prepare readies n reusable rows. Each row starts as
// [u32 keyLen=keyFixed][keyFixed zero bytes]; key strings are appended, then
// SealKey freezes the key length and reserves the fixed payload region.
func (s *RowScratch) Prepare(n int) {
	if s.longest > s.stride {
		// Leave slack so slightly longer strings in later batches still fit.
		s.stride = s.longest + s.longest/4
	}
	// Size the slab for the largest batch seen, not this one: a small batch
	// that widens the stride must not leave the next large one to regrow it.
	s.most = max(s.most, n)
	if need := s.most * s.stride; cap(s.slab) < need {
		s.slab = make([]byte, need)
	}
	if cap(s.rows) < n {
		s.rows = make([][]byte, n)
	}
	s.rows = s.rows[:n]
	head := 4 + s.keyFixed
	for i := range s.rows {
		off := i * s.stride
		r := s.slab[off : off+head : off+s.stride]
		clear(r)
		binary.LittleEndian.PutUint32(r, uint32(s.keyFixed))
		s.rows[i] = r
	}
}

// Row returns row i. Valid until the next Prepare.
func (s *RowScratch) Row(i int) []byte { return s.rows[i] }

// PackKeyFixed writes nothing itself; fixed key fields are written in place
// via the Put* helpers at offset 4+off on Row(i).

// AppendKeyString appends a length-prefixed string key field to row i.
func (s *RowScratch) AppendKeyString(i int, v string) {
	s.rows[i] = AppendString(s.rows[i], v)
}

// SealKey finalizes row i's key length and reserves the fixed payload region.
func (s *RowScratch) SealKey(i int) {
	r := s.rows[i]
	binary.LittleEndian.PutUint32(r, uint32(len(r)-4))
	r = append(r, s.zeros...)
	s.longest = max(s.longest, len(r))
	s.rows[i] = r
}

// AppendPayloadString appends a length-prefixed payload string to row i.
func (s *RowScratch) AppendPayloadString(i int, v string) {
	r := AppendString(s.rows[i], v)
	s.longest = max(s.longest, len(r))
	s.rows[i] = r
}

// RetainedBytes returns the buffer memory the scratch holds on to.
func (s *RowScratch) RetainedBytes() int64 {
	return int64(cap(s.slab)) + int64(cap(s.rows))*sliceHeaderBytes
}

// sliceHeaderBytes is the size of one []byte header in a row list.
const sliceHeaderBytes = 24
