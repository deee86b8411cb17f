package rt

import (
	"encoding/binary"
	"math"

	"inkfuse/internal/types"
)

// Packed row format shared by aggregation and join hash tables:
//
//	row := [u32 keyLen][key blob][payload]
//	key blob := [fixed key fields at fixed offsets][var key fields, each u32-length-prefixed]
//	payload  := [fixed payload fields at fixed offsets][var payload fields, u32-length-prefixed]
//
// Key fields are packed densely at the front so the hash table can hash and
// compare the whole key blob with one byte-string comparison (the memcmp of
// paper §IV-D). Variable-size key fields are inlined length-prefixed rather
// than stored behind pointer slots as InkFuse does; see DESIGN.md §2.

// PutBool writes a bool at off.
//
//inkfuse:hotpath
func PutBool(b []byte, off int, v bool) {
	if v {
		b[off] = 1
	} else {
		b[off] = 0
	}
}

// GetBool reads a bool at off.
//
//inkfuse:hotpath
func GetBool(b []byte, off int) bool { return b[off] != 0 }

// PutI32 writes an int32 at off.
//
//inkfuse:hotpath
func PutI32(b []byte, off int, v int32) {
	binary.LittleEndian.PutUint32(b[off:], uint32(v))
}

// GetI32 reads an int32 at off.
//
//inkfuse:hotpath
func GetI32(b []byte, off int) int32 {
	return int32(binary.LittleEndian.Uint32(b[off:]))
}

// PutI64 writes an int64 at off.
//
//inkfuse:hotpath
func PutI64(b []byte, off int, v int64) {
	binary.LittleEndian.PutUint64(b[off:], uint64(v))
}

// GetI64 reads an int64 at off.
//
//inkfuse:hotpath
func GetI64(b []byte, off int) int64 {
	return int64(binary.LittleEndian.Uint64(b[off:]))
}

// PutF64 writes a float64 at off.
//
//inkfuse:hotpath
func PutF64(b []byte, off int, v float64) {
	binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
}

// GetF64 reads a float64 at off.
//
//inkfuse:hotpath
func GetF64(b []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
}

// AppendString appends a u32-length-prefixed string to buf.
//
//inkfuse:hotpath
func AppendString(buf []byte, s string) []byte {
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(s)))
	buf = append(buf, l[:]...) //inklint:allow alloc — appends into the caller’s reused row-build buffer
	return append(buf, s...)   //inklint:allow alloc — appends into the caller’s reused row-build buffer
}

// SkipStrings advances off past n length-prefixed strings and returns the new
// offset.
//
//inkfuse:hotpath
func SkipStrings(b []byte, off, n int) int {
	for i := 0; i < n; i++ {
		l := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4 + l
	}
	return off
}

// GetString reads the length-prefixed string starting at off.
//
//inkfuse:hotpath
func GetString(b []byte, off int) string {
	l := int(binary.LittleEndian.Uint32(b[off:]))
	return string(b[off+4 : off+4+l]) //inklint:allow alloc — packed rows store raw bytes; string emission must materialize
}

// RowKeyLen reads the key-blob length from a packed row header.
//
//inkfuse:hotpath
func RowKeyLen(row []byte) int {
	return int(binary.LittleEndian.Uint32(row))
}

// RowKey returns the key blob of a packed row.
//
//inkfuse:hotpath
func RowKey(row []byte) []byte {
	kl := RowKeyLen(row)
	return row[4 : 4+kl]
}

// RowPayloadOff returns the byte offset of the payload region.
//
//inkfuse:hotpath
func RowPayloadOff(row []byte) int { return 4 + RowKeyLen(row) }

// Field describes one field of a packed row layout.
type Field struct {
	Kind types.Kind
	Key  bool // packed into the key blob (hashed + compared)
}

// Layout precomputes where each field of a packed row lives. It is built by
// plan lowering and distributed to key-pack / unpack / aggregate suboperators
// as runtime state (the offsets are runtime parameters, paper §IV-D, so that
// the suboperators themselves stay enumerable).
type Layout struct {
	Fields []Field

	// FixedOff[i] is the offset of fixed field i inside its region (key blob
	// or payload); -1 for variable-size fields.
	FixedOff []int
	// VarIdx[i] is the ordinal of variable field i among the variable fields
	// of its region; -1 for fixed fields.
	VarIdx []int

	KeyFixedWidth     int // bytes of fixed key fields
	PayloadFixedWidth int // bytes of fixed payload fields
	KeyVarCount       int
	PayloadVarCount   int
}

// NewLayout computes a layout for the given fields. Fixed fields are placed
// first within their region in declaration order; variable fields follow,
// length-prefixed, in declaration order.
func NewLayout(fields []Field) *Layout {
	l := &Layout{
		Fields:   fields,
		FixedOff: make([]int, len(fields)),
		VarIdx:   make([]int, len(fields)),
	}
	for i, f := range fields {
		l.FixedOff[i] = -1
		l.VarIdx[i] = -1
		w := f.Kind.Width()
		switch {
		case f.Key && w > 0:
			l.FixedOff[i] = l.KeyFixedWidth
			l.KeyFixedWidth += w
		case f.Key:
			l.VarIdx[i] = l.KeyVarCount
			l.KeyVarCount++
		case w > 0:
			l.FixedOff[i] = l.PayloadFixedWidth
			l.PayloadFixedWidth += w
		default:
			l.VarIdx[i] = l.PayloadVarCount
			l.PayloadVarCount++
		}
	}
	return l
}

// ReadFixed reads fixed field values from packed rows; helpers used by the
// unpack primitives and the Volcano oracle.

// PayloadStringOff returns the offset of the varIdx-th payload string of row.
//
//inkfuse:hotpath
func PayloadStringOff(row []byte, payloadFixedWidth, varIdx int) int {
	off := RowPayloadOff(row) + payloadFixedWidth
	return SkipStrings(row, off, varIdx)
}

// KeyStringOff returns the offset of the varIdx-th key string of row.
//
//inkfuse:hotpath
func KeyStringOff(row []byte, keyFixedWidth, varIdx int) int {
	off := 4 + keyFixedWidth
	return SkipStrings(row, off, varIdx)
}
