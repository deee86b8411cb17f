package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// Fingerprint is a canonical 128-bit digest of a query shape. Two plans with
// the same fingerprint have identical suboperator structure — same primitive
// IDs, same dataflow, same state shapes — and differ at most in the values of
// parameterized runtime constants, so they can share compiled artifacts
// (the plancache contract).
type Fingerprint [16]byte

// Hex renders the fingerprint as 32 lowercase hex digits.
func (f Fingerprint) Hex() string { return hex.EncodeToString(f[:]) }

// String implements fmt.Stringer.
func (f Fingerprint) String() string { return f.Hex() }

// Hasher accumulates a canonical encoding into a Fingerprint. The
// algebra-tree fingerprint (the plancache key) builds on it; the encoding
// tags every field so adjacent writes cannot collide.
type Hasher struct {
	h   hash.Hash
	buf [10]byte
}

// NewHasher creates an empty Hasher.
func NewHasher() *Hasher { return &Hasher{h: sha256.New()} }

// Str writes a length-prefixed string.
func (h *Hasher) Str(s string) {
	h.Int(len(s))
	h.h.Write([]byte(s))
}

// Int writes a varint.
func (h *Hasher) Int(v int) {
	n := binary.PutVarint(h.buf[:], int64(v))
	h.h.Write(h.buf[:n])
}

// Bool writes one byte.
func (h *Hasher) Bool(b bool) {
	if b {
		h.Int(1)
	} else {
		h.Int(0)
	}
}

// Sum finalizes the digest (truncated to 128 bits).
func (h *Hasher) Sum() Fingerprint {
	var f Fingerprint
	copy(f[:], h.h.Sum(nil))
	return f
}
