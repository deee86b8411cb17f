// Package rt implements the engine's runtime system: the objects that
// generated code interacts with through suboperator state (paper Fig 8).
// This covers hash tables for aggregations and joins (with collision
// resolution moved *into* the table, paper §IV-D), packed row layouts,
// key-packing scratch space, and the LIKE matcher.
//
// Nothing in this package participates in code generation; it is linked into
// both the JIT-compiled programs and the pre-generated vectorized primitives,
// which is what allows the hybrid backend to switch between them mid-query.
package rt

import "encoding/binary"

// Hash64 hashes a key blob. It is a small wyhash-style mixer over 8-byte
// words: cheap on short packed keys and with good diffusion for open
// addressing.
//
//inkfuse:hotpath
func Hash64(key []byte) uint64 {
	const (
		k0 = 0x9e3779b97f4a7c15
		k1 = 0xbf58476d1ce4e5b9
		k2 = 0x94d049bb133111eb
	)
	h := uint64(len(key))*k0 + k2
	for len(key) >= 8 {
		w := binary.LittleEndian.Uint64(key)
		h = mix64(h^w) * k1
		key = key[8:]
	}
	if len(key) > 0 {
		var w uint64
		for i := len(key) - 1; i >= 0; i-- {
			w = w<<8 | uint64(key[i])
		}
		h = mix64(h^w) * k0
	}
	return mix64(h)
}

// HashWord is Hash64 of the width-byte key (1 ≤ width ≤ 8) whose bytes are the
// low bytes of w, little-endian, the rest of w zero: the hash of a key blob
// that fits a machine word, computed from a register without the blob.
//
//inkfuse:hotpath
func HashWord(w uint64, width int) uint64 {
	const (
		k0 = 0x9e3779b97f4a7c15
		k1 = 0xbf58476d1ce4e5b9
		k2 = 0x94d049bb133111eb
	)
	h := uint64(width)*k0 + k2
	if width == 8 {
		return mix64(mix64(h^w) * k1)
	}
	return mix64(mix64(h^w) * k0)
}

//inkfuse:hotpath
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
