// Package rttest holds helpers for tests that fill runtime tables by hand.
package rttest

import "inkfuse/internal/rt"

// InsertJoin adds one build row to a join table through its batched entry
// point, hashed with rt.Hash64 as the engine hashes keys.
func InsertJoin(tbl *rt.JoinTable, key, payload []byte) {
	tbl.InsertBatch([][]byte{key}, [][]byte{payload}, []uint64{rt.Hash64(key)}, nil)
}
