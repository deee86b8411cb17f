package storage

import (
	"hash/maphash"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"inkfuse/internal/types"
)

// MaxDictValues is the most distinct values a string column may hold and
// still be dictionary-coded at load: its codes then fit 16 bits, and a
// predicate evaluated once per dictionary entry costs at most 2^16
// evaluations.
const MaxDictValues = 1 << 16

// Dict is the sorted dictionary of a low-cardinality string column. The
// column's strings stay as they are; Codes holds, beside them, the code of
// every row, and code c stands for Values[c]. Values is ascending, so code
// order is string order. Which columns are coded is a fact of the loaded data
// (ColumnFacts), not an option.
type Dict struct {
	Values []string // the column's distinct values, ascending
	Codes  *Vector  // Int32: one code per row
}

// encodeRowsPerWorker is the fewest rows a column is split into parts of:
// below it one goroutine codes the column faster than two start.
const encodeRowsPerWorker = 1 << 15

// encodeDict codes vals, or returns nil when they hold more than MaxDictValues
// distinct strings. Each worker codes a contiguous part of the rows against a
// dictionary of its own, in the order it meets the values; the parts'
// dictionaries are then merged and sorted, and a second pass maps every local
// code to its place in the sorted one. A worker gives up — and makes the
// others give up — as soon as its own part exceeds the limit.
func encodeDict(vals []string) *Dict {
	workers := min(runtime.GOMAXPROCS(0), max(1, len(vals)/encodeRowsPerWorker))
	codes := NewVector(types.Int32, len(vals))
	parts := make([]*localDict, workers)
	seed := maphash.MakeSeed()
	var overflow atomic.Bool
	each(workers, func(w int) {
		lo, hi := w*len(vals)/workers, (w+1)*len(vals)/workers
		parts[w] = codeRows(vals[lo:hi], codes.I32[lo:hi], seed, &overflow)
	})
	if overflow.Load() {
		return nil
	}
	var values []string
	for _, p := range parts {
		values = append(values, p.values...)
	}
	slices.Sort(values)
	values = slices.Compact(values)
	if len(values) > MaxDictValues {
		return nil
	}
	each(workers, func(w int) {
		remap := make([]int32, len(parts[w].values))
		for id, v := range parts[w].values {
			c, _ := slices.BinarySearch(values, v)
			remap[id] = int32(c)
		}
		lo, hi := w*len(vals)/workers, (w+1)*len(vals)/workers
		part := codes.I32[lo:hi]
		for i, id := range part {
			part[i] = remap[id]
		}
	})
	return &Dict{Values: slices.Clip(values), Codes: codes}
}

// each runs f(0..n-1), each call on a goroutine of its own when n > 1.
func each(n int, f func(int)) {
	if n == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	wg.Wait()
}

// localDict is one worker's dictionary: its values in the order met, and an
// open-addressing index over them (slot = local code + 1, 0 = empty; hashes
// hold each slot's full hash, so a probe compares strings only on a likely
// match and growing rehashes no string).
type localDict struct {
	values []string
	slots  []int32
	hashes []uint64
}

// codeRows writes the local code of every row of vals into codes and returns
// the dictionary the codes index, or nil once overflow is set.
func codeRows(vals []string, codes []int32, seed maphash.Seed, overflow *atomic.Bool) *localDict {
	d := &localDict{slots: make([]int32, 64), hashes: make([]uint64, 64)}
	// A row whose string shares its bytes with one met before — a generated
	// column drawing from a few constants, a column of interned values — is
	// resolved by the address of its bytes, without a hash: same address and
	// length, same string.
	var seen [256]struct {
		p    *byte
		n    int
		code int32 // local code + 1; 0 = empty entry
	}
	for i, v := range vals {
		p := unsafe.StringData(v)
		e := &seen[uint64(uintptr(unsafe.Pointer(p)))*0x9e3779b97f4a7c15>>56]
		if e.p == p && e.n == len(v) && e.code > 0 {
			codes[i] = e.code - 1
			continue
		}
		if i&4095 == 0 && overflow.Load() {
			return nil
		}
		id := d.find(v, maphash.String(seed, v))
		if len(d.values) > MaxDictValues {
			overflow.Store(true)
			return nil
		}
		codes[i] = id
		e.p, e.n, e.code = p, len(v), id+1
	}
	return d
}

// find returns v's local code, adding v if it is new.
func (d *localDict) find(v string, h uint64) int32 {
	mask := uint64(len(d.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := d.slots[i]
		if s == 0 {
			id := int32(len(d.values))
			d.values = append(d.values, v)
			d.slots[i], d.hashes[i] = id+1, h
			if 2*len(d.values) > len(d.slots) {
				d.grow()
			}
			return id
		}
		if d.hashes[i] == h && d.values[s-1] == v {
			return s - 1
		}
	}
}

// grow doubles the index, re-placing every slot by its stored hash.
func (d *localDict) grow() {
	slots, hashes := make([]int32, 2*len(d.slots)), make([]uint64, 2*len(d.slots))
	mask := uint64(len(slots) - 1)
	for j, s := range d.slots {
		if s == 0 {
			continue
		}
		i := d.hashes[j] & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i], hashes[i] = s, d.hashes[j]
	}
	d.slots, d.hashes = slots, hashes
}
