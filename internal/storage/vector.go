// Package storage provides the columnar building blocks shared by the whole
// engine: typed vectors, chunks (the tuple buffers of the paper), base
// tables, and morsel ranges for morsel-driven parallelism.
//
//inklint:lockscope
package storage

import (
	"fmt"
	"math/bits"

	"inkfuse/internal/types"
)

// Vector is a dense, typed column of values. Exactly one of the typed slices
// is in use, selected by Kind. Vectors back both base-table columns and the
// tuple buffers / batch registers that tuples flow through during execution.
//
// The engine follows the dense-chunk model (paper §IV-B): vectors never carry
// selection bitmaps; filters compact instead.
type Vector struct {
	Kind types.Kind

	B   []bool
	I32 []int32
	I64 []int64
	F64 []float64
	Str []string
	Ptr [][]byte
}

// NewVector allocates a vector of the given kind with length n.
func NewVector(kind types.Kind, n int) *Vector {
	v := &Vector{Kind: kind}
	v.Resize(n)
	return v
}

// Len returns the number of values in the vector.
//
//inkfuse:hotpath
func (v *Vector) Len() int {
	switch v.Kind {
	case types.Bool:
		return len(v.B)
	case types.Int32, types.Date:
		return len(v.I32)
	case types.Int64:
		return len(v.I64)
	case types.Float64:
		return len(v.F64)
	case types.String:
		return len(v.Str)
	case types.Ptr:
		return len(v.Ptr)
	default:
		return 0
	}
}

// Resize sets the vector length to n, reusing capacity when possible.
//
//inkfuse:hotpath
func (v *Vector) Resize(n int) {
	switch v.Kind {
	case types.Bool:
		v.B = grow(v.B, n)
	case types.Int32, types.Date:
		v.I32 = grow(v.I32, n)
	case types.Int64:
		v.I64 = grow(v.I64, n)
	case types.Float64:
		v.F64 = grow(v.F64, n)
	case types.String:
		v.Str = grow(v.Str, n)
	case types.Ptr:
		v.Ptr = grow(v.Ptr, n)
	default:
		panic(fmt.Sprintf("storage: resize of invalid vector kind %v", v.Kind))
	}
}

//inkfuse:hotpath
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	// A first allocation rounds up to a power of two (within a morsel): a
	// register sized by its first morsel's survivors would otherwise regrow
	// for the next, slightly fuller one. Later growth doubles.
	c := 2 * cap(s)
	if c == 0 && n <= DefaultMorselRows {
		c = 1 << bits.Len(uint(n-1))
	}
	ns := make([]T, n, max(n, c)) //inklint:allow alloc — capacity doubling; amortized O(1) per appended row
	copy(ns, s[:cap(s)])
	return ns
}

// Slice returns a view of rows [lo, hi) sharing the backing arrays.
func (v *Vector) Slice(lo, hi int) *Vector {
	out := &Vector{Kind: v.Kind}
	switch v.Kind {
	case types.Bool:
		out.B = v.B[lo:hi]
	case types.Int32, types.Date:
		out.I32 = v.I32[lo:hi]
	case types.Int64:
		out.I64 = v.I64[lo:hi]
	case types.Float64:
		out.F64 = v.F64[lo:hi]
	case types.String:
		out.Str = v.Str[lo:hi]
	case types.Ptr:
		out.Ptr = v.Ptr[lo:hi]
	}
	return out
}

// SliceInto points dst at rows [lo, hi) of v, sharing the backing arrays: the
// allocation-free Slice for hot loops that reuse a scratch header. dst must
// not outlive v's backing arrays; only the field selected by Kind is updated.
//
//inkfuse:hotpath
func (v *Vector) SliceInto(dst *Vector, lo, hi int) {
	dst.Kind = v.Kind
	switch v.Kind {
	case types.Bool:
		dst.B = v.B[lo:hi]
	case types.Int32, types.Date:
		dst.I32 = v.I32[lo:hi]
	case types.Int64:
		dst.I64 = v.I64[lo:hi]
	case types.Float64:
		dst.F64 = v.F64[lo:hi]
	case types.String:
		dst.Str = v.Str[lo:hi]
	case types.Ptr:
		dst.Ptr = v.Ptr[lo:hi]
	}
}

// Gather fills dst with v[sel[i]] for every i. dst must have v's kind; it is
// resized to len(sel). This is the compaction/expansion workhorse of the
// dense-chunk execution model.
func (v *Vector) Gather(dst *Vector, sel []int32) {
	if dst.Kind != v.Kind {
		panic(fmt.Sprintf("storage: gather kind mismatch %v vs %v", dst.Kind, v.Kind))
	}
	dst.Resize(len(sel))
	switch v.Kind {
	case types.Bool:
		for i, s := range sel {
			dst.B[i] = v.B[s]
		}
	case types.Int32, types.Date:
		for i, s := range sel {
			dst.I32[i] = v.I32[s]
		}
	case types.Int64:
		for i, s := range sel {
			dst.I64[i] = v.I64[s]
		}
	case types.Float64:
		for i, s := range sel {
			dst.F64[i] = v.F64[s]
		}
	case types.String:
		for i, s := range sel {
			dst.Str[i] = v.Str[s]
		}
	case types.Ptr:
		for i, s := range sel {
			dst.Ptr[i] = v.Ptr[s]
		}
	}
}

// CopyRuns fills dst with the rows of v that runs lists as [lo, hi) pairs,
// run after run: Gather for a selection of n rows that is a few long runs of
// consecutive rows, one copy per run. dst must have v's kind; it is resized
// to n.
//
//inkfuse:hotpath
func (v *Vector) CopyRuns(dst *Vector, runs []int32, n int) {
	if dst.Kind != v.Kind {
		panic(fmt.Sprintf("storage: copy kind mismatch %v vs %v", dst.Kind, v.Kind))
	}
	dst.Resize(n)
	switch v.Kind {
	case types.Bool:
		copyRuns(dst.B, v.B, runs)
	case types.Int32, types.Date:
		copyRuns(dst.I32, v.I32, runs)
	case types.Int64:
		copyRuns(dst.I64, v.I64, runs)
	case types.Float64:
		copyRuns(dst.F64, v.F64, runs)
	case types.String:
		copyRuns(dst.Str, v.Str, runs)
	case types.Ptr:
		copyRuns(dst.Ptr, v.Ptr, runs)
	}
}

//inkfuse:hotpath
func copyRuns[T any](dst, src []T, runs []int32) {
	j := 0
	for r := 0; r < len(runs); r += 2 {
		j += copy(dst[j:], src[runs[r]:runs[r+1]])
	}
}

// AppendFrom appends rows [lo, hi) of src to v. Kinds must match.
//
//inkfuse:hotpath
func (v *Vector) AppendFrom(src *Vector, lo, hi int) {
	if v.Kind != src.Kind {
		panic(fmt.Sprintf("storage: append kind mismatch %v vs %v", v.Kind, src.Kind))
	}
	switch v.Kind {
	case types.Bool:
		v.B = append(v.B, src.B[lo:hi]...) //inklint:allow alloc — append into reused column; grows to chunk capacity once
	case types.Int32, types.Date:
		v.I32 = append(v.I32, src.I32[lo:hi]...) //inklint:allow alloc — append into reused column; grows to chunk capacity once
	case types.Int64:
		v.I64 = append(v.I64, src.I64[lo:hi]...) //inklint:allow alloc — append into reused column; grows to chunk capacity once
	case types.Float64:
		v.F64 = append(v.F64, src.F64[lo:hi]...) //inklint:allow alloc — append into reused column; grows to chunk capacity once
	case types.String:
		v.Str = append(v.Str, src.Str[lo:hi]...) //inklint:allow alloc — append into reused column; grows to chunk capacity once
	case types.Ptr:
		v.Ptr = append(v.Ptr, src.Ptr[lo:hi]...) //inklint:allow alloc — append into reused column; grows to chunk capacity once
	}
}

// TakeFrom makes v, which must be empty, hold the first n rows of src without
// copying them: the two vectors exchange backing arrays, so src is left empty
// with v's old capacity to fill next time. Both must own their arrays — a
// view (SliceInto) given away would later be appended into, through to the
// rows behind it. Kinds must match.
//
//inkfuse:hotpath
func (v *Vector) TakeFrom(src *Vector, n int) {
	if v.Kind != src.Kind {
		panic(fmt.Sprintf("storage: take kind mismatch %v vs %v", v.Kind, src.Kind))
	}
	switch v.Kind {
	case types.Bool:
		v.B, src.B = src.B[:n], v.B[:0]
	case types.Int32, types.Date:
		v.I32, src.I32 = src.I32[:n], v.I32[:0]
	case types.Int64:
		v.I64, src.I64 = src.I64[:n], v.I64[:0]
	case types.Float64:
		v.F64, src.F64 = src.F64[:n], v.F64[:0]
	case types.String:
		v.Str, src.Str = src.Str[:n], v.Str[:0]
	case types.Ptr:
		v.Ptr, src.Ptr = src.Ptr[:n], v.Ptr[:0]
	}
}

// Value returns row i as an any-typed scalar; test and debug helper, never on
// a hot path.
func (v *Vector) Value(i int) any {
	switch v.Kind {
	case types.Bool:
		return v.B[i]
	case types.Int32, types.Date:
		return v.I32[i]
	case types.Int64:
		return v.I64[i]
	case types.Float64:
		return v.F64[i]
	case types.String:
		return v.Str[i]
	case types.Ptr:
		return v.Ptr[i]
	default:
		return nil
	}
}

// SetValue sets row i from an any-typed scalar; test helper.
func (v *Vector) SetValue(i int, val any) {
	switch v.Kind {
	case types.Bool:
		v.B[i] = val.(bool)
	case types.Int32, types.Date:
		v.I32[i] = val.(int32)
	case types.Int64:
		v.I64[i] = val.(int64)
	case types.Float64:
		v.F64[i] = val.(float64)
	case types.String:
		v.Str[i] = val.(string)
	case types.Ptr:
		v.Ptr[i] = val.([]byte)
	default:
		panic("storage: set on invalid vector")
	}
}

// RetainedBytes returns the capacity of the vector's backing arrays in bytes
// (string headers, not string contents).
func (v *Vector) RetainedBytes() int64 {
	return int64(cap(v.B)) + 4*int64(cap(v.I32)) + 8*int64(cap(v.I64)) +
		8*int64(cap(v.F64)) + 16*int64(cap(v.Str)) + 24*int64(cap(v.Ptr))
}
