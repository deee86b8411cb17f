package storage

import (
	"fmt"

	"inkfuse/internal/types"
)

// DefaultChunkCap is the default tuple-buffer capacity (rows per chunk) used
// by the vectorized interpreter.
const DefaultChunkCap = 1024

// Chunk is a batch of tuples in columnar layout — the "tuple buffer" of the
// paper (§III). Chunks flow between the steps of a pipeline in the vectorized
// interpreter and hold query results.
type Chunk struct {
	Cols []*Vector
	rows int
}

// NewChunk creates a chunk with one empty vector per kind.
func NewChunk(kinds []types.Kind) *Chunk {
	c := &Chunk{Cols: make([]*Vector, len(kinds))}
	for i, k := range kinds {
		c.Cols[i] = NewVector(k, 0)
	}
	return c
}

// Rows returns the number of tuples in the chunk.
//
//inkfuse:hotpath
func (c *Chunk) Rows() int { return c.rows }

// SetRows resizes every column to n tuples.
//
//inkfuse:hotpath
func (c *Chunk) SetRows(n int) {
	for _, col := range c.Cols {
		col.Resize(n)
	}
	c.rows = n
}

// Reset empties the chunk, keeping capacity.
//
//inkfuse:hotpath
func (c *Chunk) Reset() { c.SetRows(0) }

// Kinds returns the column kinds.
func (c *Chunk) Kinds() []types.Kind {
	ks := make([]types.Kind, len(c.Cols))
	for i, col := range c.Cols {
		ks[i] = col.Kind
	}
	return ks
}

// AppendRow appends a row of scalars; test/result helper.
func (c *Chunk) AppendRow(vals ...any) {
	if len(vals) != len(c.Cols) {
		panic(fmt.Sprintf("storage: AppendRow arity %d vs %d cols", len(vals), len(c.Cols)))
	}
	n := c.rows
	c.SetRows(n + 1)
	for i, v := range vals {
		c.Cols[i].SetValue(n, v)
	}
}

// Row returns row i as scalars; test/result helper.
func (c *Chunk) Row(i int) []any {
	out := make([]any, len(c.Cols))
	for j, col := range c.Cols {
		out[j] = col.Value(i)
	}
	return out
}

// AppendFromVectors appends the first n rows of each vector to the matching
// column — the tuple-buffer sink operation used by compiled programs and
// primitives. It returns the (approximate) number of bytes materialized.
//
//inkfuse:hotpath
func (c *Chunk) AppendFromVectors(vs []*Vector, n int) int64 {
	return c.TakeFromVectors(vs, nil, n)
}

// TakeFromVectors is AppendFromVectors for a producer that is done with its
// vectors: while the chunk is empty, a column i with own[i] set takes over
// vs[i]'s backing array (Vector.TakeFrom) instead of copying its rows. own[i]
// promises that vs[i] owns its array and that no other column with own set
// lists the same vector; everything else is appended as before — first, so a
// vector listed again without own is still whole when it is copied — as is
// every column once the chunk holds rows. The bytes returned are the same
// either way: the rows land in the tuple buffer.
//
//inkfuse:hotpath
func (c *Chunk) TakeFromVectors(vs []*Vector, own []bool, n int) int64 {
	if len(vs) != len(c.Cols) {
		panic("storage: AppendFromVectors column count mismatch")
	}
	if c.rows > 0 {
		own = nil
	}
	var bytes int64
	for i, col := range c.Cols {
		if own == nil || !own[i] {
			col.AppendFrom(vs[i], 0, n)
		}
		w := col.Kind.Width()
		if w <= 0 {
			// Variable-size columns: string headers / packed-row handles.
			if col.Kind == types.String {
				w = 16
			} else {
				w = 8
			}
		}
		bytes += int64(w) * int64(n)
	}
	for i, take := range own {
		if take {
			c.Cols[i].TakeFrom(vs[i], n)
		}
	}
	c.rows += n
	return bytes
}

// AppendChunk appends all rows of src (column-wise). Schemas must match.
func (c *Chunk) AppendChunk(src *Chunk) {
	if len(src.Cols) != len(c.Cols) {
		panic("storage: AppendChunk column count mismatch")
	}
	for i, col := range c.Cols {
		col.AppendFrom(src.Cols[i], 0, src.rows)
	}
	c.rows += src.rows
}
