package bitset

import (
	"fmt"
	"math/bits"
)

// Matrix is a rows × capacity bit matrix stored row-major in one word slab:
// row i occupies words[i*stride : (i+1)*stride] with stride = ⌈capacity/64⌉.
// Each row is an ordinary Set, so every set operation applies to it, but a
// million rows cost two heap objects instead of two million. A row's
// Words() slice is capped at stride, so appending to it reallocates rather
// than writing into the next row.
type Matrix struct {
	words    []uint64
	rows     []Set
	stride   int
	capacity int
}

// NewMatrix returns an all-zero matrix of rows sets, each with capacity for
// elements in [0, capacity).
func NewMatrix(rows, capacity int) *Matrix {
	if rows < 0 || capacity < 0 {
		panic(fmt.Sprintf("bitset: negative matrix shape %d×%d", rows, capacity))
	}
	stride := (capacity + wordBits - 1) / wordBits
	m := &Matrix{
		words:    make([]uint64, rows*stride),
		rows:     make([]Set, rows),
		stride:   stride,
		capacity: capacity,
	}
	for i := range m.rows {
		lo, hi := i*stride, (i+1)*stride
		m.rows[i] = Set{words: m.words[lo:hi:hi], cap: capacity}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return len(m.rows) }

// Cap returns the capacity of every row.
func (m *Matrix) Cap() int { return m.capacity }

// Stride returns the number of words per row.
func (m *Matrix) Stride() int { return m.stride }

// Row returns row i. The set shares the matrix's storage.
//
//ttdc:hotpath row accessor behind the schedule views; returns a pointer into the header slice
func (m *Matrix) Row(i int) *Set { return &m.rows[i] }

// Words exposes the whole slab: row i is Words()[i*Stride() : (i+1)*Stride()].
// Like Set.Words, it is for word-parallel kernels; callers must treat it as
// read-only.
func (m *Matrix) Words() []uint64 { return m.words }

// TransposeInto ORs the transpose of m into dst: for every element i of
// row x of m, element x is added to row i of dst. dst must have m.Cap()
// rows of capacity m.Rows(); pass an all-zero dst for a plain transpose.
func (m *Matrix) TransposeInto(dst *Matrix) {
	if len(dst.rows) != m.capacity || dst.capacity != len(m.rows) {
		panic(fmt.Sprintf("bitset: TransposeInto shape %d×%d into %d×%d",
			len(m.rows), m.capacity, len(dst.rows), dst.capacity))
	}
	for x := range m.rows {
		col, bit := x/wordBits, uint64(1)<<uint(x%wordBits)
		for wi, w := range m.rows[x].words {
			for w != 0 {
				i := wi*wordBits + bits.TrailingZeros64(w)
				w &= w - 1
				dst.words[i*dst.stride+col] |= bit
			}
		}
	}
}
