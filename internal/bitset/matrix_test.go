package bitset

import "testing"

func TestMatrixRowsAreIsolated(t *testing.T) {
	// 130 bits per row: three words, the last one partial.
	for _, capacity := range []int{1, 63, 64, 65, 130} {
		m := NewMatrix(5, capacity)
		if m.Rows() != 5 || m.Cap() != capacity || m.Stride() != (capacity+63)/64 {
			t.Fatalf("cap %d: shape %d×%d stride %d", capacity, m.Rows(), m.Cap(), m.Stride())
		}
		mid := m.Row(2)
		for i := 0; i < capacity; i++ {
			mid.Add(i)
		}
		mid.ComplementOf(mid)
		mid.ComplementOf(mid)
		for _, i := range []int{1, 3} {
			if !m.Row(i).Empty() {
				t.Fatalf("cap %d: filling row 2 changed row %d to %v", capacity, i, m.Row(i))
			}
		}
		if mid.Count() != capacity {
			t.Fatalf("cap %d: row 2 has %d elements", capacity, mid.Count())
		}
		for w, word := range m.Words() {
			row := w / m.Stride()
			if row != 2 && word != 0 {
				t.Fatalf("cap %d: slab word %d (row %d) = %#x", capacity, w, row, word)
			}
		}
	}
}

func TestMatrixRowAppendReallocates(t *testing.T) {
	m := NewMatrix(3, 130)
	w := m.Row(0).Words()
	if cap(w) != m.Stride() {
		t.Fatalf("row words cap %d, want stride %d", cap(w), m.Stride())
	}
	w = append(w, ^uint64(0))
	w[0] = 1
	if !m.Row(0).Empty() || !m.Row(1).Empty() {
		t.Fatal("append to a row's words wrote into the slab")
	}
}

func TestComplementOfMasksTail(t *testing.T) {
	for _, capacity := range []int{0, 1, 5, 63, 64, 65, 127, 128, 130} {
		o := New(capacity)
		for i := 0; i < capacity; i += 3 {
			o.Add(i)
		}
		s := New(capacity)
		s.ComplementOf(o)
		if got, want := s.Count(), capacity-o.Count(); got != want {
			t.Fatalf("cap %d: |complement| = %d, want %d", capacity, got, want)
		}
		if s.Intersects(o) || (capacity > 0 && s.Max() >= capacity) {
			t.Fatalf("cap %d: complement %v of %v", capacity, s, o)
		}
		if r := capacity % wordBits; r != 0 && s.words[len(s.words)-1]>>uint(r) != 0 {
			t.Fatalf("cap %d: bits set at or above the capacity", capacity)
		}
		// A shorter operand is zero-padded: the complement of the empty set.
		s.ComplementOf(New(0))
		if s.Count() != capacity {
			t.Fatalf("cap %d: complement of the empty set has %d elements", capacity, s.Count())
		}
	}
}

func TestMatrixTransposeInto(t *testing.T) {
	m := NewMatrix(70, 130)
	for x := 0; x < 70; x++ {
		for i := x % 7; i < 130; i += 5 + x%3 {
			m.Row(x).Add(i)
		}
	}
	tr := NewMatrix(130, 70)
	m.TransposeInto(tr)
	for x := 0; x < 70; x++ {
		for i := 0; i < 130; i++ {
			if m.Row(x).Contains(i) != tr.Row(i).Contains(x) {
				t.Fatalf("transpose differs at (%d, %d)", x, i)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TransposeInto accepted a mis-shaped destination")
		}
	}()
	m.TransposeInto(NewMatrix(70, 130))
}
