package cff

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/gf"
)

// polynomialReference is the Eval-per-node construction Polynomial's
// block-incremental evaluation replaced: every node's polynomial is
// evaluated from scratch at all q points.
func polynomialReference(tb testing.TB, n int, p PolynomialParams) []*bitset.Set {
	tb.Helper()
	field, err := gf.NewOrder(p.Q)
	if err != nil {
		tb.Fatal(err)
	}
	tables := gf.NewTables(field)
	q := p.Q
	sets := make([]*bitset.Set, n)
	coeffs := make([]int, p.K+1)
	for x := 0; x < n; x++ {
		v := x
		for i := range coeffs {
			coeffs[i] = v % q
			v /= q
		}
		s := bitset.New(q * q)
		for j := 0; j < q; j++ {
			s.Add(q*j + tables.Eval(coeffs, j))
		}
		sets[x] = s
	}
	return sets
}

func TestPolynomialMatchesEvalReference(t *testing.T) {
	for _, q := range []int{2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31} {
		for k := 1; k <= 3; k++ {
			capN := q
			for i := 0; i < k; i++ {
				capN *= q
			}
			if capN > 4000 {
				break
			}
			p := PolynomialParams{Q: q, K: k, N: capN, D: (q - 1) / k}
			// The full family, and one ending in a partial block of q nodes.
			for _, n := range []int{capN, capN - q/2 - 1} {
				if n < 1 {
					continue
				}
				f, err := Polynomial(n, p)
				if err != nil {
					t.Fatal(err)
				}
				want := polynomialReference(t, n, p)
				if f.L != q*q || len(f.Sets) != n {
					t.Fatalf("q=%d k=%d n=%d: L=%d with %d sets", q, k, n, f.L, len(f.Sets))
				}
				for x := range want {
					if f.Sets[x].Cap() != f.L || !f.Sets[x].Equal(want[x]) {
						t.Fatalf("q=%d k=%d n=%d: node %d = %v, reference %v", q, k, n, x, f.Sets[x], want[x])
					}
				}
			}
		}
	}
}
