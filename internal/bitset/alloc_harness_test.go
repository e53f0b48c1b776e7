//go:build !race

// The race detector instruments memory operations in ways that can
// allocate, so the allocation gates only run in the plain test pass.

package bitset

import "testing"

// Result sinks keep the measured calls from being optimized away without
// allocating inside the measured closures.
var (
	gateSinkBool  bool
	gateSinkCount int
	gateSinkSet   *Set
)

// allocGateHarness binds one warm call per symbol listed in the generated
// alloc_gate_test.go. The sets span two backing words so the word loops
// actually iterate, and every receiver is preallocated outside the closure.
func allocGateHarness(t *testing.T, sym string) func() {
	t.Helper()
	a := FromSlice(130, []int{0, 3, 64, 99, 129})
	b := FromSlice(130, []int{3, 64, 70})
	mask := FromSlice(130, []int{0, 64, 99, 129})
	dst := New(130)
	m := NewMatrix(4, 130)
	switch sym {
	case "(*repro/internal/bitset.Matrix).Row":
		return func() { gateSinkSet = m.Row(3) }
	case "(*repro/internal/bitset.Set).Contains":
		return func() { gateSinkBool = a.Contains(99) }
	case "(*repro/internal/bitset.Set).CopyThenDifference":
		return func() { gateSinkBool = dst.CopyThenDifference(a, b) }
	case "(*repro/internal/bitset.Set).DifferenceIntersectionCount":
		return func() { gateSinkCount = a.DifferenceIntersectionCount(b, mask) }
	case "(*repro/internal/bitset.Set).DifferenceWith":
		return func() { dst.DifferenceWith(b) }
	case "(*repro/internal/bitset.Set).IntersectWith":
		return func() { dst.IntersectWith(b) }
	case "(*repro/internal/bitset.Set).IntersectionCount":
		return func() { gateSinkCount = a.IntersectionCount(b) }
	case "(*repro/internal/bitset.Set).Intersects":
		return func() { gateSinkBool = a.Intersects(b) }
	case "(*repro/internal/bitset.Set).UnionWith":
		return func() { dst.UnionWith(b) }
	}
	t.Fatalf("no alloc-gate harness for %s; add one in alloc_harness_test.go", sym)
	return nil
}
