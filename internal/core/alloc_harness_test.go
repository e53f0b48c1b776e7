//go:build !race

// The race detector instruments memory operations in ways that can
// allocate, so the allocation gates only run in the plain test pass.

package core

import (
	"testing"

	"repro/internal/bitset"
)

var sinkSet *bitset.Set

// allocGateHarness binds one warm call per symbol listed in the generated
// alloc_gate_test.go. The Verifier is built outside the closure, and its
// first call inside TestHotpathAllocGates warms the walker scratch; the
// sink variables live in alloc_test.go. The view accessors index a
// 70-node schedule so the rows span more than one word.
func allocGateHarness(t *testing.T, sym string) func() {
	t.Helper()
	s := tdma(10)
	v := NewVerifier(s, 3)
	wide := tdma(70)
	switch sym {
	case "(*repro/internal/core.Verifier).MinThroughputSlots":
		return func() { sinkSlots = v.MinThroughputSlots() }
	case "(*repro/internal/core.Schedule).T":
		return func() { sinkSet = wide.T(69) }
	case "(*repro/internal/core.Schedule).R":
		return func() { sinkSet = wide.R(69) }
	case "(*repro/internal/core.Schedule).Tran":
		return func() { sinkSet = wide.Tran(69) }
	case "(*repro/internal/core.Schedule).Recv":
		return func() { sinkSet = wide.Recv(69) }
	}
	t.Fatalf("no alloc-gate harness for %s; add one in alloc_harness_test.go", sym)
	return nil
}
