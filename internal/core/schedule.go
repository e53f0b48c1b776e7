// Package core implements the paper's primary contribution: the schedule
// model ⟨T,R⟩ for duty-cycled wireless sensor networks, the
// topology-transparency requirements (Requirements 1-3 and their
// equivalence, Theorem 1), the worst-case throughput analysis (Definitions
// 1-2, Theorems 2-4), and the Construct algorithm of Figure 2 together with
// its guarantees (Theorems 6-9).
//
// Throughout, the network class N(n, D) consists of all networks over at
// most n nodes V_n = {0..n-1} in which node degrees are at most D. All
// analysis quantities are exact rationals (math/big), so the paper's
// "equality holds if and only if" statements are machine-checkable.
package core

import (
	"fmt"

	"repro/internal/bitset"
)

// Schedule is a periodic activity schedule ⟨T,R⟩ over the node universe
// V_n = {0..n-1}: in slot i of each frame the nodes of T[i] may transmit,
// the nodes of R[i] may receive, and all other nodes sleep. T[i] and R[i]
// are disjoint. A Schedule is immutable after construction and safe for
// concurrent use.
//
// Both views are stored as row-major word slabs: t and r have L rows of n
// bits (the slot sets), tran and recv have n rows of L bits (the per-node
// slot sets tran(x) = {i : x ∈ T[i]} and recv(x) = {i : x ∈ R[i]} the
// checkers and simulators read).
type Schedule struct {
	n          int
	t, r       *bitset.Matrix
	tran, recv *bitset.Matrix
}

// newSchedule allocates the all-empty schedule of frame length l over n
// nodes.
func newSchedule(n, l int) *Schedule {
	return &Schedule{
		n:    n,
		t:    bitset.NewMatrix(l, n),
		r:    bitset.NewMatrix(l, n),
		tran: bitset.NewMatrix(n, l),
		recv: bitset.NewMatrix(n, l),
	}
}

// New builds a schedule from explicit per-slot transmitter and receiver
// node lists. It validates that the arrays have equal positive length, all
// nodes are in [0, n), and T[i] ∩ R[i] = ∅ for every slot.
func New(n int, t, r [][]int) (*Schedule, error) {
	if len(t) != len(r) {
		return nil, fmt.Errorf("core: |T| = %d but |R| = %d", len(t), len(r))
	}
	ts := make([]*bitset.Set, len(t))
	rs := make([]*bitset.Set, len(r))
	for i := range t {
		ts[i] = bitset.New(n)
		for _, x := range t[i] {
			if x < 0 || x >= n {
				return nil, fmt.Errorf("core: slot %d transmitter %d out of range [0,%d)", i, x, n)
			}
			ts[i].Add(x)
		}
		rs[i] = bitset.New(n)
		for _, x := range r[i] {
			if x < 0 || x >= n {
				return nil, fmt.Errorf("core: slot %d receiver %d out of range [0,%d)", i, x, n)
			}
			rs[i].Add(x)
		}
	}
	return FromSets(n, ts, rs)
}

// FromSets builds a schedule from per-slot bitsets. The sets are copied;
// callers may keep mutating theirs.
func FromSets(n int, t, r []*bitset.Set) (*Schedule, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: n = %d < 1", n)
	}
	if len(t) == 0 || len(t) != len(r) {
		return nil, fmt.Errorf("core: need equal positive |T| and |R|, got %d and %d", len(t), len(r))
	}
	s := newSchedule(n, len(t))
	if err := copySlots(s.t, t); err != nil {
		return nil, err
	}
	if err := copySlots(s.r, r); err != nil {
		return nil, err
	}
	if err := s.checkDisjoint(); err != nil {
		return nil, err
	}
	s.t.TransposeInto(s.tran)
	s.r.TransposeInto(s.recv)
	return s, nil
}

// NonSleeping builds the schedule ⟨T⟩ in which every node not transmitting
// in a slot is receiving: R[i] = V_n - T[i]. The model puts no bound on
// |T[i]|: an empty T[i] wastes its slot and a full T[i] leaves it with no
// receivers. Both are permitted and simply score zero throughput.
func NonSleeping(n int, t [][]int) (*Schedule, error) {
	ts := make([]*bitset.Set, len(t))
	for i := range t {
		ts[i] = bitset.New(n)
		for _, x := range t[i] {
			if x < 0 || x >= n {
				return nil, fmt.Errorf("core: slot %d transmitter %d out of range [0,%d)", i, x, n)
			}
			ts[i].Add(x)
		}
	}
	return NonSleepingFromSets(n, ts)
}

// NonSleepingFromSets is NonSleeping for prebuilt transmitter bitsets.
func NonSleepingFromSets(n int, t []*bitset.Set) (*Schedule, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: n = %d < 1", n)
	}
	if len(t) == 0 {
		return nil, fmt.Errorf("core: need a positive number of slots, got 0")
	}
	s := newSchedule(n, len(t))
	if err := copySlots(s.t, t); err != nil {
		return nil, err
	}
	s.t.TransposeInto(s.tran)
	s.complementViews()
	return s, nil
}

// ScheduleFromFamily builds the non-sleeping schedule whose per-node
// transmission slot sets are the member sets of a set family over ground
// set [0, L): node x transmits in slot i iff i ∈ sets[x], and receives in
// every other slot. When the family is D-cover-free this schedule satisfies
// Requirement 1 (and, being non-sleeping, Requirement 3) for N(n, D).
//
// tran(x) is member set x and recv(x) its complement within [0, L), so the
// node views are copied from the family rather than derived slot by slot.
func ScheduleFromFamily(l int, sets []*bitset.Set) (*Schedule, error) {
	n := len(sets)
	if n == 0 {
		return nil, fmt.Errorf("core: empty family")
	}
	if l < 1 {
		return nil, fmt.Errorf("core: frame length %d < 1", l)
	}
	s := newSchedule(n, l)
	for x, slots := range sets {
		if slots == nil {
			return nil, fmt.Errorf("core: nil member set %d", x)
		}
		if m := slots.Max(); m >= l {
			return nil, fmt.Errorf("core: member set %d contains slot %d >= L = %d", x, m, l)
		}
		s.tran.Row(x).UnionWith(slots)
	}
	s.tran.TransposeInto(s.t)
	s.complementViews()
	if err := s.checkDisjoint(); err != nil {
		return nil, err
	}
	return s, nil
}

// copySlots copies caller-owned slot sets into the rows of m, rejecting nil
// sets and capacities other than the universe size m.Cap().
func copySlots(m *bitset.Matrix, sets []*bitset.Set) error {
	for i, set := range sets {
		if set == nil {
			return fmt.Errorf("core: nil slot set at %d", i)
		}
		if set.Cap() != m.Cap() {
			return fmt.Errorf("core: slot %d set capacity != n = %d", i, m.Cap())
		}
		m.Row(i).Copy(set)
	}
	return nil
}

// complementViews completes a non-sleeping schedule whose T and tran are
// filled: R[i] = V_n - T[i] and recv(x) = [0, L) - tran(x).
func (s *Schedule) complementViews() {
	for i := 0; i < s.L(); i++ {
		s.r.Row(i).ComplementOf(s.t.Row(i))
	}
	for x := 0; x < s.n; x++ {
		s.recv.Row(x).ComplementOf(s.tran.Row(x))
	}
}

// checkDisjoint reports the first slot in which a node both transmits and
// receives.
func (s *Schedule) checkDisjoint() error {
	for i := 0; i < s.L(); i++ {
		if s.t.Row(i).Intersects(s.r.Row(i)) {
			return fmt.Errorf("core: slot %d has a node both transmitting and receiving", i)
		}
	}
	return nil
}

// slotSets returns the slot rows as set slices, for rebuilding through
// FromSets.
func (s *Schedule) slotSets() (t, r []*bitset.Set) {
	t = make([]*bitset.Set, s.L())
	r = make([]*bitset.Set, s.L())
	for i := range t {
		t[i], r[i] = s.t.Row(i), s.r.Row(i)
	}
	return t, r
}

// N returns the size of the node universe V_n.
func (s *Schedule) N() int { return s.n }

// L returns the frame length.
func (s *Schedule) L() int { return s.t.Rows() }

// T returns the transmitter set of slot i. The returned set must not be
// modified.
//
//ttdc:hotpath slot-view accessor of every checker and simulator loop; a row of the T slab
func (s *Schedule) T(i int) *bitset.Set { return s.t.Row(i) }

// R returns the receiver set of slot i. The returned set must not be
// modified.
//
//ttdc:hotpath slot-view accessor of every checker and simulator loop; a row of the R slab
func (s *Schedule) R(i int) *bitset.Set { return s.r.Row(i) }

// Tran returns tran(x): the set of slots in which node x may transmit.
// The returned set must not be modified.
//
//ttdc:hotpath node-view accessor of the verification walks; a row of the Tran slab
func (s *Schedule) Tran(x int) *bitset.Set { return s.tran.Row(x) }

// Recv returns recv(x): the set of slots in which node x may receive.
// The returned set must not be modified.
//
//ttdc:hotpath node-view accessor of the verification walks; a row of the Recv slab
func (s *Schedule) Recv(x int) *bitset.Set { return s.recv.Row(x) }

// TranMatrix returns the node-view slab behind Tran: row x is tran(x). It
// is for word-parallel kernels that index rows by stride; the matrix must
// not be modified.
func (s *Schedule) TranMatrix() *bitset.Matrix { return s.tran }

// IsNonSleeping reports whether T[i] ∪ R[i] = V_n in every slot.
func (s *Schedule) IsNonSleeping() bool {
	for i := 0; i < s.L(); i++ {
		if s.T(i).Count()+s.R(i).Count() != s.n {
			return false
		}
	}
	return true
}

// IsAlphaSchedule reports whether the schedule is an (αT, αR)-schedule:
// |T[i]| <= αT and |R[i]| <= αR in every slot.
func (s *Schedule) IsAlphaSchedule(alphaT, alphaR int) bool {
	for i := 0; i < s.L(); i++ {
		if s.T(i).Count() > alphaT || s.R(i).Count() > alphaR {
			return false
		}
	}
	return true
}

// MinTransmitters returns min_i |T[i]| (the paper's M_in).
func (s *Schedule) MinTransmitters() int {
	m := -1
	for i := 0; i < s.L(); i++ {
		if c := s.T(i).Count(); m < 0 || c < m {
			m = c
		}
	}
	return m
}

// MaxTransmitters returns max_i |T[i]| (the paper's M_ax).
func (s *Schedule) MaxTransmitters() int {
	m := 0
	for i := 0; i < s.L(); i++ {
		if c := s.T(i).Count(); c > m {
			m = c
		}
	}
	return m
}

// MaxReceivers returns max_i |R[i]|.
func (s *Schedule) MaxReceivers() int {
	m := 0
	for i := 0; i < s.L(); i++ {
		if c := s.R(i).Count(); c > m {
			m = c
		}
	}
	return m
}

// FreeSlots returns freeSlots(x, Y) = tran(x) - ∪_{y∈Y} tran(y): the slots
// in which x transmits and no node of Y does. Y must not contain x.
func (s *Schedule) FreeSlots(x int, y []int) *bitset.Set {
	fs := s.Tran(x).Clone()
	for _, v := range y {
		if v == x {
			panic("core: FreeSlots with x ∈ Y")
		}
		fs.DifferenceWith(s.Tran(v))
	}
	return fs
}

// Sigma returns σ(a, b) = tran(a) ∩ recv(b): the slots in which a
// transmission from a can be heard by b (collisions aside).
func (s *Schedule) Sigma(a, b int) *bitset.Set {
	return bitset.Intersect(s.Tran(a), s.Recv(b))
}

// TSlots returns 𝒯(x, y, S) = recv(y) ∩ freeSlots(x, {y} ∪ S): the slots in
// which a transmission from x to y is guaranteed to succeed when y's other
// neighbours are exactly S. Neither x nor y may appear in S.
func (s *Schedule) TSlots(x, y int, set []int) *bitset.Set {
	fs := s.Tran(x).Clone()
	fs.DifferenceWith(s.Tran(y))
	for _, v := range set {
		if v == x || v == y {
			panic("core: TSlots with x or y in S")
		}
		fs.DifferenceWith(s.Tran(v))
	}
	fs.IntersectWith(s.Recv(y))
	return fs
}

// ActiveFraction returns the average fraction of nodes active (transmitting
// or receiving) per slot: Σ_i (|T[i]| + |R[i]|) / (n·L). It is 1 exactly
// for non-sleeping schedules; lower values mean more sleep and hence less
// energy spent.
func (s *Schedule) ActiveFraction() float64 {
	active := 0
	for i := 0; i < s.L(); i++ {
		active += s.T(i).Count() + s.R(i).Count()
	}
	return float64(active) / (float64(s.n) * float64(s.L()))
}

// DutyCycle returns the fraction of slots in which node x is active.
func (s *Schedule) DutyCycle(x int) float64 {
	return float64(s.Tran(x).Count()+s.Recv(x).Count()) / float64(s.L())
}

// Role describes what a node is scheduled to do in a slot.
type Role uint8

const (
	// Sleep: the radio is off.
	Sleep Role = iota
	// Transmit: the node may transmit.
	Transmit
	// Receive: the node may receive.
	Receive
)

func (r Role) String() string {
	switch r {
	case Sleep:
		return "sleep"
	case Transmit:
		return "transmit"
	case Receive:
		return "receive"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// RoleOf returns node x's role in slot i (taken modulo the frame length, so
// callers can pass absolute slot numbers).
func (s *Schedule) RoleOf(x, slot int) Role {
	i := slot % s.L()
	switch {
	case s.T(i).Contains(x):
		return Transmit
	case s.R(i).Contains(x):
		return Receive
	default:
		return Sleep
	}
}

// Clone returns a deep copy (useful for failure-injection tests that need a
// mutable schedule; the package itself never mutates a built Schedule).
func (s *Schedule) Clone() *Schedule {
	t, r := s.slotSets()
	c, err := FromSets(s.n, t, r)
	if err != nil {
		panic("core: Clone of valid schedule failed: " + err.Error())
	}
	return c
}

// String renders a compact textual form of the schedule.
func (s *Schedule) String() string {
	out := fmt.Sprintf("schedule n=%d L=%d", s.n, s.L())
	for i := 0; i < s.L(); i++ {
		out += fmt.Sprintf("\n  slot %d: T=%s R=%s", i, s.T(i), s.R(i))
	}
	return out
}
