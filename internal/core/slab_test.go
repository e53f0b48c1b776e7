package core

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cff"
	"repro/internal/stats"
)

// This file keeps the per-bit schedule builders that the slab builders in
// schedule.go and construct.go replaced, as equivalence oracles: every
// builder's T, R, Tran and Recv must be Equal to what these derive one bit
// at a time.

// referenceNodeViews derives tran(x) and recv(x) from the slot sets by
// testing x's membership in every slot: the definition
// tran(x) = {i : x ∈ T[i]}, recv(x) = {i : x ∈ R[i]}.
func referenceNodeViews(t, r []*bitset.Set, x int) (tran, recv *bitset.Set) {
	tran, recv = bitset.New(len(t)), bitset.New(len(t))
	for i := range t {
		if t[i].Contains(x) {
			tran.Add(i)
		}
		if r[i].Contains(x) {
			recv.Add(i)
		}
	}
	return tran, recv
}

// referenceFamilySlots is the per-bit family build: T[i] gains x for every
// slot i of member set x, and R[i] is V_n minus T[i] by way of a full set.
func referenceFamilySlots(l int, sets []*bitset.Set) (t, r []*bitset.Set) {
	n := len(sets)
	t = make([]*bitset.Set, l)
	r = make([]*bitset.Set, l)
	full := bitset.New(n)
	for x := 0; x < n; x++ {
		full.Add(x)
	}
	for i := range t {
		t[i] = bitset.New(n)
	}
	for x, slots := range sets {
		slots.ForEach(func(i int) bool {
			t[i].Add(x)
			return true
		})
	}
	for i := range r {
		r[i] = full.Clone()
		r[i].DifferenceWith(t[i])
	}
	return t, r
}

// referenceConstruct is Construct's Figure 2 loop emitting one freshly
// allocated pair of slot sets per output slot.
func referenceConstruct(ns *Schedule, sizeT, alphaR int, strategy DivisionStrategy) (t, r []*bitset.Set) {
	n := ns.N()
	div := newDivider(n, strategy)
	for i := 0; i < ns.L(); i++ {
		tElems := ns.T(i).Elements()
		if len(tElems) == 0 {
			continue
		}
		tSubsets := div.divideT(tElems, sizeT)
		rSubsets := div.divideR(ns.R(i).Elements(), alphaR)
		for _, ts := range tSubsets {
			for _, rsub := range rSubsets {
				tSet := bitset.FromSlice(n, ts)
				rSet := bitset.FromSlice(n, rsub)
				div.pad(rSet, tSet, alphaR)
				t = append(t, tSet)
				r = append(r, rSet)
			}
		}
	}
	return t, r
}

// requireViews checks s against reference slot sets: every slot's T and R,
// and tran/recv of every stride-th node.
func requireViews(tb testing.TB, what string, s *Schedule, t, r []*bitset.Set, stride int) {
	tb.Helper()
	if s.L() != len(t) {
		tb.Fatalf("%s: L = %d, reference %d", what, s.L(), len(t))
	}
	for i := range t {
		if !s.T(i).Equal(t[i]) || !s.R(i).Equal(r[i]) {
			tb.Fatalf("%s: slot %d differs from the reference", what, i)
		}
	}
	for x := 0; x < s.N(); x += stride {
		tran, recv := referenceNodeViews(t, r, x)
		if !s.Tran(x).Equal(tran) || !s.Recv(x).Equal(recv) {
			tb.Fatalf("%s: node %d views differ from the reference", what, x)
		}
	}
}

// requireSelfViews checks that s's node views are the per-bit derivation of
// its own slot sets.
func requireSelfViews(tb testing.TB, what string, s *Schedule) {
	tb.Helper()
	t, r := s.slotSets()
	requireViews(tb, what, s, t, r, 1)
}

// referenceFamilies returns every family construction the schedule
// builders serve, over small universes.
func referenceFamilies(tb testing.TB) []*cff.Family {
	tb.Helper()
	var fams []*cff.Family
	add := func(f *cff.Family, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		fams = append(fams, f)
	}
	for _, n := range []int{1, 2, 63, 64, 65, 130} {
		add(cff.Identity(n))
	}
	for _, q := range []int{2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31} {
		// Both full and partial final blocks of the q-node groups.
		add(cff.Polynomial(q*q, cff.PolynomialParams{Q: q, K: 1, N: q * q, D: q - 1}))
		add(cff.Polynomial(q*q-1, cff.PolynomialParams{Q: q, K: 1, N: q * q, D: q - 1}))
	}
	add(cff.PolynomialFor(300, 3))
	for _, n := range []int{7, 12, 40} {
		add(cff.Steiner(n))
	}
	for _, nd := range [][2]int{{7, 2}, {31, 3}, {100, 5}} {
		add(cff.ProjectiveFor(nd[0], nd[1]))
	}
	return fams
}

func TestScheduleFromFamilyMatchesReference(t *testing.T) {
	for _, f := range referenceFamilies(t) {
		s, err := ScheduleFromFamily(f.L, f.Sets)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		rt, rr := referenceFamilySlots(f.L, f.Sets)
		requireViews(t, fmt.Sprintf("%s n=%d", f.Name, f.N()), s, rt, rr, 1)
	}
}

func TestScheduleFromFamilyForeignCapacities(t *testing.T) {
	// Member sets need not have capacity L, only elements below it.
	sets := []*bitset.Set{bitset.FromSlice(3, []int{0}), bitset.FromSlice(200, []int{1, 2}), bitset.FromSlice(64, []int{2})}
	s, err := ScheduleFromFamily(3, sets)
	if err != nil {
		t.Fatal(err)
	}
	rt, rr := referenceFamilySlots(3, sets)
	requireViews(t, "mixed capacities", s, rt, rr, 1)
	if _, err := ScheduleFromFamily(3, []*bitset.Set{bitset.FromSlice(200, []int{130})}); err == nil {
		t.Fatal("member slot 130 >= L = 3 accepted")
	}
}

func TestSlotSetBuildersMatchReference(t *testing.T) {
	rng := stats.NewRNG(11)
	for _, shape := range [][2]int{{1, 1}, {5, 3}, {64, 7}, {65, 64}, {130, 65}} {
		n, l := shape[0], shape[1]
		s := randomSchedule(rng, n, l, 0.3, 0.5)
		requireSelfViews(t, fmt.Sprintf("FromSets n=%d L=%d", n, l), s)
		t0, _ := s.slotSets()
		ns, err := NonSleepingFromSets(n, t0)
		if err != nil {
			t.Fatal(err)
		}
		if !ns.IsNonSleeping() {
			t.Fatalf("NonSleepingFromSets n=%d L=%d is not non-sleeping", n, l)
		}
		requireSelfViews(t, fmt.Sprintf("NonSleepingFromSets n=%d L=%d", n, l), ns)
		requireSelfViews(t, fmt.Sprintf("Clone n=%d L=%d", n, l), s.Clone())
	}
}

func TestConstructMatchesReference(t *testing.T) {
	for _, in := range buildInputs(t) {
		n := in.ns.N()
		for _, alphas := range [][2]int{{1, 1}, {1, 3}, {2, 2}, {3, n - 3}} {
			alphaT, alphaR := alphas[0], alphas[1]
			sizeT := OptimalTransmittersCapped(n, in.d, alphaT)
			for _, strat := range []DivisionStrategy{Sequential, Balanced} {
				out, err := Construct(in.ns, ConstructOptions{AlphaT: alphaT, AlphaR: alphaR, Strategy: strat, D: in.d})
				if err != nil {
					t.Fatal(err)
				}
				rt, rr := referenceConstruct(in.ns, sizeT, alphaR, strat)
				requireViews(t, fmt.Sprintf("%s (%d,%d) %s", in.name, alphaT, alphaR, strat), out, rt, rr, 1)
			}
		}
	}
}

func TestTransformsMatchReference(t *testing.T) {
	s := polySchedule(t, 20, 2)
	rng := stats.NewRNG(3)
	sleeping := randomSchedule(rng, 20, 7, 0.2, 0.4)
	perm := rng.Perm(20)
	p, err := PermuteNodes(s, perm)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Concat(s, sleeping)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Repeat(sleeping, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Restrict(s, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		out  *Schedule
	}{
		{"PermuteNodes", p},
		{"RotateSlots", RotateSlots(s, 5)},
		{"Concat", c},
		{"Repeat", rep},
		{"Restrict", res},
	} {
		requireSelfViews(t, tc.name, tc.out)
	}
	// The slot sets themselves, against their per-bit definitions.
	for i := 0; i < s.L(); i++ {
		for x := 0; x < s.N(); x++ {
			if p.T(i).Contains(perm[x]) != s.T(i).Contains(x) || p.R(i).Contains(perm[x]) != s.R(i).Contains(x) {
				t.Fatalf("PermuteNodes slot %d node %d", i, x)
			}
		}
		if j := (i + s.L() - 5) % s.L(); !RotateSlots(s, 5).T(j).Equal(s.T(i)) {
			t.Fatalf("RotateSlots slot %d", i)
		}
		if !c.T(i).Equal(s.T(i)) || !c.R(i).Equal(s.R(i)) {
			t.Fatalf("Concat slot %d", i)
		}
		want := s.T(i).Clone()
		for x := 13; x < s.N(); x++ {
			want.Remove(x)
		}
		if !res.T(i).Equal(want) {
			t.Fatalf("Restrict slot %d", i)
		}
	}
	for i := 0; i < rep.L(); i++ {
		if !rep.T(i).Equal(sleeping.T(i%sleeping.L())) || !rep.R(i).Equal(sleeping.R(i%sleeping.L())) {
			t.Fatalf("Repeat slot %d", i)
		}
	}
}

// TestScheduleFromFamilyScale1M checks the million-node build the scale
// workloads use: every slot, and the node views of every 997th node.
func TestScheduleFromFamilyScale1M(t *testing.T) {
	if os.Getenv("TTDC_SCALE") == "" {
		t.Skip("set TTDC_SCALE=1 to check the n=1000000 schedule build")
	}
	f, err := cff.PolynomialFor(1_000_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ScheduleFromFamily(f.L, f.Sets)
	if err != nil {
		t.Fatal(err)
	}
	rt, rr := referenceFamilySlots(f.L, f.Sets)
	requireViews(t, f.Name, s, rt, rr, 997)
}
