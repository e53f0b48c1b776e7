package schedcache

import (
	"fmt"

	"repro/internal/cff"
	"repro/internal/core"
)

// Constructions names the base schedules Build accepts. Every one is a
// topology-transparent non-sleeping schedule, which is all the paper's
// Construct algorithm asks of its input.
var Constructions = []string{"tdma", "polynomial", "steiner", "projective"}

// baseFor resolves a construction name to its base frame length, computed
// in closed form, and the builder of its cover-free family. Nothing
// proportional to n×L is allocated until build runs, so callers can check
// the frame against a budget first.
func baseFor(construction string, n, d int) (l int, build func() (*cff.Family, error), err error) {
	switch construction {
	case "tdma":
		return n, func() (*cff.Family, error) { return cff.Identity(n) }, nil
	case "polynomial":
		params, err := cff.FindPolynomialParams(n, d)
		if err != nil {
			return 0, nil, err
		}
		return params.FrameLength(), func() (*cff.Family, error) { return cff.Polynomial(n, params) }, nil
	case "steiner":
		// Distinct blocks of a triple system share at most one point, so
		// two other blocks can cover a block's three points: D = 2 only.
		if d != 2 {
			return 0, nil, fmt.Errorf("schedcache: steiner construction supports D = 2 only (got %d)", d)
		}
		return cff.STSOrderFor(n), func() (*cff.Family, error) { return cff.Steiner(n) }, nil
	case "projective":
		p, err := cff.ProjectiveOrderFor(n, d)
		if err != nil {
			return 0, nil, err
		}
		return p*p + p + 1, func() (*cff.Family, error) { return cff.ProjectivePlane(n, p) }, nil
	default:
		return 0, nil, fmt.Errorf("schedcache: unknown construction %q (want tdma, polynomial, steiner or projective)", construction)
	}
}

// BaseFrameLength returns the closed-form frame length of the named base
// schedule for N(n, D) without materializing anything: n for tdma, q² for
// polynomial, the triple-system order for steiner, p²+p+1 for projective.
func BaseFrameLength(construction string, n, d int) (int, error) {
	l, _, err := baseFor(construction, n, d)
	return l, err
}

// PredictedCells returns the n×L footprint key k will occupy once built,
// given its class's base schedule ns: Theorem 7's frame length for
// duty-cycled keys, ns.L() itself for the base. This is the same closed
// form Build checks against its budget, so a warmer that filters on it
// never submits a key Build would refuse.
func PredictedCells(k Key, ns *core.Schedule) int64 {
	if k.AlphaT == 0 && k.AlphaR == 0 {
		return int64(k.N) * int64(ns.L())
	}
	aStar := core.OptimalTransmittersCapped(k.N, k.D, k.AlphaT)
	return int64(k.N) * int64(core.ConstructedFrameLength(ns, aStar, k.AlphaR))
}

// Build constructs the schedule for k from the named base construction
// (one of Constructions), without any caching: the topology-transparent
// non-sleeping schedule for N(n, D), duty-cycled through the paper's
// Construct algorithm when the (αT, αR) caps are set. k is validated
// against lim, and both the base and the duty-cycled frame are checked
// against lim.MaxCells in closed form before either is materialized.
func (lim Limits) Build(construction string, k Key) (*core.Schedule, error) {
	if err := lim.Validate(k); err != nil {
		return nil, err
	}
	l, build, err := baseFor(construction, k.N, k.D)
	if err != nil {
		return nil, err
	}
	if cost := int64(k.N) * int64(l); cost > lim.MaxCells {
		return nil, fmt.Errorf("schedcache: %s base schedule for N(%d, %d) needs frame length %d; n×L = %d exceeds the build budget %d",
			construction, k.N, k.D, l, cost, lim.MaxCells)
	}
	fam, err := build()
	if err != nil {
		return nil, err
	}
	ns, err := core.ScheduleFromFamily(fam.L, fam.Sets)
	if err != nil {
		return nil, err
	}
	return lim.DutyCycle(ns, k)
}

// DutyCycle converts the non-sleeping base ns for k's class into k's
// (αT, αR)-schedule, or returns ns unchanged when k names the base. The
// caller validates k; Build does. Theorem 7 gives the duty-cycled frame
// length in closed form, and it is checked against lim.MaxCells before
// the expansion runs.
func (lim Limits) DutyCycle(ns *core.Schedule, k Key) (*core.Schedule, error) {
	if k.AlphaT == 0 && k.AlphaR == 0 {
		return ns, nil
	}
	if k.AlphaT+k.AlphaR > k.N {
		return nil, fmt.Errorf("schedcache: Construct requires αT + αR <= n (got %d + %d > %d)", k.AlphaT, k.AlphaR, k.N)
	}
	aStar := core.OptimalTransmittersCapped(k.N, k.D, k.AlphaT)
	lFinal := core.ConstructedFrameLength(ns, aStar, k.AlphaR)
	if cost := int64(k.N) * int64(lFinal); cost > lim.MaxCells {
		return nil, fmt.Errorf("schedcache: (%d, %d)-schedule for N(%d, %d) needs frame length %d; n×L = %d exceeds the build budget %d",
			k.AlphaT, k.AlphaR, k.N, k.D, lFinal, cost, lim.MaxCells)
	}
	return core.Construct(ns, core.ConstructOptions{
		AlphaT:   k.AlphaT,
		AlphaR:   k.AlphaR,
		D:        k.D,
		Strategy: k.Strategy,
	})
}
