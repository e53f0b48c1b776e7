package topology

import (
	"fmt"

	"repro/internal/stats"
)

// Models names the topology models Build accepts. regular, ring and grid
// are seed-independent and stream to CSR above DenseLimit; geometric and
// random draw from the seed and are dense-only.
var Models = []string{"regular", "ring", "grid", "geometric", "random"}

// Build realizes a topology model by name on about n nodes with degree
// bound d. grid rounds n up to the next full square; geometric connects
// nodes within radius and then trims degrees to d; the seeded models draw
// from an RNG rooted at seed. Parameter combinations a generator cannot
// satisfy, and the dense models above DenseLimit (where their per-node
// bitsets would cost O(n²) bits), are errors rather than panics.
func Build(model string, n, d int, radius float64, seed uint64) (*Graph, error) {
	switch model {
	case "regular":
		if d < 2 || d >= n {
			return nil, fmt.Errorf("topology: regular needs 2 <= D < n (got n = %d, D = %d)", n, d)
		}
		if d%2 == 1 && n%2 == 1 {
			return nil, fmt.Errorf("topology: no %d-regular graph on %d nodes (nd odd)", d, n)
		}
		return Regularish(n, d), nil
	case "ring":
		if n < 3 {
			return nil, fmt.Errorf("topology: ring needs n >= 3 (got %d)", n)
		}
		return Ring(n), nil
	case "grid":
		if n < 2 {
			return nil, fmt.Errorf("topology: grid needs n >= 2 (got %d)", n)
		}
		side := 1
		for side*side < n {
			side++
		}
		return Grid(side, side), nil
	case "geometric":
		if err := denseOK(model, n); err != nil {
			return nil, err
		}
		if n < 1 || radius <= 0 || d < 0 {
			return nil, fmt.Errorf("topology: geometric needs n >= 1, radius > 0 and D >= 0 (got n = %d, radius = %g, D = %d)", n, radius, d)
		}
		rng := stats.NewRNG(seed)
		dep := RandomGeometric(n, radius, rng)
		dep.Graph.EnforceMaxDegree(d, rng)
		return dep.Graph, nil
	case "random":
		if err := denseOK(model, n); err != nil {
			return nil, err
		}
		if n < 2 || d < 2 {
			return nil, fmt.Errorf("topology: random needs n >= 2 and D >= 2 (got n = %d, D = %d)", n, d)
		}
		return RandomBoundedDegree(n, d, n/4, stats.NewRNG(seed)), nil
	default:
		return nil, fmt.Errorf("topology: unknown model %q (want regular, ring, grid, geometric or random)", model)
	}
}

// denseOK refuses a dense-only model above DenseLimit.
func denseOK(model string, n int) error {
	if n > DenseLimit {
		return fmt.Errorf("topology: %s builds dense per-node bitsets; n = %d exceeds the dense limit %d (use regular, ring, or grid at this scale)",
			model, n, DenseLimit)
	}
	return nil
}
