package topology

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

// TestBuildMatchesGenerators pins each model name to the generator call
// it stands for, including the grid's rounding up to a full square and
// the seeded models' RNG rooted at the seed.
func TestBuildMatchesGenerators(t *testing.T) {
	const n, d, seed = 22, 4, 9
	geo := func() *Graph {
		rng := stats.NewRNG(seed)
		dep := RandomGeometric(n, 0.3, rng)
		dep.Graph.EnforceMaxDegree(d, rng)
		return dep.Graph
	}
	want := map[string]*Graph{
		"regular":   Regularish(n, d),
		"ring":      Ring(n),
		"grid":      Grid(5, 5),
		"geometric": geo(),
		"random":    RandomBoundedDegree(n, d, n/4, stats.NewRNG(seed)),
	}
	for _, model := range Models {
		g, err := Build(model, n, d, 0.3, seed)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if !reflect.DeepEqual(g.Edges(), want[model].Edges()) || g.N() != want[model].N() {
			t.Errorf("%s: Build differs from its generator", model)
		}
	}
}

// TestBuildRefuses: every (model, n, D) combination a generator would
// panic on, and the dense models above DenseLimit, come back as errors.
func TestBuildRefuses(t *testing.T) {
	cases := []struct {
		model  string
		n, d   int
		radius float64
		want   string
	}{
		{"torus", 9, 2, 0.3, "unknown model"},
		{"regular", 25, 1, 0.3, "2 <= D < n"},
		{"regular", 9, 9, 0.3, "2 <= D < n"},
		{"regular", 25, 3, 0.3, "nd odd"},
		{"ring", 2, 1, 0.3, "n >= 3"},
		{"grid", 1, 1, 0.3, "n >= 2"},
		{"geometric", 9, 2, 0, "radius > 0"},
		{"geometric", 9, -1, 0.3, "D >= 0"},
		{"geometric", DenseLimit + 1, 2, 0.3, "dense limit"},
		{"random", 25, 1, 0.3, "D >= 2"},
		{"random", DenseLimit + 1, 2, 0.3, "dense limit"},
	}
	for _, tc := range cases {
		g, err := Build(tc.model, tc.n, tc.d, tc.radius, 1)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Build(%q, %d, %d, %g) = %v, %v; want error containing %q", tc.model, tc.n, tc.d, tc.radius, g != nil, err, tc.want)
		}
	}
}
