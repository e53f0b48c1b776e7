package schedcache

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestBuildEveryConstruction builds each named base, plain and
// duty-cycled, and checks the result against the closed-form frame length
// and the paper's requirements.
func TestBuildEveryConstruction(t *testing.T) {
	for _, name := range Constructions {
		t.Run(name, func(t *testing.T) {
			k := Key{N: 13, D: 2}
			ns, err := ServingLimits.Build(name, k)
			if err != nil {
				t.Fatal(err)
			}
			l, err := BaseFrameLength(name, k.N, k.D)
			if err != nil {
				t.Fatal(err)
			}
			if ns.N() != k.N || ns.L() != l || !ns.IsNonSleeping() {
				t.Fatalf("base n=%d L=%d (closed form %d), non-sleeping %v", ns.N(), ns.L(), l, ns.IsNonSleeping())
			}
			if !core.IsTopologyTransparent(ns, k.D) {
				t.Fatal("base is not topology-transparent")
			}
			k.AlphaT, k.AlphaR = 2, 4
			s, err := ServingLimits.Build(name, k)
			if err != nil {
				t.Fatal(err)
			}
			if !s.IsAlphaSchedule(2, 4) || !core.IsTopologyTransparent(s, k.D) {
				t.Fatal("duty-cycled schedule breaks its caps or topology transparency")
			}
			if got, want := PredictedCells(k, ns), int64(k.N*s.L()); got != want {
				t.Fatalf("PredictedCells = %d, built %d", got, want)
			}
		})
	}
}

// TestBuildRefuses covers every refusal of the shared builder. The budget
// refusals name the closed-form frame length, which Build checks before
// any schedule is materialized.
func TestBuildRefuses(t *testing.T) {
	cases := []struct {
		name         string
		construction string
		k            Key
		lim          Limits
		want         string
	}{
		{"unknown construction", "quantum", Key{N: 9, D: 2}, ServingLimits, "unknown construction"},
		{"steiner off D=2", "steiner", Key{N: 25, D: 3}, TrustedLimits, "D = 2 only"},
		{"half caps", "tdma", Key{N: 9, D: 2, AlphaT: 3}, TrustedLimits, "set both caps"},
		{"D >= n", "tdma", Key{N: 9, D: 9}, TrustedLimits, "outside [1, 8]"},
		{"tdma over n bound", "tdma", Key{N: MaxN + 1, D: 2}, ServingLimits, "serving bound"},
		{"tdma over base budget", "tdma", Key{N: 10000, D: 2}, ServingLimits, "tdma base schedule for N(10000, 2) needs frame length 10000"},
		{"projective over base budget", "projective", Key{N: 60000, D: 2000}, ServingLimits, "projective base schedule"},
		{"steiner over base budget", "steiner", Key{N: 60000, D: 2}, Limits{MaxN: 1 << 16, MaxCells: 1 << 20}, "steiner base schedule"},
		{"duty over budget", "tdma", Key{N: 4096, D: 2, AlphaT: 1, AlphaR: 1}, ServingLimits, "(1, 1)-schedule"},
		{"caps past n", "tdma", Key{N: 9, D: 2, AlphaT: 8, AlphaR: 8}, ServingLimits, "αT + αR <= n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.lim.Build(tc.construction, tc.k)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build(%q, %+v) = %v, want error containing %q", tc.construction, tc.k, err, tc.want)
			}
		})
	}
}
