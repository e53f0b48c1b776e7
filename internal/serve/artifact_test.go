package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	ttdc "repro"
	"repro/internal/core"
	"repro/internal/schedcache"
)

// TestArtifactCacheByteBudget pins the artifact cache's byte bound: the
// resident encoded bytes never exceed the budget, evictions are counted in
// both entries and bytes, and the budget is visible in the stats (and so
// in /metrics).
func TestArtifactCacheByteBudget(t *testing.T) {
	// Measure one artifact to size the budget relative to real payloads.
	probe := NewService(8)
	a, _, err := probe.Artifact(schedcache.Key{N: 9, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	unit := int64(len(a.Wire) + len(a.JSON))
	if unit == 0 {
		t.Fatal("empty artifact")
	}

	// Room for roughly two n=9 artifacts; the larger classes below must
	// push earlier entries out.
	budget := 2*unit + unit/2
	svc := NewServiceBytes(8, budget)
	keys := []schedcache.Key{{N: 9, D: 2}, {N: 16, D: 2}, {N: 25, D: 2}, {N: 36, D: 2}}
	for _, k := range keys {
		if _, _, err := svc.Artifact(k); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.ArtifactStats()
	if st.CapacityBytes != budget {
		t.Fatalf("CapacityBytes = %d, want %d", st.CapacityBytes, budget)
	}
	if st.Bytes > budget {
		t.Fatalf("resident bytes %d exceed the %d budget", st.Bytes, budget)
	}
	if st.Evictions == 0 || st.EvictedBytes == 0 {
		t.Fatalf("expected byte-bound evictions, got %+v", st)
	}
	if st.Entries >= int64(len(keys)) {
		t.Fatalf("all %d entries resident under a ~2-entry byte budget: %+v", len(keys), st)
	}

	// An evicted key is rebuilt on demand — a miss, not an error.
	misses := st.Misses
	if _, warm, err := svc.Artifact(keys[0]); err != nil {
		t.Fatal(err)
	} else if warm {
		t.Fatal("evicted artifact reported as a warm hit")
	}
	if got := svc.ArtifactStats().Misses; got != misses+1 {
		t.Fatalf("Misses = %d after rebuilding an evicted key, want %d", got, misses+1)
	}

	// An artifact larger than the whole budget is served but never cached:
	// the ceiling is hard.
	tiny := NewServiceBytes(8, unit-1)
	if _, _, err := tiny.Artifact(schedcache.Key{N: 9, D: 2}); err != nil {
		t.Fatal(err)
	}
	if st := tiny.ArtifactStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized artifact stayed resident: %+v", st)
	}
}

// TestArtifactJSONMatchesMarshal pins the spliced JSON body to what
// json.Marshal writes for the whole scheduleResponse with the schedule as
// a RawMessage, for base and duty-cycled keys of both strategies.
func TestArtifactJSONMatchesMarshal(t *testing.T) {
	svc := NewService(16)
	keys := []schedcache.Key{
		{N: 9, D: 2},
		{N: 25, D: 3},
		{N: 25, D: 2, AlphaT: 3, AlphaR: 5},
		{N: 36, D: 3, AlphaT: 2, AlphaR: 7, Strategy: core.Balanced},
	}
	for _, k := range keys {
		a, _, err := svc.Artifact(k)
		if err != nil {
			t.Fatal(err)
		}
		var sj bytes.Buffer
		if err := ttdc.EncodeSchedule(&sj, a.Frame.Schedule); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(scheduleResponse{
			Schedule: json.RawMessage(bytes.TrimSpace(sj.Bytes())),
			scheduleSummary: scheduleSummary{
				N: k.N, D: k.D, AlphaT: k.AlphaT, AlphaR: k.AlphaR,
				Strategy:           schedcache.StrategyName(k.Strategy),
				L:                  a.Frame.Schedule.L(),
				ActiveFraction:     a.Frame.ActiveFraction,
				AvgThroughput:      a.Frame.AvgThroughput.RatString(),
				AvgThroughputFloat: ttdc.RatFloat(a.Frame.AvgThroughput),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(a.JSON, want) {
			t.Fatalf("%s: JSON body differs from json.Marshal:\n got %.300q\nwant %.300q", k.Canonical(), a.JSON, want)
		}
	}
}
