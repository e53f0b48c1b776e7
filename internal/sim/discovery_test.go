package sim

import (
	"testing"

	"repro/internal/topology"
)

func TestDiscoveryCompletesInOneFrameUnderTT(t *testing.T) {
	// The crisp corollary of topology transparency: with every node
	// beaconing, every directed link is heard collision-free within the
	// first frame.
	for _, tc := range []struct {
		name string
		g    *topology.Graph
		n, d int
	}{
		{"ring", topology.Ring(9), 9, 2},
		{"regular", topology.Regularish(9, 2), 9, 2},
		{"corridor", topology.Corridor(2, 5), 10, 5},
	} {
		var s = polySchedule(t, tc.n, tc.d)
		if tc.g.MaxDegree() > tc.d {
			t.Fatalf("%s: topology degree %d exceeds class %d", tc.name, tc.g.MaxDegree(), tc.d)
		}
		res, err := RunDiscovery(tc.g, ScheduleProtocol{S: s}, 1, DefaultEnergy())
		if err != nil {
			t.Fatal(err)
		}
		if res.DiscoveredLinks != res.TotalLinks {
			t.Fatalf("%s: discovered %d/%d links in one frame",
				tc.name, res.DiscoveredLinks, res.TotalLinks)
		}
		if res.CompleteSlot < 0 || res.CompleteSlot >= s.L() {
			t.Fatalf("%s: completion slot %d outside first frame", tc.name, res.CompleteSlot)
		}
	}
}

func TestDiscoveryTDMA(t *testing.T) {
	g := topology.Grid(3, 3)
	s := tdmaSchedule(t, 9)
	res, err := RunDiscovery(g, ScheduleProtocol{S: s}, 1, DefaultEnergy())
	if err != nil {
		t.Fatal(err)
	}
	if res.DiscoveredLinks != res.TotalLinks || res.Collisions != 0 {
		t.Fatalf("TDMA discovery: %d/%d links, %d collisions",
			res.DiscoveredLinks, res.TotalLinks, res.Collisions)
	}
	// Directed link u→v is discovered exactly in slot u.
	if res.LinkDiscoverySlots.Max() > 8 {
		t.Fatalf("discovery slot beyond frame: %v", res.LinkDiscoverySlots.Max())
	}
}

func TestDiscoveryALOHAHasNoBound(t *testing.T) {
	// Aggressive ALOHA beaconing on a dense graph collides persistently;
	// one "frame" (one slot) certainly cannot discover everything, and
	// even many slots may leave links unknown.
	g := topology.Regularish(12, 4)
	res, err := RunDiscovery(g, NewAloha(0.5, 3), 5, DefaultEnergy())
	if err != nil {
		t.Fatal(err)
	}
	if res.Collisions == 0 {
		t.Fatal("dense ALOHA beaconing should collide")
	}
	if res.DiscoveredLinks == res.TotalLinks && res.CompleteSlot < 3 {
		t.Fatal("ALOHA should not match the schedule's one-frame guarantee")
	}
}

func TestDiscoveryValidation(t *testing.T) {
	g := topology.Ring(4)
	s := tdmaSchedule(t, 4)
	if _, err := RunDiscovery(g, ScheduleProtocol{S: s}, 0, DefaultEnergy()); err == nil {
		t.Fatal("zero frames accepted")
	}
}
