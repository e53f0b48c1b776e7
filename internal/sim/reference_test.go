package sim

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/topology"
)

// This file holds what the differential tests pin the fast paths against:
// the saturation reference loop, which only tests run (RunSaturation always
// takes the word-parallel kernel), and a wrapper that steers core-model
// convergecast inputs, which the fast kernel would take, onto the general
// per-node loop.

// referenceOnly hides the ScheduleProtocol type from
// RunConvergecastProtocol's fast-path check, so a run takes the general
// per-node loop. Embedding keeps Name, FrameLen, Role and the TargetAware
// ShouldTransmit, so the loop drives exactly the schedule MAC.
type referenceOnly struct{ ScheduleProtocol }

// runConvergecastReference runs the general per-node convergecast loop on
// the schedule-driven MAC.
func runConvergecastReference(g *topology.Graph, s *core.Schedule, cfg ConvergecastConfig) (*ConvergecastResult, error) {
	return RunConvergecastProtocol(g, referenceOnly{ScheduleProtocol{S: s}}, cfg)
}

// runConvergecastPath runs the reference loop when legacy is set and
// RunConvergecast otherwise, for tests and benchmarks that cover both.
func runConvergecastPath(g *topology.Graph, s *core.Schedule, cfg ConvergecastConfig, legacy bool) (*ConvergecastResult, error) {
	if legacy {
		return runConvergecastReference(g, s, cfg)
	}
	return RunConvergecast(g, s, cfg)
}

// satScratch is the per-run working state of RunSaturationLegacy, pooled so
// a campaign of many short runs (BenchmarkSaturationCampaignLegacy) reuses
// one set of buffers instead of allocating ~2n² ints per run.
type satScratch struct {
	transmitting []bool
	// counts[u*n+v] counts collision-free u→v deliveries.
	counts []int
	// lastDelivery[u*n+v] is the absolute slot of the last u→v delivery,
	// or -1 before the first.
	lastDelivery []int
	// links gathers the u-major per-link counts handed to finishSaturation.
	links []int
}

var satPool = sync.Pool{New: func() any { return new(satScratch) }}

// reset sizes the scratch for n nodes and clears it.
func (sc *satScratch) reset(n int) {
	if cap(sc.transmitting) < n {
		sc.transmitting = make([]bool, n)
		sc.counts = make([]int, n*n)
		sc.lastDelivery = make([]int, n*n)
	}
	sc.transmitting = sc.transmitting[:n]
	sc.counts = sc.counts[:n*n]
	sc.lastDelivery = sc.lastDelivery[:n*n]
	for i := range sc.counts {
		sc.counts[i] = 0
		sc.lastDelivery[i] = -1
	}
	sc.links = sc.links[:0]
}

// RunSaturationLegacy is the original slot-by-slot, node-by-node saturation
// loop. It is the trusted differential reference for the fast path (the
// same kernel-pinning discipline internal/core uses for its naive
// verification kernels).
func RunSaturationLegacy(g *topology.Graph, s *core.Schedule, frames int, em EnergyModel) (*SaturationResult, error) {
	if g.N() > s.N() {
		return nil, fmt.Errorf("sim: graph has %d nodes but schedule supports %d", g.N(), s.N())
	}
	if frames < 1 {
		return nil, fmt.Errorf("sim: frames = %d", frames)
	}
	n := g.N()
	L := s.L()
	res := &SaturationResult{
		Frames:        frames,
		SlotsPerFrame: L,
	}
	sc := satPool.Get().(*satScratch)
	defer satPool.Put(sc)
	sc.reset(n)
	transmitting, counts, lastDelivery := sc.transmitting, sc.counts, sc.lastDelivery
	txSlots, rxSlots := 0, 0
	for f := 0; f < frames; f++ {
		for i := 0; i < L; i++ {
			abs := f*L + i
			for u := 0; u < n; u++ {
				role := s.RoleOf(u, i)
				transmitting[u] = role == core.Transmit
				switch role {
				case core.Transmit:
					txSlots++
				case core.Receive:
					rxSlots++
				}
			}
			for v := 0; v < n; v++ {
				if s.RoleOf(v, i) != core.Receive {
					continue
				}
				sender := -1
				count := 0
				g.ForEachNeighbor(v, func(u int) bool {
					if transmitting[u] {
						count++
						sender = u
					}
					return true
				})
				switch {
				case count == 1:
					key := sender*n + v
					counts[key]++
					if last := lastDelivery[key]; last >= 0 {
						if gap := abs - last - 1; gap > res.MaxInterDeliveryGap {
							res.MaxInterDeliveryGap = gap
						}
					}
					lastDelivery[key] = abs
				case count > 1:
					res.CollisionSlots++
				}
			}
		}
	}
	// Gather the flat counters into u-major link order and derive every
	// reported field through the finalizer shared with the fast path.
	for u := 0; u < n; u++ {
		g.ForEachNeighbor(u, func(v int) bool {
			sc.links = append(sc.links, counts[u*n+v])
			return true
		})
	}
	finishSaturation(res, g, em, sc.links, txSlots, rxSlots)
	return res, nil
}
