package engine

import (
	"context"
	"fmt"
	"sync"

	ttdc "repro"
	"repro/internal/schedcache"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Metrics is the JSON payload of one campaign job's record. One flat
// struct for every workload keeps journal lines and CSV columns stable;
// workloads leave the fields they don't produce at their zero values.
type Metrics struct {
	// Schedule shape (every workload).
	L              int     `json:"l"`
	ActiveFraction float64 `json:"activeFraction"`
	// Analysis workload: the exact Theorem-2 average throughput and its
	// display float.
	AvgThroughput      string  `json:"avgThroughput,omitempty"`
	AvgThroughputFloat float64 `json:"avgThroughputFloat,omitempty"`
	// Topology shape (simulation workloads).
	Nodes int `json:"nodes,omitempty"`
	Edges int `json:"edges,omitempty"`
	// Saturation workload.
	MinLinkThroughput float64 `json:"minLinkThroughput,omitempty"`
	AvgLinkThroughput float64 `json:"avgLinkThroughput,omitempty"`
	// Convergecast workload.
	Generated        int     `json:"generated,omitempty"`
	Delivered        int     `json:"delivered,omitempty"`
	Dropped          int     `json:"dropped,omitempty"`
	DeliveryRatio    float64 `json:"deliveryRatio,omitempty"`
	MeanLatencySlots float64 `json:"meanLatencySlots,omitempty"`
	// Flood workload.
	Covered        int `json:"covered,omitempty"`
	CompletionSlot int `json:"completionSlot,omitempty"`
	// Shared simulation counters.
	Collisions        int     `json:"collisions,omitempty"`
	TotalEnergy       float64 `json:"totalEnergy,omitempty"`
	SimActiveFraction float64 `json:"simActiveFraction,omitempty"`
}

// metricsPool recycles Metrics between jobs: the engine serializes a job's
// result into its journal record and then calls Release, so under a worker
// pool each worker effectively reuses one Metrics for its whole job stream
// instead of leaving one garbage struct per job.
var metricsPool = sync.Pool{New: func() any { return new(Metrics) }}

// Release returns m to the job-result pool. The engine calls it after the
// record payload is serialized.
func (m *Metrics) Release() {
	*m = Metrics{}
	metricsPool.Put(m)
}

// memo shares one build per key across the jobs of one campaign with
// singleflight semantics: the first job to ask for a key runs build, and
// concurrent and later askers wait for and share its result (a panicking
// build re-panics in every asker). It is unbounded, which is safe because
// a campaign's distinct keys are fixed at expansion time. The zero value
// is ready to use.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]func() (V, error)
}

func (mm *memo[K, V]) get(k K, build func() (V, error)) (V, error) {
	mm.mu.Lock()
	f, ok := mm.m[k]
	if !ok {
		if mm.m == nil {
			mm.m = make(map[K]func() (V, error))
		}
		f = sync.OnceValues(build)
		mm.m[k] = f
	}
	mm.mu.Unlock()
	return f()
}

// schedKey identifies the schedule a job needs. Jobs of one campaign that
// agree on the key share one built schedule: schedules are immutable, pure
// functions of these fields, and construction dominates small jobs.
type schedKey struct {
	construction   string
	n, d           int
	alphaT, alphaR int
	strategy       string
}

// kernelKey identifies a saturation fast-path kernel: the schedule (by
// pointer — campaign schedules are deduplicated through the schedule memo,
// so one pointer per grid point) and the topology's node count, which can
// differ from the spec's N (grid topologies round up to a full square).
type kernelKey struct {
	s *ttdc.Schedule
	n int
}

// graphKey identifies a deterministic topology build. Only the
// seed-independent models (regular, ring, grid) are memoized; geometric
// and random graphs differ per replication and stay per-job. At the
// million-node end a single CSR build is seconds of work and tens of
// megabytes; replications and duty points of one grid point must not
// repeat it.
type graphKey struct {
	topology string
	n, d     int
}

// ccKernelKey identifies a convergecast fast-path kernel: schedule and
// graph by pointer (both deduplicated through their campaign memos) plus
// the sink. Jobs whose graph is per-job (geometric, random) never reach
// the memo, so entries cannot leak one-shot graphs.
type ccKernelKey struct {
	s    *ttdc.Schedule
	g    *ttdc.Graph
	sink int
}

// campaign is what the jobs of one campaign share: the cross-campaign
// polynomial cache, whose Limits budget every construction, and one memo
// per build layer. Replications, topologies and duty points of a grid
// point pay for each schedule, deterministic graph and kernel once, then
// run against the shared immutable result across the worker pool.
type campaign struct {
	cache     *schedcache.Cache
	scheds    memo[schedKey, *ttdc.Schedule]
	graphs    memo[graphKey, *ttdc.Graph]
	kernels   memo[kernelKey, *ttdc.SaturationKernel]
	ccKernels memo[ccKernelKey, *ttdc.ConvergecastKernel]
}

// Jobs expands the campaign and binds each spec to an executable engine
// Job. Job i's seed is stats.DeriveSeed(c.Seed, i), so a job's result
// depends only on the campaign seed and its own index — never on worker
// count or completion order. cache memoizes polynomial schedule
// construction across campaigns, and its Limits budget every construction
// the campaign asks for; nil means a private cache under
// schedcache.TrustedLimits. Within the campaign every construction is
// shared through a per-campaign memo regardless.
func Jobs(c *Campaign, cache *schedcache.Cache) ([]Job, error) {
	specs, err := c.Expand()
	if err != nil {
		return nil, err
	}
	if cache == nil {
		cache = schedcache.NewTrusted(0)
	}
	shared := &campaign{cache: cache}
	jobs := make([]Job, len(specs))
	for i, spec := range specs {
		spec := spec
		jobSeed := stats.DeriveSeed(c.Seed, uint64(i))
		jobs[i] = Job{
			ID:   spec.ID(),
			Seed: jobSeed,
			Run: func(ctx context.Context) (any, error) {
				return shared.run(ctx, spec, jobSeed)
			},
		}
	}
	return jobs, nil
}

// run executes one grid point: build (or fetch) the schedule, build the
// topology from the job seed, run the workload, and collect metrics.
func (c *campaign) run(ctx context.Context, spec JobSpec, seed uint64) (*Metrics, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := c.schedule(spec)
	if err != nil {
		return nil, err
	}
	m := metricsPool.Get().(*Metrics)
	m.L = s.L()
	m.ActiveFraction = s.ActiveFraction()
	if spec.Workload == "analysis" {
		avg := ttdc.AvgThroughput(s, spec.D)
		m.AvgThroughput = avg.RatString()
		m.AvgThroughputFloat = ttdc.RatFloat(avg)
		return m, nil
	}
	g, err := c.graph(spec, seed)
	if err != nil {
		m.Release()
		return nil, err
	}
	m.Nodes = g.N()
	m.Edges = g.EdgeCount()
	switch spec.Workload {
	case "saturation":
		// One kernel per (schedule, node count), shared across the worker
		// pool; the topologies shard their runs over it.
		k, err := c.kernels.get(kernelKey{s: s, n: g.N()}, func() (*ttdc.SaturationKernel, error) {
			return ttdc.NewSaturationKernel(s, g.N())
		})
		if err != nil {
			m.Release()
			return nil, err
		}
		res, err := k.RunSharded(g, spec.Frames, ttdc.DefaultEnergy(), spec.Shards)
		if err != nil {
			m.Release()
			return nil, err
		}
		m.MinLinkThroughput = res.MinLinkThroughput
		m.AvgLinkThroughput = res.AvgLinkThroughput
		m.Collisions = res.CollisionSlots
		m.TotalEnergy = res.TotalEnergy
		m.SimActiveFraction = res.ActiveFraction
	case "convergecast":
		cfg := ttdc.ConvergecastConfig{
			Sink: spec.Sink, Rate: spec.Rate, Frames: spec.Frames, Seed: seed,
			Shards: spec.Shards,
		}
		var res *ttdc.ConvergecastResult
		if deterministicTopology(spec.Topology) {
			// The graph came from the campaign memo, so the (schedule,
			// graph, sink) kernel is shared across replications.
			k, kerr := c.ccKernels.get(ccKernelKey{s: s, g: g, sink: spec.Sink}, func() (*ttdc.ConvergecastKernel, error) {
				return ttdc.NewConvergecastKernel(g, s, spec.Sink)
			})
			if kerr != nil {
				m.Release()
				return nil, kerr
			}
			res, err = k.Run(cfg)
		} else {
			res, err = ttdc.RunConvergecast(g, s, cfg)
		}
		if err != nil {
			m.Release()
			return nil, err
		}
		m.Generated = res.Generated
		m.Delivered = res.Delivered
		m.Dropped = res.Dropped
		m.DeliveryRatio = res.DeliveryRatio
		m.MeanLatencySlots = res.Latency.Mean()
		m.Collisions = res.Collisions
		m.TotalEnergy = res.TotalEnergy
		m.SimActiveFraction = res.ActiveFraction
	case "flood":
		res, err := ttdc.RunFlood(g, ttdc.ScheduleProtocol{S: s}, ttdc.FloodConfig{
			Source: spec.Sink, MaxFrames: spec.Frames, Seed: seed,
		})
		if err != nil {
			m.Release()
			return nil, err
		}
		m.Covered = res.Covered
		m.CompletionSlot = res.CompletionSlot
		m.Collisions = res.Collisions
		m.TotalEnergy = res.TotalEnergy
		m.SimActiveFraction = res.ActiveFraction
	default:
		m.Release()
		return nil, fmt.Errorf("engine: unknown workload %q", spec.Workload)
	}
	return m, nil
}

// schedule returns the job's schedule, built once per campaign. Polynomial
// bases additionally go through the cross-campaign cache; every other
// construction is built under the same cache's Limits. Both layers are
// singleflight under concurrency.
func (c *campaign) schedule(spec JobSpec) (*ttdc.Schedule, error) {
	strategy, err := schedcache.ParseStrategy(spec.Strategy)
	if err != nil {
		return nil, err
	}
	k := schedKey{
		construction: spec.Construction,
		n:            spec.N, d: spec.D,
		alphaT: spec.AlphaT, alphaR: spec.AlphaR,
		strategy: schedcache.StrategyName(strategy),
	}
	return c.scheds.get(k, func() (*ttdc.Schedule, error) {
		key := schedcache.Key{N: spec.N, D: spec.D, AlphaT: spec.AlphaT, AlphaR: spec.AlphaR, Strategy: strategy}
		if spec.Construction == "polynomial" {
			return c.cache.Get(key)
		}
		return c.cache.Limits().Build(spec.Construction, key)
	})
}

// deterministicTopology reports whether the model is seed-independent —
// the precondition for sharing its graphs (and downstream kernels) across
// a campaign's jobs.
func deterministicTopology(kind string) bool {
	return kind == "regular" || kind == "ring" || kind == "grid"
}

// graph realizes the job's graph. The RNG is rooted at the job seed,
// so randomized topologies differ across replications but are identical
// across reruns of the same job; deterministic models are built once per
// campaign.
func (c *campaign) graph(spec JobSpec, seed uint64) (*ttdc.Graph, error) {
	build := func() (*ttdc.Graph, error) {
		return topology.Build(spec.Topology, spec.N, spec.D, spec.Radius, seed)
	}
	if deterministicTopology(spec.Topology) {
		return c.graphs.get(graphKey{topology: spec.Topology, n: spec.N, d: spec.D}, build)
	}
	return build()
}
