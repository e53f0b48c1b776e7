package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/schedcache"
	"repro/internal/topology"
)

// Decode bounds: a campaign document is untrusted input (it arrives over
// HTTP at ttdcserve's POST /jobs), so every axis is range-checked before
// expansion and the expanded job count is capped. Mirrors the
// maxDecodedDimension discipline of ttdc.DecodeSchedule.
const (
	// MaxJobs bounds Expand's output.
	MaxJobs = 1 << 16
	// MaxCampaignN bounds per-job class sizes. Streaming CSR topologies
	// and the sharded kernels put million-node single-job campaigns in
	// reach, so the bound is a sanity cap against typo-sized grids rather
	// than a memory guard; the dense-only topology models (geometric,
	// random) are additionally rejected at job time above
	// topology.DenseLimit, where they would materialize O(n²) bits.
	MaxCampaignN = 1 << 21
	// maxAxis bounds each grid axis's entry count.
	maxAxis = 1 << 12
	// maxShards bounds the intra-run shard count; the kernels clamp to the
	// scratch word count anyway, this just rejects nonsense documents.
	maxShards = 1 << 10
	// maxFrames and maxReplications bound per-job simulation length and
	// per-point repetition.
	maxFrames       = 1 << 16
	maxReplications = 1 << 12
)

// DutyPoint is one (αT, αR) pair of a campaign's duty axis. Both zero
// means the non-sleeping base schedule.
type DutyPoint struct {
	AlphaT int `json:"alphaT"`
	AlphaR int `json:"alphaR"`
}

// Campaign is the declarative spec of a batch run: a grid over class sizes
// and duty-cycle caps, one construction, one topology model, one workload,
// replicated and seeded. Expand flattens it into an ordered job list; the
// order (n, then D, then duty point, then replication) is part of the
// format, because job indices key both per-job seeds and journal resume.
type Campaign struct {
	// Name labels the campaign in journals and reports.
	Name string `json:"name,omitempty"`
	// Construction picks the base schedule: tdma, polynomial, steiner, or
	// projective. Empty means polynomial.
	Construction string `json:"construction,omitempty"`
	// N and D are the class-size grids.
	N []int `json:"n"`
	D []int `json:"d"`
	// Duty lists the (αT, αR) points; empty means the single non-sleeping
	// point {0, 0}.
	Duty []DutyPoint `json:"duty,omitempty"`
	// Strategy is the Construct division strategy: sequential (default) or
	// balanced.
	Strategy string `json:"strategy,omitempty"`
	// Topology picks the graph model: regular (default), ring, grid,
	// geometric, or random. Radius parameterizes geometric (0 = 0.3).
	Topology string  `json:"topology,omitempty"`
	Radius   float64 `json:"radius,omitempty"`
	// Workload picks what each job runs: analysis (default), saturation,
	// convergecast, or flood.
	Workload string `json:"workload,omitempty"`
	// Frames bounds each simulation run (0 = 10); Rate is the convergecast
	// arrival rate in packets/slot/node (0 = 0.002); Sink is the
	// convergecast sink / flood source.
	Frames int     `json:"frames,omitempty"`
	Rate   float64 `json:"rate,omitempty"`
	Sink   int     `json:"sink,omitempty"`
	// Shards splits each job's slot kernel across word-aligned node
	// ranges: 0 or 1 runs sequentially, -1 uses one shard per CPU.
	// Results are byte-identical at every value — sharding one oversized
	// job trades the engine's job-level parallelism for intra-run
	// parallelism without touching the determinism contract. Ignored by
	// the analysis and flood workloads.
	Shards int `json:"shards,omitempty"`
	// Replications repeats every grid point with a distinct per-job seed
	// (0 = 1).
	Replications int `json:"replications,omitempty"`
	// Seed roots the campaign's seed stream: job i runs with
	// stats.DeriveSeed(Seed, i).
	Seed uint64 `json:"seed,omitempty"`
}

// JobSpec is one expanded grid point: everything a worker needs to run the
// job, flattened and JSON-stable.
type JobSpec struct {
	Campaign     string  `json:"campaign,omitempty"`
	Construction string  `json:"construction"`
	N            int     `json:"n"`
	D            int     `json:"d"`
	AlphaT       int     `json:"alphaT"`
	AlphaR       int     `json:"alphaR"`
	Strategy     string  `json:"strategy,omitempty"`
	Topology     string  `json:"topology"`
	Radius       float64 `json:"radius,omitempty"`
	Workload     string  `json:"workload"`
	Frames       int     `json:"frames"`
	Rate         float64 `json:"rate,omitempty"`
	Sink         int     `json:"sink,omitempty"`
	Shards       int     `json:"shards,omitempty"`
	Rep          int     `json:"rep"`
}

// ID names the job in journals and tables, e.g.
// "polynomial/n25/D2/aT3-aR5/regular/saturation/r0". Shards is
// deliberately absent: shard counts cannot change results, so a journal
// written at one count resumes cleanly at another.
func (sp JobSpec) ID() string {
	return fmt.Sprintf("%s/n%d/D%d/aT%d-aR%d/%s/%s/r%d",
		sp.Construction, sp.N, sp.D, sp.AlphaT, sp.AlphaR, sp.Topology, sp.Workload, sp.Rep)
}

// withDefaults returns a copy with zero-valued optional fields resolved.
func (c Campaign) withDefaults() Campaign {
	if c.Construction == "" {
		c.Construction = "polynomial"
	}
	if len(c.Duty) == 0 {
		c.Duty = []DutyPoint{{}}
	}
	if c.Topology == "" {
		c.Topology = "regular"
	}
	if c.Radius == 0 {
		c.Radius = 0.3
	}
	if c.Workload == "" {
		c.Workload = "analysis"
	}
	if c.Frames == 0 {
		c.Frames = 10
	}
	if c.Rate == 0 {
		c.Rate = 0.002
	}
	if c.Replications == 0 {
		c.Replications = 1
	}
	return c
}

var workloads = []string{"analysis", "saturation", "convergecast", "flood"}

// Validate range-checks the campaign without expanding it. Per-point
// feasibility (D < n, admissible fields, cap feasibility) is deliberately
// NOT checked here: an infeasible grid point fails its own job at run time
// and the rest of the campaign proceeds.
func (c *Campaign) Validate() error {
	cc := c.withDefaults()
	if !slices.Contains(schedcache.Constructions, cc.Construction) {
		return fmt.Errorf("engine: unknown construction %q", cc.Construction)
	}
	if !slices.Contains(topology.Models, cc.Topology) {
		return fmt.Errorf("engine: unknown topology %q", cc.Topology)
	}
	if !slices.Contains(workloads, cc.Workload) {
		return fmt.Errorf("engine: unknown workload %q", cc.Workload)
	}
	if _, err := schedcache.ParseStrategy(cc.Strategy); err != nil {
		return err
	}
	if len(cc.N) == 0 || len(cc.D) == 0 {
		return fmt.Errorf("engine: campaign needs at least one n and one D")
	}
	for _, axis := range []struct {
		name string
		n    int
	}{{"n", len(cc.N)}, {"d", len(cc.D)}, {"duty", len(cc.Duty)}} {
		if axis.n > maxAxis {
			return fmt.Errorf("engine: %s axis has %d entries, max %d", axis.name, axis.n, maxAxis)
		}
	}
	for _, n := range cc.N {
		if n < 2 || n > MaxCampaignN {
			return fmt.Errorf("engine: n = %d outside [2, %d]", n, MaxCampaignN)
		}
	}
	for _, d := range cc.D {
		if d < 1 || d > MaxCampaignN {
			return fmt.Errorf("engine: D = %d outside [1, %d]", d, MaxCampaignN)
		}
	}
	for _, p := range cc.Duty {
		if err := schedcache.ValidateCaps(p.AlphaT, p.AlphaR); err != nil {
			return fmt.Errorf("engine: duty point: %w", err)
		}
		if p.AlphaT > MaxCampaignN || p.AlphaR > MaxCampaignN {
			return fmt.Errorf("engine: duty caps (%d, %d) exceed %d", p.AlphaT, p.AlphaR, MaxCampaignN)
		}
	}
	if cc.Frames < 1 || cc.Frames > maxFrames {
		return fmt.Errorf("engine: frames = %d outside [1, %d]", cc.Frames, maxFrames)
	}
	if cc.Rate < 0 || cc.Rate > 1 {
		return fmt.Errorf("engine: rate = %g outside [0, 1]", cc.Rate)
	}
	if cc.Radius < 0 || cc.Radius > 2 {
		return fmt.Errorf("engine: radius = %g outside [0, 2]", cc.Radius)
	}
	if cc.Sink < 0 {
		return fmt.Errorf("engine: negative sink %d", cc.Sink)
	}
	if cc.Replications < 1 || cc.Replications > maxReplications {
		return fmt.Errorf("engine: replications = %d outside [1, %d]", cc.Replications, maxReplications)
	}
	if cc.Shards < -1 || cc.Shards > maxShards {
		return fmt.Errorf("engine: shards = %d outside [-1, %d]", cc.Shards, maxShards)
	}
	total := len(cc.N) * len(cc.D) * len(cc.Duty) * cc.Replications
	if total > MaxJobs {
		return fmt.Errorf("engine: campaign expands to %d jobs, max %d", total, MaxJobs)
	}
	return nil
}

// Expand flattens the campaign into its ordered job list. The iteration
// order — n outermost, then D, then duty point, then replication — is
// fixed: job index i keys both the per-job seed stream and journal resume.
func (c *Campaign) Expand() ([]JobSpec, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cc := c.withDefaults()
	specs := make([]JobSpec, 0, len(cc.N)*len(cc.D)*len(cc.Duty)*cc.Replications)
	for _, n := range cc.N {
		for _, d := range cc.D {
			for _, duty := range cc.Duty {
				for rep := 0; rep < cc.Replications; rep++ {
					specs = append(specs, JobSpec{
						Campaign:     cc.Name,
						Construction: cc.Construction,
						N:            n,
						D:            d,
						AlphaT:       duty.AlphaT,
						AlphaR:       duty.AlphaR,
						Strategy:     cc.Strategy,
						Topology:     cc.Topology,
						Radius:       cc.Radius,
						Workload:     cc.Workload,
						Frames:       cc.Frames,
						Rate:         cc.Rate,
						Sink:         cc.Sink,
						Shards:       cc.Shards,
						Rep:          rep,
					})
				}
			}
		}
	}
	return specs, nil
}

// maxCampaignBytes bounds the encoded document; a campaign is a few grids,
// not a data file.
const maxCampaignBytes = 1 << 20

// DecodeCampaign reads and validates a campaign JSON document from
// untrusted input. Unknown fields are rejected so typos ("alphaT" at the
// top level, say) fail loudly instead of silently running defaults.
func DecodeCampaign(r io.Reader) (*Campaign, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxCampaignBytes))
	dec.DisallowUnknownFields()
	var c Campaign
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("engine: decode campaign: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
