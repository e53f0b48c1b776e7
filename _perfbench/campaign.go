package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	ttdc "repro"
	"repro/internal/engine"
	"repro/internal/schedcache"
	"repro/internal/stats"
)

// The campaign workload: the paper-reproduction shape. Campaign (a) is a
// saturation grid that builds every schedule; campaign (b) analyses the
// same 18 grid points through the same schedule cache, so it runs the
// cache hit path and the exact AvgThroughput verifier beside (a)'s builds.
var campaignGrid = struct {
	n    []int
	d    []int
	duty []engine.DutyPoint
}{
	n:    []int{121, 361, 841},
	d:    []int{2, 3},
	duty: []engine.DutyPoint{{}, {AlphaT: 2, AlphaR: 4}, {AlphaT: 3, AlphaR: 5}},
}

func campaignSpecs(seed uint64) (a, b engine.Campaign) {
	a = engine.Campaign{
		Name: "saturation-grid", Construction: "polynomial",
		N: campaignGrid.n, D: campaignGrid.d, Duty: campaignGrid.duty,
		Topology: "geometric", Radius: 0.1, Workload: "saturation",
		Frames: 20, Replications: 8, Seed: seed,
	}
	b = engine.Campaign{
		Name: "analysis-grid", Construction: "polynomial",
		N: campaignGrid.n, D: campaignGrid.d, Duty: campaignGrid.duty,
		Workload: "analysis", Seed: seed,
	}
	return a, b
}

// campaignJournalSHA256 are the journal digests of campaigns (a) and (b)
// at the default seed, recorded when the benchmark was defined. Journals
// are deterministic, so any change to these bytes is a change of results.
var campaignJournalSHA256 = [2]string{
	"ae7227638addf00b30d0ba340e2da1758fa9cb5a23d65aa19aa8d21f608e507b",
	"576be021d0aa3d8889f625dd0ff01584ac5c56fb73c1faf4734c6a62e05edde8",
}

const defaultSeed = 1

// campaignSetups is how many extra times a run times the set-up, so the
// median of a sub-millisecond step is steady.
const campaignSetups = 499

// campaignSetup is what a user pays before the first job runs: campaign
// expansion into jobs and the shared schedule cache.
type campaignSetup struct {
	cache        *schedcache.Cache
	jobsA, jobsB []engine.Job
}

func newCampaignSetup(seed uint64) (*campaignSetup, error) {
	a, b := campaignSpecs(seed)
	cache := schedcache.NewTrusted(0)
	ja, err := engine.Jobs(&a, cache)
	if err != nil {
		return nil, err
	}
	jb, err := engine.Jobs(&b, cache)
	if err != nil {
		return nil, err
	}
	return &campaignSetup{cache: cache, jobsA: ja, jobsB: jb}, nil
}

// pairResult is one run of both campaigns.
type pairResult struct {
	wall    time.Duration
	runWall [2]time.Duration
	digests [2]string
	reports [2]*engine.Report
	jobs    int64
	failed  int64
}

// runPair runs (a) then (b), each with a fresh journal on local disk.
func runPair(dir string, jobsA, jobsB []engine.Job) (*pairResult, error) {
	res := &pairResult{}
	start := time.Now()
	for i, jobs := range [][]engine.Job{jobsA, jobsB} {
		path := filepath.Join(dir, fmt.Sprintf("campaign-%c.jsonl", 'a'+i))
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		j, err := engine.OpenJournal(path)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		rep, err := engine.New(engine.Options{Workers: nproc, Journal: j}).Run(context.Background(), jobs)
		res.runWall[i] = time.Since(t0)
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(data)
		res.digests[i] = hex.EncodeToString(sum[:])
		res.reports[i] = rep
		res.jobs += int64(len(jobs))
		res.failed += int64(len(jobs) - rep.Completed)
	}
	res.wall = time.Since(start)
	return res, nil
}

func checkCampaignJobs(p *pairResult) error {
	if p.failed != 0 {
		var ids []string
		for _, rep := range p.reports {
			if rep != nil {
				ids = append(ids, rep.FailedIDs()...)
			}
		}
		return fmt.Errorf("%d of %d jobs not ok: %v", p.failed, p.jobs, ids)
	}
	return nil
}

// checkJournals compares each pair's journal digests with the first
// pair's and, at the default seed, with the recorded digests.
func checkJournals(seed uint64, pairs []*pairResult) error {
	for i, p := range pairs {
		if p.digests != pairs[0].digests {
			return fmt.Errorf("pair %d journals %v differ from pair 0 %v", i, p.digests, pairs[0].digests)
		}
	}
	if seed == defaultSeed && pairs[0].digests != campaignJournalSHA256 {
		return fmt.Errorf("journals %v, recorded %v", pairs[0].digests, campaignJournalSHA256)
	}
	return nil
}

func runCampaign(r *run) error {
	var setups []float64
	setup := func() (*campaignSetup, error) {
		t0 := time.Now()
		cs, err := newCampaignSetup(r.seed)
		setups = append(setups, time.Since(t0).Seconds())
		return cs, err
	}
	for i := 0; i < campaignSetups; i++ {
		if _, err := setup(); err != nil {
			return err
		}
	}

	var pairs []*pairResult
	start := time.Now()
	for len(pairs) == 0 || (r.trace == nil && !r.deadline(start)) {
		cs, err := setup()
		if err != nil {
			return err
		}
		p, err := runPair(r.tmp, cs.jobsA, cs.jobsB)
		if err != nil {
			return err
		}
		r.tally(p.jobs, p.failed)
		pairs = append(pairs, p)
	}

	if r.trace != nil {
		return traceCampaign(r, pairs)
	}
	walls, rates := make([]float64, len(pairs)), make([]float64, len(pairs))
	for i, p := range pairs {
		walls[i] = p.wall.Seconds()
		rates[i] = float64(p.jobs) / p.wall.Seconds()
	}
	r.set("setup_s", "s", median(setups))
	r.samples["setup_s"] = len(setups)
	r.set("wall_s", "s", median(walls))
	r.samples["wall_s"] = len(walls)
	r.set("ops_per_s", "1/s", median(rates))
	r.samples["ops_per_s"] = len(rates)
	r.note("ops_per_s", "finished campaign jobs per second, (a) 144 saturation + (b) 18 analysis jobs per pair, %d workers", nproc)
	r.note("journals", "%v", pairs[0].digests)
	r.check("campaign.jobs_ok", firstErr(pairs, checkCampaignJobs))
	r.check("campaign.journals", checkJournals(r.seed, pairs))
	return nil
}

func firstErr(pairs []*pairResult, f func(*pairResult) error) error {
	for _, p := range pairs {
		if err := f(p); err != nil {
			return err
		}
	}
	return nil
}

// traceCampaign reruns the pair with a span around every Job.Run, checks
// the traced journals against the plain ones, then times each layer's
// calls in isolation on the same inputs.
func traceCampaign(r *run, plain []*pairResult) error {
	t := r.trace
	cs, err := newCampaignSetup(r.seed)
	if err != nil {
		return err
	}
	wrap := func(jobs []engine.Job, root, groupBase int64) []engine.Job {
		out := make([]engine.Job, len(jobs))
		for i, j := range jobs {
			j, group := j, groupBase+int64(i)
			out[i] = engine.Job{ID: j.ID, Seed: j.Seed, Run: func(ctx context.Context) (any, error) {
				id := t.begin("engine.job", root, group)
				defer t.end(id)
				return j.Run(ctx)
			}}
		}
		return out
	}
	before := cs.cache.Stats()
	rtBefore := readRuntime()
	root := t.begin("campaign.pair", 0, 0)
	traced, err := runPair(r.tmp, wrap(cs.jobsA, root, 1), wrap(cs.jobsB, root, int64(1+len(cs.jobsA))))
	t.end(root)
	if err != nil {
		return err
	}
	rt := readRuntime().sub(rtBefore)
	after := cs.cache.Stats()
	r.tally(traced.jobs, traced.failed)
	r.check("campaign.jobs_ok", firstErr(append(plain, traced), checkCampaignJobs))
	r.check("campaign.journals", checkJournals(r.seed, append(plain, traced)))

	jobTimes := t.durations("engine.job")
	for i := range jobTimes {
		jobTimes[i] *= 1000
	}
	p99, used := tail(jobTimes, 99)
	r.set("engine.job_ms.p50", "ms", median(jobTimes))
	r.set("engine.job_ms.p99", "ms", p99)
	r.samples["engine.job_ms.p99"] = len(jobTimes)
	r.note("engine.job_ms.p99", "percentile %.1f (at least %d samples beyond it)", used, minTail)
	jobSum := t.total("engine.job").Seconds()
	runWall := (traced.runWall[0] + traced.runWall[1]).Seconds()
	r.set("engine.busy_frac", "1", jobSum/(float64(nproc)*runWall))
	r.set("engine.gc_cpu_frac", "1", rt.gcFrac())
	r.set("traced.wall_s", "s", traced.wall.Seconds())
	r.set("traced.ops_per_s", "1/s", float64(traced.jobs)/traced.wall.Seconds())
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	r.set("schedcache.hit_ratio", "1", ratio(float64(hits), float64(hits+misses)))
	r.set("schedcache.constructions", "count", float64(after.Constructions-before.Constructions))
	r.set("schedcache.evictions", "count", float64(after.Evictions-before.Evictions))

	isolated, err := isolateCampaignLayers(r)
	if err != nil {
		return err
	}
	r.set("engine.inner_wait_s", "s", jobSum-isolated)

	// Journal write cost, apart from the pool: append the run's records
	// into a fresh journal.
	path := filepath.Join(r.tmp, "append.jsonl")
	j, err := engine.OpenJournal(path)
	if err != nil {
		return err
	}
	var appends []float64
	for _, rep := range traced.reports {
		for _, rec := range rep.Records {
			var aerr error
			d := t.span("engine.journal_append", 0, int64(rec.Index+1), func() { aerr = j.Append(rec) })
			if aerr != nil {
				return aerr
			}
			appends = append(appends, float64(d.Microseconds()))
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.set("engine.journal_append_us", "us", median(appends))
	r.samples["engine.journal_append_us"] = len(appends)
	r.set("engine.journal_bytes", "B", float64(fi.Size()))
	return nil
}

// isolateCampaignLayers calls each layer's public functions once per
// distinct input of the campaign pair, single-threaded, and returns the
// summed span time the pool's jobs would have spent in those layers.
func isolateCampaignLayers(r *run) (float64, error) {
	t := r.trace
	a, _ := campaignSpecs(r.seed)
	specs, err := a.Expand()
	if err != nil {
		return 0, err
	}
	type point struct{ n, d, at, ar int }
	bases := map[[2]int]*ttdc.Schedule{}
	scheds := map[point]*ttdc.Schedule{}
	kernels := map[point]*ttdc.SaturationKernel{}
	var total time.Duration
	var cells, nodeSlots float64
	for i, sp := range specs {
		bk := [2]int{sp.N, sp.D}
		base, ok := bases[bk]
		if !ok {
			var err error
			total += t.span("core.build", 0, int64(i+1), func() { base, err = ttdc.PolynomialSchedule(sp.N, sp.D) })
			if err != nil {
				return 0, err
			}
			bases[bk] = base
			cells += float64(base.N()) * float64(base.L())
		}
		pk := point{sp.N, sp.D, sp.AlphaT, sp.AlphaR}
		s, ok := scheds[pk]
		if !ok {
			s = base
			if sp.AlphaT != 0 || sp.AlphaR != 0 {
				var err error
				total += t.span("core.construct", 0, int64(i+1), func() {
					s, err = ttdc.Construct(base, ttdc.ConstructOptions{AlphaT: sp.AlphaT, AlphaR: sp.AlphaR, D: sp.D})
				})
				if err != nil {
					return 0, err
				}
			}
			scheds[pk] = s
			total += t.span("core.verify", 0, int64(i+1), func() { ttdc.AvgThroughput(s, sp.D) })
		}
		var g *ttdc.Graph
		total += t.span("topology.build", 0, int64(i+1), func() {
			rng := stats.NewRNG(stats.DeriveSeed(a.Seed, uint64(i)))
			dep := ttdc.RandomGeometric(sp.N, sp.Radius, rng)
			dep.Graph.EnforceMaxDegree(sp.D, rng)
			g = dep.Graph
		})
		k, ok := kernels[pk]
		if !ok {
			var err error
			total += t.span("sim.kernel_build", 0, int64(i+1), func() { k, err = ttdc.NewSaturationKernel(s, g.N()) })
			if err != nil {
				return 0, err
			}
			kernels[pk] = k
		}
		var err error
		total += t.span("sim.saturation", 0, int64(i+1), func() { _, err = k.RunSharded(g, sp.Frames, ttdc.DefaultEnergy(), sp.Shards) })
		if err != nil {
			return 0, err
		}
		nodeSlots += float64(g.N()) * float64(s.L()) * float64(sp.Frames)
	}
	r.set("core.build_s", "s", t.total("core.build").Seconds())
	r.set("core.cells", "count", cells)
	r.set("core.construct_s", "s", t.total("core.construct").Seconds())
	r.set("core.verify_s", "s", t.total("core.verify").Seconds())
	r.set("topology.build_s", "s", t.total("topology.build").Seconds())
	r.set("sim.kernel_build_s", "s", t.total("sim.kernel_build").Seconds())
	r.set("sim.saturation_s", "s", t.total("sim.saturation").Seconds())
	r.set("sim.node_slots", "count", nodeSlots)
	// Campaign (b) verifies the same 18 points again inside the pool, on
	// schedules it finds in the cache; count that verify time once more.
	return (total + t.total("core.verify")).Seconds(), nil
}
