package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	ttdc "repro"
)

// The scale workload: the million-node claim. One saturation frame at
// n = 10^6, D = 4 on a streamed Regularish CSR topology, then a 2-frame
// convergecast on a 250x400 grid. The saturation half is seed-free; the
// workload seed is the convergecast seed.
const (
	scaleN, scaleD   = 1_000_000, 4
	ccRows, ccCols   = 250, 400
	ccRate, ccFrames = 0.002, 2
	// scalePasses is how many times a run builds everything from scratch;
	// setup_s and wall_s are the medians over the passes.
	scalePasses = 3
	// scaleFrames is the least number of warm frames ops_per_s is the
	// median of.
	scaleFrames = 8
)

// Recorded result digests: the saturation frame (every seed, satDigest)
// and the convergecast at the default seed (digestJSON).
const (
	scaleSaturationSHA256   = "2b37d9c28122235de9d47bef5a123154ddc588226a3c53551b1852f218ea451a"
	scaleConvergecastSHA256 = "32a825650759e3221d2ee8b41ffe1ec1cc91fc047eae0c2a36645b8568cc5fe9"
)

type scaleSetup struct {
	s  *ttdc.Schedule
	g  *ttdc.Graph
	k  *ttdc.SaturationKernel
	ck *ttdc.ConvergecastKernel
}

// newScaleSetup builds what a ttdcsim user waits for before the first
// slot: the schedule, both topologies and both kernels.
func newScaleSetup(t *tracer, root int64) (*scaleSetup, error) {
	var ss scaleSetup
	var err error
	t.span("core.build", root, 0, func() { ss.s, err = ttdc.PolynomialSchedule(scaleN, scaleD) })
	if err != nil {
		return nil, err
	}
	var cg *ttdc.Graph
	t.span("topology.build", root, 0, func() { ss.g = ttdc.Regularish(scaleN, scaleD) })
	t.span("topology.build", root, 0, func() { cg = ttdc.Grid(ccRows, ccCols) })
	t.span("sim.kernel_build", root, 0, func() { ss.k, err = ttdc.NewSaturationKernel(ss.s, ss.g.N()) })
	if err != nil {
		return nil, err
	}
	t.span("sim.kernel_build", root, 0, func() { ss.ck, err = ttdc.NewConvergecastKernel(cg, ss.s, 0) })
	return &ss, err
}

func (ss *scaleSetup) frame(shards int) (*ttdc.SaturationResult, error) {
	return ss.k.RunSharded(ss.g, 1, ttdc.DefaultEnergy(), shards)
}

func (ss *scaleSetup) convergecast(seed uint64) (*ttdc.ConvergecastResult, error) {
	return ss.ck.Run(ttdc.ConvergecastConfig{Sink: 0, Rate: ccRate, Frames: ccFrames, Seed: seed, Shards: nproc})
}

func (ss *scaleSetup) nodeSlots() float64 { return float64(ss.g.N()) * float64(ss.s.L()) }

func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// satDigest hashes a saturation result field by field, the per-link
// Delivered map in key order. It replaces a JSON digest, which at
// n = 10^6 costs seconds and hundreds of megabytes per result.
func satDigest(r *ttdc.SaturationResult) string {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	put := func(v uint64) {
		buf = binary.LittleEndian.AppendUint64(buf, v)
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	for _, v := range []int{r.Frames, r.SlotsPerFrame, r.CollisionSlots, r.MaxInterDeliveryGap, len(r.Delivered)} {
		put(uint64(v))
	}
	for _, f := range []float64{r.MinLinkPerFrame, r.AvgLinkPerFrame, r.MinLinkThroughput, r.AvgLinkThroughput,
		r.TotalEnergy, r.EnergyPerDelivery, r.ActiveFraction} {
		put(math.Float64bits(f))
	}
	us := make([]int, 0, len(r.Delivered))
	for u := range r.Delivered {
		us = append(us, u)
	}
	sort.Ints(us)
	var vs []int
	for _, u := range us {
		in := r.Delivered[u]
		vs = vs[:0]
		for v := range in {
			vs = append(vs, v)
		}
		sort.Ints(vs)
		put(uint64(u))
		put(uint64(len(vs)))
		for _, v := range vs {
			put(uint64(v))
			put(uint64(in[v]))
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigests compares every digest with the first and, when want is
// set, with the recorded value.
func checkDigests(what string, got []string, want string) error {
	for i, d := range got {
		if d != got[0] {
			return fmt.Errorf("%s run %d digest %s differs from run 0 %s", what, i, d, got[0])
		}
	}
	if want != "" && (len(got) == 0 || got[0] != want) {
		return fmt.Errorf("%s digest %v, recorded %s", what, got, want)
	}
	return nil
}

// freeMemory drops the previous pass's million-node structures before
// the next one is built, so passes do not stack in the peak RSS.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func runScale(r *run) error {
	if r.trace != nil {
		return traceScale(r)
	}
	var setups, walls []float64
	var satDigests, ccDigests []string
	var ss *scaleSetup
	start := time.Now()
	for p := 0; p < scalePasses; p++ {
		ss = nil
		freeMemory()
		t0 := time.Now()
		var err error
		if ss, err = newScaleSetup(nil, 0); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		sat, err := ss.frame(nproc)
		if err != nil {
			return err
		}
		cc, err := ss.convergecast(r.seed)
		if err != nil {
			return err
		}
		walls = append(walls, time.Since(t0).Seconds())
		satDigests = append(satDigests, satDigest(sat))
		ccDigests = append(ccDigests, digestJSON(cc))
		r.tally(2, 0)
	}
	freeMemory()

	// The kernel rate on warm frames: until --seconds have passed since the
	// first pass began, and at least scaleFrames of them.
	var rates []float64
	var sat *ttdc.SaturationResult
	for len(rates) < scaleFrames || !r.deadline(start) {
		t0 := time.Now()
		var err error
		if sat, err = ss.frame(nproc); err != nil {
			return err
		}
		rates = append(rates, ss.nodeSlots()/time.Since(t0).Seconds())
		r.tally(1, 0)
	}
	satDigests = append(satDigests, satDigest(sat))
	r.set("setup_s", "s", median(setups))
	r.samples["setup_s"] = len(setups)
	r.set("wall_s", "s", median(walls))
	r.samples["wall_s"] = len(walls)
	r.set("ops_per_s", "1/s", median(rates))
	r.samples["ops_per_s"] = len(rates)
	r.note("ops_per_s", "node-slots per second of the n=%d L=%d saturation kernel at %d shards", scaleN, ss.s.L(), nproc)
	r.note("digests", "saturation %s convergecast %s", satDigests[0], ccDigests[0])
	r.check("scale.saturation_digest", checkDigests("saturation", satDigests, scaleSaturationSHA256))
	r.check("scale.convergecast_digest", checkDigests("convergecast", ccDigests, defaultOnly(r.seed, scaleConvergecastSHA256)))
	return nil
}

// defaultOnly returns want at the default seed and "" (no recorded value)
// at every other seed.
func defaultOnly(seed uint64, want string) string {
	if seed == defaultSeed {
		return want
	}
	return ""
}

// traceScale runs one pass with spans around every build and kernel call,
// then the same frame at shards=1 and shards=nproc.
func traceScale(r *run) error {
	t := r.trace
	root := t.begin("scale.pass", 0, 0)
	ss, err := newScaleSetup(t, root)
	if err != nil {
		return err
	}
	var sat *ttdc.SaturationResult
	t.span("sim.saturation", root, 0, func() { sat, err = ss.frame(nproc) })
	if err != nil {
		return err
	}
	var cc *ttdc.ConvergecastResult
	t.span("sim.convergecast", root, 0, func() { cc, err = ss.convergecast(r.seed) })
	if err != nil {
		return err
	}
	wall := t.end(root)
	r.tally(2, 0)
	r.set("traced.wall_s", "s", wall.Seconds())
	r.set("core.build_s", "s", t.total("core.build").Seconds())
	r.set("core.cells", "count", ss.nodeSlots())
	r.set("topology.build_s", "s", t.total("topology.build").Seconds())
	r.set("sim.kernel_build_s", "s", t.total("sim.kernel_build").Seconds())
	r.set("sim.saturation_s", "s", t.total("sim.saturation").Seconds())
	r.set("sim.node_slots", "count", ss.nodeSlots())
	r.set("sim.convergecast_s", "s", t.total("sim.convergecast").Seconds())
	r.set("traced.setup_s", "s", (t.total("core.build") + t.total("topology.build") + t.total("sim.kernel_build")).Seconds())

	// The convergecast alone, repeated so the runtime's GC CPU accounting
	// (refreshed at GC cycles) covers several cycles.
	ccDigests := []string{digestJSON(cc)}
	rtBefore := readRuntime()
	for i := 0; i < 5; i++ {
		cc, err := ss.convergecast(r.seed)
		if err != nil {
			return err
		}
		ccDigests = append(ccDigests, digestJSON(cc))
		r.tally(1, 0)
	}
	rt := readRuntime().sub(rtBefore)
	r.set("sim.convergecast_gc_frac", "1", rt.gcFrac())
	r.set("sim.convergecast_alloc_mb", "MB", rt.allocBytes/(1<<20))

	// Shard speedup on the same frame, and shards=1 == shards=nproc.
	var one, many []float64
	var seq, par *ttdc.SaturationResult
	for i := 0; i < 3; i++ {
		d := t.span("sim.saturation.shards1", 0, 0, func() { seq, err = ss.frame(1) })
		if err != nil {
			return err
		}
		one = append(one, d.Seconds())
		d = t.span("sim.saturation.shardsN", 0, 0, func() { par, err = ss.frame(nproc) })
		if err != nil {
			return err
		}
		many = append(many, d.Seconds())
		r.tally(2, 0)
	}
	r.set("sim.shard_speedup", "x", median(one)/median(many))
	r.note("sim.shard_speedup", "median of 3 frames at shards=1 over shards=%d (nproc=%d)", nproc, nproc)
	r.set("traced.ops_per_s", "1/s", ss.nodeSlots()/median(many))
	var shardErr error
	if !reflect.DeepEqual(seq, par) {
		shardErr = fmt.Errorf("shards=1 result differs from shards=%d", nproc)
	}
	r.check("scale.shards_equal", shardErr)
	r.check("scale.saturation_digest", checkDigests("saturation", []string{satDigest(sat), satDigest(seq), satDigest(par)}, scaleSaturationSHA256))
	r.check("scale.convergecast_digest", checkDigests("convergecast", ccDigests, defaultOnly(r.seed, scaleConvergecastSHA256)))
	return nil
}
