package sim

import (
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/topology"
)

// Scale demonstrations and benchmarks, gated behind TTDC_SCALE: they build
// schedules and CSR topologies far beyond the tier-1 test budget. `make
// bench-scale` runs the benchmarks once each and merges the entries into
// BENCH_sim.json; each entry records GOMAXPROCS, NumCPU, and the process
// peak RSS, so a number taken on an affinity-pinned single-core host
// explains itself.

// readPeakRSSMB returns the process peak resident set (VmHWM) in MiB.
func readPeakRSSMB() (int, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0, false
		}
		kb, err := strconv.Atoi(f[1])
		if err != nil {
			return 0, false
		}
		return kb >> 10, true
	}
	return 0, false
}

// reportScaleMetrics attaches the host context to a scale benchmark entry.
func reportScaleMetrics(b *testing.B) {
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	b.ReportMetric(float64(runtime.NumCPU()), "numcpu")
	if mb, ok := readPeakRSSMB(); ok {
		b.ReportMetric(float64(mb), "peakRSS-MB")
	}
}

func skipUnlessScale(tb testing.TB, what string) {
	tb.Helper()
	if os.Getenv("TTDC_SCALE") == "" {
		tb.Skip("set TTDC_SCALE=1 to run " + what)
	}
}

// TestSaturationScale1M is the million-node milestone: one saturation frame
// at n = 10⁶ on a streamed CSR topology, within an 8 GB peak-RSS budget,
// with the sharded run byte-identical to the sequential one.
func TestSaturationScale1M(t *testing.T) {
	skipUnlessScale(t, "the n=1000000 scale demonstration")
	const n, d = 1_000_000, 4
	start := time.Now()
	s := benchPolySchedule(t, n, d)
	t.Logf("schedule built: n=%d L=%d (%.1fs)", s.N(), s.L(), time.Since(start).Seconds())
	g := topology.Regularish(n, d)
	if !g.IsCompressed() {
		t.Fatal("n=1e6 topology should stream to CSR above topology.DenseLimit")
	}
	t.Logf("topology built: %d nodes, %d edges, CSR (%.1fs)", g.N(), g.EdgeCount(), time.Since(start).Seconds())

	runStart := time.Now()
	seq, err := RunSaturationSharded(g, s, 1, DefaultEnergy(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sequential frame: min=%v avg=%v collisions=%d gap=%d in %.1fs",
		seq.MinLinkPerFrame, seq.AvgLinkPerFrame, seq.CollisionSlots, seq.MaxInterDeliveryGap,
		time.Since(runStart).Seconds())
	if seq.AvgLinkPerFrame <= 0 {
		t.Fatal("scale run delivered nothing")
	}

	runStart = time.Now()
	par, err := RunSaturationSharded(g, s, 1, DefaultEnergy(), -1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sharded frame (per-CPU) in %.1fs", time.Since(runStart).Seconds())
	if !reflect.DeepEqual(par, seq) {
		t.Fatal("sharded n=1e6 frame diverged from the sequential run")
	}

	if mb, ok := readPeakRSSMB(); ok {
		t.Logf("peak RSS: %d MiB", mb)
		if mb > 8192 {
			t.Fatalf("peak RSS %d MiB exceeds the 8 GiB budget", mb)
		}
	}
}

// TestConvergecastScale100k runs the 10⁵-node convergecast grid with the
// kernel fast path and pins shards=1 against shards=N at scale.
func TestConvergecastScale100k(t *testing.T) {
	skipUnlessScale(t, "the n=100000 convergecast scale demonstration")
	const n, d = 100_000, 4
	start := time.Now()
	s := benchPolySchedule(t, n, d)
	g := topology.Grid(250, 400)
	t.Logf("built: L=%d, %d nodes, %d edges (%.1fs)", s.L(), g.N(), g.EdgeCount(), time.Since(start).Seconds())
	k, err := NewConvergecastKernel(g, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConvergecastConfig{Sink: 0, Rate: 0.002, Frames: 2, Seed: 7, Shards: 1}
	runStart := time.Now()
	seq, err := k.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sequential: generated=%d delivered=%d collisions=%d in %.1fs",
		seq.Generated, seq.Delivered, seq.Collisions, time.Since(runStart).Seconds())
	cfg.Shards = -1
	par, err := k.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, seq) {
		t.Fatal("sharded n=1e5 convergecast diverged from the sequential run")
	}
}

// BenchmarkScaleScheduleBuild1M times the set-up layer the saturation
// benchmarks below exclude: the polynomial family and non-sleeping schedule
// at n = 10⁶, D = 4 (L = 289). It runs before them so its peak RSS is the
// build's own.
func BenchmarkScaleScheduleBuild1M(b *testing.B) {
	skipUnlessScale(b, "the n=1000000 schedule build benchmark")
	const n, d = 1_000_000, 4
	for i := 0; i < b.N; i++ {
		if s := benchPolySchedule(b, n, d); s.N() != n {
			b.Fatalf("built n=%d, want %d", s.N(), n)
		}
	}
	reportScaleMetrics(b)
}

// The Shards1/ShardsMax suffix pairs below are recognized by cmd/ttdcbench,
// which derives sequential-vs-sharded speedups into BENCH_sim.json.

func benchScaleSaturation1M(b *testing.B, shards int) {
	skipUnlessScale(b, "the n=1000000 saturation benchmark")
	const n, d = 1_000_000, 4
	s := benchPolySchedule(b, n, d)
	g := topology.Regularish(n, d)
	k, err := NewSaturationKernel(s, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.RunSharded(g, 1, DefaultEnergy(), shards); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportScaleMetrics(b)
}

func BenchmarkScaleSaturation1MShards1(b *testing.B)   { benchScaleSaturation1M(b, 1) }
func BenchmarkScaleSaturation1MShardsMax(b *testing.B) { benchScaleSaturation1M(b, -1) }

func benchScaleConvergecast100k(b *testing.B, shards int) {
	skipUnlessScale(b, "the n=100000 convergecast benchmark")
	const n, d = 100_000, 4
	s := benchPolySchedule(b, n, d)
	g := topology.Grid(250, 400)
	k, err := NewConvergecastKernel(g, s, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ConvergecastConfig{Sink: 0, Rate: 0.002, Frames: 2, Seed: 7, Shards: shards}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportScaleMetrics(b)
}

func BenchmarkScaleConvergecast100kShards1(b *testing.B)   { benchScaleConvergecast100k(b, 1) }
func BenchmarkScaleConvergecast100kShardsMax(b *testing.B) { benchScaleConvergecast100k(b, -1) }
