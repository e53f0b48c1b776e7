// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload per process, checks the workload's outputs, and prints
// one JSON result object as the last line of standard output:
//
//	perfbench --workload campaign --seed 1 --seconds 10 --trace 0
//	perfbench compare <results-A> <results-B>
//
// With --trace 0 the result carries the end-to-end metrics (every
// workload reports every one of them). With --trace 1 the same workload
// runs with spans recorded around the calls into each layer, and the
// result carries the per-layer metrics. Every run also writes a result
// file stamped with the host (see host.go) under .bench_build/results/.
// BENCHMARK.md beside this file explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// nproc caps every pool the benchmark sizes: engine workers, sim shards,
// load-generator senders and requests in flight. More than the CPU count
// only measures scheduler queueing.
var nproc = runtime.NumCPU()

// Metric is one named figure of a result.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line is the last line of standard output, the contract with whoever
// drives the benchmark.
type Line struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Check is one output check and its verdict.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Result is the result file of one run: the printed line plus the host
// stamp, sample counts, checks and (traced runs) the spans.
type Result struct {
	Host      Host               `json:"host"`
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]Metric  `json:"metrics"`
	Samples   map[string]int     `json:"samples,omitempty"`
	Notes     map[string]string  `json:"notes,omitempty"`
	Checks    []Check            `json:"checks"`
	SelfTime  map[string]float64 `json:"self_time_s,omitempty"`
	Spans     []Span             `json:"spans,omitempty"`
}

// run is the state one workload fills in.
type run struct {
	seed    uint64
	seconds time.Duration
	trace   *tracer // nil when --trace 0
	// capacity runs the fleet mix closed loop to measure its capacity.
	capacity bool
	tmp      string // scratch directory inside the checkout

	attempted, failed int64
	metrics           map[string]Metric
	samples           map[string]int
	notes             map[string]string
	checks            []Check
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = Metric{Value: v, Unit: unit} }

func (r *run) note(name, format string, args ...any) { r.notes[name] = fmt.Sprintf(format, args...) }

// check records an output check; a failed check makes the run incorrect.
func (r *run) check(name string, err error) {
	c := Check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
	}
	r.checks = append(r.checks, c)
}

// tally counts attempted and failed operations.
func (r *run) tally(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// deadline reports whether a measuring loop started at start has run its
// --seconds; every loop makes at least one pass.
func (r *run) deadline(start time.Time) bool { return time.Since(start) >= r.seconds }

// workloads maps each name to its runner. End-to-end runs report
// endToEnd; traced runs report the per-layer names.
var workloads = map[string]func(*run) error{
	"campaign": runCampaign,
	"scale":    runScale,
	"fleet":    runFleet,
	"lint":     runLint,
}

// endToEnd names the metrics every untraced run reports, with units.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	if err := benchMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "campaign | scale | fleet | lint")
		seed     = fs.Uint64("seed", 1, "workload seed")
		seconds  = fs.Int("seconds", 10, "how long the measuring loop runs")
		traceOn  = fs.Int("trace", 0, "1 records per-layer spans and reports per-layer metrics")
		out      = fs.String("out", "", "result file (default .bench_build/results/<workload>-s<seed>-t<trace>.json)")
		capacity = fs.Bool("capacity", false, "fleet only: measure the closed-loop capacity of the mix at nproc in flight")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	tmp, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), *workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	r := &run{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, tmp: tmp, capacity: *capacity,
		metrics: map[string]Metric{}, samples: map[string]int{}, notes: map[string]string{},
	}
	if *traceOn == 1 {
		r.trace = newTracer()
		for _, m := range perLayer() {
			r.set(m.name, m.unit, 0) // layers a workload does not touch report 0 work
		}
	}
	before := readRuntime()
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	if r.trace != nil {
		rt := readRuntime().sub(before)
		r.set("runtime.gc_cpu_frac", "1", rt.gcFrac())
		r.set("runtime.alloc_mb", "MB", rt.allocBytes/(1<<20))
		r.set("runtime.allocs", "count", rt.allocObjects)
		r.set("failed_frac", "1", ratio(float64(r.failed), float64(r.attempted)))
	} else if !r.capacity {
		r.set("peak_rss_mb", "MB", peakRSSMB())
		for _, m := range endToEnd {
			if _, ok := r.metrics[m.name]; !ok {
				return fmt.Errorf("%s: end-to-end metric %s not measured", *workload, m.name)
			}
		}
	}

	res := &Result{
		Host: stampHost(*seed), Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: r.trace != nil,
		Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics,
		Samples: r.samples, Notes: r.notes, Checks: r.checks, Correct: len(r.checks) > 0,
	}
	for _, c := range r.checks {
		res.Correct = res.Correct && c.OK
		if !c.OK {
			fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %s\n", c.Name, c.Detail)
		}
	}
	if r.trace != nil {
		res.Spans = r.trace.spans
		res.SelfTime = selfTimeByName(r.trace.spans)
	}
	if *out == "" {
		*out = filepath.Join(".bench_build", "results", fmt.Sprintf("%s-s%d-t%d.json", *workload, *seed, *traceOn))
	}
	if err := writeResult(*out, res); err != nil {
		return err
	}
	printHuman(stdout, res)
	line, err := json.Marshal(Line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func writeResult(path string, res *Result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printHuman writes the metrics by name and unit, one per line, before the
// machine-readable last line.
func printHuman(w io.Writer, res *Result) {
	fmt.Fprintf(w, "# %s seed=%d trace=%v host=%q cpus=%d gomaxprocs=%d go=%s rev=%s\n",
		res.Workload, res.Seed, res.Trace, res.Host.CPUModel, res.Host.NumCPU, res.Host.GOMAXPROCS, res.Host.GoVersion, res.Host.Rev)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		extra := ""
		if s, ok := res.Samples[n]; ok {
			extra = fmt.Sprintf("  (n=%d)", s)
		}
		fmt.Fprintf(w, "%-34s %14.6g %s%s\n", n, m.Value, m.Unit, extra)
	}
	for _, c := range res.Checks {
		fmt.Fprintf(w, "check %-30s ok=%v %s\n", c.Name, c.OK, c.Detail)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d failed_frac=%.6g\n", res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
