package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Spec is the part of BENCHMARK.json the comparison needs.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one metric of BENCHMARK.json.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadResults reads every untraced result file in dir.
func loadResults(dir string) ([]*Result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	var out []*Result
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r Result
		if err := json.Unmarshal(data, &r); err != nil || r.Workload == "" {
			continue // not a result file
		}
		if !r.Trace {
			out = append(out, &r)
		}
	}
	return out, nil
}

// Side summarizes one result set for one (workload, metric) pair.
type Side struct {
	Values         []float64
	Median, Q1, Q3 float64
	Spread         float64 // (Q3-Q1)/median
}

func summarize(vals []float64) Side {
	q1, q2, q3 := quartiles(vals)
	return Side{Values: vals, Median: q2, Q1: q1, Q3: q3, Spread: spread(vals)}
}

// Verdict is the comparison of one (workload, metric) pair under the
// paired-run rule for a small, noisy host: a gain needs the new side to
// win at least nine tenths of the seed-paired runs and to move the median
// by more than the old side's interquartile distance; a regression is a
// median worse by more than the metric's bound; a pair whose spread
// exceeds the bound is unresolved unless every new run beats (or loses
// to) every old run.
type Verdict struct {
	Workload, Metric string
	Old, New         Side
	Pairs, Wins      int
	Bound            float64
	Outcome          string // gain | regression | same | unresolved | missing
}

func compare(spec *Spec, old, cur []*Result) []Verdict {
	type key struct{ wl, metric string }
	collect := func(rs []*Result) map[key]map[uint64]float64 {
		m := map[key]map[uint64]float64{}
		for _, r := range rs {
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				if m[k] == nil {
					m[k] = map[uint64]float64{}
				}
				m[k][r.Seed] = v.Value
			}
		}
		return m
	}
	om, nm := collect(old), collect(cur)
	var out []Verdict
	for _, wl := range spec.Workloads {
		for _, sm := range spec.EndToEnd {
			k := key{wl.Name, sm.Name}
			v := Verdict{Workload: wl.Name, Metric: sm.Name, Bound: sm.Bound}
			ov, nv := om[k], nm[k]
			if len(ov) == 0 || len(nv) == 0 {
				v.Outcome = "missing"
				out = append(out, v)
				continue
			}
			v.Old, v.New = summarize(values(ov)), summarize(values(nv))
			higher := sm.Better == "higher"
			better := func(a, b float64) bool { // a better than b
				if higher {
					return a > b
				}
				return a < b
			}
			for seed, o := range ov {
				if n, ok := nv[seed]; ok {
					v.Pairs++
					if better(n, o) {
						v.Wins++
					}
				}
			}
			v.Outcome = decide(v, better)
			out = append(out, v)
		}
	}
	return out
}

func decide(v Verdict, better func(a, b float64) bool) string {
	allBetter, allWorse := true, true
	for _, n := range v.New.Values {
		for _, o := range v.Old.Values {
			allBetter = allBetter && better(n, o)
			allWorse = allWorse && better(o, n)
		}
	}
	worseBy := (v.New.Median - v.Old.Median) / math.Abs(v.Old.Median)
	if better(1, 0) { // higher is better: a drop is worse
		worseBy = -worseBy
	}
	switch {
	case v.Pairs > 0 && float64(v.Wins) >= 0.9*float64(v.Pairs) &&
		better(v.New.Median, v.Old.Median) && math.Abs(v.New.Median-v.Old.Median) > v.Old.Q3-v.Old.Q1:
		return "gain"
	case v.Old.Spread > v.Bound || v.New.Spread > v.Bound:
		if allBetter {
			return "gain"
		}
		if allWorse {
			return "regression"
		}
		return "unresolved"
	case worseBy > v.Bound:
		return "regression"
	}
	return "same"
}

func values(m map[uint64]float64) []float64 {
	seeds := make([]uint64, 0, len(m))
	for s := range m {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	out := make([]float64, len(seeds))
	for i, s := range seeds {
		out[i] = m[s]
	}
	return out
}

// compareMain prints one row per (workload, metric) and fails when any
// pair regressed.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: perfbench compare [--spec BENCHMARK.json] <old results> <new results>")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	old, err := loadResults(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := loadResults(fs.Arg(1))
	if err != nil {
		return err
	}
	for _, side := range []struct {
		name string
		rs   []*Result
	}{{"old", old}, {"new", cur}} {
		hosts := map[string]bool{}
		for _, r := range side.rs {
			hosts[fmt.Sprintf("%s x%d go=%s rev=%s", r.Host.CPUModel, r.Host.NumCPU, r.Host.GoVersion, r.Host.Rev)] = true
		}
		fmt.Fprintf(w, "# %s: %d runs on %s\n", side.name, len(side.rs), strings.Join(sortedKeys(hosts), "; "))
	}
	verdicts := compare(spec, old, cur)
	fmt.Fprintf(w, "%-10s %-12s %12s %8s %12s %8s %9s %6s  %s\n", "workload", "metric", "old median", "spread", "new median", "spread", "wins", "bound", "verdict")
	regressed := 0
	for _, v := range verdicts {
		if v.Outcome == "missing" {
			fmt.Fprintf(w, "%-10s %-12s %s\n", v.Workload, v.Metric, "missing on one side")
			continue
		}
		fmt.Fprintf(w, "%-10s %-12s %12.6g %8.3f %12.6g %8.3f %4d/%-4d %6.2f  %s\n",
			v.Workload, v.Metric, v.Old.Median, v.Old.Spread, v.New.Median, v.New.Spread, v.Wins, v.Pairs, v.Bound, v.Outcome)
		if v.Outcome == "regression" {
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (workload, metric) pairs regressed", regressed)
	}
	return nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
