package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/lint"
)

// lintSetups is how many times a run times loader creation, a
// sub-millisecond step whose median needs many samples to be steady.
const lintSetups = 1000

// lintOnce is one full ttdclint-style pass: load and type-check the tree,
// then run every analyzer.
type lintOnce struct {
	pkgs   []*lint.Package
	result lint.Result
	wall   time.Duration
}

func lintModule(root string) (*lintOnce, error) {
	t0 := time.Now()
	loader, err := lint.NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadTree(root, true)
	if err != nil {
		return nil, err
	}
	res := lint.LintAll(pkgs, lint.All())
	return &lintOnce{pkgs: pkgs, result: res, wall: time.Since(t0)}, nil
}

// reported turns diagnostics into findings relative to the module root.
func reported(root string, diags []lint.Diagnostic) []finding {
	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		out = append(out, finding{filepath.ToSlash(rel), d.Pos.Line, d.Analyzer})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// checkFindings requires the reported findings to equal the planted set
// exactly, and the suppression count to match the planted suppressions.
func checkFindings(m *genModule, got []finding, suppressed int) error {
	want := map[string]bool{}
	for _, f := range m.want {
		want[f.String()] = true
	}
	var missing, extra []string
	have := map[string]bool{}
	for _, f := range got {
		have[f.String()] = true
		if !want[f.String()] {
			extra = append(extra, f.String())
		}
	}
	for _, f := range m.want {
		if !have[f.String()] {
			missing = append(missing, f.String())
		}
	}
	if len(missing)+len(extra) > 0 || len(got) != len(m.want) {
		return fmt.Errorf("findings differ from the planted set: missing %v, unexpected %v (%d reported, %d planted)",
			missing, extra, len(got), len(m.want))
	}
	if suppressed != m.suppressed {
		return fmt.Errorf("%d findings suppressed, %d suppressions planted", suppressed, m.suppressed)
	}
	return nil
}

func runLint(r *run) error {
	mod := generateModule(r.seed)
	root, err := filepath.Abs(filepath.Join(r.tmp, "lintmod"))
	if err != nil {
		return err
	}
	if err := mod.write(root); err != nil {
		return err
	}
	if r.trace != nil {
		return traceLint(r, mod, root)
	}
	var setups []float64
	for i := 0; i < lintSetups; i++ {
		t0 := time.Now()
		if _, err := lint.NewLoader(root); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var walls, rates []float64
	var checkErr error
	start := time.Now()
	for len(walls) == 0 || !r.deadline(start) {
		once, err := lintModule(root)
		if err != nil {
			r.tally(1, 1)
			return err
		}
		r.tally(1, 0)
		walls = append(walls, once.wall.Seconds())
		rates = append(rates, float64(len(once.pkgs))/once.wall.Seconds())
		if err := checkFindings(mod, reported(root, once.result.Findings), once.result.Suppressed); err != nil && checkErr == nil {
			checkErr = err
		}
	}
	r.set("setup_s", "s", median(setups))
	r.samples["setup_s"] = len(setups)
	r.set("wall_s", "s", median(walls))
	r.samples["wall_s"] = len(walls)
	r.set("ops_per_s", "1/s", median(rates))
	r.samples["ops_per_s"] = len(rates)
	r.note("ops_per_s", "packages loaded, type-checked and linted per second (%d packages, %d planted findings)", mod.packages, len(mod.want))
	r.check("lint.findings", checkErr)
	return nil
}

// traceLint splits one pass into its layers: loader creation, LoadTree,
// BuildProgram, and each analyzer on its own.
func traceLint(r *run, mod *genModule, root string) error {
	t := r.trace
	pass := t.begin("lint.pass", 0, 0)
	var loader *lint.Loader
	var err error
	t.span("lint.loader", pass, 0, func() { loader, err = lint.NewLoader(root) })
	if err != nil {
		return err
	}
	var pkgs []*lint.Package
	t.span("lint.load", pass, 0, func() { pkgs, err = loader.LoadTree(root, true) })
	if err != nil {
		return err
	}
	var res lint.Result
	t.span("lint.lint_all", pass, 0, func() { res = lint.LintAll(pkgs, lint.All()) })
	wall := t.end(pass)
	r.tally(1, 0)
	r.check("lint.findings", checkFindings(mod, reported(root, res.Findings), res.Suppressed))

	t.span("lint.program", 0, 0, func() { lint.BuildProgram(pkgs) })
	perAnalyzer := map[string]int{}
	for _, a := range lint.All() {
		var diags []lint.Diagnostic
		d := t.span("lint.analyzer."+a.Name, 0, 0, func() { diags = lint.Lint(pkgs, []*lint.Analyzer{a}) })
		r.set("lint.analyzer_s."+a.Name, "s", d.Seconds())
		for _, f := range reported(root, diags) {
			if f.analyzer == a.Name {
				perAnalyzer[a.Name]++
			}
		}
	}
	var unseen []string
	for _, a := range lint.All() {
		if perAnalyzer[a.Name] == 0 {
			unseen = append(unseen, a.Name)
		}
	}
	var unseenErr error
	if len(unseen) > 0 {
		unseenErr = fmt.Errorf("analyzers with no finding when run alone: %s", strings.Join(unseen, ", "))
	}
	r.check("lint.every_analyzer_fires", unseenErr)
	r.set("lint.load_s", "s", t.total("lint.load").Seconds())
	r.set("lint.program_s", "s", t.total("lint.program").Seconds())
	r.set("lint.packages", "count", float64(len(pkgs)))
	r.set("lint.findings", "count", float64(len(res.Findings)))
	r.set("traced.setup_s", "s", t.total("lint.loader").Seconds())
	r.set("traced.wall_s", "s", wall.Seconds())
	r.set("traced.ops_per_s", "1/s", float64(len(pkgs))/wall.Seconds())
	return nil
}
