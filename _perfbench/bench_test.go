package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/schedcache"
	"repro/internal/serve"
)

func TestFleetArrivalsDeterministic(t *testing.T) {
	a := fleetArrivals(7, 1, 2000, time.Second, 500)
	b := fleetArrivals(7, 1, 2000, time.Second, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and step gave different arrivals")
	}
	if reflect.DeepEqual(a, fleetArrivals(8, 1, 2000, time.Second, 500)) {
		t.Fatal("different seeds gave identical arrivals")
	}
	if reflect.DeepEqual(a, fleetArrivals(7, 2, 2000, time.Second, 500)) {
		t.Fatal("different steps gave identical arrivals")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Fatalf("%d arrivals in 1s at 2000/s", n)
	}
	posts := 0
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatal("arrivals not in due order")
		}
		if x.post {
			posts++
		}
	}
	if posts == 0 || posts > len(a)/20 {
		t.Fatalf("%d posts of %d arrivals, want about one in %d", posts, len(a), fleetPostEvery)
	}
}

func TestGeneratedModuleDeterministic(t *testing.T) {
	a, b := generateModule(3), generateModule(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different modules")
	}
	c := generateModule(4)
	if reflect.DeepEqual(a.files, c.files) {
		t.Fatal("different seeds gave identical modules")
	}
	if a.packages != c.packages || len(a.want) != len(c.want) {
		t.Fatalf("module size moved with the seed: %d/%d packages, %d/%d findings", a.packages, c.packages, len(a.want), len(c.want))
	}
	seen := map[string]bool{}
	for _, f := range a.want {
		seen[f.analyzer] = true
	}
	for _, p := range plants {
		for _, name := range strings.Split(p.key, "+") {
			if !seen[name] {
				t.Errorf("no planted %s finding", name)
			}
		}
	}
}

// TestGeneratedModuleLintsToPlantedSet runs the real linter over one
// generated module: the findings must be exactly the planted ones.
func TestGeneratedModuleLintsToPlantedSet(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the standard library from source")
	}
	m := generateModule(5)
	root := t.TempDir()
	if err := m.write(root); err != nil {
		t.Fatal(err)
	}
	once, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFindings(m, reported(root, once.result.Findings), once.result.Suppressed); err != nil {
		t.Fatal(err)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{10, 0}, {11, 9}, {100, 90}, {200, 95}, {1000, 99}, {5000, 99}} {
		if got := tailPercentile(tc.n, 99); math.Abs(got-tc.want) > 0.05 {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	for n := 11; n <= 3000; n += 37 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i * 7919) % n)
		}
		v, used := tail(xs, 99)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minTail {
			t.Fatalf("n=%d: p%.1f = %v leaves %d samples beyond it", n, used, v, beyond)
		}
	}
	if v, used := tail([]float64{1, 2, 3}, 99); !math.IsNaN(v) || used != 0 {
		t.Fatalf("3 samples gave a tail (%v at p%v)", v, used)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("got %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{1, 2, 4, 8, 16}); s != 2.625 {
		t.Fatalf("spread %v", s)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 40},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // clipped at the parent's end
		{ID: 5, Parent: 2, Name: "c", Start: 12, End: 14},
		{ID: 6, Name: "open", Start: 5, End: -1},
	}
	self := selfTime(spans)
	want := map[int64]time.Duration{1: 100 - 30 - 10, 2: 20 - 2, 3: 20, 4: 30, 5: 2}
	for id, d := range want {
		if self[id] != d {
			t.Errorf("span %d self time %v, want %v", id, self[id], d)
		}
	}
	if _, ok := self[6]; ok {
		t.Error("an unfinished span got a self time")
	}
	byName := selfTimeByName(spans)
	if math.Abs(byName["a"]-38e-9) > 1e-15 {
		t.Errorf("self time of a = %v", byName["a"])
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	ran := false
	if d := tr.span("x", 0, 0, func() { ran = true }); d != 0 || !ran {
		t.Fatal("nil tracer must run f and record nothing")
	}
	tr = newTracer()
	root := tr.begin("root", 0, 1)
	tr.span("child", root, 1, func() { time.Sleep(time.Millisecond) })
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.total("child") < time.Millisecond {
		t.Fatalf("spans %+v", tr.spans)
	}
}

// TestLatenessCountsFromDue drives three requests due at once through the
// open-loop sender pool against a server that takes 30 ms each: with at
// most nproc in flight, the request that waited for a free sender must
// report its wait in both lateness and latency.
func TestLatenessCountsFromDue(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(30 * time.Millisecond)
		w.WriteHeader(http.StatusNotModified)
	}))
	defer srv.Close()
	rg := &ring{urls: []string{srv.URL}}
	universe := []schedcache.Key{{N: 9, D: 2}}
	arrivals := make([]arrival, nproc+1)
	out := driveStep(srv.Client(), rg, []string{"/schedule"}, universe, arrivals, false,
		&etagStore{m: map[[3]int]string{}}, newBodyStore(), nil, 0)
	lats := make([]time.Duration, len(out))
	var maxLate time.Duration
	for i, o := range out {
		if o.status != http.StatusNotModified {
			t.Fatalf("request %d: status %d %s", i, o.status, o.err)
		}
		lats[i] = o.lat
		maxLate = max(maxLate, o.late)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if lats[len(lats)-1] < 55*time.Millisecond {
		t.Fatalf("the queued request's latency %v does not include its wait for a sender", lats[len(lats)-1])
	}
	if maxLate < 25*time.Millisecond {
		t.Fatalf("max lateness %v, want the queued request's wait", maxLate)
	}
}

func TestLagGrows(t *testing.T) {
	flat := make([]float64, 100)
	growing := make([]float64, 100)
	for i := range growing {
		flat[i] = 1
		growing[i] = float64(i)
	}
	if lagGrows(flat) || !lagGrows(growing) {
		t.Fatal("lagGrows misclassified")
	}
}

// The checks below each fire on a deliberately corrupted output.

func TestCampaignChecksFire(t *testing.T) {
	good := &pairResult{digests: campaignJournalSHA256, jobs: 162}
	if err := checkJournals(defaultSeed, []*pairResult{good, good}); err != nil {
		t.Fatalf("recorded digests rejected: %v", err)
	}
	torn := &pairResult{digests: [2]string{campaignJournalSHA256[0], "0000"}, jobs: 162}
	if checkJournals(defaultSeed, []*pairResult{torn}) == nil {
		t.Error("a journal digest unlike the recorded one passed")
	}
	if checkJournals(2, []*pairResult{good, torn}) == nil {
		t.Error("journals that differ between pairs passed")
	}
	if checkCampaignJobs(&pairResult{failed: 1, jobs: 162}) == nil {
		t.Error("a failed job passed")
	}
}

func TestScaleChecksFire(t *testing.T) {
	if checkDigests("saturation", []string{"x"}, scaleSaturationSHA256) == nil {
		t.Error("a corrupted saturation digest passed")
	}
	if checkDigests("convergecast", []string{"a", "a", "b"}, "") == nil {
		t.Error("digests that differ between runs passed")
	}
	if err := checkDigests("convergecast", []string{"a", "a"}, defaultOnly(9, "zzz")); err != nil {
		t.Errorf("a non-default seed was held to the recorded digest: %v", err)
	}
}

func TestFleetBodyChecksFire(t *testing.T) {
	svc := serve.NewService(4)
	key := schedcache.Key{N: 25, D: 2, AlphaT: 2, AlphaR: 3}
	a, _, err := svc.Artifact(key)
	if err != nil {
		t.Fatal(err)
	}
	wtag, jtag := `"`+a.Digest+`-w"`, `"`+a.Digest+`-j"`
	if err := checkWireBody(key, a.Wire, wtag); err != nil {
		t.Fatalf("good wire body rejected: %v", err)
	}
	if err := checkJSONBody(key, a.JSON, jtag, a.Digest); err != nil {
		t.Fatalf("good JSON body rejected: %v", err)
	}
	flipped := append([]byte(nil), a.Wire...)
	flipped[len(flipped)/2] ^= 0x40
	if checkWireBody(key, flipped, wtag) == nil {
		t.Error("a corrupted wire body passed")
	}
	if checkWireBody(key, a.Wire, jtag) == nil {
		t.Error("a wire body under the wrong ETag passed")
	}
	other := key
	other.AlphaR = 4
	if checkWireBody(other, a.Wire, wtag) == nil || checkJSONBody(other, a.JSON, jtag, a.Digest) == nil {
		t.Error("a body for another key passed")
	}
	if checkJSONBody(key, a.JSON[:len(a.JSON)/2], jtag, a.Digest) == nil {
		t.Error("a truncated JSON body passed")
	}
	if checkJSONBody(key, a.JSON, jtag, "feed") == nil {
		t.Error("a JSON ETag unlike the wire artifact digest passed")
	}
}

func TestFleetPeerAndCampaignChecksFire(t *testing.T) {
	peer := func(body string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, body) }))
	}
	a, b := peer("same"), peer("different")
	defer a.Close()
	defer b.Close()
	client := &http.Client{}
	if err := checkPeersAgree(client, []string{a.URL, a.URL}, "/x"); err != nil {
		t.Fatalf("agreeing peers rejected: %v", err)
	}
	if checkPeersAgree(client, []string{a.URL, b.URL}, "/x") == nil {
		t.Error("peers returning different bytes passed")
	}

	jobs := func(state string, failed []string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(map[string]any{"state": state, "failedJobs": failed})
		}))
	}
	done, failed, broken := jobs("done", nil), jobs("done", []string{"j0"}), jobs("failed", nil)
	defer done.Close()
	defer failed.Close()
	defer broken.Close()
	if err := awaitCampaigns(client, map[string]string{"c1": done.URL}); err != nil {
		t.Fatalf("a done campaign rejected: %v", err)
	}
	if awaitCampaigns(client, map[string]string{"c1": failed.URL}) == nil {
		t.Error("a campaign with failed jobs passed")
	}
	if awaitCampaigns(client, map[string]string{"c1": broken.URL}) == nil {
		t.Error("a campaign that ended failed passed")
	}

	rg := &ring{}
	var r run
	fr := &fleetRun{}
	fr.checks(&r, rg)
	for _, c := range r.checks {
		if !c.OK {
			t.Errorf("clean run failed check %s: %s", c.Name, c.Detail)
		}
	}
	if classify(arrival{post: true}, outcome{status: http.StatusServiceUnavailable}, nil) != true {
		t.Error("a refused campaign did not count as failed")
	}
	if classify(arrival{key: 3, wire: true}, outcome{status: http.StatusOK}, map[[2]int]bool{{3, 1}: true}) != true {
		t.Error("a response whose body failed its check did not count as failed")
	}
}

func TestLintFindingsCheckFires(t *testing.T) {
	m := &genModule{want: []finding{{"a.go", 3, "ratcompare"}, {"b.go", 9, "walltime"}}, suppressed: 1}
	exact := []finding{{"a.go", 3, "ratcompare"}, {"b.go", 9, "walltime"}}
	if err := checkFindings(m, exact, 1); err != nil {
		t.Fatalf("the planted set was rejected: %v", err)
	}
	for name, got := range map[string][]finding{
		"missing": exact[:1],
		"extra":   append(append([]finding(nil), exact...), finding{"c.go", 1, "maporder"}),
		"moved":   {{"a.go", 4, "ratcompare"}, exact[1]},
	} {
		if checkFindings(m, got, 1) == nil {
			t.Errorf("%s findings passed", name)
		}
	}
	if checkFindings(m, exact, 0) == nil {
		t.Error("a lost suppression passed")
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &Spec{EndToEnd: []SpecMetric{{Name: "wall_s", Better: "lower", Bound: 0.1}, {Name: "ops_per_s", Better: "higher", Bound: 0.1}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	mk := func(wall, ops []float64) []*Result {
		var out []*Result
		for i := range wall {
			out = append(out, &Result{Workload: "w", Seed: uint64(i + 1), Metrics: map[string]Metric{
				"wall_s": {Value: wall[i]}, "ops_per_s": {Value: ops[i]},
			}})
		}
		return out
	}
	base := mk([]float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.02, 9.98, 10.01, 9.99}, []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	faster := mk([]float64{8, 8.1, 7.9, 8.05, 7.95, 8, 8.02, 7.98, 8.01, 7.99}, []float64{4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	got := map[string]string{}
	for _, v := range compare(spec, base, faster) {
		got[v.Metric] = v.Outcome
	}
	if got["wall_s"] != "gain" || got["ops_per_s"] != "regression" {
		t.Fatalf("verdicts %v", got)
	}
	noisy := mk([]float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}, []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	for _, v := range compare(spec, noisy, base) {
		if v.Metric == "wall_s" && v.Outcome != "unresolved" {
			t.Fatalf("a spread wider than the bound gave %s", v.Outcome)
		}
		if v.Metric == "ops_per_s" && v.Outcome != "same" {
			t.Fatalf("identical sides gave %s", v.Outcome)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the program in
// step: the workloads, end-to-end and per-layer names it promises are
// the ones the runs print.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if os.IsNotExist(err) {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(wl) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %d", wl, len(workloads))
	}
	var e2e []string
	for _, m := range endToEnd {
		e2e = append(e2e, m.name+"/"+m.unit)
	}
	var got []string
	for _, m := range spec.EndToEnd {
		got = append(got, m.Name+"/"+m.Unit)
	}
	if !reflect.DeepEqual(got, e2e) {
		t.Errorf("end_to_end %v, program prints %v", got, e2e)
	}
	var layers, gotLayers []string
	for _, m := range perLayer() {
		layers = append(layers, m.name+"/"+m.unit)
	}
	for _, m := range spec.PerLayer {
		gotLayers = append(gotLayers, m.Name+"/"+m.Unit)
	}
	if !reflect.DeepEqual(gotLayers, layers) {
		t.Errorf("per_layer %v, program prints %v", gotLayers, layers)
	}
}
