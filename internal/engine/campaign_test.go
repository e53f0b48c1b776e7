package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/schedcache"
	"repro/internal/stats"
	"repro/internal/topology"
)

func TestExpandOrderAndCount(t *testing.T) {
	c := &Campaign{
		N:            []int{9, 16},
		D:            []int{2, 3},
		Duty:         []DutyPoint{{}, {AlphaT: 2, AlphaR: 4}},
		Replications: 3,
	}
	specs, err := c.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2*2*2*3 {
		t.Fatalf("expanded to %d jobs, want 24", len(specs))
	}
	// n outermost, then D, then duty, then rep.
	if specs[0].N != 9 || specs[0].D != 2 || specs[0].AlphaT != 0 || specs[0].Rep != 0 {
		t.Fatalf("specs[0] = %+v", specs[0])
	}
	if specs[1].Rep != 1 {
		t.Fatalf("specs[1].Rep = %d, want 1", specs[1].Rep)
	}
	if specs[3].AlphaT != 2 || specs[3].AlphaR != 4 {
		t.Fatalf("specs[3] = %+v", specs[3])
	}
	if specs[12].N != 16 {
		t.Fatalf("specs[12].N = %d, want 16", specs[12].N)
	}
	// IDs are unique.
	seen := make(map[string]bool)
	for _, sp := range specs {
		if seen[sp.ID()] {
			t.Fatalf("duplicate job ID %s", sp.ID())
		}
		seen[sp.ID()] = true
	}
}

func TestJobSeedsMatchDeriveSeed(t *testing.T) {
	c := &Campaign{N: []int{9}, D: []int{2}, Replications: 4, Seed: 99}
	jobs, err := Jobs(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		if want := stats.DeriveSeed(99, uint64(i)); job.Seed != want {
			t.Fatalf("job %d seed = %d, want %d", i, job.Seed, want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		c    Campaign
		want string
	}{
		{"no n", Campaign{D: []int{2}}, "at least one n"},
		{"no d", Campaign{N: []int{9}}, "at least one n and one D"},
		{"n too small", Campaign{N: []int{1}, D: []int{2}}, "outside [2"},
		{"n too large", Campaign{N: []int{MaxCampaignN + 1}, D: []int{2}}, "outside [2"},
		{"bad construction", Campaign{Construction: "magic", N: []int{9}, D: []int{2}}, "unknown construction"},
		{"bad topology", Campaign{Topology: "torus", N: []int{9}, D: []int{2}}, "unknown topology"},
		{"bad workload", Campaign{Workload: "ping", N: []int{9}, D: []int{2}}, "unknown workload"},
		{"bad strategy", Campaign{Strategy: "greedy", N: []int{9}, D: []int{2}}, "strategy"},
		{"half duty", Campaign{N: []int{9}, D: []int{2}, Duty: []DutyPoint{{AlphaT: 2}}}, "both caps"},
		{"negative duty", Campaign{N: []int{9}, D: []int{2}, Duty: []DutyPoint{{AlphaT: -1, AlphaR: -1}}}, "negative duty"},
		{"rate", Campaign{N: []int{9}, D: []int{2}, Rate: 2}, "rate"},
		{"frames", Campaign{N: []int{9}, D: []int{2}, Frames: maxFrames + 1}, "frames"},
		{"radius", Campaign{N: []int{9}, D: []int{2}, Radius: 3}, "radius"},
		{"sink", Campaign{N: []int{9}, D: []int{2}, Sink: -1}, "sink"},
		{"replications", Campaign{N: []int{9}, D: []int{2}, Replications: maxReplications + 1}, "replications"},
		{"too many jobs", Campaign{N: make([]int, 300), D: make([]int, 300), Replications: 10}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "too many jobs" {
				for i := range tc.c.N {
					tc.c.N[i] = 9
				}
				for i := range tc.c.D {
					tc.c.D[i] = 2
				}
			}
			err := tc.c.Validate()
			if err == nil {
				t.Fatal("validated")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestDecodeCampaign(t *testing.T) {
	c, err := DecodeCampaign(strings.NewReader(
		`{"name":"demo","n":[9,16],"d":[2],"duty":[{"alphaT":2,"alphaR":4}],"workload":"flood","seed":5}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "demo" || len(c.N) != 2 || c.Workload != "flood" || c.Seed != 5 {
		t.Fatalf("decoded %+v", c)
	}
	if _, err := DecodeCampaign(strings.NewReader(`{"n":[9],"d":[2],"alphaT":[2]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := DecodeCampaign(strings.NewReader(`{`)); err == nil {
		t.Fatal("truncated document accepted")
	}
	if _, err := DecodeCampaign(strings.NewReader(`{"n":[0],"d":[2]}`)); err == nil {
		t.Fatal("out-of-range n accepted")
	}
}

// TestExecuteJobWorkloads smoke-runs each workload once on a tiny class,
// through the same Jobs path a campaign runs.
func TestExecuteJobWorkloads(t *testing.T) {
	for _, workload := range []string{"analysis", "saturation", "convergecast", "flood"} {
		t.Run(workload, func(t *testing.T) {
			c := &Campaign{N: []int{9}, D: []int{2}, Workload: workload, Frames: 2, Seed: 3}
			jobs, err := Jobs(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			if jobs[0].Seed != stats.DeriveSeed(3, 0) {
				t.Fatalf("job seed = %d", jobs[0].Seed)
			}
			res, err := jobs[0].Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			m := res.(*Metrics)
			if m.L <= 0 {
				t.Fatalf("metrics = %+v", m)
			}
			if workload == "analysis" && m.AvgThroughput == "" {
				t.Fatal("analysis produced no throughput")
			}
			if workload == "flood" && m.Covered == 0 {
				t.Fatal("flood covered nobody")
			}
		})
	}
}

// TestJobsRefuseBadInputs pins the failure paths of a single job: every
// construction is budgeted by the cache's Limits (serving bounds for
// schedcache.New, which is what POST /jobs uses), steiner is refused off
// D = 2, and topology parameters the generators cannot satisfy fail the
// job with a plain error rather than a recovered panic.
func TestJobsRefuseBadInputs(t *testing.T) {
	cases := []struct {
		name  string
		c     Campaign
		cache *schedcache.Cache
		want  string
	}{
		{"tdma over serving budget", Campaign{Construction: "tdma", N: []int{10000}, D: []int{2}}, schedcache.New(0), "exceeds the build budget"},
		{"polynomial over serving budget", Campaign{N: []int{10000}, D: []int{60}}, schedcache.New(0), "exceeds the build budget"},
		{"tdma over serving n bound", Campaign{Construction: "tdma", N: []int{schedcache.MaxN + 1}, D: []int{2}}, schedcache.New(0), "exceeds the serving bound"},
		{"steiner off D=2", Campaign{Construction: "steiner", N: []int{25}, D: []int{3}}, nil, "D = 2 only"},
		{"random D=1", Campaign{N: []int{25}, D: []int{1}, Topology: "random", Workload: "flood"}, nil, "random needs"},
		{"regular nd odd", Campaign{Construction: "tdma", N: []int{25}, D: []int{3}, Workload: "flood"}, nil, "nd odd"},
		{"geometric over dense limit", Campaign{N: []int{topology.DenseLimit + 1}, D: []int{2}, Topology: "geometric", Workload: "flood"}, nil, "dense limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jobs, err := Jobs(&tc.c, tc.cache)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := New(Options{Workers: 1}).Run(context.Background(), jobs)
			if err != nil {
				t.Fatal(err)
			}
			rec := rep.Records[0]
			if rec.Status != StatusFail || !strings.Contains(rec.Error, tc.want) || strings.HasPrefix(rec.Error, "panic") {
				t.Fatalf("record = %+v, want a plain failure mentioning %q", rec, tc.want)
			}
		})
	}
}
