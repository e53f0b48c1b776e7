package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

func postCampaign(t *testing.T, ts *httptest.Server, doc string) submitResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs status = %d", resp.StatusCode)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

func getStatus(t *testing.T, ts *httptest.Server, id string) statusResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s status = %d", id, resp.StatusCode)
	}
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// awaitDone polls the status endpoint until the run leaves stateRunning.
func awaitDone(t *testing.T, ts *httptest.Server, id string) statusResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State != stateRunning {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s still running after 10s", id)
	return statusResponse{}
}

func TestJobsSubmitAndFetch(t *testing.T) {
	ts := httptest.NewServer(NewHandler(NewService(0), Options{}))
	defer ts.Close()

	sub := postCampaign(t, ts,
		`{"name":"api","n":[9,16],"d":[2],"duty":[{"alphaT":2,"alphaR":4}],"workload":"flood","frames":3,"seed":11}`)
	if sub.Jobs != 2 || sub.Path != "/jobs/"+sub.ID {
		t.Fatalf("submit = %+v", sub)
	}
	st := awaitDone(t, ts, sub.ID)
	if st.State != stateDone {
		t.Fatalf("state = %s, error = %s", st.State, st.Error)
	}
	if len(st.Results) != 2 || len(st.FailedJobs) != 0 {
		t.Fatalf("results = %d, failed = %v", len(st.Results), st.FailedJobs)
	}
	var m engine.Metrics
	if err := json.Unmarshal(st.Results[0].Result, &m); err != nil {
		t.Fatal(err)
	}
	if m.Covered == 0 {
		t.Fatalf("flood metrics = %+v", m)
	}
	if st.Stats.Done != 2 {
		t.Fatalf("stats = %+v", st.Stats)
	}
}

func TestJobsRejectsBadCampaign(t *testing.T) {
	ts := httptest.NewServer(NewHandler(NewService(0), Options{}))
	defer ts.Close()
	for _, doc := range []string{`{"n":[9],"d":[2],"workload":"warp"}`, `{`, `{"n":[],"d":[2]}`} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck // test
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("doc %q: status %d, want 400", doc, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/jobs/c999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing campaign: status %d, want 404", resp.StatusCode)
	}
}

func TestJobsListAndMetrics(t *testing.T) {
	ts := httptest.NewServer(NewHandler(NewService(0), Options{}))
	defer ts.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		sub := postCampaign(t, ts, fmt.Sprintf(`{"n":[9],"d":[2],"workload":"analysis","seed":%d}`, i))
		ids = append(ids, sub.ID)
	}
	for _, id := range ids {
		awaitDone(t, ts, id)
	}
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test
	var list []statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("listed %d campaigns, want 3", len(list))
	}
	for i, st := range list {
		if st.ID != ids[i] {
			t.Errorf("list[%d] = %s, want %s (submission order)", i, st.ID, ids[i])
		}
		if len(st.Results) != 0 {
			t.Errorf("list endpoint leaked %d results", len(st.Results))
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close() //nolint:errcheck // test
	var metrics struct {
		Engine map[string]int64 `json:"engine"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Engine["campaigns"] != 3 || metrics.Engine["jobs_done"] != 3 {
		t.Errorf("engine metrics = %v", metrics.Engine)
	}
}

// TestDrainWaitsForRuns submits a campaign and drains: Drain must block
// until the run finishes and then report it done.
func TestDrainWaitsForRuns(t *testing.T) {
	svc := NewService(0)
	ts := httptest.NewServer(NewHandler(svc, Options{}))
	defer ts.Close()

	sub := postCampaign(t, ts,
		`{"name":"drain","n":[9,16,25],"d":[2],"duty":[{"alphaT":2,"alphaR":4}],"workload":"flood","frames":50,"seed":7}`)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := getStatus(t, ts, sub.ID); st.State == stateRunning {
		t.Fatalf("campaign still running after Drain: %+v", st)
	}
}

// TestDrainCancelledContext drains with an already-cancelled context: the
// in-flight run is aborted rather than awaited, no run is left in
// stateRunning afterwards, and new submissions are refused.
func TestDrainCancelledContext(t *testing.T) {
	svc := NewService(0)
	ts := httptest.NewServer(NewHandler(svc, Options{}))
	defer ts.Close()

	sub := postCampaign(t, ts,
		`{"name":"abort","n":[25],"d":[2,3],"duty":[{"alphaT":2,"alphaR":4},{"alphaT":3,"alphaR":5}],"workload":"flood","frames":5000,"seed":3}`)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Either the run was cancelled (ctx error) or it finished in the gap
	// before Drain observed the cancellation; both leave nothing running.
	if err := svc.Drain(ctx); err != nil && err != context.Canceled {
		t.Fatalf("Drain: %v", err)
	}
	if st := getStatus(t, ts, sub.ID); st.State == stateRunning {
		t.Fatalf("campaign still running after cancelled Drain: %+v", st)
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"n":[9],"d":[2],"workload":"analysis"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit status %d, want 503", resp.StatusCode)
	}
}

// TestJobsEvictOldestFinished submits more campaigns than the table keeps:
// every submission is accepted, the oldest finished runs make room (their
// status answers 404), and the table stays at its bound.
func TestJobsEvictOldestFinished(t *testing.T) {
	ts := httptest.NewServer(NewHandler(NewService(0), Options{}))
	defer ts.Close()
	const extra = 2
	var ids []string
	for i := 0; i < maxStoredRuns+extra; i++ {
		sub := postCampaign(t, ts, fmt.Sprintf(`{"n":[9],"d":[2],"workload":"analysis","seed":%d}`, i))
		awaitDone(t, ts, sub.ID)
		ids = append(ids, sub.ID)
	}
	for _, id := range ids[:extra] {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck // test
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted campaign %s: status %d, want 404", id, resp.StatusCode)
		}
	}
	if st := getStatus(t, ts, ids[extra]); st.State != stateDone {
		t.Errorf("oldest kept campaign %s: state %s", ids[extra], st.State)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close() //nolint:errcheck // test
	var metrics struct {
		Engine map[string]int64 `json:"engine"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Engine["campaigns"] != maxStoredRuns || metrics.Engine["evicted"] != extra {
		t.Errorf("engine metrics = %v, want %d campaigns and %d evicted", metrics.Engine, maxStoredRuns, extra)
	}
}

// TestJobsRefusedOnlyAtRunningCap pins the one refusal besides draining:
// with maxRunningRuns campaigns running, a submission gets 503, and it is
// accepted again as soon as one finishes.
func TestJobsRefusedOnlyAtRunningCap(t *testing.T) {
	svc := NewService(0)
	ts := httptest.NewServer(NewHandler(svc, Options{}))
	defer ts.Close()
	jobs := svc.Jobs()
	jobs.mu.Lock()
	jobs.running = maxRunningRuns // as if that many campaigns were in flight
	jobs.mu.Unlock()

	doc := `{"n":[9],"d":[2],"workload":"analysis"}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit at the running cap: status %d, want 503", resp.StatusCode)
	}

	jobs.mu.Lock()
	jobs.running--
	jobs.mu.Unlock()
	awaitDone(t, ts, postCampaign(t, ts, doc).ID)
}
