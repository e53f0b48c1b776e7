package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/schedcache"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/wire"
)

// The fleet workload: an in-process 3-peer ring wired the way
// `ttdcload -inproc` wires it, driven open loop at three fixed offered
// rates. The mix is a guess (the repository has no production traffic):
// GET /schedule keys drawn zipf from a universe with a hot head and a cold
// tail large enough that misses, builds and artifact-LRU evictions keep
// happening; half wire bodies, half JSON; clients revalidate with ETags;
// uniform entry peer; one request in fleetPostEvery is a POST /jobs
// carrying a tiny analysis campaign.
const (
	fleetPeers     = 3
	fleetCacheCap  = 128 // per-peer schedule and artifact entries
	fleetClients   = 16  // simulated clients, each with its own ETag memory
	fleetPostEvery = 50
	fleetZipfS     = 1.1
	// fleetP99LimitMs is the latency limit a step's p99 must meet, failed
	// and refused requests counting as misses.
	fleetP99LimitMs = 100.0
	// fleetBoots is how many times a run boots and warms the ring;
	// setup_s is the median.
	fleetBoots = 3
)

// fleetCapacity is the closed-loop capacity of this mix at nproc requests
// in flight, measured once with --capacity on the host named in
// BENCHMARK.md. The offered rates are fixed shares of it, so a faster
// program is not offered more load.
const fleetCapacity = 11000.0

var fleetSteps = []struct {
	name string
	rate float64 // requests per second
}{
	{"low", 0.2 * fleetCapacity},
	{"mid", 0.5 * fleetCapacity},
	{"high", 0.8 * fleetCapacity},
}

// fleetUniverse is the key universe in popularity order: the hot head is
// ttdcload's small-class lattice, the cold tail a wider lattice of duty
// points over classes up to n = 64, whose builds cost about a millisecond
// each. Each peer owns about a third of the tail, more than its
// fleetCacheCap entries, so misses and evictions continue throughout.
func fleetUniverse() []schedcache.Key {
	var keys []schedcache.Key
	strategies := []core.DivisionStrategy{core.Sequential, core.Balanced}
	for _, c := range []struct{ n, d int }{{9, 2}, {16, 2}, {25, 2}, {49, 2}, {25, 3}} {
		keys = append(keys, schedcache.Key{N: c.n, D: c.d})
		for at := 1; at <= 3; at++ {
			for ar := 1; ar <= 4; ar++ {
				for _, s := range strategies {
					keys = append(keys, schedcache.Key{N: c.n, D: c.d, AlphaT: at, AlphaR: ar, Strategy: s})
				}
			}
		}
	}
	keys = keys[:64]
	for _, n := range []int{16, 20, 25, 30, 36} {
		for _, d := range []int{2, 3} {
			keys = append(keys, schedcache.Key{N: n, D: d})
			for at := 1; at <= 4; at++ {
				for ar := 2; ar <= 8; ar++ {
					for _, s := range strategies {
						keys = append(keys, schedcache.Key{N: n, D: d, AlphaT: at, AlphaR: ar, Strategy: s})
					}
				}
			}
		}
	}
	return keys
}

// arrival is one scheduled request of the open loop.
type arrival struct {
	due    time.Duration // since the step started
	post   bool          // POST /jobs instead of GET /schedule
	key    int           // universe index
	peer   int           // entry peer
	wire   bool          // ask for the binary body
	client int           // whose ETag memory revalidates
}

// fleetArrivals draws a step's arrivals: Poisson at rate for dur, keys
// zipf over n, everything else uniform. The same seed and step give the
// same arrivals.
func fleetArrivals(seed uint64, step int, rate float64, dur time.Duration, n int) []arrival {
	rng := stats.NewRNG(stats.DeriveSeed(seed, uint64(0xf1ee7+step)))
	cdf := zipfCDF(n, fleetZipfS)
	var out []arrival
	at := 0.0
	for {
		at += rng.Exp(rate)
		due := time.Duration(at * float64(time.Second))
		if due >= dur {
			return out
		}
		a := arrival{due: due, peer: rng.Intn(fleetPeers), wire: rng.Intn(2) == 0, client: rng.Intn(fleetClients)}
		a.post = rng.Intn(fleetPostEvery) == 0
		u := rng.Float64()
		a.key = sort.SearchFloat64s(cdf, u)
		if a.key >= n {
			a.key = n - 1
		}
		out = append(out, a)
	}
}

func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// ring is a booted in-process fleet.
type ring struct {
	urls     []string
	servers  []*httptest.Server
	services []*serve.Service
	fwds     []*shard.Forwarder
}

func bootRing() (*ring, error) {
	type holder struct {
		mu sync.Mutex
		h  http.Handler
	}
	rg := &ring{}
	holders := make([]*holder, fleetPeers)
	for i := range holders {
		hd := &holder{}
		holders[i] = hd
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hd.mu.Lock()
			h := hd.h
			hd.mu.Unlock()
			h.ServeHTTP(w, r)
		}))
		rg.servers = append(rg.servers, srv)
		rg.urls = append(rg.urls, srv.URL)
	}
	for i := range holders {
		f, err := shard.NewForwarder(shard.Config{Self: rg.urls[i], Peers: rg.urls})
		if err != nil {
			rg.close()
			return nil, err
		}
		svc := serve.NewService(fleetCacheCap)
		rg.fwds = append(rg.fwds, f)
		rg.services = append(rg.services, svc)
		holders[i].mu.Lock()
		holders[i].h = serve.NewHandler(svc, serve.Options{Forwarder: f})
		holders[i].mu.Unlock()
	}
	return rg, nil
}

// close waits for accepted campaigns, then stops the servers.
func (rg *ring) close() {
	for _, svc := range rg.services {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		// A drain that times out cancels the runs it waited for; the
		// campaigns_done check has already looked at every accepted run.
		_ = svc.Drain(ctx)
		cancel()
	}
	for _, s := range rg.servers {
		s.Close()
	}
}

// fleetClient is the benchmark's HTTP side: nproc connections per peer
// at most, since at most nproc requests are in flight.
func newFleetClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc},
	}
}

// fleetWarmup is how long the closed-loop part of the warm-up runs.
const fleetWarmup = time.Second

// warm fetches every hot-head key once through every peer in both
// representations, then runs the mix closed loop for fleetWarmup with a
// warm-up seed, so the timed steps start with open connections, filled
// caches and clients that already hold ETags, as a running fleet would.
func warm(client *http.Client, rg *ring, paths []string, universe []schedcache.Key, etags *etagStore) error {
	for _, p := range paths[:64] {
		for _, u := range rg.urls {
			for _, accept := range []string{serve.WireContentType, serve.JSONContentType} {
				req, err := http.NewRequest(http.MethodGet, u+p, nil)
				if err != nil {
					return err
				}
				req.Header.Set("Accept", accept)
				resp, err := client.Do(req)
				if err != nil {
					return err
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil {
					return fmt.Errorf("warm-up %s%s: %w", u, p, err)
				}
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("warm-up %s%s: status %d", u, p, resp.StatusCode)
				}
			}
		}
	}
	arrivals := fleetArrivals(0x3a73, 0, 1e5, fleetWarmup, len(universe))
	for i := range arrivals {
		arrivals[i].post = false // campaigns would count against the jobs table
	}
	for _, o := range driveStep(client, rg, paths, universe, arrivals, true, etags, newBodyStore(), nil, 0) {
		if o.err != "" || (o.status != 0 && o.status != http.StatusOK && o.status != http.StatusNotModified) {
			return fmt.Errorf("warm-up: status %d %s", o.status, o.err)
		}
	}
	return nil
}

// outcome is what one request did.
type outcome struct {
	late, lat  time.Duration // send start and completion, both since due
	status     int
	err        string
	forwarded  bool
	campaignID string
}

// etagStore is the clients' revalidation memory: client x key x repr.
type etagStore struct {
	mu sync.Mutex
	m  map[[3]int]string
}

func (s *etagStore) get(k [3]int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[k]
}

func (s *etagStore) put(k [3]int, v string) {
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

// bodyStore keeps the first body of every (key, repr) for verification
// after the step, and every distinct body digest seen for it.
type bodyStore struct {
	mu     sync.Mutex
	first  map[[2]int][]byte
	sums   map[[2]int]map[[32]byte]bool
	etags  map[[2]int]map[string]bool
	sample map[[2]int]string // one peer URL that served it
}

func newBodyStore() *bodyStore {
	return &bodyStore{first: map[[2]int][]byte{}, sums: map[[2]int]map[[32]byte]bool{}, etags: map[[2]int]map[string]bool{}, sample: map[[2]int]string{}}
}

func (b *bodyStore) add(k [2]int, body []byte, sum [32]byte, etag, peer string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.first[k]; !ok {
		b.first[k] = body
		b.sums[k] = map[[32]byte]bool{}
		b.etags[k] = map[string]bool{}
		b.sample[k] = peer
	}
	b.sums[k][sum] = true
	b.etags[k][etag] = true
}

// stepResult is one open-loop step.
type stepResult struct {
	rate     float64
	arrivals []arrival
	out      []outcome
}

// driveStep runs arrivals open loop on nproc sender goroutines: a sender
// takes the next arrival, waits for its due time if early, and sends it.
// Latency runs from the due time, so a stall shows up in every request
// it delays. rate 0 runs closed loop (no waiting), for --capacity.
func driveStep(client *http.Client, rg *ring, paths []string, universe []schedcache.Key, arrivals []arrival,
	closed bool, etags *etagStore, bodies *bodyStore, t *tracer, groupBase int64) []outcome {
	out := make([]outcome, len(arrivals))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < nproc; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					return
				}
				a := arrivals[i]
				if closed {
					if a.due = time.Since(start); a.due >= arrivals[len(arrivals)-1].due {
						return
					}
				} else if wait := a.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				id := t.begin("fleet.request", 0, groupBase+int64(i))
				out[i] = doRequest(client, rg, paths, universe, a, i, etags, bodies, start)
				t.end(id)
			}
		}()
	}
	wg.Wait()
	return out
}

func doRequest(client *http.Client, rg *ring, paths []string, universe []schedcache.Key, a arrival, i int,
	etags *etagStore, bodies *bodyStore, start time.Time) outcome {
	var o outcome
	entry := rg.urls[a.peer]
	var req *http.Request
	var err error
	ek := [3]int{a.client, a.key, boolInt(a.wire)}
	if a.post {
		k := universe[a.key]
		doc := fmt.Sprintf(`{"name":"fleet-%d","n":[%d],"d":[%d],"duty":[{"alphaT":%d,"alphaR":%d}],"strategy":%q,"workload":"analysis","seed":%d}`,
			i, k.N, k.D, k.AlphaT, k.AlphaR, schedcache.StrategyName(k.Strategy), i+1)
		req, err = http.NewRequest(http.MethodPost, entry+"/jobs", strings.NewReader(doc))
	} else {
		req, err = http.NewRequest(http.MethodGet, entry+paths[a.key], nil)
		if err == nil {
			if a.wire {
				req.Header.Set("Accept", serve.WireContentType)
			}
			if tag := etags.get(ek); tag != "" {
				req.Header.Set("If-None-Match", tag)
			}
		}
	}
	o.late = time.Since(start) - a.due
	if err != nil {
		o.err = err.Error()
		o.lat = time.Since(start) - a.due
		return o
	}
	resp, err := client.Do(req)
	if err != nil {
		o.err = err.Error()
		o.lat = time.Since(start) - a.due
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.lat = time.Since(start) - a.due
	o.status = resp.StatusCode
	if err != nil {
		o.err = err.Error()
		return o
	}
	if sb := resp.Header.Get(shard.ServedByHeader); sb != "" && sb != entry {
		o.forwarded = true
	}
	if a.post {
		if resp.StatusCode == http.StatusAccepted {
			var sub struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
				o.err = fmt.Sprintf("submit response %q: %v", body, err)
			}
			o.campaignID = sub.ID
		}
		return o
	}
	if etag := resp.Header.Get("ETag"); resp.StatusCode == http.StatusOK {
		bodies.add([2]int{a.key, boolInt(a.wire)}, body, sha256.Sum256(body), etag, entry)
		if etag != "" {
			etags.put(ek, etag)
		}
	}
	return o
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// stepStats summarizes one step for the metrics and the limit test.
type stepStats struct {
	p50, p99, p99Used float64 // ms
	p90, mean         float64 // ms
	samples           int
	lagP99            float64 // ms
	lagGrows          bool
	meetsLimit        bool
	failed            int
}

// summarizeStep computes latency quantiles from due time over every
// request. For the limit test a failed or refused request counts as a
// miss (infinite latency).
func summarizeStep(out []outcome, failed []bool) stepStats {
	var st stepStats
	lat := make([]float64, 0, len(out))
	limitLat := make([]float64, 0, len(out))
	late := make([]float64, len(out))
	for i, o := range out {
		ms := float64(o.lat) / 1e6
		lat = append(lat, ms)
		if failed[i] {
			st.failed++
			ms = math.Inf(1)
		}
		limitLat = append(limitLat, ms)
		late[i] = float64(o.late) / 1e6
	}
	st.samples = len(lat)
	st.p50 = median(lat)
	st.p90 = percentile(lat, 90)
	for _, v := range lat {
		st.mean += v / float64(len(lat))
	}
	st.p99, st.p99Used = tail(lat, 99)
	limitP99, _ := tail(limitLat, 99)
	st.lagP99, _ = tail(late, 99)
	st.lagGrows = lagGrows(late)
	st.meetsLimit = limitP99 <= fleetP99LimitMs && !st.lagGrows
	return st
}

// lagGrows reports a backlog that builds over the step: the median
// lateness of the last fifth of arrivals above 5 ms and above twice that
// of the first fifth.
func lagGrows(lateMs []float64) bool {
	n := len(lateMs) / 5
	if n == 0 {
		return false
	}
	first, last := median(lateMs[:n]), median(lateMs[len(lateMs)-n:])
	return last > 5 && last > 2*first
}

// checkBodies verifies every distinct 200 body: wire bodies decode and
// their ETag is the digest of the body; JSON bodies parse, echo their key,
// and carry the ETag of the wire artifact of the same key. Every body seen
// for a (key, repr) must be identical. It returns the (key, repr) pairs
// whose bodies failed, with the first error.
func checkBodies(client *http.Client, bodies *bodyStore, universe []schedcache.Key, paths []string) (map[[2]int]bool, error) {
	bad := map[[2]int]bool{}
	var firstErr error
	fail := func(k [2]int, err error) {
		bad[k] = true
		if firstErr == nil {
			firstErr = err
		}
	}
	keys := make([][2]int, 0, len(bodies.first))
	for k := range bodies.first {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i][0]*2+keys[i][1] < keys[j][0]*2+keys[j][1] })
	wireDigest := map[int]string{}
	for _, k := range keys {
		if k[1] == 1 {
			wireDigest[k[0]] = wire.Digest(bodies.first[k])
		}
	}
	for _, k := range keys {
		key := universe[k[0]]
		if len(bodies.sums[k]) != 1 || len(bodies.etags[k]) != 1 {
			fail(k, fmt.Errorf("%s: %d distinct bodies, %d distinct ETags", key.Canonical(), len(bodies.sums[k]), len(bodies.etags[k])))
			continue
		}
		var etag string
		for e := range bodies.etags[k] {
			etag = e
		}
		var err error
		if k[1] == 1 {
			err = checkWireBody(key, bodies.first[k], etag)
		} else {
			d, ok := wireDigest[k[0]]
			if !ok {
				if d, err = fetchWireDigest(client, bodies.sample[k]+paths[k[0]]); err != nil {
					fail(k, err)
					continue
				}
			}
			err = checkJSONBody(key, bodies.first[k], etag, d)
		}
		if err != nil {
			fail(k, err)
		}
	}
	return bad, firstErr
}

func checkWireBody(key schedcache.Key, body []byte, etag string) error {
	f, err := wire.Decode(body)
	if err != nil {
		return fmt.Errorf("%s: wire body does not decode: %v", key.Canonical(), err)
	}
	if f.N != key.N || f.D != key.D || f.AlphaT != key.AlphaT || f.AlphaR != key.AlphaR || f.Strategy != key.Strategy {
		return fmt.Errorf("%s: wire frame is for n=%d D=%d alphaT=%d alphaR=%d", key.Canonical(), f.N, f.D, f.AlphaT, f.AlphaR)
	}
	if want := `"` + wire.Digest(body) + `-w"`; etag != want {
		return fmt.Errorf("%s: ETag %s, body digest %s", key.Canonical(), etag, want)
	}
	return nil
}

func checkJSONBody(key schedcache.Key, body []byte, etag, wireDigest string) error {
	var doc struct {
		Schedule      json.RawMessage `json:"schedule"`
		N             int             `json:"n"`
		D             int             `json:"D"`
		AlphaT        int             `json:"alphaT"`
		AlphaR        int             `json:"alphaR"`
		Strategy      string          `json:"strategy"`
		L             int             `json:"l"`
		AvgThroughput string          `json:"avgThroughput"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("%s: JSON body does not decode: %v", key.Canonical(), err)
	}
	if doc.N != key.N || doc.D != key.D || doc.AlphaT != key.AlphaT || doc.AlphaR != key.AlphaR ||
		doc.Strategy != schedcache.StrategyName(key.Strategy) || doc.L <= 0 || len(doc.Schedule) == 0 || doc.AvgThroughput == "" {
		return fmt.Errorf("%s: JSON body echoes n=%d D=%d alphaT=%d alphaR=%d strategy=%s l=%d",
			key.Canonical(), doc.N, doc.D, doc.AlphaT, doc.AlphaR, doc.Strategy, doc.L)
	}
	if want := `"` + wireDigest + `-j"`; etag != want {
		return fmt.Errorf("%s: JSON ETag %s, artifact digest %s", key.Canonical(), etag, want)
	}
	return nil
}

func fetchWireDigest(client *http.Client, url string) (string, error) {
	body, _, err := fetch(client, url, serve.WireContentType)
	if err != nil {
		return "", err
	}
	return wire.Digest(body), nil
}

func fetch(client *http.Client, url, accept string) ([]byte, http.Header, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Accept", accept)
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, resp.Header, err
}

// checkPeersAgree fetches one key from every peer in both representations;
// every peer must return identical bytes.
func checkPeersAgree(client *http.Client, urls []string, path string) error {
	for _, accept := range []string{serve.WireContentType, serve.JSONContentType} {
		var first []byte
		for i, u := range urls {
			body, _, err := fetch(client, u+path, accept)
			if err != nil {
				return err
			}
			if i == 0 {
				first = body
			} else if !bytes.Equal(body, first) {
				return fmt.Errorf("%s (%s): peer %s returned different bytes than %s", path, accept, u, urls[0])
			}
		}
	}
	return nil
}

// awaitCampaigns polls every accepted campaign at its entry peer until it
// is done; each must finish with no failed job.
func awaitCampaigns(client *http.Client, accepted map[string]string) error {
	ids := make([]string, 0, len(accepted))
	for id := range accepted {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	deadline := time.Now().Add(60 * time.Second)
	for _, key := range ids {
		for {
			body, _, err := fetch(client, accepted[key], serve.JSONContentType)
			if err != nil {
				return err
			}
			var st struct {
				State      string   `json:"state"`
				FailedJobs []string `json:"failedJobs"`
				Error      string   `json:"error"`
			}
			if err := json.Unmarshal(body, &st); err != nil {
				return fmt.Errorf("campaign %s: %v", key, err)
			}
			if st.State == "done" {
				if len(st.FailedJobs) > 0 {
					return fmt.Errorf("campaign %s finished with failed jobs %v", key, st.FailedJobs)
				}
				break
			}
			if st.State != "running" {
				return fmt.Errorf("campaign %s ended %s: %s", key, st.State, st.Error)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("campaign %s still running after 60s", key)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// scrapeArtifacts sums the artifact-cache counters of every peer's
// /metrics.
func scrapeArtifacts(client *http.Client, urls []string) (serve.ArtifactStats, error) {
	var sum serve.ArtifactStats
	for _, u := range urls {
		body, _, err := fetch(client, u+"/metrics", serve.JSONContentType)
		if err != nil {
			return sum, err
		}
		var m struct {
			Artifacts serve.ArtifactStats `json:"artifacts"`
		}
		if err := json.Unmarshal(body, &m); err != nil {
			return sum, err
		}
		sum.Hits += m.Artifacts.Hits
		sum.Misses += m.Artifacts.Misses
		sum.Evictions += m.Artifacts.Evictions
	}
	return sum, nil
}

// classify counts a request as failed: a transport error, an unexpected
// status, a refused campaign (503 from the jobs table), or a body that
// failed its check.
func classify(a arrival, o outcome, badBodies map[[2]int]bool) bool {
	if o.err != "" {
		return true
	}
	if a.post {
		return o.status != http.StatusAccepted
	}
	switch o.status {
	case http.StatusOK:
		return badBodies[[2]int{a.key, boolInt(a.wire)}]
	case http.StatusNotModified:
		return false
	}
	return true
}

// fleetRun is everything one run of the steps produced.
type fleetRun struct {
	steps     []stepResult
	stats     []stepStats
	failed    []bool // per request, steps concatenated
	bodyErr   error
	peersErr  error
	campErr   error
	accepted  int
	refused   int
	notMod    int
	gets      int
	forwarded []float64
	atEntry   []float64
	artBefore serve.ArtifactStats
	artAfter  serve.ArtifactStats
}

func runFleetSteps(r *run, rg *ring, client *http.Client, etags *etagStore, seconds time.Duration) (*fleetRun, error) {
	universe := fleetUniverse()
	paths := make([]string, len(universe))
	for i, k := range universe {
		paths[i] = "/schedule?" + k.Canonical()
	}
	fr := &fleetRun{}
	var err error
	if fr.artBefore, err = scrapeArtifacts(client, rg.urls); err != nil {
		return nil, err
	}
	bodies := newBodyStore()
	stepDur := seconds / time.Duration(len(fleetSteps))
	var group int64 = 1
	for si, step := range fleetSteps {
		arrivals := fleetArrivals(r.seed, si, step.rate, stepDur, len(universe))
		out := driveStep(client, rg, paths, universe, arrivals, false, etags, bodies, r.trace, group)
		group += int64(len(arrivals))
		fr.steps = append(fr.steps, stepResult{rate: step.rate, arrivals: arrivals, out: out})
	}
	if fr.artAfter, err = scrapeArtifacts(client, rg.urls); err != nil {
		return nil, err
	}
	bad, bodyErr := checkBodies(client, bodies, universe, paths)
	fr.bodyErr = bodyErr
	fr.peersErr = checkPeersAgree(client, rg.urls, paths[0])
	accepted := map[string]string{}
	for _, st := range fr.steps {
		failed := make([]bool, len(st.out))
		for i, o := range st.out {
			a := st.arrivals[i]
			failed[i] = classify(a, o, bad)
			if a.post {
				if o.status == http.StatusAccepted && o.campaignID != "" {
					accepted[o.campaignID+"@"+rg.urls[a.peer]] = rg.urls[a.peer] + "/jobs/" + o.campaignID
				} else if o.status == http.StatusServiceUnavailable {
					fr.refused++
				}
				continue
			}
			fr.gets++
			if o.status == http.StatusNotModified {
				fr.notMod++
			}
			if o.status == http.StatusOK || o.status == http.StatusNotModified {
				if o.forwarded {
					fr.forwarded = append(fr.forwarded, float64(o.lat)/1e6)
				} else {
					fr.atEntry = append(fr.atEntry, float64(o.lat)/1e6)
				}
			}
		}
		fr.failed = append(fr.failed, failed...)
		fr.stats = append(fr.stats, summarizeStep(st.out, failed))
	}
	fr.accepted = len(accepted)
	fr.campErr = awaitCampaigns(client, accepted)
	return fr, nil
}

func (fr *fleetRun) attempted() (int64, int64) {
	var f int64
	for _, b := range fr.failed {
		if b {
			f++
		}
	}
	return int64(len(fr.failed)), f
}

// maxOKRate is the highest offered rate whose step met the p99 limit
// without a growing backlog.
func (fr *fleetRun) maxOKRate() float64 {
	best := 0.0
	for i, st := range fr.stats {
		if st.meetsLimit {
			best = math.Max(best, fr.steps[i].rate)
		}
	}
	return best
}

func stepIndex(name string) int {
	for i, s := range fleetSteps {
		if s.name == name {
			return i
		}
	}
	return -1
}

func (fr *fleetRun) loopRejects(rg *ring) (rejects, fallbacks int64) {
	for _, f := range rg.fwds {
		m := f.Metrics()
		rejects += m.LoopRejects
		fallbacks += m.LocalFallbacks
	}
	return rejects, fallbacks
}

func (fr *fleetRun) checks(r *run, rg *ring) {
	rejects, _ := fr.loopRejects(rg)
	var rejErr error
	if rejects != 0 {
		rejErr = fmt.Errorf("%d forwarding loop rejects", rejects)
	}
	r.check("fleet.bodies", fr.bodyErr)
	r.check("fleet.peers_agree", fr.peersErr)
	r.check("fleet.loop_rejects", rejErr)
	r.check("fleet.campaigns_done", fr.campErr)
}

func runFleet(r *run) error {
	client := newFleetClient()
	defer client.CloseIdleConnections()
	universe := fleetUniverse()
	paths := make([]string, len(universe))
	for i, k := range universe {
		paths[i] = "/schedule?" + k.Canonical()
	}
	var setups []float64
	var rg *ring
	var etags *etagStore
	for b := 0; b < fleetBoots; b++ {
		if rg != nil {
			rg.close()
			client.CloseIdleConnections()
		}
		t0 := time.Now()
		var err error
		if rg, err = bootRing(); err != nil {
			return err
		}
		etags = &etagStore{m: map[[3]int]string{}}
		if err := warm(client, rg, paths, universe, etags); err != nil {
			rg.close()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer rg.close()
	if r.capacity {
		return fleetCapacityRun(r, rg, client, universe, paths, etags)
	}

	fr, err := runFleetSteps(r, rg, client, etags, r.seconds)
	if err != nil {
		return err
	}
	r.tally(fr.attempted())
	fr.checks(r, rg)
	low := fr.stats[stepIndex("low")]
	for i, st := range fr.stats {
		name := fleetSteps[i].name
		r.note("step."+name, "rate %.0f/s: p50 %.3f ms, p%.1f %.3f ms, p90 %.3f ms, mean %.3f ms over %d requests, lag p99 %.3f ms, backlog grows %v, failed %d, meets %.0f ms limit %v",
			fleetSteps[i].rate, st.p50, st.p99Used, st.p99, st.p90, st.mean, st.samples, st.lagP99, st.lagGrows, st.failed, fleetP99LimitMs, st.meetsLimit)
	}
	r.note("jobs", "%d campaigns accepted, %d refused", fr.accepted, fr.refused)
	if r.trace != nil {
		return traceFleet(r, fr, rg, setups)
	}
	r.set("setup_s", "s", median(setups))
	r.samples["setup_s"] = len(setups)
	r.set("wall_s", "s", low.p50/1000)
	r.samples["wall_s"] = low.samples
	r.note("wall_s", "median latency from due time of a request at the low rate (%.0f/s)", fleetSteps[stepIndex("low")].rate)
	r.set("ops_per_s", "1/s", fr.maxOKRate())
	r.note("ops_per_s", "max_ok_rps: highest offered rate whose p99 met %.0f ms with no growing backlog", fleetP99LimitMs)
	return nil
}

// traceFleet reports the per-layer account of the steps just run, then
// times the serving layers in isolation over the whole universe.
func traceFleet(r *run, fr *fleetRun, rg *ring, setups []float64) error {
	t := r.trace
	for i, st := range fr.stats {
		name := fleetSteps[i].name
		r.set("fleet.p50_ms."+name, "ms", st.p50)
		r.set("fleet.p99_ms."+name, "ms", st.p99)
		r.set("fleet.samples."+name, "count", float64(st.samples))
		r.set("loadgen.lag_ms."+name, "ms", st.lagP99)
	}
	r.set("traced.setup_s", "s", median(setups))
	r.set("traced.wall_s", "s", fr.stats[stepIndex("low")].p50/1000)
	r.set("traced.ops_per_s", "1/s", fr.maxOKRate())
	hits := fr.artAfter.Hits - fr.artBefore.Hits
	misses := fr.artAfter.Misses - fr.artBefore.Misses
	r.set("serve.artifact_hit_ratio", "1", ratio(float64(hits), float64(hits+misses)))
	r.set("serve.artifact_evictions", "count", float64(fr.artAfter.Evictions-fr.artBefore.Evictions))
	r.set("serve.not_modified_ratio", "1", ratio(float64(fr.notMod), float64(fr.gets)))
	r.set("serve.jobs_accepted", "count", float64(fr.accepted))
	r.set("serve.jobs_refused", "count", float64(fr.refused))
	r.set("shard.forward_ratio", "1", ratio(float64(len(fr.forwarded)), float64(len(fr.forwarded)+len(fr.atEntry))))
	r.set("shard.hop_ms", "ms", median(fr.forwarded)-median(fr.atEntry))
	rejects, fallbacks := fr.loopRejects(rg)
	r.set("shard.loop_rejects", "count", float64(rejects))
	r.set("shard.local_fallbacks", "count", float64(fallbacks))

	// Isolated: the artifact build on a fresh Service for every universe
	// key, and the wire codec on every artifact frame.
	svc := serve.NewService(len(fleetUniverse()))
	var builds, enc, dec, size []float64
	for i, k := range fleetUniverse() {
		var a *serve.Artifact
		var err error
		d := t.span("serve.artifact", 0, int64(i+1), func() { a, _, err = svc.Artifact(k) })
		if err != nil {
			return fmt.Errorf("artifact %s: %w", k.Canonical(), err)
		}
		builds = append(builds, float64(d)/1e6)
		var encoded []byte
		d = t.span("wire.encode", 0, int64(i+1), func() { encoded, err = wire.Encode(a.Frame) })
		if err != nil {
			return err
		}
		enc = append(enc, float64(d)/1e3)
		if !bytes.Equal(encoded, a.Wire) {
			return errors.New("wire.Encode of an artifact frame differs from the served bytes")
		}
		d = t.span("wire.decode", 0, int64(i+1), func() { _, err = wire.Decode(a.Wire) })
		if err != nil {
			return err
		}
		dec = append(dec, float64(d)/1e3)
		size = append(size, float64(len(a.Wire)))
	}
	r.set("serve.artifact_build_ms", "ms", median(builds))
	r.samples["serve.artifact_build_ms"] = len(builds)
	r.set("wire.encode_us", "us", median(enc))
	r.set("wire.decode_us", "us", median(dec))
	r.set("wire.frame_bytes", "B", median(size))
	return nil
}

// fleetCapacityRun measures the closed-loop capacity of the mix at nproc
// requests in flight; the offered rates are fixed shares of it. In closed
// loop a sender stops once the run has lasted as long as the arrival
// schedule.
func fleetCapacityRun(r *run, rg *ring, client *http.Client, universe []schedcache.Key, paths []string, etags *etagStore) error {
	arrivals := fleetArrivals(r.seed, 99, 1e5, r.seconds, len(universe))
	t0 := time.Now()
	out := driveStep(client, rg, paths, universe, arrivals, true, etags, newBodyStore(), nil, 0)
	wall := time.Since(t0)
	sent := 0
	for _, o := range out {
		if o.status != 0 || o.err != "" {
			sent++
		}
	}
	r.tally(int64(sent), 0)
	r.set("capacity_rps", "1/s", float64(sent)/wall.Seconds())
	r.check("fleet.capacity", nil)
	return nil
}
