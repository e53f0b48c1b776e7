package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	ttdc "repro"
	"repro/internal/schedcache"
	"repro/internal/shard"
)

// Content types the /schedule endpoint can serve.
const (
	// WireContentType selects the binary frame (internal/wire); request it
	// with Accept: application/x-ttdc-wire or ?format=wire.
	WireContentType = "application/x-ttdc-wire"
	JSONContentType = "application/json"
)

// DefaultMaxAge is the Cache-Control max-age (seconds) when Options
// leaves it zero. Schedules are immutable functions of their key, so a
// long client-side lifetime is safe; revalidation via ETag costs one
// round trip and no body.
const DefaultMaxAge = 3600

// Options configures the HTTP handler.
type Options struct {
	// MaxAge is the Cache-Control max-age in seconds (DefaultMaxAge when
	// 0; negative disables the header).
	MaxAge int
	// Forwarder, when set, shards /schedule across its ring: keys owned
	// by other peers are forwarded one hop.
	Forwarder *shard.Forwarder
	// Warmer, when set, only contributes its snapshot to /metrics; the
	// caller owns running it.
	Warmer *shard.Warmer
}

type errorResponse struct {
	Error string `json:"error"`
}

// latencyBuckets are the upper bounds of the /metrics request-latency
// histogram; a final +Inf bucket catches the rest.
var latencyBuckets = []time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// histogram is a fixed-bucket latency histogram with atomic counters;
// counts[len(latencyBuckets)] is the +Inf bucket.
type histogram struct {
	counts []atomic.Int64
	total  atomic.Int64 // observations
	sumNS  atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	i := 0
	for ; i < len(latencyBuckets) && d > latencyBuckets[i]; i++ {
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sumNS.Add(int64(d))
}

// snapshot renders cumulative ("le") bucket counts, expvar-style.
func (h *histogram) snapshot() map[string]int64 {
	out := make(map[string]int64, len(latencyBuckets)+3)
	var cum int64
	for i, b := range latencyBuckets {
		cum += h.counts[i].Load()
		out["le_"+b.String()] = cum
	}
	cum += h.counts[len(latencyBuckets)].Load()
	out["le_inf"] = cum
	out["count"] = h.total.Load()
	out["sum_ns"] = h.sumNS.Load()
	return out
}

// server holds the handler state over the Service.
type server struct {
	svc         *Service
	opts        Options
	latency     *histogram
	requests    atomic.Int64
	notModified atomic.Int64
	started     time.Time
}

// NewHandler builds the ttdcserve HTTP API over svc:
//
//	GET  /schedule?n=&D=&alphaT=&alphaR=&strategy=  schedule + analysis
//	POST /jobs                                      submit a batch campaign
//	GET  /jobs                                      list submitted campaigns
//	GET  /jobs/{id}                                 campaign progress + results
//	GET  /healthz                                   liveness probe
//	GET  /metrics                                   cache/engine/shard stats
//
// /schedule serves JSON by default and the binary wire frame under
// Accept: application/x-ttdc-wire (or ?format=wire); both carry a strong
// ETag derived from the wire content digest, honor If-None-Match with
// 304, and a Cache-Control lifetime from Options.MaxAge. With a
// Forwarder configured, keys owned by other ring peers are proxied one
// hop; a forwarded request for a key this peer does not own is refused
// with 421 (loop guard).
//
// It is exported (and cmd/ttdcserve is a thin wrapper) so tests and the
// in-process loadgen ring drive it through net/http/httptest without
// binding ports.
func NewHandler(svc *Service, opts Options) http.Handler {
	if opts.MaxAge == 0 {
		opts.MaxAge = DefaultMaxAge
	}
	s := &server{svc: svc, opts: opts, latency: newHistogram(), started: time.Now()}
	jobs := svc.Jobs()
	mux := http.NewServeMux()
	mux.HandleFunc("/schedule", s.handleSchedule)
	mux.HandleFunc("POST /jobs", jobs.handleSubmit)
	mux.HandleFunc("GET /jobs", jobs.handleList)
	mux.HandleFunc("GET /jobs/{id}", jobs.handleGet)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", JSONContentType)
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// intParam parses query parameter name as an int, with def when absent.
func intParam(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	i, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an integer", name, v)
	}
	return i, nil
}

// negotiate picks the response representation: the explicit ?format=
// override first, then the Accept header (wire only when the client asks
// for it by exact media type), defaulting to JSON.
func negotiate(r *http.Request, q url.Values) (wantWire bool, err error) {
	switch f := q.Get("format"); f {
	case "wire":
		return true, nil
	case "json":
		return false, nil
	case "":
	default:
		return false, fmt.Errorf("parameter format=%q must be \"wire\" or \"json\"", f)
	}
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt := part
		if i := strings.Index(mt, ";"); i >= 0 {
			mt = mt[:i]
		}
		if strings.TrimSpace(mt) == WireContentType {
			return true, nil
		}
	}
	return false, nil
}

// etagMatch implements the If-None-Match comparison: a comma-separated
// list of entity tags (weak prefixes tolerated) or "*".
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		tag := strings.TrimPrefix(strings.TrimSpace(part), "W/")
		if tag == "*" || tag == etag {
			return true
		}
	}
	return false
}

func (s *server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.latency.observe(time.Since(start)) }()
	s.requests.Add(1)

	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	// The query is parsed once; every parameter reads the same values.
	q := r.URL.Query()
	n, err := intParam(q, "n", 0)
	if err == nil && n == 0 {
		err = fmt.Errorf("parameter n is required")
	}
	var d int
	if err == nil {
		d, err = intParam(q, "D", 0)
		if d == 0 && err == nil {
			err = fmt.Errorf("parameter D is required")
		}
	}
	var alphaT, alphaR int
	if err == nil {
		alphaT, err = intParam(q, "alphaT", 0)
	}
	if err == nil {
		alphaR, err = intParam(q, "alphaR", 0)
	}
	var strategy = ttdc.Sequential
	if err == nil {
		strategy, err = schedcache.ParseStrategy(q.Get("strategy"))
	}
	var wantWire bool
	if err == nil {
		wantWire, err = negotiate(r, q)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := schedcache.Key{N: n, D: d, AlphaT: alphaT, AlphaR: alphaR, Strategy: strategy}
	if err := key.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	if f := s.opts.Forwarder; f != nil {
		canon := key.Canonical()
		if owner := f.Owner(canon); owner != f.Self() {
			if r.Header.Get(shard.ForwardedHeader) != "" {
				// Second hop: the forwarding peer believed we own this key,
				// we believe someone else does. Refuse loudly rather than
				// bouncing the request around an inconsistent ring.
				f.RejectLoop()
				writeError(w, http.StatusMisdirectedRequest,
					fmt.Errorf("serve: peer %s does not own %s (ring says %s); rings disagree", f.Self(), canon, owner))
				return
			}
			if err := f.Forward(w, r, owner); err == nil {
				return
			}
			// Owner unreachable or in backoff: nothing was written; serve
			// locally so the tier degrades to per-peer caching.
		}
	}

	a, hit, err := s.svc.Artifact(key)
	if err != nil {
		// The key parsed but no schedule exists for it (infeasible caps,
		// no admissible field, ...): the request is semantically broken.
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}

	// One content digest, one ETag per representation: wire and JSON
	// bodies differ, so their entity tags must too.
	suffix := "-j"
	body, ct := a.JSON, JSONContentType
	if wantWire {
		suffix = "-w"
		body, ct = a.Wire, WireContentType
	}
	etag := `"` + a.Digest + suffix + `"`

	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Vary", "Accept")
	if s.opts.MaxAge >= 0 {
		h.Set("Cache-Control", fmt.Sprintf("public, max-age=%d", s.opts.MaxAge))
	}
	state := "miss"
	if hit {
		state = "hit"
	}
	h.Set(shard.CacheHeader, state)
	if f := s.opts.Forwarder; f != nil {
		h.Set(shard.ServedByHeader, f.Self())
	}
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		s.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", ct)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		w.Write(body) //nolint:errcheck // client gone; nothing to do
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Cache().Stats()
	m := map[string]any{
		"cache": map[string]int64{
			"hits":          st.Hits,
			"misses":        st.Misses,
			"inflight":      st.Inflight,
			"evictions":     st.Evictions,
			"constructions": st.Constructions,
			"errors":        st.Errors,
			"entries":       st.Entries,
			"capacity":      int64(s.svc.Cache().Capacity()),
			"bytes":         st.Bytes,
			"evictedBytes":  st.EvictedBytes,
		},
		"artifacts":        s.svc.ArtifactStats(),
		"engine":           s.svc.Jobs().metrics(),
		"requests":         s.requests.Load(),
		"not_modified":     s.notModified.Load(),
		"schedule_latency": s.latency.snapshot(),
		"uptime_seconds":   time.Since(s.started).Seconds(),
	}
	if f := s.opts.Forwarder; f != nil {
		m["shard"] = f.Metrics()
	}
	if wm := s.opts.Warmer; wm != nil {
		m["warmer"] = wm.Snapshot()
	}
	writeJSON(w, http.StatusOK, m)
}
