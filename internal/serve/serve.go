// Package serve is the long-running scheduling service over the
// repo's two deterministic parallel engines: it accepts workflows
// (the wfio text format or its JSON binding), schedules them through
// the portfolio-search engine (internal/portfolio), optionally
// cross-validates the winner through the sharded Monte-Carlo engine
// (internal/mc), and returns the schedule, expected makespan and
// makespan percentiles.
//
// # Caching and request collapse
//
// Every request is reduced to a canonical hash (wfio.CanonicalHash:
// tasks, edges, platform and search options, independent of
// declaration order) that fully determines the answer — both engines
// are bit-deterministic for any worker count, so the response body is
// a pure function of the hash. The service exploits that twice:
//
//   - a bounded, concurrent-safe LRU caches encoded response bodies
//     by hash, so a repeated request returns the stored bytes
//     verbatim — bit-identical to the cold evaluation;
//   - concurrent identical requests collapse, singleflight-style,
//     into one portfolio search: late arrivals wait for the in-flight
//     evaluation of the same hash and share its result.
//
// # Worker budget
//
// The server owns one worker budget (Config.Workers, default all
// cores) shared by every in-flight evaluation: an evaluation started
// while k others are running receives ~budget/k workers (at least
// one) for its portfolio and Monte-Carlo pools. Because both engines
// are worker-count-invariant, the split is purely a throughput
// decision — it can never change a response byte.
//
// # Response store
//
// The response store sits behind the Store interface: the default is
// a bounded in-memory LRU (NewLRU), and DiskStore persists bodies on
// disk so a restarted server answers previous requests as cache hits.
// Byte-determinism is what makes the seam safe — any store that
// returns stored bodies verbatim serves responses bit-identical to a
// fresh search, so stores are freely swappable (and, down the
// roadmap, replicable).
//
// # Observability
//
// The server is instrumented with a dependency-free metrics layer
// (internal/metrics) exposed at GET /metrics in the Prometheus text
// format: per-endpoint request counts and latency histograms, cache
// hit/miss/collapse/eviction counters, in-flight gauges, worker-share
// and worker-budget gauges, and search and Monte-Carlo duration
// histograms. Config.Logger (log/slog) receives one structured record
// per request with endpoint, method, status, bytes, latency, cache
// status and canonical hash. Every observer is read-only: metrics and
// logs never feed back into response bytes, hashes or the store, so
// the determinism contracts hold with observability on.
//
// # Endpoints
//
//	POST /v1/schedule  schedule a workflow (JSON body, or wfio text
//	                   with options in query parameters)
//	GET  /healthz      liveness probe
//	GET  /stats        cache hit rate, in-flight requests, totals
//	GET  /metrics      Prometheus text exposition
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/failure"
	"repro/internal/mc"
	"repro/internal/portfolio"
	"repro/internal/sched"
	"repro/internal/simulator"
	"repro/internal/wfio"
)

const (
	// DefaultCacheSize bounds the response LRU when Config.CacheSize
	// is unset.
	DefaultCacheSize = 512
	// DefaultMaxTasks bounds per-request workflow size when
	// Config.MaxTasks is unset; a grid-limited portfolio search at
	// this size stays interactive.
	DefaultMaxTasks = 5000
	// DefaultMaxMCTrials bounds per-request Monte-Carlo validation
	// when Config.MaxMCTrials is unset.
	DefaultMaxMCTrials = 1_000_000
	// DefaultCacheBytes bounds the response LRU's resident body
	// bytes when Config.CacheBytes is unset.
	DefaultCacheBytes = 128 << 20
	// DefaultMaxBodyBytes bounds request bodies when
	// Config.MaxBodyBytes is unset — enforced before any parsing, so
	// an oversized request cannot balloon memory.
	DefaultMaxBodyBytes = 16 << 20
	// hashVersion is folded into every canonical hash so that a
	// change of response schema or engine semantics can invalidate
	// old cache entries by bumping it. v2: empty best.order/best.ckpt/
	// results encode as [] instead of null.
	hashVersion = "2"
)

// Config tunes one server instance. The zero value serves with all
// cores and default limits.
type Config struct {
	// Workers is the total worker budget shared by in-flight
	// evaluations (≤ 0: GOMAXPROCS). Responses never depend on it.
	Workers int
	// CacheSize is the response LRU capacity in entries (≤ 0:
	// DefaultCacheSize).
	CacheSize int
	// CacheBytes is the response LRU capacity in total body bytes
	// (≤ 0: DefaultCacheBytes).
	CacheBytes int64
	// MaxBodyBytes rejects larger request bodies before parsing
	// (≤ 0: DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// MaxTasks rejects larger workflows (≤ 0: DefaultMaxTasks).
	MaxTasks int
	// MaxMCTrials rejects larger -mc validations (≤ 0:
	// DefaultMaxMCTrials).
	MaxMCTrials int
	// Store overrides the response store (nil: an in-memory LRU
	// bounded by CacheSize/CacheBytes). CacheSize and CacheBytes are
	// ignored when Store is set — bounding is the store's business.
	Store Store
	// Logger, when set, receives one structured record per request
	// (endpoint, method, status, bytes, latency, cache status,
	// canonical hash). nil disables request logging.
	Logger *slog.Logger
}

// Request is the JSON request body of POST /v1/schedule. The text
// alternative carries the same options as query parameters (lambda,
// downtime, heuristic, grid, seed, refine, mc) with the wfio text
// format as the body.
type Request struct {
	// Workflow is the DAG to schedule. Order/Ckpt must be empty: the
	// service computes the schedule.
	Workflow wfio.JSONWorkflow `json:"workflow"`
	// Lambda is the platform failure rate (0 = failure-free).
	Lambda float64 `json:"lambda,omitempty"`
	// Downtime is the platform downtime after each failure.
	Downtime float64 `json:"downtime,omitempty"`
	// Heuristic selects one heuristic by paper name (e.g. DF-CkptW);
	// "" or "all" runs the full 14-heuristic portfolio.
	Heuristic string `json:"heuristic,omitempty"`
	// Grid bounds the checkpoint-count search as in sched.SweepNs
	// (0 = exhaustive).
	Grid int `json:"grid,omitempty"`
	// Seed feeds the RF linearizer and Monte-Carlo streams.
	Seed uint64 `json:"seed,omitempty"`
	// Refine hill-climbs every heuristic's winner.
	Refine bool `json:"refine,omitempty"`
	// MCTrials cross-validates the best schedule by fault-injection
	// Monte-Carlo (0 = analytic only).
	MCTrials int `json:"mcTrials,omitempty"`
}

// HeuristicResult is one heuristic's outcome.
type HeuristicResult struct {
	Heuristic string  `json:"heuristic"`
	Expected  float64 `json:"expected"`
	Ratio     float64 `json:"ratio"`
	NumCkpt   int     `json:"numCkpt"`
}

// BestResult is the portfolio winner with its full schedule.
type BestResult struct {
	HeuristicResult
	Order []string `json:"order"`
	Ckpt  []string `json:"ckpt"`
}

// MCValidation is the Monte-Carlo cross-check of the best schedule.
type MCValidation struct {
	Trials      int     `json:"trials"`
	Mean        float64 `json:"mean"`
	CI99        float64 `json:"ci99"`
	P5          float64 `json:"p5"`
	P50         float64 `json:"p50"`
	P95         float64 `json:"p95"`
	P99         float64 `json:"p99"`
	Max         float64 `json:"max"`
	AvgFailures float64 `json:"avgFailures"`
}

// Response is the JSON response body of POST /v1/schedule. Cache
// status travels in the X-Wfserve-Cache header (hit, collapsed or
// miss), never in the body, so cached and cold responses are
// byte-identical.
type Response struct {
	Hash    string            `json:"hash"`
	Tasks   int               `json:"tasks"`
	TInf    float64           `json:"tInf"`
	Best    BestResult        `json:"best"`
	Results []HeuristicResult `json:"results"`
	MC      *MCValidation     `json:"mc,omitempty"`
}

// Stats is the JSON response body of GET /stats.
type Stats struct {
	Served     int64   `json:"served"`
	CacheHits  int64   `json:"cacheHits"`
	Collapsed  int64   `json:"collapsed"`
	Searches   int64   `json:"searches"`
	Errors     int64   `json:"errors"`
	HitRate    float64 `json:"hitRate"`
	InFlight   int64   `json:"inFlight"`
	CacheLen   int     `json:"cacheLen"`
	CacheCap   int     `json:"cacheCap"`
	CacheBytes int64   `json:"cacheBytes"`
	Evictions  int64   `json:"evictions"`
	WorkerPool int     `json:"workerPool"`
	// P50LatencyMS/P99LatencyMS estimate /v1/schedule request latency
	// quantiles from the /metrics histogram buckets (0 until the
	// first request).
	P50LatencyMS float64 `json:"p50LatencyMs"`
	P99LatencyMS float64 `json:"p99LatencyMs"`
}

// Server is the scheduling service. Create with New, mount Handler on
// an http.Server; Server itself holds only in-memory state, so
// graceful shutdown is entirely http.Server.Shutdown's draining.
type Server struct {
	cfg   Config
	store Store
	obs   *observability

	mu       sync.Mutex
	inflight map[string]*call

	running int64 // evaluations currently executing (atomic)

	served, hits, collapsed, searches, errors int64 // atomics

	// onSearch, when set (tests only), runs at the start of every
	// portfolio evaluation with the request's canonical hash.
	onSearch func(hash string)
}

// call is one in-flight evaluation that concurrent identical
// requests wait on.
type call struct {
	done    chan struct{}
	waiters int64 // atomic; observed by tests
	body    []byte
	err     error
}

// New returns a ready server.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxTasks <= 0 {
		cfg.MaxTasks = DefaultMaxTasks
	}
	if cfg.MaxMCTrials <= 0 {
		cfg.MaxMCTrials = DefaultMaxMCTrials
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	store := cfg.Store
	if store == nil {
		store = NewLRU(cfg.CacheSize, cfg.CacheBytes)
	}
	s := &Server{
		cfg:      cfg,
		store:    store,
		inflight: make(map[string]*call),
	}
	s.obs = newObservability(s, cfg.Logger)
	return s
}

// Handler returns the service's HTTP handler. Every endpoint runs
// behind the instrumentation middleware (request counters, latency
// histograms, structured logs); the read-only endpoints additionally
// refuse non-GET methods with 405.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/schedule", s.instrument("/v1/schedule", s.handleSchedule))
	mux.Handle("/healthz", s.instrument("/healthz", s.getOnly(s.handleHealthz)))
	mux.Handle("/stats", s.instrument("/stats", s.getOnly(s.handleStats)))
	mux.Handle("/metrics", s.instrument("/metrics", s.getOnly(s.handleMetrics)))
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}

// Stats snapshots the service counters. Outcome counters are loaded
// before served (and served is incremented first on the write side),
// so the reported hit rate never exceeds 1 under concurrent load.
func (s *Server) Stats() Stats {
	ss := s.store.Stats()
	hits := atomic.LoadInt64(&s.hits)
	collapsed := atomic.LoadInt64(&s.collapsed)
	st := Stats{
		Served:       atomic.LoadInt64(&s.served),
		CacheHits:    hits,
		Collapsed:    collapsed,
		Searches:     atomic.LoadInt64(&s.searches),
		Errors:       atomic.LoadInt64(&s.errors),
		InFlight:     atomic.LoadInt64(&s.running),
		CacheLen:     ss.Len,
		CacheCap:     ss.Cap,
		CacheBytes:   ss.Bytes,
		Evictions:    ss.Evictions,
		WorkerPool:   s.cfg.Workers,
		P50LatencyMS: s.latencyQuantileMS(0.50),
		P99LatencyMS: s.latencyQuantileMS(0.99),
	}
	if st.Served > 0 {
		st.HitRate = float64(hits+collapsed) / float64(st.Served)
	}
	return st
}

// httpError is a request-level failure with its status code.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// parseError maps a body-decoding failure onto its HTTP error,
// surfacing the MaxBytesReader limit as 413 instead of a generic 400.
func parseError(err error) error {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return &httpError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
	}
	return badRequest("%v", err)
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, &httpError{status: http.StatusMethodNotAllowed, msg: "POST required"})
		return
	}
	// Bound the body before any parsing: an oversized request must
	// fail cheaply, not after buffering gigabytes into a decoder. A
	// declared Content-Length past the limit fails with a clean 413
	// up front; chunked oversized bodies are cut off by the
	// MaxBytesReader mid-parse (the text scanner then reports the
	// truncation as a parse error, the JSON decoder as 413).
	if r.ContentLength > s.cfg.MaxBodyBytes {
		s.fail(w, &httpError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("request body of %d bytes exceeds the %d-byte limit", r.ContentLength, s.cfg.MaxBodyBytes)})
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, f, err := decodeRequest(r)
	if err == nil {
		err = s.validate(req, f)
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	hash := hashOf(req, f)
	body, status, err := s.schedule(hash, req, f)
	annotate(w, hash, status)
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Wfserve-Cache", status)
	w.Write(body)
}

func (s *Server) fail(w http.ResponseWriter, err error) {
	atomic.AddInt64(&s.errors, 1)
	s.obs.errorsTotal.Inc()
	status := http.StatusBadRequest
	// errors.As, not a bare type assertion: an *httpError wrapped by
	// fmt.Errorf("%w") must keep its status instead of degrading to a
	// generic 400.
	var he *httpError
	if errors.As(err, &he) {
		status = he.status
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// decodeRequest reads either binding: a JSON Request document, or the
// wfio text format with options as query parameters.
func decodeRequest(r *http.Request) (*Request, *wfio.File, error) {
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		ct = mt
	}
	switch ct {
	case "", "application/json":
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		var req Request
		if err := dec.Decode(&req); err != nil {
			return nil, nil, parseError(fmt.Errorf("bad JSON request: %w", err))
		}
		f, err := req.Workflow.File()
		if err != nil {
			return nil, nil, badRequest("%v", err)
		}
		return &req, f, nil
	case "text/plain", "application/x-wfio":
		req, err := queryOptions(r.URL.Query())
		if err != nil {
			return nil, nil, err
		}
		f, err := wfio.Parse(r.Body)
		if err != nil {
			return nil, nil, parseError(err)
		}
		return req, f, nil
	default:
		return nil, nil, badRequest("unsupported Content-Type %q (want application/json or text/plain)", ct)
	}
}

// queryOptions maps the text binding's query parameters onto a
// Request (everything except the workflow itself). Unknown keys,
// empty values (?grid=) and duplicated keys (?lambda=1&lambda=2) are
// all rejected, mirroring the JSON binding's DisallowUnknownFields —
// a typoed or mangled option must not silently change the experiment.
func queryOptions(q url.Values) (*Request, error) {
	known := map[string]bool{"lambda": true, "downtime": true, "grid": true,
		"mc": true, "seed": true, "refine": true, "heuristic": true}
	// Sort before validating: with two or more offending keys, ranging
	// the map directly would make the reported offender — and thus
	// the response bytes — depend on randomized iteration order.
	keys := make([]string, 0, len(q))
	for key := range q {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if !known[key] {
			return nil, badRequest("unknown query parameter %q", key)
		}
		if vs := q[key]; len(vs) > 1 {
			return nil, badRequest("duplicate query parameter %q", key)
		} else if vs[0] == "" {
			return nil, badRequest("empty value for query parameter %q", key)
		}
	}
	req := &Request{}
	var err error
	opt := func(key string, set func(string) error) {
		if err != nil {
			return
		}
		if v := q.Get(key); v != "" {
			if set(v) != nil {
				err = badRequest("bad query parameter %s=%q", key, v)
			}
		}
	}
	opt("lambda", func(v string) (e error) { req.Lambda, e = strconv.ParseFloat(v, 64); return })
	opt("downtime", func(v string) (e error) { req.Downtime, e = strconv.ParseFloat(v, 64); return })
	opt("grid", func(v string) (e error) { req.Grid, e = strconv.Atoi(v); return })
	opt("mc", func(v string) (e error) { req.MCTrials, e = strconv.Atoi(v); return })
	opt("seed", func(v string) (e error) { req.Seed, e = strconv.ParseUint(v, 10, 64); return })
	opt("refine", func(v string) (e error) { req.Refine, e = strconv.ParseBool(v); return })
	if err != nil {
		return nil, err
	}
	req.Heuristic = q.Get("heuristic")
	return req, nil
}

// validate applies the service's request limits — the server-side
// twin of the CLI flag validation.
func (s *Server) validate(req *Request, f *wfio.File) error {
	if f.Order != nil || f.Ckpt != nil {
		return badRequest("request carries order/ckpt; wfserve computes the schedule itself")
	}
	if n := f.Graph.N(); n > s.cfg.MaxTasks {
		return badRequest("workflow has %d tasks, limit is %d", n, s.cfg.MaxTasks)
	}
	// The wfio parsers check references, not acyclicity or finite
	// costs (the text binding's ParseFloat accepts "NaN" and "Inf") —
	// that is normally Schedule()'s job, but here the service builds
	// the schedule, so it vets the DAG before the engines see it.
	if err := f.Graph.Validate(); err != nil {
		return badRequest("%v", err)
	}
	plat := failure.Platform{Lambda: req.Lambda, Downtime: req.Downtime}
	if err := plat.Validate(); err != nil {
		return badRequest("%v", err)
	}
	if req.Grid < 0 {
		return badRequest("grid must be ≥ 0 (0 = exhaustive), got %d", req.Grid)
	}
	if req.MCTrials < 0 || req.MCTrials > s.cfg.MaxMCTrials {
		return badRequest("mcTrials must be in [0, %d], got %d", s.cfg.MaxMCTrials, req.MCTrials)
	}
	if h := req.Heuristic; h != "" && h != "all" {
		if _, err := sched.ByName(h, sched.Options{RFSeed: req.Seed, Grid: req.Grid}); err != nil {
			return badRequest("%v", err)
		}
	}
	return nil
}

// hashOf reduces a validated request to its canonical hash — the key
// that fully determines the response body.
func hashOf(req *Request, f *wfio.File) string {
	h := req.Heuristic
	if h == "" {
		h = "all"
	}
	return wfio.CanonicalHash(f.Graph,
		wfio.HashParam("v", hashVersion),
		wfio.HashParam("lambda", req.Lambda),
		wfio.HashParam("downtime", req.Downtime),
		wfio.HashParam("heuristic", h),
		wfio.HashParam("grid", req.Grid),
		wfio.HashParam("seed", req.Seed),
		wfio.HashParam("refine", req.Refine),
		wfio.HashParam("mc", req.MCTrials),
	)
}

// schedule returns the encoded response body for a validated request,
// deduplicating by canonical hash: store hit, collapse onto an
// in-flight evaluation of the same hash, or a fresh search.
func (s *Server) schedule(hash string, req *Request, f *wfio.File) (body []byte, status string, err error) {
	if body, ok := s.store.Get(hash); ok {
		s.count(&s.hits, "hit")
		return body, "hit", nil
	}
	s.mu.Lock()
	if c, ok := s.inflight[hash]; ok {
		s.mu.Unlock()
		atomic.AddInt64(&c.waiters, 1)
		<-c.done
		// Count the collapse only on success, so hitRate (which
		// divides by successfully served requests) stays ≤ 1 when an
		// in-flight evaluation fails for all its waiters.
		if c.err == nil {
			s.count(&s.collapsed, "collapsed")
		}
		return c.body, "collapsed", c.err
	}
	// Re-check under the lock: the evaluation that was in flight at
	// our store miss may have completed in between.
	if body, ok := s.store.Get(hash); ok {
		s.mu.Unlock()
		s.count(&s.hits, "hit")
		return body, "hit", nil
	}
	c := &call{done: make(chan struct{})}
	s.inflight[hash] = c
	s.mu.Unlock()

	c.body, c.err = s.evaluate(hash, req, f)
	if c.err == nil {
		s.store.Put(hash, c.body)
	}
	s.mu.Lock()
	delete(s.inflight, hash)
	s.mu.Unlock()
	close(c.done)
	if c.err == nil {
		s.count(nil, "miss")
	}
	return c.body, "miss", c.err
}

// count increments served plus, optionally, one dedup outcome
// counter — served first, so a concurrent /stats snapshot can never
// observe more hits+collapses than served requests — and mirrors the
// outcome into the /metrics counter family.
func (s *Server) count(outcome *int64, label string) {
	atomic.AddInt64(&s.served, 1)
	if outcome != nil {
		atomic.AddInt64(outcome, 1)
	}
	s.obs.cacheOutcomes.With(label).Inc()
}

// workerShare splits the server's worker budget across the
// evaluations running right now (at least one worker each). Both
// engines are worker-count-invariant, so the share only affects
// throughput, never a response byte.
func (s *Server) workerShare() int {
	running := atomic.LoadInt64(&s.running)
	if running < 1 {
		running = 1
	}
	share := s.cfg.Workers / int(running)
	if share < 1 {
		share = 1
	}
	return share
}

// evaluate runs the actual engines and encodes the response body.
func (s *Server) evaluate(hash string, req *Request, f *wfio.File) ([]byte, error) {
	atomic.AddInt64(&s.searches, 1)
	atomic.AddInt64(&s.running, 1)
	defer atomic.AddInt64(&s.running, -1)
	if s.onSearch != nil {
		s.onSearch(hash)
	}

	g := f.Graph
	plat := failure.Platform{Lambda: req.Lambda, Downtime: req.Downtime}
	opts := sched.Options{RFSeed: req.Seed, Grid: req.Grid}
	var hs []sched.Heuristic
	if req.Heuristic == "" || req.Heuristic == "all" {
		hs = sched.Paper14(opts)
	} else {
		h, err := sched.ByName(req.Heuristic, opts)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		hs = []sched.Heuristic{h}
	}

	share := s.workerShare()
	s.obs.workerShare.Set(float64(share))
	searchStart := now()
	results := portfolio.Run(hs, g, plat, portfolio.Options{Workers: share, Refine: req.Refine})
	s.obs.searchDuration.Observe(now().Sub(searchStart).Seconds())
	best := portfolio.Best(results)

	resp := &Response{
		Hash:  hash,
		Tasks: g.N(),
		TInf:  g.TotalWeight(),
		// Non-nil empty slices: an empty list must encode as the JSON
		// [] a client can iterate, never as null.
		Results: []HeuristicResult{},
	}
	for _, r := range results {
		resp.Results = append(resp.Results, HeuristicResult{
			Heuristic: r.Name,
			Expected:  r.Expected,
			Ratio:     r.Ratio,
			NumCkpt:   r.Schedule.NumCheckpointed(),
		})
	}
	resp.Best = BestResult{
		HeuristicResult: HeuristicResult{
			Heuristic: best.Name,
			Expected:  best.Expected,
			Ratio:     best.Ratio,
			NumCkpt:   best.Schedule.NumCheckpointed(),
		},
		Order: []string{},
		Ckpt:  []string{},
	}
	for _, id := range best.Schedule.Order {
		resp.Best.Order = append(resp.Best.Order, g.Name(id))
	}
	for id, b := range best.Schedule.Ckpt {
		if b {
			resp.Best.Ckpt = append(resp.Best.Ckpt, g.Name(id))
		}
	}

	if req.MCTrials > 0 {
		// Same seed offset as cmd/wfsched -mc, so the service and the
		// CLI cross-validate identically.
		mcStart := now()
		res, err := mc.Run(best.Schedule, plat, mc.Config{
			Trials:      req.MCTrials,
			Seed:        req.Seed + 99,
			Workers:     share,
			Percentiles: []float64{5, 50, 95, 99},
			Factory:     simulator.Factory(),
		})
		s.obs.mcDuration.Observe(now().Sub(mcStart).Seconds())
		if err != nil {
			return nil, badRequest("%v", err)
		}
		acc := res.Makespan
		resp.MC = &MCValidation{
			Trials:      req.MCTrials,
			Mean:        acc.Mean(),
			CI99:        acc.CI(0.99),
			P5:          res.Percentiles[0],
			P50:         res.Percentiles[1],
			P95:         res.Percentiles[2],
			P99:         res.Percentiles[3],
			Max:         acc.Max(),
			AvgFailures: res.AvgFailures(),
		}
	}

	body, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// ReadResponse decodes one response body — the client-side helper
// used by cmd tests and example clients.
func ReadResponse(r io.Reader) (*Response, error) {
	var resp Response
	if err := json.NewDecoder(r).Decode(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
