package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/pwg"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/serve"
)

var families = []pwg.Workflow{pwg.Montage, pwg.CyberShake, pwg.Ligo, pwg.Genome}

// server is an in-process wfserve with a keep-alive client that opens
// at most nproc connections.
type server struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func newServer(nproc int) *server {
	srv := serve.New(serve.Config{Workers: nproc})
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true}
	return &server{srv: srv, ts: ts, client: &http.Client{Transport: tr}}
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
}

// reply is one response as the client saw it.
type reply struct {
	status int
	cache  string
	body   []byte
	lat    time.Duration
}

func (s *server) post(r *request) (reply, error) {
	start := time.Now()
	resp, err := s.client.Post(s.ts.URL+r.path, r.ctype, bytes.NewReader(r.body))
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Wfserve-Cache"), body: body, lat: lat}, nil
}

// get fetches a read-only endpoint such as /metrics.
func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.ts.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// checkBody validates a /v1/schedule response body against the
// request it answers: it decodes, covers every task, its winner is
// finite and not below the lower bound, and it carries a Monte-Carlo
// validation exactly when one was asked for.
func checkBody(inst *instance, body []byte) error {
	resp, err := serve.ReadResponse(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%s: response does not decode: %w", inst.label, err)
	}
	g, err := inst.graph()
	if err != nil {
		return err
	}
	e := resp.Best.Expected
	if math.IsNaN(e) || math.IsInf(e, 0) {
		return fmt.Errorf("%s: best.expected %v is not finite", inst.label, e)
	}
	if lb := core.LowerBound(g, inst.plat); e < lb {
		return fmt.Errorf("%s: best.expected %v below lower bound %v", inst.label, e, lb)
	}
	if resp.Tasks != inst.n || len(resp.Best.Order) != inst.n {
		return fmt.Errorf("%s: response covers %d tasks, order has %d, want %d", inst.label, resp.Tasks, len(resp.Best.Order), inst.n)
	}
	if (resp.MC != nil) != (inst.mc > 0) || (resp.MC != nil && resp.MC.Trials != inst.mc) {
		return fmt.Errorf("%s: Monte-Carlo validation does not match the %d trials requested", inst.label, inst.mc)
	}
	return nil
}

// catalog generates distinct requests in blocks that cover every
// family × task count in ns × λ ∈ {1e-3, 1e-4} × Monte-Carlo trials in
// mcs × binding combination once, in random order. shape draws the
// order; seed generates the workflows. Unless keep is set, the encoded
// body is all a request retains.
func catalog(shape *rng.Source, seed uint64, count int, ns, mcs []int, keep bool) ([]*request, error) {
	block := len(families) * len(ns) * 2 * len(mcs) * 2
	var out []*request
	for len(out) < count {
		for _, c := range shape.Perm(block) {
			if len(out) == count {
				break
			}
			wf := families[c%len(families)]
			c /= len(families)
			n := ns[c%len(ns)]
			c /= len(ns)
			lambda := []float64{1e-3, 1e-4}[c%2]
			c /= 2
			mcTrials := mcs[c%len(mcs)]
			text := c/len(mcs) == 1
			id := uint64(len(out))
			inst, err := newInstance(wf, n, rng.StreamSeed(seed, id),
				failure.Platform{Lambda: lambda},
				sched.Options{Grid: 24, RFSeed: rng.StreamSeed(seed^0x5eed, id)}, mcTrials)
			if err != nil {
				return nil, err
			}
			r, err := newRequest(inst, text)
			if err != nil {
				return nil, err
			}
			if !keep {
				inst.g = nil
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// shapeSeed fixes the traffic's shape — task counts, the order of
// families and options, which requests repeat — so that runs on
// different seeds measure the same mix; --seed generates the workflows
// themselves and the Monte-Carlo streams.
const shapeSeed = 0x5ea7

// repeatSkew is how far back a repeated request reaches: each step one
// entry further back has this probability, so the distance is geometric
// with mean 4 entries. No observed wfserve traffic backs the value; it
// only makes "recent requests repeat most" concrete.
const repeatSkew = 0.8

// mixStream orders serve-mix's requests: each of the distinct entries
// once, and as many repeats, in seeded random order with the first
// request new. A repeat picks an entry introduced so far, recent ones
// most often (see repeatSkew).
func mixStream(src *rng.Source, distinct int) []int {
	stream := make([]int, 0, 2*distinct)
	introduced, repeats := 0, distinct
	for len(stream) < 2*distinct {
		fresh := distinct - introduced
		if introduced == 0 || (fresh > 0 && src.Intn(fresh+repeats) < fresh) {
			stream = append(stream, introduced)
			introduced++
			continue
		}
		back := 0
		for back < introduced-1 && src.Float64() < repeatSkew {
			back++
		}
		stream = append(stream, introduced-1-back)
		repeats--
	}
	return stream
}

// serveMix: a closed loop of nproc clients over a stream in which half
// the requests repeat a recent one (a store hit, or a collapse onto
// the in-flight search) and the other half are new.
type serveMix struct {
	srv     *server
	entries []*request
	stream  []int              // entry index per request
	warm    int                // searches set-up ran before the section
	busy0   map[string]float64 // the server's /metrics after set-up

	mu     sync.Mutex
	first  map[int][]byte // first body per entry
	status map[string][]float64
}

func setupServeMix(p *params) (job, error) {
	src := rng.New(shapeSeed)
	stream := mixStream(src, p.size.mixDistinct)
	sp := p.tr.begin("pwg.catalog", p.root, -1, 0)
	entries, err := catalog(src, p.seed, p.size.mixDistinct, p.size.mixN, []int{0, p.size.mixMC}, false)
	p.tr.end(sp)
	if err != nil {
		return nil, err
	}
	// Warm-up: connections, handler paths and the engines' code, on
	// requests outside the measured catalog.
	warm, err := catalog(rng.New(shapeSeed+1), warmSeed, 4, p.size.mixN, []int{0, p.size.mixMC}, false)
	if err != nil {
		return nil, err
	}
	j := &serveMix{srv: newServer(p.nproc), entries: entries, stream: stream, warm: len(warm),
		first: make(map[int][]byte), status: make(map[string][]float64)}
	for _, r := range warm {
		rep, err := j.srv.post(r)
		if err == nil && rep.status != http.StatusOK {
			err = fmt.Errorf("%s: warm-up status %d: %s", r.inst.label, rep.status, bytes.TrimSpace(rep.body))
		}
		if err != nil {
			j.close()
			return nil, err
		}
	}
	if j.busy0, err = scrape(j.srv); err != nil {
		j.close()
		return nil, err
	}
	return j, nil
}

func (j *serveMix) run(p *params) {
	sec := p.section
	sec.closedLoop(p.nproc, len(j.stream), func(client, i int) (time.Duration, error) {
		e := j.stream[i]
		sp := p.tr.begin("serve.request", p.root, i, client+1)
		r, err := j.srv.post(j.entries[e])
		p.tr.end(sp)
		if err != nil {
			return 0, err
		}
		if r.status != http.StatusOK {
			return 0, fmt.Errorf("%s: status %d: %s", j.entries[e].inst.label, r.status, bytes.TrimSpace(r.body))
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		j.status[r.cache] = append(j.status[r.cache], ms(r.lat))
		if prev, ok := j.first[e]; !ok {
			j.first[e] = r.body
		} else if !bytes.Equal(prev, r.body) {
			return 0, fmt.Errorf("%s: repeated request answered with different bytes (%s)", j.entries[e].inst.label, r.cache)
		}
		return r.lat, nil
	})
	// Hits and collapses count in ops_per_s; op_p50_ms is the latency of
	// a request that ran its own search. Over all requests, half of them
	// repeats, the median would sit on the boundary between hits
	// (under a millisecond) and searches (tens of milliseconds).
	sec.latMS = j.status["miss"]
}

func (j *serveMix) check(p *params) {
	for e, body := range j.first {
		if err := checkBody(j.entries[e].inst, body); err != nil {
			p.section.checkFailed(err)
		}
	}
	if got := j.srv.srv.Stats().Searches - int64(j.warm); got != int64(len(j.first)) {
		p.section.checkFailed(fmt.Errorf("server ran %d searches for %d distinct requests", got, len(j.first)))
	}
}

// largest returns the instance of the request with the most tasks.
func largest(rs []*request) *instance {
	best := rs[0].inst
	for _, r := range rs {
		if r.inst.n > best.n {
			best = r.inst
		}
	}
	return best
}

// probe is the largest request of the catalog's first block.
func (j *serveMix) probe() (*instance, error) {
	best := largest(j.entries[:min(32, len(j.entries))])
	g, err := best.graph()
	inst := *best
	inst.g = g
	return &inst, err
}

func (j *serveMix) report() []string {
	st := j.srv.srv.Stats()
	out := []string{fmt.Sprintf("serve: served=%d searches=%d hits=%d collapsed=%d dedup_ratio=%.4f evictions=%d",
		st.Served, st.Searches, st.CacheHits, st.Collapsed, st.HitRate, st.Evictions)}
	keys := make([]string, 0, len(j.status))
	for k := range j.status {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := j.status[k]
		out = append(out, fmt.Sprintf("serve: %-9s n=%-5d p50=%.3fms p90=%.3fms p98=%.3fms", k, len(v),
			median(v), quantile(v, 0.9), quantile(v, 0.98)))
	}
	m, err := scrape(j.srv)
	if err != nil {
		return append(out, "serve: /metrics: "+err.Error())
	}
	diff := func(name string) float64 { return m[name] - j.busy0[name] }
	search, mcBusy := diff("wfserve_search_duration_seconds_sum"), diff("wfserve_mc_duration_seconds_sum")
	misses := j.status["miss"]
	return append(out, fmt.Sprintf("serve: search_busy_s=%.4f mc_busy_s=%.4f overhead_ms_per_miss=%.4f",
		search, mcBusy, (sum(misses)-1000*(search+mcBusy))/math.Max(1, float64(len(misses)))))
}

func (j *serveMix) close() { j.srv.close() }

// serveHit: the same client loop over a small catalog that set-up has
// already answered once, so every timed request is a store hit — the
// path through HTTP, decoding, canonical hashing and the store.
type serveHit struct {
	srv     *server
	entries []*request
	bodies  [][]byte
	order   []int
}

func setupServeHit(p *params) (job, error) {
	src := rng.New(shapeSeed + 2)
	sp := p.tr.begin("pwg.catalog", p.root, -1, 0)
	entries, err := catalog(src, p.seed^0x417, 32, p.size.hitN, []int{0}, true)
	p.tr.end(sp)
	if err != nil {
		return nil, err
	}
	j := &serveHit{srv: newServer(p.nproc), entries: entries}
	for i, r := range entries {
		sp := p.tr.begin("serve.request", p.root, i, 0)
		rep, err := j.srv.post(r)
		p.tr.end(sp)
		if err == nil && rep.status != http.StatusOK {
			err = fmt.Errorf("%s: warm-up status %d: %s", r.inst.label, rep.status, bytes.TrimSpace(rep.body))
		}
		if err != nil {
			j.close()
			return nil, err
		}
		j.bodies = append(j.bodies, rep.body)
	}
	for len(j.order) < 1<<14 {
		j.order = append(j.order, src.Perm(len(entries))...)
	}
	return j, nil
}

func (j *serveHit) run(p *params) {
	p.section.closedLoop(p.nproc, math.MaxInt, func(client, i int) (time.Duration, error) {
		e := j.order[i%len(j.order)]
		sp := p.tr.begin("serve.request", p.root, i, client+1)
		r, err := j.srv.post(j.entries[e])
		p.tr.end(sp)
		if err != nil {
			return 0, err
		}
		if err := checkHit(r, j.bodies[e]); err != nil {
			return 0, fmt.Errorf("%s: %w", j.entries[e].inst.label, err)
		}
		return r.lat, nil
	})
}

// checkHit accepts a reply only if it is a 200 store hit whose body is
// byte-identical to the body of the original search.
func checkHit(r reply, want []byte) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if r.cache != "hit" {
		return fmt.Errorf("cache status %q, want hit", r.cache)
	}
	if !bytes.Equal(r.body, want) {
		return fmt.Errorf("hit body differs from the searched body")
	}
	return nil
}

func (j *serveHit) check(p *params) {
	for i, body := range j.bodies {
		if err := checkBody(j.entries[i].inst, body); err != nil {
			p.section.checkFailed(err)
		}
	}
	if got := j.srv.srv.Stats().Searches; got != int64(len(j.entries)) {
		p.section.checkFailed(fmt.Errorf("server ran %d searches for %d distinct requests", got, len(j.entries)))
	}
}

func (j *serveHit) probe() (*instance, error) { return largest(j.entries), nil }

func (j *serveHit) report() []string {
	st := j.srv.srv.Stats()
	return []string{fmt.Sprintf("serve: served=%d searches=%d hits=%d dedup_ratio=%.4f cache_bytes=%d",
		st.Served, st.Searches, st.CacheHits, st.HitRate, st.CacheBytes)}
}

func (j *serveHit) close() { j.srv.close() }

// scrape returns the unlabelled series of the server's /metrics.
func scrape(s *server) (map[string]float64, error) {
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range bytes.Split(body, []byte("\n")) {
		var name string
		var v float64
		if len(line) == 0 || line[0] == '#' || bytes.ContainsRune(line, '{') {
			continue
		}
		if _, err := fmt.Sscan(string(line), &name, &v); err == nil {
			out[name] = v
		}
	}
	return out, nil
}
