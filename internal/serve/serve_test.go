package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pwg"
	"repro/internal/wfio"
)

// testWorkflow renders a small generated workflow as a JSON request
// body with the given options.
func testWorkflow(t *testing.T, n int, seed uint64, mod func(*Request)) []byte {
	t.Helper()
	g, err := pwg.Generate(pwg.Random, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{Workflow: *wfio.ToJSON(g, nil, nil), Lambda: 1e-3}
	if mod != nil {
		mod(req)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// post sends one scheduling request and returns the body and cache
// header.
func post(t *testing.T, url string, contentType string, body []byte) ([]byte, string, int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/schedule", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return out, resp.Header.Get("X-Wfserve-Cache"), resp.StatusCode
}

func TestLRUCache(t *testing.T) {
	c := NewLRU(2, 0)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if v, ok := c.Get("a"); !ok || string(v) != "A" {
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C")) // evicts b (a was refreshed)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite recency")
	}
	if st := c.Stats(); st.Len != 2 || st.Cap != 2 || st.Bytes != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Re-putting a key must refresh, not grow.
	c.Put("a", []byte("A2"))
	if v, _ := c.Get("a"); string(v) != "A2" {
		t.Fatal("re-put did not update")
	}
	if st := c.Stats(); st.Len != 2 || st.Bytes != 3 {
		t.Fatalf("re-put grew cache to %d entries / %d bytes", st.Len, st.Bytes)
	}
}

// TestLRUByteBudget pins the second bound: total resident body bytes
// never exceed the budget, and a body larger than the whole budget
// is served but not stored.
func TestLRUByteBudget(t *testing.T) {
	c := NewLRU(100, 10)
	c.Put("a", []byte("aaaa"))   // 4 bytes resident
	c.Put("b", []byte("bbbb"))   // 8 resident
	c.Put("c", []byte("cccccc")) // 14 > 10 → evicts a, leaving b+c = 10
	if st := c.Stats(); st.Bytes > 10 {
		t.Fatalf("byte budget exceeded: %d", st.Bytes)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("oldest entry survived a byte-budget eviction")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("newest entry missing")
	}
	// Oversized bodies are not cached at all.
	c.Put("huge", make([]byte, 11))
	if _, ok := c.Get("huge"); ok {
		t.Fatal("body larger than the whole budget was cached")
	}
	if st := c.Stats(); st.Bytes > 10 || st.Len > 2 {
		t.Fatalf("oversized put corrupted accounting: %d entries, %d bytes", st.Len, st.Bytes)
	}
}

// TestColdVsCachedBitIdentical pins the core cache contract: the
// cached response is byte-for-byte the cold one, and the cache header
// reports the difference.
func TestColdVsCachedBitIdentical(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := testWorkflow(t, 15, 3, func(r *Request) { r.MCTrials = 400; r.Seed = 5 })

	cold, st1, code1 := post(t, ts.URL, "application/json", body)
	warm, st2, code2 := post(t, ts.URL, "application/json", body)
	if code1 != 200 || code2 != 200 {
		t.Fatalf("status %d/%d: %s", code1, code2, cold)
	}
	if st1 != "miss" || st2 != "hit" {
		t.Fatalf("cache headers = %q, %q", st1, st2)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cached response differs from cold:\n%s\nvs\n%s", cold, warm)
	}
	if st := srv.Stats(); st.Searches != 1 || st.CacheHits != 1 || st.Served != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// A fresh server (different worker budget) must produce the same
	// bytes: responses are pure functions of the canonical hash.
	srv2 := New(Config{Workers: 1})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	other, _, _ := post(t, ts2.URL, "application/json", body)
	if !bytes.Equal(cold, other) {
		t.Fatal("response depends on the server's worker budget")
	}
}

// TestConcurrentIdenticalCollapse pins singleflight: N concurrent
// identical requests run exactly one portfolio search and all receive
// the same bytes. The search is held open until every other request
// is provably waiting on it, so the collapse is deterministic.
func TestConcurrentIdenticalCollapse(t *testing.T) {
	const clients = 8
	srv := New(Config{Workers: 2})
	started := make(chan string, clients)
	release := make(chan struct{})
	srv.onSearch = func(h string) {
		started <- h
		<-release
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := testWorkflow(t, 12, 1, nil)

	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	statuses := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], statuses[i], _ = post(t, ts.URL, "application/json", body)
		}(i)
	}

	// Exactly one search starts; find its in-flight call and wait
	// until the other clients are registered waiters on it.
	hash := <-started
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.mu.Lock()
		c := srv.inflight[hash]
		srv.mu.Unlock()
		if c != nil && atomic.LoadInt64(&c.waiters) == clients-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for requests to collapse onto the in-flight search")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	select {
	case h := <-started:
		t.Fatalf("second search started for hash %s", h)
	default:
	}
	if st := srv.Stats(); st.Searches != 1 || st.Collapsed != clients-1 || st.Served != clients {
		t.Fatalf("stats = %+v", st)
	}
	miss, collapsed := 0, 0
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("response %d differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
		switch statuses[i] {
		case "miss":
			miss++
		case "collapsed":
			collapsed++
		default:
			t.Fatalf("unexpected cache status %q", statuses[i])
		}
	}
	if miss != 1 || collapsed != clients-1 {
		t.Fatalf("statuses = %v", statuses)
	}
}

// TestConcurrentLoadDeterministic is the load-style test: a burst of
// concurrent requests over a few distinct workflows, each duplicated
// several times, must execute exactly one search per distinct hash
// and answer every duplicate with identical bytes — under -race this
// also shakes out cache/singleflight data races.
func TestConcurrentLoadDeterministic(t *testing.T) {
	const distinct = 4
	const dups = 6
	srv := New(Config{Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reqs := make([][]byte, distinct)
	for i := range reqs {
		reqs[i] = testWorkflow(t, 10+i, uint64(i+1), func(r *Request) { r.Grid = 3 })
	}
	type result struct {
		wf   int
		body []byte
	}
	results := make(chan result, distinct*dups)
	var wg sync.WaitGroup
	for i := 0; i < distinct; i++ {
		for d := 0; d < dups; d++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				body, _, code := post(t, ts.URL, "application/json", reqs[i])
				if code != 200 {
					t.Errorf("workflow %d: status %d: %s", i, code, body)
					return
				}
				results <- result{wf: i, body: body}
			}(i)
		}
	}
	wg.Wait()
	close(results)

	byWF := make(map[int][][]byte)
	for r := range results {
		byWF[r.wf] = append(byWF[r.wf], r.body)
	}
	if len(byWF) != distinct {
		t.Fatalf("missing results: %d workflows answered", len(byWF))
	}
	for wf, bodies := range byWF {
		for _, b := range bodies {
			if !bytes.Equal(b, bodies[0]) {
				t.Fatalf("workflow %d: concurrent duplicates diverged", wf)
			}
		}
		if len(bodies) != dups {
			t.Fatalf("workflow %d: %d answers", wf, len(bodies))
		}
	}
	st := srv.Stats()
	if st.Searches != distinct {
		t.Fatalf("ran %d searches for %d distinct workflows (stats %+v)", st.Searches, distinct, st)
	}
	if st.Served != distinct*dups || st.CacheHits+st.Collapsed != int64(distinct*(dups-1)) {
		t.Fatalf("stats don't add up: %+v", st)
	}
	// Distinct workflows must not alias in the cache.
	var first Response
	if err := json.Unmarshal(byWF[0][0], &first); err != nil {
		t.Fatal(err)
	}
	var second Response
	if err := json.Unmarshal(byWF[1][0], &second); err != nil {
		t.Fatal(err)
	}
	if first.Hash == second.Hash {
		t.Fatal("distinct workflows share a canonical hash")
	}
}

// TestTextBindingMatchesJSON pins that the wfio text binding and the
// JSON binding of the same workflow and options produce the same
// canonical hash — and therefore the same cached response bytes.
func TestTextBindingMatchesJSON(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	g, err := pwg.Generate(pwg.Random, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := wfio.Write(&text, g, nil, nil); err != nil {
		t.Fatal(err)
	}
	jsonBody := testWorkflow(t, 12, 9, func(r *Request) { r.Lambda = 1e-3; r.Grid = 4; r.Seed = 2 })

	fromJSON, st1, code1 := post(t, ts.URL, "application/json", jsonBody)
	resp, err := http.Post(ts.URL+"/v1/schedule?lambda=1e-3&grid=4&seed=2", "text/plain", &text)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fromText, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if code1 != 200 || resp.StatusCode != 200 {
		t.Fatalf("status %d/%d: %s %s", code1, resp.StatusCode, fromJSON, fromText)
	}
	if st1 != "miss" || resp.Header.Get("X-Wfserve-Cache") != "hit" {
		t.Fatalf("text binding did not hit the JSON binding's cache entry (%q, %q)",
			st1, resp.Header.Get("X-Wfserve-Cache"))
	}
	if !bytes.Equal(fromJSON, fromText) {
		t.Fatal("bindings produced different bytes")
	}
}

// TestEvictionForcesResearch pins the LRU bound: once an entry is
// evicted, the same request is a fresh search again.
func TestEvictionForcesResearch(t *testing.T) {
	srv := New(Config{CacheSize: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	a := testWorkflow(t, 10, 1, nil)
	b := testWorkflow(t, 11, 2, nil)
	c := testWorkflow(t, 12, 3, nil)

	post(t, ts.URL, "application/json", a)
	post(t, ts.URL, "application/json", b)
	post(t, ts.URL, "application/json", c) // evicts a
	first, status, _ := post(t, ts.URL, "application/json", a)
	if status != "miss" {
		t.Fatalf("expected re-search after eviction, got %q", status)
	}
	if st := srv.Stats(); st.Searches != 4 || st.Evictions < 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The re-search still returns identical bytes.
	again, status, _ := post(t, ts.URL, "application/json", a)
	if status != "hit" || !bytes.Equal(first, again) {
		t.Fatal("re-searched entry not cached or diverged")
	}
}

func TestRequestValidation(t *testing.T) {
	srv := New(Config{MaxTasks: 50, MaxMCTrials: 1000})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := map[string][]byte{
		"cycle": []byte(`{"workflow":{"tasks":[{"name":"a","weight":1},{"name":"b","weight":1}],
			"edges":[{"from":"a","to":"b"},{"from":"b","to":"a"}]}}`),
		"order present": []byte(`{"workflow":{"tasks":[{"name":"a","weight":1}],"order":["a"]}}`),
		"ckpt present":  []byte(`{"workflow":{"tasks":[{"name":"a","weight":1}],"ckpt":["a"]}}`),
		"no tasks":      []byte(`{"workflow":{}}`),
		"negative grid": testWorkflow(t, 10, 1, func(r *Request) { r.Grid = -1 }),
		"negative mc":   testWorkflow(t, 10, 1, func(r *Request) { r.MCTrials = -1 }),
		"mc too large":  testWorkflow(t, 10, 1, func(r *Request) { r.MCTrials = 5000 }),
		"bad heuristic": testWorkflow(t, 10, 1, func(r *Request) { r.Heuristic = "DF-Frob" }),
		"bad lambda":    testWorkflow(t, 10, 1, func(r *Request) { r.Lambda = -1 }),
		"too large":     testWorkflow(t, 60, 1, nil),
		"not json":      []byte(`task a 1`),
	}
	for name, body := range cases {
		out, _, code := post(t, ts.URL, "application/json", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", name, code, out)
			continue
		}
		var e map[string]string
		if err := json.Unmarshal(out, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body not JSON: %s", name, out)
		}
	}

	// Bad query parameters on the text binding.
	resp, err := http.Post(ts.URL+"/v1/schedule?grid=frob", "text/plain", strings.NewReader("task a 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query param: status %d", resp.StatusCode)
	}
	// A typoed query key must be rejected, not silently ignored —
	// the text binding's twin of DisallowUnknownFields.
	resp, err = http.Post(ts.URL+"/v1/schedule?lamda=1e-3", "text/plain", strings.NewReader("task a 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown query key: status %d", resp.StatusCode)
	}
	// Non-finite weights pass ParseFloat; Graph.Validate must stop
	// them before the engines (they would fail only at JSON encoding).
	for _, wf := range []string{"task a Inf\n", "task a NaN\n", "task a 1 Inf\n"} {
		resp, err = http.Post(ts.URL+"/v1/schedule", "text/plain", strings.NewReader(wf))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("non-finite workflow %q: status %d", wf, resp.StatusCode)
		}
	}

	// Oversized bodies fail with 413 before parsing.
	big := New(Config{MaxBodyBytes: 64})
	tsBig := httptest.NewServer(big.Handler())
	defer tsBig.Close()
	var huge bytes.Buffer
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&huge, "task t%d 1\n", i)
	}
	resp, err = http.Post(tsBig.URL+"/v1/schedule", "text/plain", &huge)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d", resp.StatusCode)
	}

	// Unsupported content type and method.
	resp, err = http.Post(ts.URL+"/v1/schedule", "application/xml", strings.NewReader("<wf/>"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("xml content type: status %d", resp.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/schedule: status %d", getResp.StatusCode)
	}

	// Nothing should have reached the engines, and errors are counted.
	if st := srv.Stats(); st.Searches != 0 || st.Errors == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHealthzAndStats(t *testing.T) {
	srv := New(Config{Workers: 3})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(hb), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, hb)
	}

	post(t, ts.URL, "application/json", testWorkflow(t, 10, 1, nil))
	post(t, ts.URL, "application/json", testWorkflow(t, 10, 1, nil))

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Served != 2 || st.Searches != 1 || st.CacheHits != 1 || st.WorkerPool != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate != 0.5 {
		t.Fatalf("hit rate = %v", st.HitRate)
	}
}

// TestMCValidationSection pins the Monte-Carlo part of the response:
// percentiles are ordered and the sample mean lands near the analytic
// expectation (both engines already guarantee determinism; this
// checks the plumbing).
func TestMCValidationSection(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, _, code := post(t, ts.URL, "application/json",
		testWorkflow(t, 12, 4, func(r *Request) { r.MCTrials = 3000; r.Seed = 11 }))
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	resp, err := ReadResponse(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.MC == nil || resp.MC.Trials != 3000 {
		t.Fatalf("MC section missing: %+v", resp.MC)
	}
	if !(resp.MC.P5 <= resp.MC.P50 && resp.MC.P50 <= resp.MC.P95 && resp.MC.P95 <= resp.MC.P99 && resp.MC.P99 <= resp.MC.Max) {
		t.Fatalf("percentiles out of order: %+v", resp.MC)
	}
	if rel := (resp.MC.Mean - resp.Best.Expected) / resp.Best.Expected; rel < -0.2 || rel > 0.2 {
		t.Fatalf("MC mean %.4g far from analytic %.4g", resp.MC.Mean, resp.Best.Expected)
	}
	if len(resp.Best.Order) != resp.Tasks || resp.Best.NumCkpt != len(resp.Best.Ckpt) {
		t.Fatalf("best schedule inconsistent: %+v", resp.Best)
	}
}

// TestSingleHeuristicMatchesPortfolioEntry pins that heuristic
// selection changes the hash and narrows the result set.
func TestSingleHeuristicMatchesPortfolioEntry(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	all, _, _ := post(t, ts.URL, "application/json", testWorkflow(t, 12, 2, nil))
	one, _, code := post(t, ts.URL, "application/json",
		testWorkflow(t, 12, 2, func(r *Request) { r.Heuristic = "DF-CkptW" }))
	if code != 200 {
		t.Fatalf("status %d: %s", code, one)
	}
	ra, err := ReadResponse(bytes.NewReader(all))
	if err != nil {
		t.Fatal(err)
	}
	ro, err := ReadResponse(bytes.NewReader(one))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Hash == ro.Hash {
		t.Fatal("heuristic selection did not change the hash")
	}
	if len(ro.Results) != 1 || ro.Results[0].Heuristic != "DF-CkptW" {
		t.Fatalf("results = %+v", ro.Results)
	}
	var fromAll *HeuristicResult
	for i := range ra.Results {
		if ra.Results[i].Heuristic == "DF-CkptW" {
			fromAll = &ra.Results[i]
		}
	}
	if fromAll == nil || fromAll.Expected != ro.Results[0].Expected {
		t.Fatalf("single-heuristic run diverged from its portfolio entry: %+v vs %+v", fromAll, ro.Results[0])
	}
}

// Regression test for a nondeterminism bug wfvet's maporder analyzer
// surfaced: queryOptions ranged directly over the url.Values map, so
// with several unknown parameters the reported offender — and thus
// the error-response bytes — depended on randomized map iteration
// order. The fix validates keys in sorted order; the loop below would
// flake almost surely before it.
func TestQueryOptionsUnknownKeyDeterministic(t *testing.T) {
	q := url.Values{"zzz": {"1"}, "mmm": {"1"}, "aaa": {"1"}, "lambda": {"0.01"}}
	for i := 0; i < 64; i++ {
		_, err := queryOptions(q)
		if err == nil {
			t.Fatal("expected an unknown-parameter error")
		}
		if want := `unknown query parameter "aaa"`; err.Error() != want {
			t.Fatalf("iteration %d: error %q, want %q (first offender must be deterministic)", i, err.Error(), want)
		}
	}
}
