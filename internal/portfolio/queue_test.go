package portfolio

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/pwg"
	"repro/internal/rng"
	"repro/internal/sched"
)

// spansOf builds a span set with the given range lengths, numbering
// N values consecutively so keys are recognizable.
func spansOf(lens ...int) []span {
	var spans []span
	next := 1
	for h, l := range lens {
		ns := make([]int, l)
		for i := range ns {
			ns[i] = next
			next++
		}
		spans = append(spans, span{h: h, ns: ns, key: ns[0]})
	}
	return spans
}

// flatten re-assembles the N values of a span set per heuristic.
func flatten(spans []span) map[int][]int {
	out := map[int][]int{}
	for _, sp := range spans {
		out[sp.h] = append(out[sp.h], sp.ns...)
	}
	return out
}

// The scheduler must hand out every span exactly once and release all
// workers at the end.
func TestStealSchedulerDrains(t *testing.T) {
	q := newSpanQueue(spansOf(200, 5, 97))
	var mu sync.Mutex
	got := map[int][]int{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sp, ok := q.next()
				if !ok {
					return
				}
				time.Sleep(time.Duration(len(sp.ns)) * time.Microsecond)
				mu.Lock()
				got[sp.h] = append(got[sp.h], sp.ns...)
				mu.Unlock()
				q.finish()
			}
		}()
	}
	wg.Wait()
	want := flatten(spansOf(200, 5, 97))
	for h, ns := range want {
		if len(got[h]) != len(ns) {
			t.Fatalf("heuristic %d: %d of %d N values scheduled", h, len(got[h]), len(ns))
		}
	}
}

// The determinism stress test: randomized per-span delays (via the
// test-only testSpanDelay hook) force arbitrary completion orders and
// donation schedules, and every run must produce the serial
// fingerprint bit for bit — across worker counts {1, 2, 7, NumCPU}
// and the clamped workers=999 case, on a grid instance and an
// exhaustive one. The hook also counts the spans each run executes: a
// donation adds a span, so on the exhaustive instance, whose long
// sweeps are the ones worth sharing, some multi-worker run must
// execute more spans than the serial run with the same chunking —
// the test fails if donation stops firing. The CI race job runs this
// under -race, so any unsynchronized scheduler state also fails here.
func TestStealDeterminismStress(t *testing.T) {
	r := rng.New(0xdecade)
	var (
		mu    sync.Mutex
		spans int
	)
	testSpanDelay = func(h, key int) {
		mu.Lock()
		spans++
		d := time.Duration(r.Intn(200)) * time.Microsecond
		mu.Unlock()
		time.Sleep(d)
	}
	defer func() { testSpanDelay = nil }()

	for _, tc := range []struct {
		grid, runs int
		// minChunk is the smallest chunk size of the case's runs: the
		// exhaustive case keeps spans at least 2·minSpan long, so
		// every run leaves something worth donating.
		minChunk int
		donates  bool
	}{
		{grid: 6, runs: 32, minChunk: 1},
		{grid: 0, runs: 16, minChunk: 2 * minSpan, donates: true},
	} {
		g := testGraph(t, pwg.CyberShake, 40, 21)
		hs := sched.Paper14(sched.Options{RFSeed: 7, Grid: tc.grid})
		want := fingerprint(Run(hs, g, plat, Options{Workers: 1}))
		runs := tc.runs
		if testing.Short() {
			runs = 4
		}
		serialSpans := make([]int, runs)
		donated := 0
		for _, workers := range []int{1, 2, 7, runtime.NumCPU(), 999} {
			n := runs
			if workers == 999 {
				n = 4 // clamped-budget spot check; the sweep above is the load
			}
			for run := 0; run < n; run++ {
				// Varying the chunk size varies the initial partition
				// donations start from.
				opt := Options{Workers: workers, ChunkSize: tc.minChunk + (run*7)%48}
				mu.Lock()
				spans = 0
				mu.Unlock()
				got := fingerprint(Run(hs, g, plat, opt))
				if got != want {
					t.Fatalf("grid=%d workers=%d run=%d chunk=%d diverged from serial:\n got %s\nwant %s",
						tc.grid, workers, run, opt.ChunkSize, got, want)
				}
				mu.Lock()
				if workers == 1 {
					serialSpans[run] = spans
				} else if spans > serialSpans[run] {
					donated++
				}
				mu.Unlock()
			}
		}
		t.Logf("grid=%d: %d multi-worker runs donated", tc.grid, donated)
		if tc.donates && donated == 0 {
			t.Fatalf("grid=%d: no multi-worker run executed more spans than the serial run — donation never fired", tc.grid)
		}
	}
}
