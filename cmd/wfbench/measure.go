package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs is not modified; an
// empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapSampler tracks the peak bytes in heap objects — live, plus dead
// but not yet swept — sampling every 10 ms while it runs. The live heap
// alone changes only at each collection, so for large heaps its peak
// rests on a handful of collections and swings between runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: readHeap()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.peak = max(h.peak, readHeap())
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MB (10^6 bytes).
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(max(h.peak, readHeap())) / 1e6
}

// heapGrowthMB returns the live-heap growth in MB caused by build,
// whose result is kept reachable until after the second measurement.
func heapGrowthMB(build func() any) float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	before := m.HeapAlloc
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(v)
	return (float64(m.HeapAlloc) - float64(before)) / 1e6
}

// section is the timed part of one run. Operations report their own
// latency, so a check that follows an operation stays outside it.
type section struct {
	budget time.Duration

	mu        sync.Mutex
	start     time.Time
	elapsed   time.Duration
	latMS     []float64
	done      []time.Duration // completion of each successful operation, since start
	rates     []float64       // operations per second in each round or window
	attempted int
	failed    int
	errs      []error
}

// windows is how many equal windows a closed loop's budget is cut into
// for its per-window rates.
const windows = 10

// record books one attempted operation.
func (s *section) record(lat time.Duration, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if err != nil {
		s.fail(err)
		return
	}
	s.latMS = append(s.latMS, ms(lat))
	s.done = append(s.done, time.Since(s.start))
}

// fail books a failed check; callers hold s.mu or run after the
// section's goroutines have ended.
func (s *section) fail(err error) {
	s.failed++
	if len(s.errs) < 10 {
		s.errs = append(s.errs, err)
	}
}

// checkFailed books a failed check of an operation already recorded.
func (s *section) checkFailed(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fail(err)
}

// sequential runs op(0), op(1), … one at a time in rounds of round
// operations. It starts another round only while the rounds so far
// predict that it ends within the budget, and always runs one, so a
// run covers whole rounds of a fixed composition.
func (s *section) sequential(round int, op func(i int) (time.Duration, error)) {
	s.start = time.Now()
	for r := 0; ; r++ {
		roundStart := time.Now()
		for k := 0; k < round; k++ {
			lat, err := op(r*round + k)
			s.record(lat, err)
		}
		s.rates = append(s.rates, float64(round)/time.Since(roundStart).Seconds())
		done := time.Since(s.start)
		if done+done/time.Duration(r+1) > s.budget {
			break
		}
	}
	s.elapsed = time.Since(s.start)
}

// closedLoop runs op from `clients` goroutines, each sending its next
// operation only after the previous one completed, until the budget
// has elapsed or limit operations were started. Operations in flight
// at the deadline complete and count; the per-window rates count
// completions inside the budget only.
func (s *section) closedLoop(clients, limit int, op func(client, i int) (time.Duration, error)) {
	s.start = time.Now()
	deadline := s.start.Add(s.budget)
	var next int
	var nextMu sync.Mutex
	take := func() (int, bool) {
		nextMu.Lock()
		defer nextMu.Unlock()
		if next >= limit || !time.Now().Before(deadline) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				lat, err := op(c, i)
				s.record(lat, err)
			}
		}()
	}
	wg.Wait()
	s.elapsed = time.Since(s.start)
	span := min(s.budget, s.elapsed)
	w := span / windows
	counts := make([]int, windows)
	for _, d := range s.done {
		if d < span {
			counts[min(int(d/w), windows-1)]++
		}
	}
	for _, c := range counts {
		s.rates = append(s.rates, float64(c)/w.Seconds())
	}
}
