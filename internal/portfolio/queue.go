package portfolio

import (
	"sync"
	"sync/atomic"
)

// This file is the deterministic span scheduler. The static span
// partition built by Run is only a starting point: span costs are
// wildly non-uniform once bound-pruning is on (a pruned span returns
// in microseconds, an unpruned n = 2000 scan runs for seconds), so any
// fixed assignment leaves workers idle behind the slowest span. Here
// the spans feed a shared queue, and busy workers donate the
// unevaluated back half of their range whenever someone is starving,
// so a long sweep spreads across the whole worker budget. Donation is
// the only load balancer.
//
// # Why donation cannot change the answer
//
// Every candidate is a pure function of its (heuristic, N) pair: the
// order slice is shared and read-only, an evaluator returns the bits
// of a full Theorem-3 pass whatever state it has loaded, and
// bound-pruning only ever skips candidates that are provably
// beaten by an already-evaluated candidate of the same heuristic. A
// donation changes only *which worker* evaluates each N — never the
// candidate set — and the reduction folds completed spans in a fixed
// canonical order (heuristic, then N-range key) under
// sched.CanonicalBetter's total order. So the merged winner is
// bit-identical for any worker count and any donation schedule, which
// the determinism stress test pins under the race detector.

// minSpan is the smallest N-range a donation may hand off. Below ~8
// values the per-span overhead (masker build, one full evaluator
// load) outweighs the parallelism gained.
const minSpan = 8

// span is one schedulable unit: a contiguous slice of heuristic h's
// N values, or (ns == nil) one opaque Strategy.Apply call.
type span struct {
	h  int
	ns []int
	// key identifies the span's N-range in the canonical reduction:
	// its first N value — unique within a heuristic per batch, because
	// every N appears in exactly one span — or -1 for opaque cells.
	key int
}

// spanQueue is a mutex-guarded queue of spans. Workers pop from
// the front (preserving the locality-friendly construction order);
// donated spans join the back.
type spanQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []span
	active int          // workers currently executing a span
	hungry atomic.Int32 // workers blocked in next — the donation signal
}

func newSpanQueue(spans []span) *spanQueue {
	s := &spanQueue{queue: spans}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// next leases the front span to the calling worker, blocking while
// the queue is empty but spans are still in flight (a busy worker may
// donate). Returns false when the batch is drained.
func (s *spanQueue) next() (span, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(s.queue) > 0 {
			sp := s.queue[0]
			s.queue = s.queue[1:]
			s.active++
			return sp, true
		}
		if s.active == 0 {
			s.cond.Broadcast()
			return span{}, false
		}
		s.hungry.Add(1)
		s.cond.Wait()
		s.hungry.Add(-1)
	}
}

// finish returns a span's lease. The last finisher with an empty
// queue releases every blocked worker.
func (s *spanQueue) finish() {
	s.mu.Lock()
	s.active--
	if s.active == 0 && len(s.queue) == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// starving reports whether any worker is blocked waiting for work —
// the cheap check busy workers make between evaluations to decide
// whether to donate the back half of their remaining range.
func (s *spanQueue) starving() bool { return s.hungry.Load() > 0 }

// donate pushes the unevaluated back half of a running span's range
// and wakes one starving worker.
func (s *spanQueue) donate(sp span) {
	s.mu.Lock()
	s.queue = append(s.queue, sp)
	s.cond.Signal()
	s.mu.Unlock()
}

// testSpanDelay, when non-nil, is called before each span executes —
// a test-only hook the determinism stress test uses to inject
// randomized delays, exercise arbitrary completion and donation
// orders, and count the spans a run executes.
var testSpanDelay func(h, key int)
