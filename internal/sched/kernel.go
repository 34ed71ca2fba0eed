package sched

import (
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/failure"
)

// This file is the N-sweep kernel: the one place a strategy's
// checkpoint counts are turned into evaluated, bound-pruned
// candidates. The serial sweepApply and internal/portfolio's parallel
// cells are both thin callers of Kernel.Span, so the two engines agree
// bit for bit by construction.

// Incumbent is a shared, monotonically decreasing expected-makespan
// floor that a sweep prunes against (core.Prunable). In the portfolio
// every cell of one heuristic's sweep shares one; workers race on it,
// but only downwards and only as a pruning threshold, never as a
// result: a stale (higher) read merely prunes less, and pruning
// against any incumbent discards only provably-losing candidates, so
// the canonical winner is unaffected by the race. Expected makespans
// are non-negative, so Min's CAS loop terminates.
type Incumbent struct {
	bits atomic.Uint64 // math.Float64bits of the current floor
}

// NewIncumbent returns a floor of +Inf (nothing evaluated yet).
func NewIncumbent() *Incumbent {
	in := &Incumbent{}
	in.bits.Store(math.Float64bits(math.Inf(1)))
	return in
}

// Load returns the current floor.
func (in *Incumbent) Load() float64 {
	return math.Float64frombits(in.bits.Load())
}

// Min lowers the floor to v if v is smaller.
func (in *Incumbent) Min(v float64) {
	for {
		old := in.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if in.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Candidate is the best (expected makespan, checkpoints, N) of a set
// of sweep points under CanonicalBetter.
type Candidate struct {
	Val  float64
	K    int    // checkpoints set
	N    int    // checkpoint count; -1 when nothing was evaluated
	Mask []bool // winning checkpoint mask, task-id space
}

// NoCandidate is the empty candidate a search starts from; every
// evaluated candidate with a finite value beats it.
func NoCandidate() Candidate { return Candidate{Val: math.Inf(1), N: -1} }

// Merge keeps the canonical better of c and o. CanonicalBetter is a
// total order, so merging any partition of a candidate set in any
// order yields the same winner.
func (c *Candidate) Merge(o Candidate) {
	if CanonicalBetter(o.Val, o.K, o.N, c.Val, c.K, c.N) {
		*c = o
	}
}

// Kernel is the checkpoint-count sweep of one NSweeper on one
// (graph, platform, linearization), built once per heuristic and
// instance: it holds the first-stage counts and the strategy's sweep
// lower bound (nil when the strategy has none). It is read-only after
// construction, so concurrent Span calls may share it.
type Kernel struct {
	sw    NSweeper
	g     *dag.Graph
	plat  failure.Platform
	order []int
	ns    []int
	bound func(N int) float64
}

// NewKernel builds the sweep of sw on (g, plat, order).
func NewKernel(sw NSweeper, g *dag.Graph, plat failure.Platform, order []int) *Kernel {
	k := &Kernel{sw: sw, g: g, plat: plat, order: order, ns: sw.Sweep(g.N())}
	if bs, ok := sw.(BoundedSweeper); ok {
		k.bound = bs.NewBounder(g, plat, order)
	}
	return k
}

// Stage1 returns the first-stage checkpoint counts, ascending (empty
// when n leaves nothing to search).
func (k *Kernel) Stage1() []int { return k.ns }

// Stage2 returns the second-stage counts around the first stage's
// winner bestN, bestN excluded, in descending order (empty when the
// strategy has no second stage). The first stage ends at its largest
// N, so a descending scan starts at the mask nearest the evaluator's
// loaded state and proceeds by single-bit steps; the candidate set,
// and hence the winner, does not depend on the order.
func (k *Kernel) Stage2(bestN int) []int {
	lo, hi := k.sw.SecondStage(k.g.N(), bestN, k.ns)
	var ns []int
	for N := hi; N >= lo; N-- {
		if N != bestN {
			ns = append(ns, N)
		}
	}
	return ns
}

// Span evaluates the checkpoint counts ns with ev.EvalSchedule, which
// re-evaluates incrementally from ev's loaded state (cheap because
// nearby counts share most mask bits; the value equals a full pass's),
// and returns their canonical best.
//
// With a non-nil inc, each N whose bound is prunable against the
// shared incumbent is skipped, and a span whose every N is prunable
// returns NoCandidate before building a masker; evaluated values lower
// the incumbent. A pruned N provably loses to an evaluated candidate,
// so the merged winner equals the unpruned one (inc == nil) bit for
// bit, however spans interleave.
//
// With a non-nil handoff, the kernel offers the back half of its
// unevaluated counts before each point; when handoff returns true the
// caller has taken them and the span ends early. Moving candidates to
// another caller never changes them.
func (k *Kernel) Span(ns []int, ev *core.Evaluator, inc *Incumbent, handoff func(back []int) bool) Candidate {
	best := NoCandidate()
	cur := math.Inf(1)
	if inc != nil {
		cur = inc.Load()
	}
	pruned := func(N int) bool { return k.bound != nil && core.Prunable(k.bound(N), cur) }
	i := 0
	for i < len(ns) && pruned(ns[i]) {
		i++
	}
	if i == len(ns) {
		return best
	}
	masker := k.sw.NewMasker(k.g, k.order)
	mask := make([]bool, k.g.N())
	s := &core.Schedule{Graph: k.g, Order: k.order, Ckpt: mask}
	for ; i < len(ns); i++ {
		if handoff != nil {
			if back := ns[i+(len(ns)-i+1)/2:]; len(back) > 0 && handoff(back) {
				ns = ns[:len(ns)-len(back)]
			}
		}
		N := ns[i]
		if inc != nil {
			cur = math.Min(cur, inc.Load())
		}
		if pruned(N) {
			continue
		}
		masker(N, mask)
		v := ev.EvalSchedule(s, k.plat)
		c := s.NumCheckpointed()
		if CanonicalBetter(v, c, N, best.Val, best.K, best.N) {
			best.Val, best.K, best.N = v, c, N
			best.Mask = append(best.Mask[:0], mask...)
		}
		if inc != nil && v < cur {
			cur = v
			inc.Min(v)
		}
	}
	return best
}

// sweepApply is the serial search over an NSweeper's checkpoint
// counts: the first stage, then the second-stage gap around its
// winner, both through the kernel against one incumbent.
func sweepApply(sw NSweeper, g *dag.Graph, plat failure.Platform, order []int, ev *core.Evaluator) (*core.Schedule, float64) {
	k := NewKernel(sw, g, plat, order)
	if len(k.Stage1()) == 0 { // n == 1: nothing to search, fall back to never
		return CkptNvr{}.Apply(g, plat, order, ev)
	}
	inc := NewIncumbent()
	best := k.Span(k.Stage1(), ev, inc, nil)
	best.Merge(k.Span(k.Stage2(best.N), ev, inc, nil))
	return &core.Schedule{Graph: g, Order: order, Ckpt: best.Mask}, best.Val
}
