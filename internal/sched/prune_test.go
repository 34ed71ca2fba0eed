package sched

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/pwg"
)

// pruneStrategies is the strategy set the pruned-vs-unpruned harness
// covers: every N-sweeping strategy, exhaustive and gridded (with and
// without a second stage), including CkptPer, which has no bounder
// and must sweep identically with or without an incumbent.
func pruneStrategies() []Strategy {
	return []Strategy{
		NewCkptW(0), NewCkptC(0), NewCkptD(0),
		NewCkptW(5), NewCkptC(5), NewCkptD(5),
		CkptPer{}, CkptPer{Grid: 5},
	}
}

// applyFingerprint renders a strategy application bit-exactly.
func applyFingerprint(s *core.Schedule, v float64) string {
	return fmt.Sprintf("%x|%v|%v", math.Float64bits(v), s.Order, s.Ckpt)
}

// pruneInstances yields the harness workload: the paper's four DAG
// families at two sizes × three seeds, plus random layered DAGs, for
// ~50 instances total.
func pruneInstances(t *testing.T) []*dag.Graph {
	t.Helper()
	var gs []*dag.Graph
	for _, wf := range []pwg.Workflow{pwg.Montage, pwg.CyberShake, pwg.Ligo, pwg.Genome} {
		for _, n := range []int{24, 40} {
			for seed := uint64(1); seed <= 3; seed++ {
				g, err := pwg.Generate(wf, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				g.ScaleCkptCosts(func(tk dag.Task) (float64, float64) {
					return 0.1 * tk.Weight, 0.1 * tk.Weight
				})
				gs = append(gs, g)
			}
		}
	}
	for seed := uint64(1); seed <= 26; seed++ {
		gs = append(gs, randomDAG(seed, 10+int(seed%25)))
	}
	return gs
}

// unprunedSweep is the kernel with no incumbent: both stages of the
// sweep, every count evaluated.
func unprunedSweep(sw NSweeper, g *dag.Graph, p failure.Platform, order []int, ev *core.Evaluator) (*core.Schedule, float64) {
	k := NewKernel(sw, g, p, order)
	best := k.Span(k.Stage1(), ev, nil, nil)
	best.Merge(k.Span(k.Stage2(best.N), ev, nil, nil))
	return &core.Schedule{Graph: g, Order: order, Ckpt: best.Mask}, best.Val
}

// coldSweep is the exhaustive cold enumeration of a sweep: every
// first-stage count, then every count of the second-stage gap around
// the first-stage winner, each mask built by a fresh masker and
// evaluated cold, keeping the canonical best.
func coldSweep(sw NSweeper, g *dag.Graph, p failure.Platform, order []int) (*core.Schedule, float64) {
	ev := core.NewEvaluator()
	n := g.N()
	best := NoCandidate()
	try := func(N int) {
		mask := make([]bool, n)
		sw.NewMasker(g, order)(N, mask)
		s := &core.Schedule{Graph: g, Order: order, Ckpt: mask}
		best.Merge(Candidate{Val: ev.Eval(s, p), K: s.NumCheckpointed(), N: N, Mask: mask})
	}
	ns := sw.Sweep(n)
	for _, N := range ns {
		try(N)
	}
	lo, hi := sw.SecondStage(n, best.N, ns)
	for N := lo; N <= hi; N++ {
		try(N)
	}
	return &core.Schedule{Graph: g, Order: order, Ckpt: best.Mask}, best.Val
}

// TestPrunedSweepBitIdentical is the pruning differential harness: for
// every instance × strategy × platform, the bound-pruned sweep
// (Strategy.Apply, the kernel against an incumbent, on the delta
// evaluator) must return exactly — Float64bits of the expected
// makespan, order, checkpoint mask — what the kernel returns with no
// incumbent and what an exhaustive cold enumeration returns. This is
// the contract that lets pruning and the delta evaluator serve every
// sweep without perturbing the canonical winners, the portfolio's
// worker-count invariance, or wfserve's byte-identical cached
// responses.
func TestPrunedSweepBitIdentical(t *testing.T) {
	ev := core.NewEvaluator()
	for _, p := range []failure.Platform{
		{Lambda: 0.01, Downtime: 1},
		{Lambda: 1e-3},
	} {
		for gi, g := range pruneInstances(t) {
			order := DF{}.Linearize(g)
			for _, st := range pruneStrategies() {
				sw := st.(NSweeper)
				got := applyFingerprint(st.Apply(g, p, order, ev))
				for _, ref := range []struct{ name, want string }{
					{"unpruned kernel", applyFingerprint(unprunedSweep(sw, g, p, order, ev))},
					{"cold enumeration", applyFingerprint(coldSweep(sw, g, p, order))},
				} {
					if got != ref.want {
						t.Fatalf("instance %d, %s, λ=%v: pruned sweep diverged from the %s\n got %s\nwant %s",
							gi, st.Name(), p.Lambda, ref.name, got, ref.want)
					}
				}
			}
		}
	}
}

// TestSweepBoundValid pins the inequality everything above rests on:
// for every N the sweep visits, the strategy's bound is a true lower
// bound on the computed expected makespan of its schedule at N (up to
// the PruneSlack margin core.Prunable discounts by).
func TestSweepBoundValid(t *testing.T) {
	p := failure.Platform{Lambda: 0.01, Downtime: 1}
	ev := core.NewEvaluator()
	for gi, g := range pruneInstances(t)[:12] {
		order := BF{}.Linearize(g)
		for _, st := range []Strategy{NewCkptW(0), NewCkptC(0), NewCkptD(0)} {
			sw := st.(BoundedSweeper)
			bound := sw.NewBounder(g, p, order)
			masker := sw.NewMasker(g, order)
			mask := make([]bool, g.N())
			s := &core.Schedule{Graph: g, Order: order, Ckpt: mask}
			for _, N := range sw.Sweep(g.N()) {
				masker(N, mask)
				if b, v := bound(N), ev.Eval(s, p); b*(1-core.PruneSlack) > v {
					t.Fatalf("instance %d, %s, N=%d: bound %v exceeds value %v",
						gi, st.Name(), N, b, v)
				}
			}
		}
	}
}
