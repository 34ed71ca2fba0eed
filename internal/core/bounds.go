package core

import (
	"repro/internal/dag"
	"repro/internal/failure"
)

// LowerBound returns a bound below the expected makespan of *every*
// schedule of g on platform p, checkpointed or not:
//
//	LB = Σ_i E[t(w_i; 0; 0)] = (1/λ + D) Σ_i (e^{λ w_i} − 1).
//
// Justification: in any schedule, E[makespan] = Σ_i E[X_i] and each
// X_i stochastically dominates the execution of an isolated task of
// weight w_i with free recovery (property C's work term is
// W^i_k + R^i_k + w_i ≥ w_i and E[t] is monotone in work, checkpoint
// and recovery). The bound is tight for independent tasks that are
// never checkpointed (e.g. a failure-free-recovered fork with zero
// source weight), and lets callers report an optimality-gap ceiling
// without solving the NP-complete problem.
func LowerBound(g *dag.Graph, p failure.Platform) float64 {
	lb := 0.0
	for i := 0; i < g.N(); i++ {
		lb += p.ExpectedTime(g.Weight(i), 0, 0)
	}
	return lb
}

// MaskBound is the checkpoint-mask-dependent refinement of
// LowerBound: for a schedule whose checkpoint set is S,
//
//	E[makespan] ≥ Base + Σ_{i∈S} Inc[i]
//
// with Base = Σ_i E[t(w_i; 0; 0)] (LowerBound's mask-free part) and
// Inc[i] = E[t(w_i; c_i; 0)] − E[t(w_i; 0; 0)] ≥ 0, the cost floor a
// checkpoint of task i adds. Justification: E[makespan] = Σ_i E[X_i],
// and conditioned on any failure event, property C gives
// E[X_i | Z^i_k] = E[t(W^i_k+R^i_k+w_i; δ_i c_i; rec)] with work
// ≥ w_i, checkpoint exactly δ_i c_i and recovery ≥ 0 — and E[t] is
// monotone in all three arguments — so E[X_i] ≥ E[t(w_i; δ_i c_i; 0)]
// for every schedule, linearization and platform.
//
// Because the bound is a sum of per-task increments it is O(1) per
// single-bit mask change and monotone under adding checkpoints —
// the two properties the bound-pruned N-sweep (sched.BoundedSweeper)
// and refine's flip pruning are built on.
type MaskBound struct {
	// Base is the mask-independent floor, equal to LowerBound.
	Base float64
	// Inc[id] ≥ 0 is the bound increment of checkpointing task id.
	Inc []float64
}

// NewMaskBound precomputes the bound's ingredients in O(n).
func NewMaskBound(g *dag.Graph, p failure.Platform) *MaskBound {
	mb := &MaskBound{Inc: make([]float64, g.N())}
	for i := 0; i < g.N(); i++ {
		w := g.Weight(i)
		base := p.ExpectedTime(w, 0, 0)
		mb.Base += base
		// ExpectedTime is monotone in c so the true increment is ≥ 0;
		// clamp the one-rounding computed difference to ≥ 0 as well.
		if inc := p.ExpectedTime(w, g.CkptCost(i), 0) - base; inc > 0 {
			mb.Inc[i] = inc
		}
	}
	return mb
}

// Of returns the bound for the given checkpoint mask (task-id space).
func (mb *MaskBound) Of(mask []bool) float64 {
	lb := mb.Base
	for id, on := range mask {
		if on {
			lb += mb.Inc[id]
		}
	}
	return lb
}

// PruneSlack is the relative safety margin bound-based pruning leaves
// between a computed lower bound and the incumbent: a candidate is
// discarded only when bound·(1−PruneSlack) still exceeds the
// incumbent's value. Mathematically the true expected makespan is
// ≥ the true bound, but both sides are computed in floating point;
// their combined relative error is bounded by a few n·ulp (≈1e-12 at
// n = 2000), so a 1e-9 margin guarantees the *computed* makespan of a
// pruned candidate would also have exceeded the incumbent — pruning
// can therefore never change a canonical winner, bit for bit. The
// margin costs essentially no pruning power: it only retains
// candidates within one part in 10⁹ of the cutoff.
const PruneSlack = 1e-9

// Prunable reports whether a candidate with the given lower bound
// provably loses to an incumbent with the given expected makespan:
// even after discounting the bound by the PruneSlack floating-point
// margin it still strictly exceeds the incumbent, so the candidate's
// computed value would too (and a strictly larger value loses under
// sched.CanonicalBetter before any tie-break). An infinite incumbent
// (no candidate evaluated yet) prunes nothing. The N-sweep kernel and
// refine's flip neighbourhood both prune through it.
func Prunable(bound, incumbent float64) bool {
	return bound*(1-PruneSlack) > incumbent
}

// Ratio helpers for reporting.

// GapUpperBound returns (expected/LB − 1), an upper bound on the
// relative distance of the given expectation from the true optimum.
// It returns 0 when the bound is degenerate (empty graph).
func GapUpperBound(g *dag.Graph, p failure.Platform, expected float64) float64 {
	lb := LowerBound(g, p)
	if lb <= 0 {
		return 0
	}
	return expected/lb - 1
}
