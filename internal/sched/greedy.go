package sched

import (
	"math"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/failure"
)

// CkptGreedy is an extension beyond the paper's four checkpointing
// strategies, made possible by the same ingredient (the fast
// Theorem 3 evaluator as an objective): instead of committing to a
// fixed ranking and searching only the *count* N, it greedily inserts
// one checkpoint at a time, always choosing the task whose checkpoint
// most reduces the expected makespan, and stops when no single
// insertion helps. It costs O(n) evaluations per accepted checkpoint
// (O(n²) worst case) versus O(n) total for the ranked strategies, and
// is never worse than CkptNvr by construction.
type CkptGreedy struct {
	// MaxCkpts caps the number of inserted checkpoints (≤ 0: n).
	MaxCkpts int
	// Candidates restricts each round to the best `Candidates` tasks
	// by weight to bound cost on big workflows (≤ 0: all tasks).
	Candidates int
	// Patience lets the climb continue through plateaus: up to
	// Patience consecutive non-improving insertions are accepted
	// (the best-seen mask is returned regardless), which matters on
	// failure-heavy workloads where no *single* checkpoint helps but
	// a handful together do (≤ 0: 16).
	Patience int
}

// Name implements Strategy.
func (CkptGreedy) Name() string { return "CkptGreedy" }

// Apply implements Strategy.
func (c CkptGreedy) Apply(g *dag.Graph, plat failure.Platform, order []int, ev *core.Evaluator) (*core.Schedule, float64) {
	n := g.N()
	mask := make([]bool, n)
	s := &core.Schedule{Graph: g, Order: order, Ckpt: mask}
	// Every probe below toggles a single checkpoint bit — exactly the
	// access pattern EvalSchedule's incremental path amortizes, with
	// values bit-identical to a full pass.
	best := ev.EvalSchedule(s, plat)

	// Candidate pool: all tasks, or the heaviest ones.
	pool := make([]int, n)
	for i := range pool {
		pool[i] = i
	}
	if c.Candidates > 0 && c.Candidates < n {
		pool = rankBy(g, func(a, b int) (bool, bool) {
			wa, wb := g.Weight(a), g.Weight(b)
			return wa > wb, math.Float64bits(wa) == math.Float64bits(wb)
		})[:c.Candidates]
	}

	limit := c.MaxCkpts
	if limit <= 0 {
		limit = n
	}
	patience := c.Patience
	if patience <= 0 {
		patience = 16
	}
	bestMask := append([]bool(nil), mask...)
	slack := patience
	for placed := 0; placed < limit; placed++ {
		// Pick the single insertion with the lowest resulting
		// expectation, improving or not.
		bestID := -1
		bestVal := math.Inf(1)
		for _, id := range pool {
			if mask[id] {
				continue
			}
			mask[id] = true
			v := ev.EvalSchedule(s, plat)
			mask[id] = false
			if v < bestVal {
				bestVal = v
				bestID = id
			}
		}
		if bestID < 0 {
			break // pool exhausted
		}
		mask[bestID] = true
		if bestVal < best-1e-12*math.Abs(best) {
			best = bestVal
			bestMask = append(bestMask[:0], mask...)
			slack = patience
		} else {
			slack--
			if slack <= 0 {
				break
			}
		}
	}
	copy(mask, bestMask)
	return s, best
}

// Paper14Plus returns the paper's 14 heuristics plus the greedy
// extension under each linearizer (17 total).
func Paper14Plus(o Options) []Heuristic {
	hs := Paper14(o)
	greedy := CkptGreedy{Candidates: 64}
	for _, lin := range []Linearizer{DF{}, BF{}, RF{Seed: o.RFSeed}} {
		hs = append(hs, Heuristic{Lin: lin, Strat: greedy})
	}
	return hs
}
