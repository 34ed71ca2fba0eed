// Package refine implements local-search improvement of schedules on
// top of the paper's heuristics — an extension enabled by the same
// ingredient as the heuristics themselves: Theorem 3's fast expected-
// makespan evaluator as an objective function.
//
// Two neighbourhoods are explored:
//
//   - checkpoint flips: toggle the checkpoint bit of a single task
//     (first-improvement hill climbing);
//   - adjacent swaps: exchange two consecutive, dependence-free tasks
//     of the linearization.
//
// Both moves preserve schedule validity by construction. Refinement
// never worsens a schedule and, on small instances, closes most of
// the gap between the paper's heuristics and the brute-force optimum
// (see the tests and the ablation benchmark).
package refine

import (
	"repro/internal/core"
	"repro/internal/failure"
)

// Options bounds the local search.
type Options struct {
	// MaxEvals caps evaluator calls (≤ 0: 50·n, which in practice
	// reaches a local optimum on the paper's instance sizes).
	MaxEvals int
	// CkptOnly disables the order neighbourhood.
	CkptOnly bool
}

// Result reports the refinement outcome.
type Result struct {
	Schedule *core.Schedule
	Expected float64
	Start    float64 // expected makespan before refinement
	Evals    int     // evaluator calls spent
	Moves    int     // accepted moves
}

// Improve hill-climbs from schedule s and returns the refined
// schedule. The input schedule is not modified.
func Improve(s *core.Schedule, plat failure.Platform, opt Options) Result {
	return ImproveWith(s, plat, opt, core.NewEvaluator())
}

// ImproveWith is Improve with a caller-provided evaluator, so pooled
// engines (internal/portfolio) can reuse per-worker evaluators across
// refinement passes. The climb is fully deterministic: it visits
// neighbourhoods in a fixed order and the evaluator's result depends
// only on the schedule, so the outcome is independent of which worker
// runs it. The evaluator must be owned by the calling goroutine for
// the duration of the call.
func ImproveWith(s *core.Schedule, plat failure.Platform, opt Options, ev *core.Evaluator) Result {
	return improve(s, plat, opt, ev, core.NewMaskBound(s.Graph, plat))
}

// improve is ImproveWith's climb. mb drives bound-based candidate
// pruning: a flip that *adds* a checkpoint raises the schedule's
// core.MaskBound by the task's increment, and when even that lower
// bound is prunable against the current best (core.Prunable) the
// candidate is provably rejected, so the O(n²) evaluation is skipped
// without spending budget. Skipped candidates cannot change the
// climb's accept decisions (they would have been rejected), so the
// search stays deterministic; the unspent budget lets the climb probe
// further, so the result is never worse than the unpruned climb
// (mb == nil). Removing a checkpoint lowers the bound — those
// candidates always evaluate.
func improve(s *core.Schedule, plat failure.Platform, opt Options, ev *core.Evaluator, mb *core.MaskBound) Result {
	cur := s.Clone()
	n := cur.Graph.N()
	budget := opt.MaxEvals
	if budget <= 0 {
		budget = 50 * n
	}
	// The checkpoint-flip neighbourhood toggles one bit per candidate
	// — the exact access pattern core.DeltaEvaluator amortizes, so
	// flips evaluate through it (≈5× cheaper per candidate at the
	// paper's large sizes). Swap candidates change the linearization,
	// which would force the incremental evaluator to reload its O(n²)
	// caches per candidate, so the order neighbourhood keeps the cold
	// evaluator. Both produce bit-identical values, so every
	// accept/reject decision is the same either way.
	flipEval := ev.Delta().EvalSchedule
	res := Result{Start: ev.Eval(cur, plat)}
	res.Evals = 1
	best := res.Start
	curLB := 0.0
	if mb != nil {
		curLB = mb.Of(cur.Ckpt)
	}

	improved := true
	for improved && res.Evals < budget {
		improved = false
		// Neighbourhood 1: checkpoint flips.
		for id := 0; id < n && res.Evals < budget; id++ {
			if mb != nil && !cur.Ckpt[id] && core.Prunable(curLB+mb.Inc[id], best) {
				continue // provably rejected: v ≥ bound > best
			}
			cur.Ckpt[id] = !cur.Ckpt[id]
			v := flipEval(cur, plat)
			res.Evals++
			if v < best-1e-12*best {
				best = v
				res.Moves++
				improved = true
				if mb != nil {
					// Recompute (not increment) so curLB stays the
					// exactly-rounded Of(mask): drift from repeated
					// updates could push it above the true bound and
					// break the pruning proof.
					curLB = mb.Of(cur.Ckpt)
				}
			} else {
				cur.Ckpt[id] = !cur.Ckpt[id] // revert
			}
		}
		if opt.CkptOnly {
			continue
		}
		// Neighbourhood 2: adjacent swaps of independent tasks.
		for p := 0; p+1 < n && res.Evals < budget; p++ {
			a, b := cur.Order[p], cur.Order[p+1]
			if dependsDirect(cur, a, b) {
				continue
			}
			cur.Order[p], cur.Order[p+1] = b, a
			v := ev.Eval(cur, plat)
			res.Evals++
			if v < best-1e-12*best {
				best = v
				res.Moves++
				improved = true
			} else {
				cur.Order[p], cur.Order[p+1] = a, b // revert
			}
		}
	}
	res.Schedule = cur
	res.Expected = best
	return res
}

// dependsDirect reports whether b directly consumes a's output (the
// only dependence that can exist between adjacent tasks of a valid
// linearization).
func dependsDirect(s *core.Schedule, a, b int) bool {
	for _, p := range s.Graph.Preds(b) {
		if p == a {
			return true
		}
	}
	return false
}
