package sched

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/failure"
)

// Heuristic is a complete DAG-ChkptSched heuristic: a linearization
// strategy combined with a checkpointing strategy, named as in the
// paper (e.g. DF-CkptW).
type Heuristic struct {
	Lin   Linearizer
	Strat Strategy
}

// Name returns the paper-style name, e.g. "DF-CkptW".
func (h Heuristic) Name() string {
	return fmt.Sprintf("%s-%s", h.Lin.Name(), h.Strat.Name())
}

// Result is the outcome of one heuristic on one workflow.
type Result struct {
	Name     string
	Schedule *core.Schedule
	Expected float64
	Ratio    float64 // Expected / T_inf (the paper's y-axis)
}

// Run executes the heuristic on workflow g for platform plat.
func (h Heuristic) Run(g *dag.Graph, plat failure.Platform) Result {
	return h.RunWith(g, plat, core.NewEvaluator())
}

// RunWith is Run with a caller-provided evaluator (reusable buffers).
func (h Heuristic) RunWith(g *dag.Graph, plat failure.Platform, ev *core.Evaluator) Result {
	order := h.Lin.Linearize(g)
	s, v := h.Strat.Apply(g, plat, order, ev)
	tinf := g.TotalWeight()
	ratio := 0.0
	if tinf > 0 {
		ratio = v / tinf
	}
	return Result{Name: h.Name(), Schedule: s, Expected: v, Ratio: ratio}
}

// Options tunes the heuristic set construction.
type Options struct {
	// RFSeed seeds the random linearizer.
	RFSeed uint64
	// Grid bounds the checkpoint-count search of CkptW/C/D/Per
	// (≤ 0: the paper's exhaustive N = 1..n−1).
	Grid int
}

// Paper14 returns the paper's 14 heuristics: DF-CkptNvr, DF-CkptAlws
// (baselines, DF only, as in Section 5) plus {DF,BF,RF} × {CkptW,
// CkptC, CkptD, CkptPer}.
func Paper14(o Options) []Heuristic {
	lins := []Linearizer{DF{}, BF{}, RF{Seed: o.RFSeed}}
	hs := []Heuristic{
		{Lin: DF{}, Strat: CkptNvr{}},
		{Lin: DF{}, Strat: CkptAlws{}},
	}
	for _, lin := range lins {
		hs = append(hs,
			Heuristic{Lin: lin, Strat: NewCkptW(o.Grid)},
			Heuristic{Lin: lin, Strat: NewCkptC(o.Grid)},
			Heuristic{Lin: lin, Strat: NewCkptD(o.Grid)},
			Heuristic{Lin: lin, Strat: CkptPer{Grid: o.Grid}},
		)
	}
	return hs
}

// ByName returns the heuristic with the given paper-style name from
// Paper14, or an error listing the valid names.
func ByName(name string, o Options) (Heuristic, error) {
	for _, h := range Paper14(o) {
		if h.Name() == name {
			return h, nil
		}
	}
	valid := make([]string, 0, 14)
	for _, h := range Paper14(o) {
		valid = append(valid, h.Name())
	}
	return Heuristic{}, fmt.Errorf("sched: unknown heuristic %q (valid: %v)", name, valid)
}

// RunAll executes every heuristic on g serially, on one evaluator,
// and returns the results in input order. It is the reference path of
// the parallel engine in internal/portfolio, which produces exactly
// the same results (both sweep through Kernel and CanonicalBetter)
// while fanning the sweeps out over a worker pool — prefer
// portfolio.Run wherever a -workers knob makes sense.
func RunAll(hs []Heuristic, g *dag.Graph, plat failure.Platform) []Result {
	ev := core.NewEvaluator()
	out := make([]Result, 0, len(hs))
	for _, h := range hs {
		out = append(out, h.RunWith(g, plat, ev))
	}
	return out
}

// Best returns the canonical winner of results under CanonicalBetter:
// lowest expected makespan, then fewest checkpoints, then lowest
// index — so every engine and tool names the same winner on ties.
func Best(results []Result) Result {
	if len(results) == 0 {
		panic("sched: Best of empty results")
	}
	bi := 0
	for i := 1; i < len(results); i++ {
		if CanonicalBetter(
			results[i].Expected, results[i].Schedule.NumCheckpointed(), i,
			results[bi].Expected, results[bi].Schedule.NumCheckpointed(), bi) {
			bi = i
		}
	}
	return results[bi]
}
