package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestLowerBoundBelowEverySchedule(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 2 + int(nRaw%14)
		r := rng.New(seed)
		g := randomLayeredDAG(r, n)
		lb := LowerBound(g, plat)
		// Try several random schedules; all must dominate the bound.
		for trial := 0; trial < 5; trial++ {
			s, err := NewSchedule(g, randomLinearization(r, g), randomCkpt(r, n))
			if err != nil {
				return false
			}
			if Eval(s, plat) < lb-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerBoundTightOnIndependentTasks(t *testing.T) {
	// A fork with zero-weight source and no checkpoints: E[makespan]
	// = E[t(0;0;0)] + Σ E[t(w_i; 0; 0)] = LB exactly.
	g := dag.Fork([]float64{0, 10, 20, 30}, nil)
	s, err := NewSchedule(g, []int{0, 1, 2, 3}, make([]bool, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Eval(s, plat), LowerBound(g, plat); stats.RelDiff(got, want) > 1e-12 {
		t.Fatalf("fork eval %v vs LB %v (should be tight)", got, want)
	}
}

func TestLowerBoundFailureFree(t *testing.T) {
	g := dag.Chain([]float64{5, 10}, nil)
	if got := LowerBound(g, failure.Platform{}); got != 15 {
		t.Fatalf("λ=0 LB = %v, want Σw = 15", got)
	}
}

func TestGapUpperBound(t *testing.T) {
	g := dag.Chain([]float64{50, 50}, dag.UniformCosts(0.1))
	s, err := NewSchedule(g, []int{0, 1}, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	v := Eval(s, plat)
	gap := GapUpperBound(g, plat, v)
	if gap < 0 {
		t.Fatalf("gap %v negative: schedule below lower bound", gap)
	}
	if GapUpperBound(dag.New(), plat, 1) != 0 {
		t.Fatal("degenerate LB should yield zero gap")
	}
}

// TestPrunableSemantics pins the slack arithmetic on its edges.
func TestPrunableSemantics(t *testing.T) {
	if Prunable(1, math.Inf(1)) {
		t.Fatal("infinite incumbent must prune nothing")
	}
	if Prunable(5, 5) {
		t.Fatal("bound equal to incumbent must not prune (ties are wins)")
	}
	if Prunable(5*(1+PruneSlack/2), 5) {
		t.Fatal("bound within the slack margin must not prune")
	}
	if !Prunable(5*(1+3*PruneSlack), 5) {
		t.Fatal("bound clearly above the incumbent must prune")
	}
}
