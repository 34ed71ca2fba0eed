package refine

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/pwg"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
)

var plat = failure.Platform{Lambda: 0.01, Downtime: 1}

func randomSchedule(seed uint64, n int) *core.Schedule {
	r := rng.New(seed)
	g := dag.New()
	for i := 0; i < n; i++ {
		g.AddTask(dag.Task{Weight: r.Uniform(1, 60), CkptCost: r.Uniform(0.5, 6), RecCost: r.Uniform(0.5, 6)})
	}
	for j := 1; j < n; j++ {
		k := 1 + r.Intn(2)
		for e := 0; e < k; e++ {
			g.MustAddEdge(r.Intn(j), j)
		}
	}
	order, err := g.TopoSort()
	if err != nil {
		panic(err)
	}
	ck := make([]bool, n)
	for i := range ck {
		ck[i] = r.Float64() < 0.5
	}
	s, err := core.NewSchedule(g, order, ck)
	if err != nil {
		panic(err)
	}
	return s
}

func TestImproveNeverWorsens(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 3 + int(nRaw%12)
		s := randomSchedule(seed, n)
		res := Improve(s, plat, Options{})
		if res.Expected > res.Start+1e-9 {
			return false
		}
		// Reported value must match re-evaluating the schedule.
		return stats.RelDiff(core.Eval(res.Schedule, plat), res.Expected) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestImproveDoesNotMutateInput(t *testing.T) {
	s := randomSchedule(5, 10)
	before := core.Eval(s, plat)
	orderCopy := append([]int(nil), s.Order...)
	ckptCopy := append([]bool(nil), s.Ckpt...)
	Improve(s, plat, Options{})
	for i := range orderCopy {
		if s.Order[i] != orderCopy[i] || s.Ckpt[i] != ckptCopy[i] {
			t.Fatal("Improve mutated its input schedule")
		}
	}
	if core.Eval(s, plat) != before {
		t.Fatal("input schedule value changed")
	}
}

func TestImproveRespectsDependencies(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 3 + int(nRaw%12)
		s := randomSchedule(seed, n)
		res := Improve(s, plat, Options{})
		return res.Schedule.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestImproveFixesObviouslyBadMask(t *testing.T) {
	// A long failure-heavy chain with *no* checkpoints: flipping
	// checkpoints on is a guaranteed improvement.
	g := dag.Chain([]float64{200, 200, 200, 200, 200}, dag.UniformCosts(0.05))
	s, err := core.NewSchedule(g, []int{0, 1, 2, 3, 4}, make([]bool, 5))
	if err != nil {
		t.Fatal(err)
	}
	p := failure.Platform{Lambda: 0.005}
	res := Improve(s, p, Options{})
	if res.Moves == 0 || res.Expected >= res.Start {
		t.Fatalf("no improvement found: %+v", res)
	}
	if res.Schedule.NumCheckpointed() == 0 {
		t.Fatal("refinement left a failure-heavy chain without checkpoints")
	}
}

func TestImproveReachesOptimumOnTinyInstances(t *testing.T) {
	// Starting from the best paper heuristic, local search must close
	// most of the optimality gap on tiny DAGs — and never overshoot.
	for _, seed := range []uint64{1, 2, 3} {
		s := randomSchedule(seed, 6)
		g := s.Graph
		bf, err := bruteforce.Solve(g, plat, 1<<22)
		if err != nil || !bf.Exhausted {
			t.Fatalf("brute force failed: %v", err)
		}
		best := sched.Best(sched.RunAll(sched.Paper14(sched.Options{RFSeed: 3}), g, plat))
		res := Improve(best.Schedule, plat, Options{})
		if res.Expected < bf.Expected*(1-1e-9) {
			t.Fatalf("seed %d: refined %v beats brute force %v", seed, res.Expected, bf.Expected)
		}
		gapBefore := best.Expected/bf.Expected - 1
		gapAfter := res.Expected/bf.Expected - 1
		if gapAfter > gapBefore+1e-12 {
			t.Fatalf("seed %d: refinement widened the gap (%.4f → %.4f)", seed, gapBefore, gapAfter)
		}
	}
}

func TestCkptOnlyKeepsOrder(t *testing.T) {
	s := randomSchedule(9, 12)
	res := Improve(s, plat, Options{CkptOnly: true})
	for i := range s.Order {
		if res.Schedule.Order[i] != s.Order[i] {
			t.Fatal("CkptOnly changed the linearization")
		}
	}
}

func TestBudgetRespected(t *testing.T) {
	s := randomSchedule(11, 20)
	res := Improve(s, plat, Options{MaxEvals: 7})
	if res.Evals > 7 {
		t.Fatalf("budget exceeded: %d evals", res.Evals)
	}
}

func TestImproveOnGeneratedWorkflow(t *testing.T) {
	g, err := pwg.Generate(pwg.Montage, 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	g.ScaleCkptCosts(func(t dag.Task) (float64, float64) { return 0.1 * t.Weight, 0.1 * t.Weight })
	p := failure.Platform{Lambda: 1e-3}
	base := sched.Heuristic{Lin: sched.DF{}, Strat: sched.NewCkptW(0)}.Run(g, p)
	res := Improve(base.Schedule, p, Options{MaxEvals: 2000})
	if res.Expected > base.Expected+1e-9 {
		t.Fatalf("refinement worsened a Montage schedule: %v → %v", base.Expected, res.Expected)
	}
}

// The pruning differential harness for refinement: the bound-pruned
// climb (ImproveWith) against the same climb with no bound. Pruning
// skips only provably rejected flips, so while the unpruned climb
// stays within its budget both climbs accept the same moves and end
// on the same schedule, bit for bit; when the budget binds, the pruned
// climb's unspent evaluations can only take it further.
func TestPrunedClimbNeverWorse(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		s := randomSchedule(seed, 8+int(seed%17))
		for _, opt := range []Options{{}, {MaxEvals: 25}, {CkptOnly: true}} {
			pruned := ImproveWith(s, plat, opt, core.NewEvaluator())
			unpruned := improve(s, plat, opt, core.NewEvaluator(), nil)
			budget := opt.MaxEvals
			if budget <= 0 {
				budget = 50 * s.Graph.N()
			}
			if unpruned.Evals < budget {
				if math.Float64bits(pruned.Expected) != math.Float64bits(unpruned.Expected) ||
					fmt.Sprint(pruned.Schedule.Order, pruned.Schedule.Ckpt) != fmt.Sprint(unpruned.Schedule.Order, unpruned.Schedule.Ckpt) {
					t.Fatalf("seed %d %+v: pruned climb %v diverged from unpruned %v", seed, opt, pruned.Expected, unpruned.Expected)
				}
			} else if pruned.Expected > unpruned.Expected {
				t.Fatalf("seed %d %+v: pruning worsened the climb %v -> %v", seed, opt, unpruned.Expected, pruned.Expected)
			}
		}
	}
}
