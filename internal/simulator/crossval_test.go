package simulator

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/mc"
	"repro/internal/portfolio"
	"repro/internal/pwg"
	"repro/internal/rng"
	"repro/internal/sched"
)

// randomScheduledDAG builds a random layered DAG with a random valid
// linearization and a random checkpoint mask — the adversarial
// counterpart to the structured workloads of simulator_test.go.
func randomScheduledDAG(seed uint64, n int) (*core.Schedule, failure.Platform) {
	r := rng.New(seed)
	g := dag.New()
	for i := 0; i < n; i++ {
		g.AddTask(dag.Task{
			Weight:   r.Uniform(5, 60),
			CkptCost: r.Uniform(0.5, 8),
			RecCost:  r.Uniform(0.5, 8),
		})
	}
	for j := 1; j < n; j++ {
		k := 1 + r.Intn(3)
		for e := 0; e < k; e++ {
			g.MustAddEdge(r.Intn(j), j)
		}
	}
	// Random linearization by random ready choice.
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = g.InDegree(i)
	}
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		k := r.Intn(len(ready))
		v := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, v)
		for _, s := range g.Succs(v) {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	ck := make([]bool, n)
	for i := range ck {
		ck[i] = r.Float64() < 0.5
	}
	s, err := core.NewSchedule(g, order, ck)
	if err != nil {
		panic(err)
	}
	plat := failure.Platform{
		Lambda:   r.Uniform(0.002, 0.02),
		Downtime: r.Uniform(0, 3),
	}
	return s, plat
}

// TestCrossValidationDeltaPath Monte-Carlo-validates schedules that
// were produced through the incremental sweep evaluator, at the same
// tolerance as the serial path: the portfolio (whose ranked sweeps
// evaluate incrementally via core.Evaluator.EvalSchedule) picks
// winners on generator workflows, and the winners' analytic
// expectations must match the mechanistic fault-injection simulator.
// Together with the flip-level validation below, this pins that the
// incremental path feeds downstream consumers exactly the physics the
// simulator implements.
func TestCrossValidationDeltaPath(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical cross-validation skipped in -short mode")
	}
	for _, wf := range []pwg.Workflow{pwg.Montage, pwg.CyberShake} {
		wf := wf
		t.Run(wf.String(), func(t *testing.T) {
			t.Parallel()
			g, err := pwg.Generate(wf, 40, 5)
			if err != nil {
				t.Fatal(err)
			}
			g.ScaleCkptCosts(func(tk dag.Task) (float64, float64) {
				return 0.1 * tk.Weight, 0.1 * tk.Weight
			})
			plat := failure.Platform{Lambda: 0.01}
			hs := sched.Paper14(sched.Options{RFSeed: 3})
			res := portfolio.Run(hs, g, plat, portfolio.Options{Workers: 2})
			win := portfolio.Best(res)
			// The winner's expectation must re-evaluate identically
			// by a full pass and incrementally from a one-bit
			// neighbour before the statistical check.
			full := core.Eval(win.Schedule, plat)
			ev := core.NewEvaluator()
			near := win.Schedule.Clone()
			near.Ckpt[0] = !near.Ckpt[0]
			ev.Eval(near, plat)
			if got := ev.EvalSchedule(win.Schedule, plat); math.Float64bits(got) != math.Float64bits(full) {
				t.Fatalf("incremental %v != full pass %v on the winner", got, full)
			}
			if math.Float64bits(full) != math.Float64bits(win.Expected) {
				t.Fatalf("portfolio expectation %v != re-evaluated %v", win.Expected, full)
			}
			mcRes, err := mc.Run(win.Schedule, plat, mc.Config{
				Trials: 40000, Seed: 99, Factory: Factory()})
			if err != nil {
				t.Fatal(err)
			}
			acc := mcRes.Makespan
			tol := 4.5*acc.CI(0.99) + 1e-9
			if diff := math.Abs(acc.Mean() - win.Expected); diff > tol {
				t.Fatalf("%s: MC %v ± %v vs incremental-path analytic %v (diff %v)",
					wf, acc.Mean(), acc.CI(0.99), win.Expected, diff)
			}
		})
	}
}

// TestCrossValidationDeltaFlips validates individual delta steps
// against the simulator: starting from a random schedule, each of a
// handful of single-bit flips is re-evaluated incrementally and the
// result must match Monte-Carlo at the usual tolerance.
func TestCrossValidationDeltaFlips(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical cross-validation skipped in -short mode")
	}
	s, plat := randomScheduledDAG(4242, 10)
	ev := core.NewEvaluator()
	r := rng.New(5)
	for step := 0; step < 4; step++ {
		if step > 0 {
			id := r.Intn(10)
			s.Ckpt[id] = !s.Ckpt[id]
		}
		want := ev.EvalSchedule(s, plat)
		res, err := mc.Run(s, plat, mc.Config{
			Trials: 40000, Seed: uint64(step)*31 + 7, Factory: Factory()})
		if err != nil {
			t.Fatal(err)
		}
		acc := res.Makespan
		tol := 4.5*acc.CI(0.99) + 1e-9
		if diff := math.Abs(acc.Mean() - want); diff > tol {
			t.Fatalf("step %d: MC %v ± %v vs incremental analytic %v (diff %v)",
				step, acc.Mean(), acc.CI(0.99), want, diff)
		}
	}
}

// TestCrossValidationRandomDAGs is the adversarial version of the
// structured cross-validation: on randomly wired DAGs with random
// schedules, random checkpoint sets and random platforms, the
// Theorem 3 evaluator and the mechanistic fault-injection simulator
// must agree within Monte-Carlo error. Any divergence in the T↓
// recovery-set semantics between the two implementations would
// surface here. The batches run through the sharded parallel engine,
// which also exercises its merge path under every random platform.
func TestCrossValidationRandomDAGs(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical cross-validation skipped in -short mode")
	}
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			s, plat := randomScheduledDAG(seed*1337, 4+int(seed%9))
			want := core.Eval(s, plat)
			res, err := mc.Run(s, plat, mc.Config{
				Trials: 40000, Seed: seed*7 + 1, Factory: Factory()})
			if err != nil {
				t.Fatal(err)
			}
			acc := res.Makespan
			tol := 4.5*acc.CI(0.99) + 1e-9
			if diff := math.Abs(acc.Mean() - want); diff > tol {
				t.Fatalf("seed %d: MC %v ± %v vs analytic %v (diff %v)",
					seed, acc.Mean(), acc.CI(0.99), want, diff)
			}
		})
	}
}
