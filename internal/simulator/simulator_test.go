package simulator

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/stats"
)

func mustSchedule(t *testing.T, g *dag.Graph, order []int, ckpt []bool) *core.Schedule {
	t.Helper()
	s, err := core.NewSchedule(g, order, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFailureFreeRunIsDeterministicSum(t *testing.T) {
	g := dag.Chain([]float64{3, 4, 5}, dag.UniformCosts(0.1))
	s := mustSchedule(t, g, []int{0, 1, 2}, []bool{true, false, true})
	sim := New(failure.Platform{}, rng.New(1))
	r := sim.Run(s)
	want := 3 + 0.3 + 4 + 5 + 0.5
	if math.Abs(r.Makespan-want) > 1e-12 {
		t.Fatalf("failure-free makespan = %v, want %v", r.Makespan, want)
	}
	if r.Failures != 0 || r.Recovered != 0 || r.Reexec != 0 || r.LostTime != 0 {
		t.Fatalf("failure-free counters non-zero: %+v", r)
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	g := dag.Figure1(nil, dag.UniformCosts(0.2))
	s := mustSchedule(t, g, dag.Figure1Linearization(), dag.Figure1Checkpoints())
	p := failure.Platform{Lambda: 0.1, Downtime: 1}
	a := New(p, rng.New(42)).Run(s)
	b := New(p, rng.New(42)).Run(s)
	if a != b {
		t.Fatalf("same seed produced different results: %+v vs %+v", a, b)
	}
}

func TestMakespanAtLeastFailureFree(t *testing.T) {
	g := dag.Figure1(nil, dag.UniformCosts(0.2))
	s := mustSchedule(t, g, dag.Figure1Linearization(), dag.Figure1Checkpoints())
	p := failure.Platform{Lambda: 0.05, Downtime: 2}
	ff := New(failure.Platform{}, rng.New(1)).Run(s).Makespan
	sim := New(p, rng.New(7))
	for i := 0; i < 200; i++ {
		r := sim.Run(s)
		if r.Makespan < ff-1e-9 {
			t.Fatalf("run %d makespan %v below failure-free %v", i, r.Makespan, ff)
		}
		if r.Failures == 0 && r.Makespan != ff {
			t.Fatalf("run %d with no failures took %v, want %v", i, r.Makespan, ff)
		}
	}
}

func TestCountersConsistency(t *testing.T) {
	g := dag.Chain([]float64{10, 10, 10}, dag.UniformCosts(0.1))
	s := mustSchedule(t, g, []int{0, 1, 2}, []bool{true, true, true})
	p := failure.Platform{Lambda: 0.05, Downtime: 1}
	sim := New(p, rng.New(3))
	sawFailure := false
	for i := 0; i < 500; i++ {
		r := sim.Run(s)
		if r.Failures > 0 {
			sawFailure = true
			if r.LostTime <= 0 {
				t.Fatalf("failures without lost time: %+v", r)
			}
		}
	}
	if !sawFailure {
		t.Fatal("expected at least one failure at λ=0.05 over 500 runs of 30s work")
	}
}

// The single-task, single-checkpoint case must reproduce Eq. (1)
// exactly: E[t(w; c; 0)].
func TestMonteCarloSingleTask(t *testing.T) {
	g := dag.New()
	g.AddTask(dag.Task{Weight: 40, CkptCost: 6, RecCost: 5})
	s := mustSchedule(t, g, []int{0}, []bool{true})
	p := failure.Platform{Lambda: 0.02, Downtime: 3}
	acc, _ := serialBatch(t, s, p, Factory(), 99, 200000)
	want := core.Eval(s, p)
	if diff := math.Abs(acc.Mean() - want); diff > 4*acc.CI(0.99) {
		t.Fatalf("MC mean %v ± %v vs analytic %v", acc.Mean(), acc.CI(0.99), want)
	}
}

// Cross-validation of the paper's Theorem 3 against fault injection
// on several structurally different workloads. This is the central
// integration test of the whole reproduction: the analytical
// evaluator and the mechanistic simulator were written independently
// from the paper's prose and must agree.
func TestMonteCarloMatchesAnalyticEvaluator(t *testing.T) {
	type tc struct {
		name  string
		g     *dag.Graph
		order []int
		ckpt  []bool
		plat  failure.Platform
	}
	cases := []tc{}

	// Chain with alternating checkpoints.
	gc := dag.Chain([]float64{20, 35, 10, 25}, dag.UniformCosts(0.1))
	cases = append(cases, tc{"chain", gc, []int{0, 1, 2, 3},
		[]bool{true, false, true, false}, failure.Platform{Lambda: 0.01, Downtime: 1}})

	// Fork, checkpointed source.
	gf := dag.Fork([]float64{30, 10, 15, 20}, dag.UniformCosts(0.1))
	cases = append(cases, tc{"fork-ckpt", gf, []int{0, 1, 2, 3},
		[]bool{true, false, false, false}, failure.Platform{Lambda: 0.008, Downtime: 2}})

	// Fork, non-checkpointed source.
	cases = append(cases, tc{"fork-nockpt", gf, []int{0, 2, 3, 1},
		[]bool{false, false, false, false}, failure.Platform{Lambda: 0.008, Downtime: 2}})

	// Join with a mixed checkpoint set.
	gj := dag.Join([]float64{12, 18, 25, 8}, dag.UniformCosts(0.15))
	cases = append(cases, tc{"join", gj, []int{0, 1, 2, 3},
		[]bool{true, false, true, false}, failure.Platform{Lambda: 0.012, Downtime: 0}})

	// The Figure 1 example with the paper's schedule.
	g1 := dag.Figure1([]float64{8, 12, 6, 15, 9, 11, 7, 10}, dag.UniformCosts(0.1))
	cases = append(cases, tc{"figure1", g1, dag.Figure1Linearization(),
		dag.Figure1Checkpoints(), failure.Platform{Lambda: 0.01, Downtime: 1.5}})

	// Fork-join with everything checkpointed.
	gfj := dag.ForkJoin([]float64{10, 5, 8, 12, 20}, dag.UniformCosts(0.1))
	cases = append(cases, tc{"forkjoin", gfj, []int{0, 1, 2, 3, 4},
		[]bool{true, true, true, true, true}, failure.Platform{Lambda: 0.015, Downtime: 1}})

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			s := mustSchedule(t, c.g, c.order, c.ckpt)
			want := core.Eval(s, c.plat)
			acc, _ := serialBatch(t, s, c.plat, Factory(), 1234, 60000)
			tol := 4*acc.CI(0.99) + 1e-9
			if diff := math.Abs(acc.Mean() - want); diff > tol {
				t.Fatalf("MC mean %v ± %v vs analytic %v (diff %v)",
					acc.Mean(), acc.CI(0.99), want, diff)
			}
		})
	}
}

// Checkpoints must reduce the simulated mean on long failure-heavy
// chains, mirroring the analytic test in core.
func TestSimulatedCheckpointsHelp(t *testing.T) {
	ws := []float64{150, 150, 150, 150}
	g := dag.Chain(ws, dag.UniformCosts(0.05))
	p := failure.Platform{Lambda: 0.005, Downtime: 0}
	all := mustSchedule(t, g, []int{0, 1, 2, 3}, []bool{true, true, true, true})
	none := mustSchedule(t, g, []int{0, 1, 2, 3}, make([]bool, 4))
	aAll, _ := serialBatch(t, all, p, Factory(), 5, 20000)
	aNone, _ := serialBatch(t, none, p, Factory(), 5, 20000)
	if aAll.Mean() >= aNone.Mean() {
		t.Fatalf("checkpoints did not help: all=%v none=%v", aAll.Mean(), aNone.Mean())
	}
}

func TestBatchStats(t *testing.T) {
	g := dag.Chain([]float64{5, 5}, dag.UniformCosts(0.1))
	s := mustSchedule(t, g, []int{0, 1}, []bool{false, false})
	acc, avgFail := serialBatch(t, s, failure.Platform{Lambda: 0.01}, Factory(), 11, 1000)
	if acc.N() != 1000 {
		t.Fatalf("batch ran %d trials", acc.N())
	}
	if avgFail < 0 {
		t.Fatalf("avgFailures = %v", avgFail)
	}
	// Expected ~0.1 failures per 10s run at λ=0.01.
	if avgFail > 1 {
		t.Fatalf("avgFailures implausibly high: %v", avgFail)
	}
}

func TestNewPanicsOnBadPlatform(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with negative λ did not panic")
		}
	}()
	New(failure.Platform{Lambda: -1}, rng.New(1))
}

func TestSimulatorReuseAcrossSchedules(t *testing.T) {
	p := failure.Platform{Lambda: 0.02, Downtime: 1}
	sim := New(p, rng.New(8))
	g1 := dag.Chain([]float64{10, 10, 10, 10, 10}, dag.UniformCosts(0.1))
	s1 := mustSchedule(t, g1, []int{0, 1, 2, 3, 4}, []bool{true, false, true, false, true})
	g2 := dag.Chain([]float64{7, 7}, dag.UniformCosts(0.1))
	s2 := mustSchedule(t, g2, []int{0, 1}, []bool{false, true})
	// Interleave runs of different sizes; results must stay in the
	// plausible range and never panic from stale buffers.
	for i := 0; i < 100; i++ {
		r1 := sim.Run(s1)
		if r1.Makespan < 50 {
			t.Fatalf("s1 makespan %v below work lower bound", r1.Makespan)
		}
		r2 := sim.Run(s2)
		if r2.Makespan < 14 {
			t.Fatalf("s2 makespan %v below work lower bound", r2.Makespan)
		}
	}
}

// Statistical sanity: average failure count over a run should match
// λ × E[makespan] modulo downtime (failures form a Poisson process in
// wall-clock work time). We only check the right order of magnitude.
func TestFailureRateSanity(t *testing.T) {
	g := dag.Chain([]float64{100, 100}, dag.UniformCosts(0.1))
	s := mustSchedule(t, g, []int{0, 1}, []bool{true, true})
	p := failure.Platform{Lambda: 0.003, Downtime: 0}
	acc, avgFail := serialBatch(t, s, p, Factory(), 21, 30000)
	want := p.Lambda * acc.Mean()
	if avgFail < want*0.8 || avgFail > want*1.2 {
		t.Fatalf("avg failures %v, want ≈ λ·E[T] = %v", avgFail, want)
	}
	_ = stats.RelDiff // keep import if tolerances change
}
