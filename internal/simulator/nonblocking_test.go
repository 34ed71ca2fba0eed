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

func nbSchedule(t *testing.T) *core.Schedule {
	t.Helper()
	g := dag.Chain([]float64{50, 50, 50, 50}, dag.UniformCosts(0.2))
	s, err := core.NewSchedule(g, []int{0, 1, 2, 3}, []bool{true, true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNonBlockingFailureFreeHidesCheckpoints(t *testing.T) {
	s := nbSchedule(t)
	// α = 0: checkpoints fully overlap with the next tasks' 50 s of
	// compute (each checkpoint is 10 s < 50 s), so the makespan is
	// exactly Σw = 200.
	nb := NewNonBlocking(New(failure.Platform{}, rng.New(1)), 0)
	r := nb.Run(s)
	if math.Abs(r.Makespan-200) > 1e-9 {
		t.Fatalf("α=0 failure-free makespan = %v, want 200", r.Makespan)
	}
}

func TestNonBlockingFailureFreeSlowdownFormula(t *testing.T) {
	s := nbSchedule(t)
	// With slowdown α, each of the three 10 s checkpoints stretches
	// computation: during the 10 s a checkpoint is in flight, the
	// next task computes 10(1−α); the missing 10α units are made up
	// at full speed afterwards. Three checkpoints, each fully inside
	// the following 50 s task (since 10/(1−α) < 50 for α ≤ 0.5):
	// makespan = 200 + 3·10·α/(1)... derive: wall-clock for a 50 s
	// task with a 10 s checkpoint in flight = 10 + (50 − 10(1−α)) =
	// 50 + 10α. Three such tasks → 200 + 30α.
	for _, alpha := range []float64{0.1, 0.3, 0.5} {
		nb := NewNonBlocking(New(failure.Platform{}, rng.New(1)), alpha)
		r := nb.Run(s)
		want := 200 + 30*alpha
		if math.Abs(r.Makespan-want) > 1e-9 {
			t.Fatalf("α=%v: makespan %v, want %v", alpha, r.Makespan, want)
		}
	}
}

func TestNonBlockingBeatsBlockingOnAverage(t *testing.T) {
	g := dag.Chain([]float64{80, 80, 80, 80, 80}, dag.UniformCosts(0.15))
	s, err := core.NewSchedule(g, []int{0, 1, 2, 3, 4}, []bool{true, true, true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	p := failure.Platform{Lambda: 0.002, Downtime: 1}
	const trials = 40000
	blocking, _ := serialBatch(t, s, p, Factory(), 7, trials)
	nb, _ := serialBatch(t, s, p, NonBlockingFactory(0.2), 7, trials)
	nbMean := nb.Mean()
	// Non-blocking at modest slowdown should beat blocking: the same
	// protection with most of the checkpoint latency hidden.
	if nbMean >= blocking.Mean() {
		t.Fatalf("non-blocking %v not better than blocking %v", nbMean, blocking.Mean())
	}
}

func TestNonBlockingDurabilityWindow(t *testing.T) {
	// A failure before the background checkpoint completes must roll
	// back to scratch. Construct determinism: λ huge at first...
	// instead use a crafted gap sequence via a custom GapDraw.
	g := dag.Chain([]float64{10, 100}, dag.ConstantCosts(20))
	s, err := core.NewSchedule(g, []int{0, 1}, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	gaps := []float64{15, 1e9} // one failure at t=15, then none
	i := 0
	draw := func(*rng.Source) float64 { v := gaps[i]; i++; return v }
	nb := NewNonBlocking(NewWithGaps(failure.Platform{}, rng.New(1), draw), 0)
	r := nb.Run(s)
	// Timeline: T0 runs 0..10; checkpoint (20 s) in flight 10..30;
	// T1 computes from 10; failure at 15 destroys memory AND the
	// in-flight checkpoint → T0 re-executes (10 s, re-enqueues its
	// checkpoint), T1 restarts: 15 + 10 + 100 = 125 total.
	if math.Abs(r.Makespan-125) > 1e-9 {
		t.Fatalf("durability-window makespan = %v, want 125", r.Makespan)
	}
	if r.Failures != 1 || r.Reexec < 1 {
		t.Fatalf("counters: %+v", r)
	}
}

func TestNonBlockingDurableCheckpointRecovers(t *testing.T) {
	// Failure *after* the checkpoint completed: recovery instead of
	// re-execution.
	g := dag.Chain([]float64{10, 100}, dag.ConstantCosts(5))
	s, err := core.NewSchedule(g, []int{0, 1}, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	gaps := []float64{40, 1e9}
	i := 0
	draw := func(*rng.Source) float64 { v := gaps[i]; i++; return v }
	nb := NewNonBlocking(NewWithGaps(failure.Platform{}, rng.New(1), draw), 0)
	r := nb.Run(s)
	// T0: 0..10; ckpt in flight 10..15 (durable). T1 computes 10..40,
	// fails at 40 (30 s done). Restart: recover T0 (5 s), T1 full 100:
	// 40 + 5 + 100 = 145.
	if math.Abs(r.Makespan-145) > 1e-9 {
		t.Fatalf("durable-recovery makespan = %v, want 145", r.Makespan)
	}
	if r.Recovered != 1 {
		t.Fatalf("expected one recovery, got %+v", r)
	}
}

func TestNonBlockingQueueing(t *testing.T) {
	// Two checkpointed short tasks back-to-back: the second checkpoint
	// must wait for the first (single storage channel). α = 0,
	// failure-free. T0 (10) ckpt 30; T1 (10) ckpt 30; T2 (100).
	// Timeline: T0 0..10; ckpt0 10..40. T1 10..20; ckpt1 queues,
	// runs 40..70. T2 20..120. Makespan = 120 (checkpoints hidden),
	// and both checkpoints durable before 120.
	g := dag.Chain([]float64{10, 10, 100}, dag.ConstantCosts(30))
	s, err := core.NewSchedule(g, []int{0, 1, 2}, []bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	nb := NewNonBlocking(New(failure.Platform{}, rng.New(1)), 0)
	r := nb.Run(s)
	if math.Abs(r.Makespan-120) > 1e-9 {
		t.Fatalf("queueing makespan = %v, want 120", r.Makespan)
	}
}

func TestNonBlockingAlphaValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("α=1 accepted")
		}
	}()
	NewNonBlocking(New(failure.Platform{}, rng.New(1)), 1.0)
}

func TestNonBlockingApproachesBlockingAsAlphaGrows(t *testing.T) {
	s := nbSchedule(t)
	p := failure.Platform{Lambda: 0.003}
	const trials = 20000
	blocking, _ := serialBatch(t, s, p, Factory(), 3, trials)
	prev := 0.0
	for _, alpha := range []float64{0.0, 0.5, 0.9} {
		nb, _ := serialBatch(t, s, p, NonBlockingFactory(alpha), 3, trials)
		m := nb.Mean()
		if m < prev-1e-9 {
			t.Fatalf("mean decreased as α grew: %v after %v", m, prev)
		}
		prev = m
	}
	// Even at α=0.9 the non-blocking run differs from blocking by a
	// bounded amount (the models only coincide in the α→1 limit with
	// an idle barrier; sanity-check the scale).
	if prev > blocking.Mean()*1.2 {
		t.Fatalf("α=0.9 mean %v far above blocking %v", prev, blocking.Mean())
	}
	_ = stats.RelDiff
}
