package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/pwg"
	"repro/internal/rng"
	"repro/internal/stats"
)

// randomDAG builds a random layered DAG of n tasks with forward edges
// (so the identity order is a linearization) and randomized costs.
func randomDAG(r *rng.Source, n int) *dag.Graph {
	g := dag.New()
	for i := 0; i < n; i++ {
		w := r.Uniform(1, 100)
		g.AddTask(dag.Task{Weight: w, CkptCost: r.Uniform(0.01, 20), RecCost: r.Uniform(0.01, 20)})
	}
	for j := 1; j < n; j++ {
		// Each task draws a few predecessors from earlier positions.
		k := r.Intn(3)
		for e := 0; e <= k; e++ {
			i := r.Intn(j)
			g.AddEdge(i, j) // duplicate edges rejected, fine to ignore
		}
	}
	return g
}

// identOrder returns the identity linearization of an n-task DAG with
// forward edges.
func identOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// checkDeltaStep asserts that ev.EvalSchedule, which reuses ev's
// loaded state, is bit-identical to a full pass (Eval) of the same
// schedule on a second evaluator.
func checkDeltaStep(t *testing.T, ev, full *Evaluator, s *Schedule, p failure.Platform, step string) {
	t.Helper()
	got := ev.EvalSchedule(s, p)
	want := full.Eval(s, p)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: incremental %v (%016x) != full %v (%016x)",
			step, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestDeltaMatchesColdFlipSequences drives random DAGs through long
// random flip sequences and demands bit-identity with a full pass on
// every step — the incremental path's core contract.
func TestDeltaMatchesColdFlipSequences(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		r := rng.New(seed * 977)
		n := 2 + r.Intn(40)
		g := randomDAG(r, n)
		order := identOrder(n)
		lambda := []float64{1e-4, 1e-3, 1e-2, 0.1}[r.Intn(4)]
		p := failure.Platform{Lambda: lambda, Downtime: []float64{0, 5}[r.Intn(2)]}
		mask := make([]bool, n)
		for i := range mask {
			mask[i] = r.Float64() < 0.3
		}
		s := &Schedule{Graph: g, Order: order, Ckpt: mask}
		ev := NewEvaluator()
		full := NewEvaluator()
		checkDeltaStep(t, ev, full, s, p, "initial")
		for step := 0; step < 60; step++ {
			switch r.Intn(10) {
			case 0:
				// Batch flip: several bits at once.
				for f := 0; f <= r.Intn(4); f++ {
					mask[r.Intn(n)] = !mask[r.Intn(n)]
				}
			case 1:
				// Heavy rewrite: forces the reload threshold.
				for i := range mask {
					mask[i] = r.Float64() < 0.5
				}
			default:
				mask[r.Intn(n)] = !mask[r.Intn(n)]
			}
			checkDeltaStep(t, ev, full, s, p, "flip step")
		}
	}
}

// TestDeltaMatchesColdRankedSweep replays the exact access pattern of
// the sweep fast path — prefix masks of a ranking, N ascending, then a
// second-stage-style scan — on a realistic generator workflow.
func TestDeltaMatchesColdRankedSweep(t *testing.T) {
	for _, wf := range []pwg.Workflow{pwg.Montage, pwg.CyberShake} {
		g, err := pwg.Generate(wf, 60, 3)
		if err != nil {
			t.Fatal(err)
		}
		g.ScaleCkptCosts(func(tk dag.Task) (float64, float64) { return 0.1 * tk.Weight, 0.1 * tk.Weight })
		n := g.N()
		order, err := g.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		p := failure.Platform{Lambda: 1e-3}
		// Rank by task id (any fixed ranking exercises the pattern).
		mask := make([]bool, n)
		s := &Schedule{Graph: g, Order: order, Ckpt: mask}
		ev := NewEvaluator()
		full := NewEvaluator()
		for N := 0; N < n; N++ {
			if N > 0 {
				mask[N-1] = true
			}
			checkDeltaStep(t, ev, full, s, p, "sweep up")
		}
		for N := n - 1; N > 0; N-- {
			mask[N-1] = false
			checkDeltaStep(t, ev, full, s, p, "sweep down")
		}
	}
}

// swapAdjacent returns a copy of order with the first adjacent pair of
// independent tasks at or after position from (wrapping around)
// swapped — refine's swap move, so the result is again a
// linearization — and whether such a pair exists (if not, the copy is
// unchanged).
func swapAdjacent(g *dag.Graph, order []int, from int) ([]int, bool) {
	out := append([]int(nil), order...)
	n := len(out)
	for d := 0; d+1 < n; d++ {
		i := (from + d) % (n - 1)
		dep := false
		for _, q := range g.Preds(out[i+1]) {
			if q == out[i] {
				dep = true
			}
		}
		if !dep {
			out[i], out[i+1] = out[i+1], out[i]
			return out, true
		}
	}
	return out, false
}

// TestDeltaAliasIsEvaluator pins the former incremental API that
// cmd/wfbench still calls: it is the Evaluator itself.
func TestDeltaAliasIsEvaluator(t *testing.T) {
	ev := NewEvaluator()
	if ev.Delta() != ev {
		t.Fatal("Delta() does not return its receiver")
	}
	var dv *DeltaEvaluator = NewDeltaEvaluator()
	s := &Schedule{Graph: randomDAG(rng.New(3), 9), Order: identOrder(9), Ckpt: make([]bool, 9)}
	p := failure.Platform{Lambda: 1e-2}
	if got, want := dv.EvalSchedule(s, p), ev.Eval(s, p); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("alias evaluator %v != %v", got, want)
	}
}

// TestDeltaReload pins the cache-identity behaviours: switching
// schedules, orders, platforms and graphs must transparently reload,
// and coming back must still be bit-identical.
func TestDeltaReload(t *testing.T) {
	r := rng.New(7)
	g1 := randomDAG(r, 20)
	g2 := randomDAG(r, 24)
	o1 := identOrder(20)
	o2 := identOrder(24)
	o1b, _ := swapAdjacent(g1, o1, 0)
	if !g1.IsLinearization(o1b) {
		t.Fatal("o1b is not a linearization")
	}
	p1 := failure.Platform{Lambda: 1e-3}
	p2 := failure.Platform{Lambda: 1e-2, Downtime: 3}
	ev := NewEvaluator()
	full := NewEvaluator()
	mk := func(g *dag.Graph, o []int, bits uint) *Schedule {
		mask := make([]bool, g.N())
		for i := range mask {
			mask[i] = bits>>(uint(i)%8)&1 == 1
		}
		return &Schedule{Graph: g, Order: o, Ckpt: mask}
	}
	steps := []struct {
		s *Schedule
		p failure.Platform
	}{
		{mk(g1, o1, 0b1010), p1},
		{mk(g1, o1, 0b1011), p1},  // delta step
		{mk(g1, o1b, 0b1011), p1}, // order change: reload
		{mk(g1, o1, 0b1011), p2},  // platform change: reload
		{mk(g2, o2, 0b0110), p1},  // graph change: reload
		{mk(g2, o2, 0b0111), p1},  // delta step
		{mk(g1, o1, 0b1010), p1},  // back to the first graph
	}
	for i, st := range steps {
		checkDeltaStep(t, ev, full, st.s, st.p, "reload step")
		_ = i
	}
	// Invalidate forces a full pass but identical bits.
	ev.Invalidate()
	checkDeltaStep(t, ev, full, steps[0].s, steps[0].p, "after invalidate")
}

// TestDeltaFailureFree pins the λ = 0 short-circuit.
func TestDeltaFailureFree(t *testing.T) {
	r := rng.New(11)
	g := randomDAG(r, 15)
	s := &Schedule{Graph: g, Order: identOrder(15), Ckpt: make([]bool, 15)}
	s.Ckpt[3] = true
	ev := NewEvaluator()
	full := NewEvaluator()
	p := failure.Platform{Lambda: 0}
	checkDeltaStep(t, ev, full, s, p, "failure-free")
	s.Ckpt[7] = true
	checkDeltaStep(t, ev, full, s, p, "failure-free flip")
}

// TestDeltaQuickProperty is the testing/quick leg: arbitrary seeds
// drive random (DAG, mask, flip) triples; the property is bit-identity
// of incremental and full evaluation plus agreement with the
// Algorithm-1 reference within tolerance.
func TestDeltaQuickProperty(t *testing.T) {
	prop := func(seed uint64, flips []uint8) bool {
		r := rng.New(seed%100000 + 1)
		n := 2 + r.Intn(14)
		g := randomDAG(r, n)
		order := identOrder(n)
		p := failure.Platform{Lambda: 1e-3 * (1 + float64(seed%7))}
		mask := make([]bool, n)
		s := &Schedule{Graph: g, Order: order, Ckpt: mask}
		ev := NewEvaluator()
		full := NewEvaluator()
		if len(flips) > 24 {
			flips = flips[:24]
		}
		for _, f := range append([]uint8{0}, flips...) {
			mask[int(f)%n] = !mask[int(f)%n]
			got := ev.EvalSchedule(s, p)
			want := full.Eval(s, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				return false
			}
			// Algorithm 1 is an independent transcription of the
			// theorem; it accumulates differently so agreement is
			// within tolerance, not bitwise.
			if ref := EvalReference(s, p); stats.RelDiff(got, ref) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
