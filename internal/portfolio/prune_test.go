package portfolio

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/pwg"
	"repro/internal/refine"
	"repro/internal/sched"
)

// unprunedRun is the serial reference of the engine with pruning
// absent: every heuristic's sweep through its kernel with no
// incumbent, both stages, on one evaluator; opaque strategies Apply.
func unprunedRun(hs []sched.Heuristic, g *dag.Graph, p failure.Platform) []sched.Result {
	ev := core.NewEvaluator()
	out := make([]sched.Result, len(hs))
	for i, h := range hs {
		order := h.Lin.Linearize(g)
		sw, ok := h.Strat.(sched.NSweeper)
		if !ok || len(sw.Sweep(g.N())) == 0 {
			out[i] = h.RunWith(g, p, ev)
			continue
		}
		k := sched.NewKernel(sw, g, p, order)
		best := k.Span(k.Stage1(), ev, nil, nil)
		best.Merge(k.Span(k.Stage2(best.N), ev, nil, nil))
		out[i] = sched.Result{Name: h.Name(), Expected: best.Val,
			Schedule: &core.Schedule{Graph: g, Order: order, Ckpt: best.Mask}}
	}
	return out
}

// The parallel engine with bound pruning — shared per-heuristic
// incumbents and whole-span skips — must return exactly what the
// unpruned serial reference returns, for every worker count and
// chunking. This is the portfolio layer of the pruning differential
// harness (the serial layer lives in internal/sched).
func TestPrunedRunBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		wf   pwg.Workflow
		n    int
		seed uint64
		grid int
	}{
		{pwg.Montage, 60, 3, 0},
		{pwg.Montage, 60, 3, 7},
		{pwg.CyberShake, 48, 9, 0},
		{pwg.Ligo, 40, 5, 6},
		{pwg.Genome, 40, 7, 0},
	} {
		g := testGraph(t, tc.wf, tc.n, tc.seed)
		hs := sched.Paper14(sched.Options{RFSeed: 11, Grid: tc.grid})
		want := fingerprint(unprunedRun(hs, g, plat))
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			for _, chunk := range []int{0, 1, 1000} {
				rs := Run(hs, g, plat, Options{Workers: workers, ChunkSize: chunk})
				if got := fingerprint(rs); got != want {
					t.Fatalf("%v n=%d grid=%d workers=%d chunk=%d: pruned run diverged from unpruned serial:\n got %s\nwant %s",
						tc.wf, tc.n, tc.grid, workers, chunk, got, want)
				}
			}
		}
	}
}

// Refinement prunes provably rejected flip candidates (refine's own
// harness pins that the pruned climb is never worse than the unpruned
// one). Here the refined portfolio must equal its serial reference —
// sched.RunAll, then refine.ImproveWith of every result, kept when it
// improves — for every worker count, and never be worse than the
// unrefined portfolio.
func TestPrunedRefineDeterministicAndNeverWorse(t *testing.T) {
	g := testGraph(t, pwg.CyberShake, 40, 9)
	hs := sched.Paper14(sched.Options{RFSeed: 2})
	ropt := refine.Options{MaxEvals: 500}

	ev := core.NewEvaluator()
	unrefined := sched.RunAll(hs, g, plat)
	want := make([]sched.Result, len(unrefined))
	for i, r := range unrefined {
		want[i] = r
		if res := refine.ImproveWith(r.Schedule, plat, ropt, ev); res.Expected < r.Expected {
			want[i].Schedule, want[i].Expected = res.Schedule, res.Expected
		}
		if want[i].Expected > r.Expected {
			t.Fatalf("%s: refinement worsened %v -> %v", r.Name, r.Expected, want[i].Expected)
		}
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		got := Run(hs, g, plat, Options{Workers: workers, Refine: true, RefineMaxEvals: ropt.MaxEvals})
		if fingerprint(got) != fingerprint(want) {
			t.Fatalf("workers=%d: refined portfolio diverged from the serial reference:\n got %s\nwant %s",
				workers, fingerprint(got), fingerprint(want))
		}
	}
}
