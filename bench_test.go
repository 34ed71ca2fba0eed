package repro

// One benchmark per figure of the paper (Figures 2–7 including the
// appendix variants), each regenerating that figure's experiment
// kernel at a reduced size so `go test -bench=.` terminates in
// minutes: a single workflow instance per iteration with a bounded
// checkpoint-count grid. The full-size figures are produced by
// cmd/experiments (-quick or -full). Micro-benchmarks for the
// building blocks (Theorem 3 evaluator, Algorithm 1 reference,
// simulator, generators, chain DP) follow.

import (
	"fmt"
	"testing"

	"repro/internal/ablation"
	"repro/internal/chains"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/mc"
	"repro/internal/portfolio"
	"repro/internal/pwg"
	"repro/internal/refine"
	"repro/internal/rerun"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/simulator"
)

// benchCfg keeps per-iteration cost bounded: one size, coarse grid.
var benchCfg = experiments.Config{Grid: 16, Seed: 1, Sizes: []int{100}, Workers: 1}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	spec, err := experiments.SpecByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg
	if len(spec.Lambdas) > 0 {
		// λ-sweep figures fix n = 200 in the paper; benchmark a
		// single λ point at a reduced size.
		spec.Lambdas = spec.Lambdas[:1]
		spec.N = 100
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Run(spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) != 6 {
			b.Fatalf("figure %s produced %d series", id, len(fig.Series))
		}
	}
}

// Figure 2: impact of the linearization strategy (c = 0.1w).
func BenchmarkFig2a(b *testing.B) { benchFigure(b, "fig2a") }
func BenchmarkFig2b(b *testing.B) { benchFigure(b, "fig2b") }
func BenchmarkFig2c(b *testing.B) { benchFigure(b, "fig2c") }

// Figure 3: impact of the checkpointing strategy (c = 0.1w).
func BenchmarkFig3a(b *testing.B) { benchFigure(b, "fig3a") }
func BenchmarkFig3b(b *testing.B) { benchFigure(b, "fig3b") }
func BenchmarkFig3c(b *testing.B) { benchFigure(b, "fig3c") }
func BenchmarkFig3d(b *testing.B) { benchFigure(b, "fig3d") }

// Figure 4: linearization impact with constant checkpoint costs.
func BenchmarkFig4a(b *testing.B) { benchFigure(b, "fig4a") }
func BenchmarkFig4b(b *testing.B) { benchFigure(b, "fig4b") }
func BenchmarkFig4c(b *testing.B) { benchFigure(b, "fig4c") }

// Figure 5: checkpointing impact, c = 0.01w.
func BenchmarkFig5a(b *testing.B) { benchFigure(b, "fig5a") }
func BenchmarkFig5b(b *testing.B) { benchFigure(b, "fig5b") }
func BenchmarkFig5c(b *testing.B) { benchFigure(b, "fig5c") }
func BenchmarkFig5d(b *testing.B) { benchFigure(b, "fig5d") }

// Figure 6: checkpointing impact, c = 5 s.
func BenchmarkFig6a(b *testing.B) { benchFigure(b, "fig6a") }
func BenchmarkFig6b(b *testing.B) { benchFigure(b, "fig6b") }
func BenchmarkFig6c(b *testing.B) { benchFigure(b, "fig6c") }
func BenchmarkFig6d(b *testing.B) { benchFigure(b, "fig6d") }

// Figure 7: failure-rate sweep at fixed task count.
func BenchmarkFig7a(b *testing.B) { benchFigure(b, "fig7a") }
func BenchmarkFig7b(b *testing.B) { benchFigure(b, "fig7b") }
func BenchmarkFig7c(b *testing.B) { benchFigure(b, "fig7c") }
func BenchmarkFig7d(b *testing.B) { benchFigure(b, "fig7d") }

// --- Micro-benchmarks -------------------------------------------------

// benchSchedule builds a representative schedule of n tasks.
func benchSchedule(b *testing.B, n int) *core.Schedule {
	b.Helper()
	g, err := pwg.Generate(pwg.Ligo, n, 7)
	if err != nil {
		b.Fatal(err)
	}
	g.ScaleCkptCosts(func(t dag.Task) (float64, float64) { return 0.1 * t.Weight, 0.1 * t.Weight })
	order := sched.DF{}.Linearize(g)
	ck := make([]bool, n)
	for i := 0; i < n; i += 3 {
		ck[i] = true
	}
	s, err := core.NewSchedule(g, order, ck)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

var plat = failure.Platform{Lambda: 1e-3}

// BenchmarkEvaluator measures the optimized Theorem 3 evaluator —
// the paper's core contribution — at the paper's instance sizes.
func BenchmarkEvaluator(b *testing.B) {
	for _, n := range []int{50, 100, 200, 400, 700} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchSchedule(b, n)
			ev := core.NewEvaluator()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v := ev.Eval(s, plat); v <= 0 {
					b.Fatal("bad makespan")
				}
			}
		})
	}
}

// BenchmarkEvaluatorReference measures the verbatim O(n⁴)
// Algorithm 1 for contrast (small sizes only).
func BenchmarkEvaluatorReference(b *testing.B) {
	for _, n := range []int{50, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchSchedule(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v := core.EvalReference(s, plat); v <= 0 {
					b.Fatal("bad makespan")
				}
			}
		})
	}
}

// BenchmarkReactiveRun measures one reactive execution of the rerun
// engine on a 100-task CyberShake workflow: fault-injected run plus
// reschedule-on-failure, with the residual-plan cache warm after the
// first iteration (the steady state of a Monte-Carlo batch). A fresh
// source per iteration keeps the per-iteration work constant.
func BenchmarkReactiveRun(b *testing.B) {
	g, err := pwg.Generate(pwg.CyberShake, 100, 1)
	if err != nil {
		b.Fatal(err)
	}
	g.ScaleCkptCosts(func(t dag.Task) (float64, float64) { return 0.1 * t.Weight, 0.1 * t.Weight })
	e := rerun.New(g, failure.Platform{Lambda: 1e-3, Downtime: 10},
		rerun.Options{Workers: 1, Grid: 16})
	e.Static()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := e.Run(rng.New(42)); r.Makespan <= 0 {
			b.Fatal("bad reactive run")
		}
	}
}

// BenchmarkSimulator measures one fault-injected execution.
func BenchmarkSimulator(b *testing.B) {
	s := benchSchedule(b, 200)
	sim := simulator.New(plat, rng.New(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := sim.Run(s); r.Makespan <= 0 {
			b.Fatal("bad run")
		}
	}
}

// benchMCTrials sizes the Monte-Carlo engine benchmarks: a
// representative cross-validation batch.
const benchMCTrials = 2000

// BenchmarkMCParallel measures the sharded Monte-Carlo engine at a
// fixed trial count across worker counts; workers=1 is the serial
// engine, higher counts the multi-core speedup.
func BenchmarkMCParallel(b *testing.B) {
	s := benchSchedule(b, 200)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := mc.Config{
				Trials:  benchMCTrials,
				Seed:    3,
				Workers: workers,
				Factory: simulator.Factory(),
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := mc.Run(s, plat, cfg)
				if err != nil || res.Makespan.N() != benchMCTrials {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMCBatchedJobs measures the multi-schedule path: all six
// checkpointing strategies of one figure point evaluated in a single
// pool pass.
func BenchmarkMCBatchedJobs(b *testing.B) {
	jobs := make([]mc.Job, 6)
	for i := range jobs {
		s := benchSchedule(b, 100+10*i)
		jobs[i] = mc.Job{Schedule: s, Plat: plat}
	}
	cfg := mc.Config{Trials: 500, Seed: 7, Factory: simulator.Factory()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mc.RunJobs(jobs, cfg)
		if err != nil || len(res) != 6 {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate measures the synthetic workflow generators.
func BenchmarkGenerate(b *testing.B) {
	for _, wf := range []pwg.Workflow{pwg.Montage, pwg.CyberShake, pwg.Ligo, pwg.Genome} {
		b.Run(wf.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := pwg.Generate(wf, 300, uint64(i))
				if err != nil || g.N() != 300 {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChainDP measures the Toueg–Babaoğlu dynamic program.
func BenchmarkChainDP(b *testing.B) {
	r := rng.New(5)
	ws := make([]float64, 300)
	for i := range ws {
		ws[i] = r.Uniform(10, 200)
	}
	g := dag.Chain(ws, dag.UniformCosts(0.1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, sol, err := chains.Solve(g, plat); err != nil || sol.Expected <= 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyInsertion measures the greedy checkpoint-insertion
// extension (one O(n)-evaluations round per accepted checkpoint).
func BenchmarkGreedyInsertion(b *testing.B) {
	g, err := pwg.Generate(pwg.Montage, 100, 3)
	if err != nil {
		b.Fatal(err)
	}
	g.ScaleCkptCosts(func(t dag.Task) (float64, float64) { return 0.1 * t.Weight, 0.1 * t.Weight })
	order := sched.DF{}.Linearize(g)
	ev := core.NewEvaluator()
	strat := sched.CkptGreedy{Candidates: 32}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, v := strat.Apply(g, plat, order, ev); v <= 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkRefine measures the hill-climbing local search over a
// heuristic schedule (ablation: what refinement costs).
func BenchmarkRefine(b *testing.B) {
	s := benchSchedule(b, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := refine.Improve(s, plat, refine.Options{MaxEvals: 300})
		if res.Expected <= 0 {
			b.Fatal("bad refinement")
		}
	}
}

// BenchmarkNonBlockingSimulator measures one fault-injected run under
// the non-blocking checkpointing extension.
func BenchmarkNonBlockingSimulator(b *testing.B) {
	s := benchSchedule(b, 200)
	nb := simulator.NewNonBlocking(simulator.New(plat, rng.New(4)), 0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := nb.Run(s); r.Makespan <= 0 {
			b.Fatal("bad run")
		}
	}
}

// BenchmarkAblationGrid regenerates the grid-resolution ablation at a
// reduced size (the study behind the harness's -quick mode).
func BenchmarkAblationGrid(b *testing.B) {
	cfg := ablation.Config{Seed: 1, Sizes: []int{60}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig, err := ablation.GridResolution(pwg.CyberShake, cfg)
		if err != nil || len(fig.Series) != 4 {
			b.Fatal(err)
		}
	}
}

// benchPortfolio builds the portfolio benchmark workload: the full
// 14-heuristic set on a CyberShake instance at the paper's largest
// size (n = 700), with a bounded N grid so a single iteration stays
// in benchmark territory. The full exhaustive sweep at n = 2000 is
// the domain of cmd/experiments -fig scale-*.
func benchPortfolio(b *testing.B) (*dag.Graph, []sched.Heuristic) {
	return benchPortfolioN(b, 700)
}

// benchPortfolioN is benchPortfolio at an arbitrary instance size, for
// the n ∈ {100, 700, 2000} points of the BENCH_sweep.json trajectory.
func benchPortfolioN(b *testing.B, n int) (*dag.Graph, []sched.Heuristic) {
	b.Helper()
	g, err := pwg.Generate(pwg.CyberShake, n, 1)
	if err != nil {
		b.Fatal(err)
	}
	g.ScaleCkptCosts(func(t dag.Task) (float64, float64) { return 0.1 * t.Weight, 0.1 * t.Weight })
	return g, sched.Paper14(sched.Options{RFSeed: 1, Grid: 24})
}

// BenchmarkPortfolioSerial is the pre-engine baseline: the serial
// sched.RunAll over the same workload the parallel engine fans out.
func BenchmarkPortfolioSerial(b *testing.B) {
	g, hs := benchPortfolio(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rs := sched.RunAll(hs, g, plat); len(rs) != 14 {
			b.Fatal("bad portfolio result")
		}
	}
}

// BenchmarkPortfolioParallel measures the deterministic parallel
// portfolio engine across worker counts; workers=1 quantifies engine
// overhead against BenchmarkPortfolioSerial, higher counts the
// multi-core speedup (the acceptance target is ≥ 2× over serial at
// n ≥ 700 on 4+ cores — results are byte-identical either way).
func BenchmarkPortfolioParallel(b *testing.B) {
	g, hs := benchPortfolio(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs := portfolio.Run(hs, g, plat, portfolio.Options{Workers: workers})
				if len(rs) != 14 {
					b.Fatal("bad portfolio result")
				}
			}
		})
	}
}

// BenchmarkPortfolioN100 is the small point of the portfolio perf
// trajectory: the same 14-heuristic workload at n = 100 on one worker.
func BenchmarkPortfolioN100(b *testing.B) {
	g, hs := benchPortfolioN(b, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := portfolio.Run(hs, g, plat, portfolio.Options{Workers: 1})
		if len(rs) != 14 {
			b.Fatal("bad portfolio result")
		}
	}
}

// BenchmarkPortfolioN2000 is the scale point of the portfolio perf
// trajectory: the 14-heuristic workload well past the paper's largest
// size. It runs the engine's default (all-core) configuration — the
// number this benchmark tracks is the span scheduler's wall-clock at
// large n, where donation is what keeps the cores busy behind a long
// sweep (results are byte-identical to workers=1, which the
// determinism stress test pins).
func BenchmarkPortfolioN2000(b *testing.B) {
	g, hs := benchPortfolioN(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := portfolio.Run(hs, g, plat, portfolio.Options{})
		if len(rs) != 14 {
			b.Fatal("bad portfolio result")
		}
	}
}

// BenchmarkPortfolioN2000Short is the gate-sized variant of the scale
// point: the same workload and engine configuration at n = 600, small
// enough for the blocking bench gate's multi-sample runs while still
// exercising every layer the full-size benchmark does (shared factor
// tables, bound pruning, donation).
func BenchmarkPortfolioN2000Short(b *testing.B) {
	g, hs := benchPortfolioN(b, 600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := portfolio.Run(hs, g, plat, portfolio.Options{})
		if len(rs) != 14 {
			b.Fatal("bad portfolio result")
		}
	}
}

// BenchmarkRefineN700 is the large point of the refinement perf
// trajectory: one bounded hill-climb at the paper's largest size,
// dominated by the one-bit checkpoint-flip neighbourhood.
func BenchmarkRefineN700(b *testing.B) {
	s := benchSchedule(b, 700)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := refine.Improve(s, plat, refine.Options{MaxEvals: 300, CkptOnly: true})
		if res.Expected <= 0 {
			b.Fatal("bad refinement")
		}
	}
}

// BenchmarkSweepExhaustive measures one full exhaustive checkpoint-
// count sweep (DF-CkptW, N = 1..n−1) — the paper's Section 5 hot
// path that the incremental sweep evaluator amortizes. It runs sched's
// sweep kernel (sched.Kernel) over the whole range, pruning and delta
// evaluation included.
func BenchmarkSweepExhaustive(b *testing.B) {
	for _, n := range []int{100, 700} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g, err := pwg.Generate(pwg.CyberShake, n, 1)
			if err != nil {
				b.Fatal(err)
			}
			g.ScaleCkptCosts(func(t dag.Task) (float64, float64) { return 0.1 * t.Weight, 0.1 * t.Weight })
			h := sched.Heuristic{Lin: sched.DF{}, Strat: sched.NewCkptW(0)}
			ev := core.NewEvaluator()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r := h.RunWith(g, plat, ev); r.Expected <= 0 {
					b.Fatal("bad result")
				}
			}
		})
	}
}

// BenchmarkHeuristicSearch measures one full exhaustive-N heuristic
// run (DF-CkptW) at the paper's mid size.
func BenchmarkHeuristicSearch(b *testing.B) {
	g, err := pwg.Generate(pwg.CyberShake, 200, 9)
	if err != nil {
		b.Fatal(err)
	}
	g.ScaleCkptCosts(func(t dag.Task) (float64, float64) { return 0.1 * t.Weight, 0.1 * t.Weight })
	h := sched.Heuristic{Lin: sched.DF{}, Strat: sched.NewCkptW(0)}
	ev := core.NewEvaluator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := h.RunWith(g, plat, ev); r.Expected <= 0 {
			b.Fatal("bad result")
		}
	}
}
