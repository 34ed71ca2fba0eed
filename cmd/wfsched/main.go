// Command wfsched schedules one workflow on a failure-prone platform
// with the paper's heuristics and reports the expected makespans.
//
// The workflow is either generated (-workflow/-n/-seed) or read from
// a file (-in): wfio text format, or Pegasus DAX XML when the file
// name ends in .dax/.xml. The checkpoint-cost model is applied on top
// unless -cost keep is given.
//
// The heuristic portfolio runs through the deterministic parallel
// engine of internal/portfolio: -workers fans the search (and any
// Monte-Carlo validation) out over goroutines without changing a
// single output byte, and -refine adds a local-search pass on every
// heuristic's winner.
//
// -reactive additionally runs the internal/rerun engine: a paired
// Monte-Carlo comparison (common random numbers) of the static
// portfolio winner against the reschedule-on-failure policy that
// re-runs the portfolio on the surviving subgraph after every
// failure.
//
// Examples:
//
//	wfsched -workflow Montage -n 100 -lambda 1e-3
//	wfsched -workflow Ligo -n 200 -heuristic DF-CkptW -mc 5000
//	wfsched -workflow CyberShake -n 2000 -grid 60 -workers 16 -refine
//	wfsched -workflow Montage -n 100 -downtime 10 -reactive -mc 4000
//	wfsched -in my.wf -cost keep -heuristic all
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dag"
	"repro/internal/dax"
	"repro/internal/failure"
	"repro/internal/mc"
	"repro/internal/portfolio"
	"repro/internal/prof"
	"repro/internal/pwg"
	"repro/internal/rerun"
	"repro/internal/sched"
	"repro/internal/simulator"
	"repro/internal/wfio"
)

// reactiveTrialsDefault is the paired-trial count -reactive uses when
// -mc does not specify one.
const reactiveTrialsDefault = 2000

func main() {
	var (
		workflow  = flag.String("workflow", "Montage", "Montage|CyberShake|Ligo|Genome|Random")
		n         = flag.Int("n", 100, "task count for generated workflows")
		seed      = flag.Uint64("seed", 1, "generator / RF seed")
		in        = flag.String("in", "", "read workflow from file instead of generating")
		lambda    = flag.Float64("lambda", 0, "failure rate (0 = workflow default)")
		downtime  = flag.Float64("downtime", 0, "downtime D after each failure")
		cost      = flag.String("cost", "0.1w", "checkpoint cost model: 0.1w|0.01w|<k>s|keep")
		heuristic = flag.String("heuristic", "all", "heuristic name (e.g. DF-CkptW) or 'all'")
		grid      = flag.Int("grid", 0, "N-search grid (0 = exhaustive)")
		mcTrials  = flag.Int("mc", 0, "Monte-Carlo trials to cross-check the best schedule")
		workers   = flag.Int("workers", 0, "portfolio-search and Monte-Carlo worker goroutines (0 = all cores; any value produces identical output)")
		refineOn  = flag.Bool("refine", false, "hill-climb every heuristic's winning schedule")
		reactive  = flag.Bool("reactive", false, "compare the static winner against reschedule-on-failure by paired Monte-Carlo")
		dot       = flag.String("dot", "", "write the best schedule's DAG as DOT to this file")
		profCfg   = prof.FlagVars()
	)
	flag.Parse()
	stopProf, err := profCfg.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfsched:", err)
		os.Exit(1)
	}
	err = run(*workflow, *n, *seed, *in, *lambda, *downtime, *cost, *heuristic, *grid, *mcTrials, *workers, *refineOn, *reactive, *dot)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfsched:", err)
		os.Exit(1)
	}
}

// validateFlags front-loads flag validation so bad values fail with
// one clear error instead of reaching the workflow generators or the
// sweep code with out-of-domain parameters.
func validateFlags(n int, in string, grid, mcTrials, workers int) error {
	if in == "" && n < 1 {
		return fmt.Errorf("-n must be ≥ 1 for generated workflows, got %d", n)
	}
	if grid < 0 {
		return fmt.Errorf("-grid must be ≥ 0 (0 = exhaustive), got %d", grid)
	}
	if mcTrials < 0 {
		return fmt.Errorf("-mc must be ≥ 0 (0 = no Monte-Carlo), got %d", mcTrials)
	}
	if workers < 0 {
		return fmt.Errorf("-workers must be ≥ 0 (0 = all cores), got %d", workers)
	}
	return nil
}

func run(workflow string, n int, seed uint64, in string, lambda, downtime float64,
	cost, heuristic string, grid, mcTrials, workers int, refineOn, reactive bool, dot string) error {
	if err := validateFlags(n, in, grid, mcTrials, workers); err != nil {
		return err
	}
	var g *dag.Graph
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		if strings.HasSuffix(in, ".dax") || strings.HasSuffix(in, ".xml") {
			g, err = dax.Parse(f)
			if err != nil {
				return err
			}
		} else {
			parsed, err := wfio.Parse(f)
			if err != nil {
				return err
			}
			// The text parser checks references only; acyclicity and
			// finite costs are Validate's job (dax.Parse calls it).
			g = parsed.Graph
			if err := g.Validate(); err != nil {
				return err
			}
		}
	} else {
		wf, err := pwg.ParseWorkflow(workflow)
		if err != nil {
			return err
		}
		g, err = pwg.Generate(wf, n, seed)
		if err != nil {
			return err
		}
		if lambda == 0 {
			lambda = wf.DefaultLambda()
		}
	}
	if lambda == 0 {
		lambda = 1e-3
	}
	if err := applyCost(g, cost); err != nil {
		return err
	}
	plat := failure.Platform{Lambda: lambda, Downtime: downtime}
	if err := plat.Validate(); err != nil {
		return err
	}

	opts := sched.Options{RFSeed: seed, Grid: grid}
	var hs []sched.Heuristic
	if heuristic == "all" {
		hs = sched.Paper14(opts)
	} else {
		h, err := sched.ByName(heuristic, opts)
		if err != nil {
			return err
		}
		hs = []sched.Heuristic{h}
	}

	fmt.Printf("workflow: %v  (λ=%g, D=%g, T_inf=%.4g)\n\n", g, lambda, downtime, g.TotalWeight())
	results := portfolio.Run(hs, g, plat, portfolio.Options{Workers: workers, Refine: refineOn})
	best := portfolio.Best(results)
	sort.SliceStable(results, func(i, j int) bool { return results[i].Expected < results[j].Expected })
	fmt.Printf("%-14s %14s %10s %8s\n", "heuristic", "E[makespan]", "T/Tinf", "#ckpt")
	for _, r := range results {
		fmt.Printf("%-14s %14.4f %10.4f %8d\n", r.Name, r.Expected, r.Ratio, r.Schedule.NumCheckpointed())
	}
	if mcTrials > 0 {
		res, err := mc.Run(best.Schedule, plat, mc.Config{
			Trials:      mcTrials,
			Seed:        seed + 99,
			Workers:     workers,
			Percentiles: []float64{5, 50, 95, 99},
			Factory:     simulator.Factory(),
		})
		if err != nil {
			return err
		}
		acc := res.Makespan
		fmt.Printf("\nMonte-Carlo (%d trials) of %s: mean=%.4f ±%.4f (99%% CI), analytic=%.4f, avg failures/run=%.2f\n",
			mcTrials, best.Name, acc.Mean(), acc.CI(0.99), best.Expected, res.AvgFailures())
		fmt.Printf("makespan distribution: p5=%.5g median=%.5g p95=%.5g p99=%.5g max=%.5g\n",
			res.Percentiles[0], res.Percentiles[1], res.Percentiles[2], res.Percentiles[3], acc.Max())
	}
	if reactive {
		trials := mcTrials
		if trials == 0 {
			trials = reactiveTrialsDefault
		}
		e := rerun.New(g, plat, rerun.Options{Workers: workers, Grid: grid, RFSeed: seed, Heuristics: hs})
		cmp, err := e.CompareMC(trials, seed+199, workers)
		if err != nil {
			return err
		}
		sm := cmp.StaticMC.Makespan
		rm := cmp.ReactiveMC.Makespan
		hits, misses := e.CacheStats()
		fmt.Printf("\nreactive rescheduling (%d paired trials, common random numbers):\n", trials)
		fmt.Printf("  static   %-14s mean=%.4f ±%.4f (99%% CI), avg failures/run=%.2f\n",
			cmp.Static.Name, sm.Mean(), sm.CI(0.99), cmp.StaticMC.AvgFailures())
		fmt.Printf("  reactive %-14s mean=%.4f ±%.4f (99%% CI), avg reschedules/run=%.2f\n",
			cmp.Static.Name, rm.Mean(), rm.CI(0.99), cmp.ReactiveMC.AvgFailures())
		fmt.Printf("  improvement: %.2f%%  (residual searches: %d run, %d answered from cache)\n",
			100*(sm.Mean()-rm.Mean())/sm.Mean(), misses, hits)
	}
	if dot != "" {
		if err := os.WriteFile(dot, []byte(g.DOT(best.Name, best.Schedule.Ckpt)), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", dot)
	}
	return nil
}

func applyCost(g *dag.Graph, model string) error {
	switch {
	case model == "keep":
		return nil
	case model == "0.1w":
		g.ScaleCkptCosts(func(t dag.Task) (float64, float64) { return 0.1 * t.Weight, 0.1 * t.Weight })
	case model == "0.01w":
		g.ScaleCkptCosts(func(t dag.Task) (float64, float64) { return 0.01 * t.Weight, 0.01 * t.Weight })
	case strings.HasSuffix(model, "s"):
		k, err := strconv.ParseFloat(strings.TrimSuffix(model, "s"), 64)
		if err != nil || k < 0 {
			return fmt.Errorf("bad constant cost %q", model)
		}
		g.ScaleCkptCosts(func(dag.Task) (float64, float64) { return k, k })
	default:
		return fmt.Errorf("unknown cost model %q (want 0.1w, 0.01w, <k>s or keep)", model)
	}
	return nil
}
