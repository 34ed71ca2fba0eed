package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/mc"
	"repro/internal/portfolio"
	"repro/internal/pwg"
	"repro/internal/report"
	"repro/internal/rerun"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/simulator"
)

// scale: one full portfolio search per family at n = 800, the families
// taking turns, with the scale-* specs' failure rates. The size is past
// the paper's largest instance (700) and small enough that a run
// repeats the four searches several times.
type scale struct {
	insts []*instance
	best  []sched.Result // first winner per family
	again []sched.Result // winner of the latest repeat per family
}

func setupScale(p *params) (job, error) {
	j := &scale{}
	for k, wf := range families {
		lambda := 1e-3
		if wf == pwg.Genome {
			lambda = 1e-4
		}
		sp := p.tr.begin("pwg.Generate", p.root, k, 0)
		inst, err := newInstance(wf, p.size.scaleN, rng.StreamSeed(p.seed, uint64(k)),
			failure.Platform{Lambda: lambda}, sched.Options{Grid: 24, RFSeed: rng.StreamSeed(p.seed, 100+uint64(k))}, 0)
		p.tr.end(sp)
		if err != nil {
			return nil, err
		}
		j.insts = append(j.insts, inst)
	}
	// Untimed warm-up search at half size, as the first large search
	// a long-lived process runs.
	warm, err := newInstance(pwg.CyberShake, p.size.scaleN/2, warmSeed,
		failure.Platform{Lambda: 1e-3}, sched.Options{Grid: 24}, 0)
	if err != nil {
		return nil, err
	}
	sp := p.tr.begin("portfolio.Run", p.root, -1, 0)
	portfolio.Run(sched.Paper14(warm.opts), warm.g, warm.plat, portfolio.Options{Workers: p.nproc})
	p.tr.end(sp)
	j.best = make([]sched.Result, len(j.insts))
	j.again = make([]sched.Result, len(j.insts))
	return j, nil
}

func (j *scale) run(p *params) {
	p.section.sequential(len(j.insts), func(i int) (time.Duration, error) {
		k := i % len(j.insts)
		inst := j.insts[k]
		start := time.Now()
		sp := p.tr.begin("portfolio.Run", p.root, i, 0)
		rs := portfolio.Run(sched.Paper14(inst.opts), inst.g, inst.plat, portfolio.Options{Workers: p.nproc})
		p.tr.end(sp)
		lat := time.Since(start)
		if i < len(j.insts) {
			j.best[k] = portfolio.Best(rs)
		} else {
			j.again[k] = portfolio.Best(rs)
		}
		return lat, nil
	})
}

func (j *scale) check(p *params) {
	for k, inst := range j.insts {
		if err := checkWinner(inst, j.best[k]); err != nil {
			p.section.checkFailed(err)
		}
		if a := j.again[k]; a.Schedule != nil && math.Float64bits(a.Expected) != math.Float64bits(j.best[k].Expected) {
			p.section.checkFailed(fmt.Errorf("%s: repeated search found %v, first found %v", inst.label, a.Expected, j.best[k].Expected))
		}
	}
}

func (j *scale) probe() (*instance, error) { return j.insts[1], nil }

func (j *scale) report() []string {
	var out []string
	for k, inst := range j.insts {
		out = append(out, fmt.Sprintf("scale: %s winner=%s expected=%.6g", inst.label, j.best[k].Name, j.best[k].Expected))
	}
	return out
}

func (j *scale) close() {}

// figureIDs are the paper's Figure 2 and 3 panels at c = 0.1w.
var figureIDs = []string{"fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig3c", "fig3d"}

// figures: the reproduction's own job, cmd/experiments -quick over
// Figures 2 and 3, one figure per operation.
type figures struct {
	specs []experiments.Spec
	cfg   experiments.Config
	figs  []*report.Figure
	times map[string][]float64
	// mid is a mid-size Figure 3a point (Montage, n = 300) with the
	// quick grid: the per-layer pass's instance.
	mid *instance
}

func setupFigures(p *params) (job, error) {
	j := &figures{
		cfg:   experiments.Config{Grid: p.size.figureGrid, Sizes: p.size.figureSizes, Workers: p.nproc, Seed: p.seed},
		times: make(map[string][]float64),
	}
	for _, id := range figureIDs {
		spec, err := experiments.SpecByID(id)
		if err != nil {
			return nil, err
		}
		j.specs = append(j.specs, spec)
	}
	fig3a := j.specs[3]
	mid, err := newInstance(fig3a.Workflow, p.size.figureMid, p.seed^0x400, failure.Platform{Lambda: fig3a.Lambda},
		sched.Options{Grid: j.cfg.Grid, RFSeed: p.seed}, 0)
	if err != nil {
		return nil, err
	}
	j.mid = mid
	// Warm-up: every figure once at its two smallest sizes.
	warm := j.cfg
	warm.Sizes = p.size.figureSizes[:min(2, len(p.size.figureSizes))]
	warm.Seed = warmSeed
	for _, spec := range j.specs {
		sp := p.tr.begin("experiments.Run", p.root, -1, 0)
		_, err := experiments.Run(spec, warm)
		p.tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	return j, nil
}

func (j *figures) run(p *params) {
	p.section.sequential(len(j.specs), func(i int) (time.Duration, error) {
		spec := j.specs[i%len(j.specs)]
		start := time.Now()
		sp := p.tr.begin("experiments.Run", p.root, i, 0)
		fig, err := experiments.Run(spec, j.cfg)
		p.tr.end(sp)
		lat := time.Since(start)
		if err != nil {
			return 0, err
		}
		j.figs = append(j.figs, fig)
		j.times[spec.ID] = append(j.times[spec.ID], ms(lat))
		return lat, nil
	})
}

// check: every series value of every figure is a finite T/T_inf ratio
// of at least 1.
func (j *figures) check(p *params) {
	for _, fig := range j.figs {
		if err := checkFigure(fig); err != nil {
			p.section.checkFailed(err)
		}
	}
}

func checkFigure(fig *report.Figure) error {
	for _, s := range fig.Series {
		for i, y := range s.Y {
			if math.IsNaN(y) || math.IsInf(y, 0) || y < 1 {
				return fmt.Errorf("%s: series %s at x=%v is %v, want a finite ratio ≥ 1", fig.ID, s.Name, fig.X[i], y)
			}
		}
	}
	return nil
}

func (j *figures) probe() (*instance, error) { return j.mid, nil }

// attribute replays every point of the first round's figures alone on
// one worker — the work the point pool balances — and checks that each
// point reproduces its figure's values bit for bit.
func (j *figures) attribute(p *params) ([]string, []error) {
	cfg := j.cfg
	cfg.Workers = 1
	var points []float64
	var errs []error
	for f, spec := range j.specs {
		for k, n := range j.cfg.Sizes {
			cfg.Sizes = []int{n}
			start := time.Now()
			sp := p.tr.begin("experiments.Run", p.root, k, 0)
			fig, err := experiments.Run(spec, cfg)
			p.tr.end(sp)
			points = append(points, time.Since(start).Seconds())
			if err != nil {
				errs = append(errs, err)
				continue
			}
			for s, series := range fig.Series {
				if math.Float64bits(series.Y[0]) != math.Float64bits(j.figs[f].Series[s].Y[k]) {
					errs = append(errs, fmt.Errorf("%s: %s at n=%d is %v alone on one worker, %v in the figure",
						spec.ID, series.Name, n, series.Y[0], j.figs[f].Series[s].Y[k]))
				}
			}
		}
	}
	total, longest := sum(points), 0.0
	for _, d := range points {
		longest = max(longest, d)
	}
	round := float64(len(j.specs)) / median(p.section.rates)
	return []string{fmt.Sprintf("experiments: points=%d point_s_sum=%.4f busy_frac=%.4f max_point_share=%.4f",
		len(points), total, total/(float64(p.nproc)*round), longest/total)}, errs
}

func (j *figures) report() []string {
	var out []string
	for _, id := range figureIDs {
		if v := j.times[id]; len(v) > 0 {
			out = append(out, fmt.Sprintf("experiments: %s runs=%d median_ms=%.1f", id, len(v), median(v)))
		}
	}
	return out
}

func (j *figures) close() {}

// reactive: what `wfsched -reactive` does — build the reactive engine
// on a fresh CyberShake n = 60 workflow and run the paired
// static-vs-reactive Monte-Carlo comparison.
type reactive struct {
	first        *instance
	hits, misses int
	static       []float64 // seconds in the static mc.Run (traced runs)
	reactive     []float64 // seconds in the reactive mc.Run (traced runs)
}

func reactiveInstance(sz sizes, seed uint64, i int) (*instance, error) {
	return newInstance(pwg.CyberShake, sz.reactiveN, rng.StreamSeed(seed, uint64(i)),
		failure.Platform{Lambda: 1e-3, Downtime: 10}, sched.Options{Grid: 16, RFSeed: rng.StreamSeed(seed^0x7e, uint64(i))}, sz.reactiveTrials)
}

func setupReactive(p *params) (job, error) {
	j := &reactive{}
	warm, err := reactiveInstance(p.size, warmSeed, 0)
	if err != nil {
		return nil, err
	}
	e := rerun.New(warm.g, warm.plat, rerun.Options{Workers: 1, Grid: warm.opts.Grid, RFSeed: warm.opts.RFSeed})
	if _, err := e.CompareMC(8, 1, p.nproc); err != nil {
		return nil, err
	}
	return j, nil
}

func (j *reactive) run(p *params) {
	p.section.sequential(4, func(i int) (time.Duration, error) {
		// Generating the workflow (about 0.1 ms) stays outside the
		// operation's time.
		sp := p.tr.begin("pwg.Generate", p.root, i, 0)
		inst, err := reactiveInstance(p.size, p.seed, i)
		p.tr.end(sp)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			j.first = inst
		}
		start := time.Now()
		sp = p.tr.begin("reactive.compare", p.root, i, 0)
		e := rerun.New(inst.g, inst.plat, rerun.Options{Workers: 1, Grid: inst.opts.Grid, RFSeed: inst.opts.RFSeed})
		seed := rng.StreamSeed(p.seed^0x3c, uint64(i))
		var cmp rerun.Comparison
		if p.tr == nil {
			cmp, err = e.CompareMC(inst.mc, seed, p.nproc)
		} else {
			cmp, err = j.tracedCompare(p, sp, i, e, inst, seed)
		}
		p.tr.end(sp)
		lat := time.Since(start)
		if err != nil {
			return 0, err
		}
		h, m := e.CacheStats()
		j.hits += h
		j.misses += m
		if err := checkComparison(inst, cmp); err != nil {
			p.section.checkFailed(err)
		}
		return lat, nil
	})
}

// tracedCompare is Engine.CompareMC split into its static search and
// its two public mc.Run calls, each in its own span.
func (j *reactive) tracedCompare(p *params, parent, rid int, e *rerun.Engine, inst *instance, seed uint64) (rerun.Comparison, error) {
	sp := p.tr.begin("rerun.Static", parent, rid, 0)
	st := e.Static()
	p.tr.end(sp)
	cfg := mc.Config{Trials: inst.mc, Seed: seed, Workers: p.nproc, Factory: simulator.Factory()}
	start := time.Now()
	sp = p.tr.begin("mc.Run.static", parent, rid, 0)
	staticMC, err := mc.Run(st.Schedule, inst.plat, cfg)
	p.tr.end(sp)
	j.static = append(j.static, time.Since(start).Seconds())
	if err != nil {
		return rerun.Comparison{}, err
	}
	cfg.Factory = e.Factory()
	start = time.Now()
	sp = p.tr.begin("rerun.reactiveMC", parent, rid, 0)
	reactiveMC, err := mc.Run(st.Schedule, inst.plat, cfg)
	p.tr.end(sp)
	j.reactive = append(j.reactive, time.Since(start).Seconds())
	if err != nil {
		return rerun.Comparison{}, err
	}
	return rerun.Comparison{Static: st, StaticMC: staticMC, ReactiveMC: reactiveMC, Trials: inst.mc}, nil
}

// checkComparison: both policies ran every trial, and the static
// plan's simulated mean agrees with its analytic expectation within
// three 99% confidence half-widths.
func checkComparison(inst *instance, c rerun.Comparison) error {
	if c.StaticMC.Makespan.N() != inst.mc || c.ReactiveMC.Makespan.N() != inst.mc {
		return fmt.Errorf("%s: %d static and %d reactive trials, want %d", inst.label,
			c.StaticMC.Makespan.N(), c.ReactiveMC.Makespan.N(), inst.mc)
	}
	mean, ci := c.StaticMC.Makespan.Mean(), c.StaticMC.Makespan.CI(0.99)
	if math.Abs(mean-c.Static.Expected) > 3*ci {
		return fmt.Errorf("%s: static Monte-Carlo mean %v is %v from the analytic %v, beyond 3×CI99 = %v",
			inst.label, mean, math.Abs(mean-c.Static.Expected), c.Static.Expected, 3*ci)
	}
	return nil
}

func (j *reactive) check(p *params) {}

func (j *reactive) probe() (*instance, error) { return j.first, nil }

func (j *reactive) report() []string {
	out := []string{fmt.Sprintf("rerun: plan_hits=%d plan_misses=%d plan_hit_ratio=%.4f",
		j.hits, j.misses, float64(j.hits)/math.Max(1, float64(j.hits+j.misses)))}
	if len(j.static) > 0 {
		out = append(out, fmt.Sprintf("rerun: static_mc_s=%.4f reactive_mc_s=%.4f search_ms_per_miss=%.3f",
			sum(j.static), sum(j.reactive), 1000*(sum(j.reactive)-sum(j.static))/math.Max(1, float64(j.misses))))
	}
	return out
}

func (j *reactive) close() {}
