package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/portfolio"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/simulator"
	"repro/internal/wfio"
)

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// repeatFor calls fn until budget has elapsed, at least 5 and at most
// 1000 times, and returns each call's duration.
func repeatFor(budget time.Duration, fn func()) []time.Duration {
	var out []time.Duration
	start := time.Now()
	for len(out) < 5 || (len(out) < 1000 && time.Since(start) < budget) {
		t := time.Now()
		fn()
		out = append(out, time.Since(t))
	}
	return out
}

func medianOf(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

// microBudget bounds each repeated micro-measurement of the pass.
const microBudget = 200 * time.Millisecond

// effPairs is how many alternating pairs of portfolio searches, one
// worker against nproc, give portfolio.efficiency.
const effPairs = 10

// layers replays one representative instance of the workload through
// every layer's public functions, timing each call from here, and
// returns the per-layer metrics and report lines. Failed checks are
// returned as errors.
func layers(p *params, inst *instance) ([]metric, []string, []error) {
	var out []metric
	var lines []string
	var errs []error
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }
	root := p.tr.begin("ladder", 0, -1, 0)
	defer p.tr.end(root)
	timed := func(name string, fn func()) []time.Duration {
		return repeatFor(microBudget, func() {
			sp := p.tr.begin(name, root, -1, 0)
			fn()
			p.tr.end(sp)
		})
	}
	once := func(name string, fn func()) time.Duration {
		sp := p.tr.begin(name, root, -1, 0)
		start := time.Now()
		fn()
		d := time.Since(start)
		p.tr.end(sp)
		return d
	}
	g, plat := inst.g, inst.plat

	add("pwg.generate_ms", medianOf(timed("pwg.Generate", func() { generate(inst.wf, inst.n, inst.gseed) }), time.Millisecond), "ms")

	var text, js bytes.Buffer
	if err := wfio.Write(&text, g, nil, nil); err != nil {
		return out, lines, append(errs, err)
	}
	if err := wfio.WriteJSON(&js, g, nil, nil); err != nil {
		return out, lines, append(errs, err)
	}
	add("wfio.parse_text_us", medianOf(timed("wfio.Parse", func() { wfio.Parse(bytes.NewReader(text.Bytes())) }), time.Microsecond), "us")
	add("wfio.parse_json_us", medianOf(timed("wfio.ParseJSON", func() { wfio.ParseJSON(bytes.NewReader(js.Bytes())) }), time.Microsecond), "us")
	add("wfio.hash_us", medianOf(timed("wfio.CanonicalHash", func() {
		wfio.CanonicalHash(g, wfio.HashParam("lambda", plat.Lambda), wfio.HashParam("downtime", plat.Downtime),
			wfio.HashParam("grid", inst.opts.Grid), wfio.HashParam("seed", inst.opts.RFSeed), wfio.HashParam("mc", inst.mc))
	}), time.Microsecond), "us")

	lins := []sched.Linearizer{sched.DF{}, sched.BF{}, sched.RF{Seed: inst.opts.RFSeed}}
	add("sched.linearize_us", medianOf(timed("sched.Linearize", func() {
		for _, l := range lins {
			l.Linearize(g)
		}
	}), time.Microsecond), "us")
	add("core.factor_table_us", medianOf(timed("core.NewFactorTable", func() { core.NewFactorTable(g, plat) }), time.Microsecond), "us")
	add("core.mask_bound_us", medianOf(timed("core.NewMaskBound", func() { core.NewMaskBound(g, plat) }), time.Microsecond), "us")

	// The service: one search as a store miss, then store hits.
	req, err := newRequest(inst, false)
	if err != nil {
		return out, lines, append(errs, err)
	}
	srv := newServer(p.nproc)
	defer srv.close()
	var miss reply
	once("serve.request", func() { miss, err = srv.post(req) })
	if err == nil && (miss.status != http.StatusOK || miss.cache != "miss") {
		err = fmt.Errorf("%s: first request: status %d, cache %q", inst.label, miss.status, miss.cache)
	}
	if err != nil {
		return out, lines, append(errs, err)
	}
	resp, err := serve.ReadResponse(bytes.NewReader(miss.body))
	if err != nil {
		return out, lines, append(errs, err)
	}
	busy, err := scrape(srv)
	if err != nil {
		return out, lines, append(errs, err)
	}
	searchS := busy["wfserve_search_duration_seconds_sum"]
	mcS := busy["wfserve_mc_duration_seconds_sum"]
	var hits []time.Duration
	timed("serve.request", func() {
		r, err := srv.post(req)
		if err == nil {
			err = checkHit(r, miss.body)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", inst.label, err))
			return
		}
		hits = append(hits, r.lat)
	})
	add("serve.hit_us", medianOf(hits, time.Microsecond), "us")
	add("serve.miss_overhead_ms", ms(miss.lat)-1000*(searchS+mcS), "ms")

	// The portfolio at one worker and at nproc, in alternating pairs
	// (which side runs first alternates too), so both sides of a pair
	// see the same host; then the same heuristics serially on one
	// evaluator.
	hs := sched.Paper14(inst.opts)
	var w1 []sched.Result
	var w1s, wns, effs []float64
	for k := 0; k < effPairs; k++ {
		var d1, dn time.Duration
		for side := 0; side < 2; side++ {
			var rs []sched.Result
			workers := []int{1, p.nproc}[(k+side)%2]
			d := once("portfolio.Run", func() { rs = portfolio.Run(hs, g, plat, portfolio.Options{Workers: workers}) })
			if workers == 1 {
				d1, w1 = d, rs
			} else {
				dn = d
			}
			// Every run must match the service's answer, found at
			// nproc workers, bit for bit.
			for i, r := range rs {
				if i >= len(resp.Results) || resp.Results[i].Heuristic != r.Name ||
					math.Float64bits(resp.Results[i].Expected) != math.Float64bits(r.Expected) {
					errs = append(errs, fmt.Errorf("%s: %s differs between %d portfolio workers and the service's %d",
						inst.label, r.Name, workers, p.nproc))
				}
			}
		}
		w1s, wns = append(w1s, d1.Seconds()), append(wns, dn.Seconds())
		effs = append(effs, d1.Seconds()/(float64(p.nproc)*dn.Seconds()))
	}
	lines = append(lines, fmt.Sprintf("portfolio: %d pairs of 1 and %d workers: w1_s q1/median/q3 = %.4g/%.4g/%.4g, wn_s = %.4g/%.4g/%.4g, efficiency = %.4g/%.4g/%.4g",
		effPairs, p.nproc, quantile(w1s, 0.25), median(w1s), quantile(w1s, 0.75),
		quantile(wns, 0.25), median(wns), quantile(wns, 0.75), quantile(effs, 0.25), median(effs), quantile(effs, 0.75)))
	ev := core.NewEvaluator()
	var perH []float64
	for i, h := range hs {
		var r sched.Result
		d := once("sched.RunWith", func() { r = h.RunWith(g, plat, ev) })
		perH = append(perH, d.Seconds())
		if math.Float64bits(r.Expected) != math.Float64bits(w1[i].Expected) {
			errs = append(errs, fmt.Errorf("%s: %s differs between serial sweep and portfolio", inst.label, h.Name()))
		}
	}
	sweep := sum(perH)
	maxH := 0.0
	for _, d := range perH {
		maxH = max(maxH, d)
	}
	add("sched.sweep_s", sweep, "s")
	add("sched.max_heuristic_share", maxH/sweep, "ratio")
	add("portfolio.w1_s", median(w1s), "s")
	add("portfolio.wn_s", median(wns), "s")
	add("portfolio.efficiency", median(effs), "ratio")
	add("portfolio.engine_overhead_frac", median(w1s)/sweep-1, "ratio")

	// The evaluator on the winner: cold passes, and single-bit flips
	// around the winning mask through the incremental evaluator.
	best := portfolio.Best(w1)
	if err := checkWinner(inst, best); err != nil {
		errs = append(errs, err)
	}
	cold := core.NewEvaluator()
	coldMS := medianOf(timed("core.Eval", func() { cold.Eval(best.Schedule, plat) }), time.Millisecond)
	add("core.cold_eval_ms", coldMS, "ms")
	s := best.Schedule.Clone()
	delta := core.NewDeltaEvaluator()
	delta.EvalSchedule(s, plat)
	k := 0
	flips := timed("core.DeltaFlip", func() {
		id := s.Order[(k/2*7919)%len(s.Order)]
		s.Ckpt[id] = !s.Ckpt[id]
		k++
		delta.EvalSchedule(s, plat)
	})
	if v, want := delta.EvalSchedule(s, plat), cold.Eval(s, plat); math.Float64bits(v) != math.Float64bits(want) {
		errs = append(errs, fmt.Errorf("%s: delta evaluation %v differs from cold %v", inst.label, v, want))
	}
	flipUS := medianOf(flips, time.Microsecond)
	add("core.delta_flip_us", flipUS, "us")
	add("core.flip_speedup", 1000*coldMS/flipUS, "ratio")
	add("core.evaluator_mb", heapGrowthMB(func() any {
		e := core.NewEvaluator()
		e.Eval(best.Schedule, plat)
		e.Delta().EvalSchedule(best.Schedule, plat)
		return e
	}), "MB")

	// Monte-Carlo on the winner at one worker and at nproc, with the
	// trial count sized so the single-worker run takes about 0.3 s.
	cfg := mc.Config{Trials: 256, Seed: rng.StreamSeed(p.seed, 77), Workers: 1, Factory: simulator.Factory()}
	var r1, rn mc.Result
	probe := once("mc.Run", func() { _, err = mc.Run(best.Schedule, plat, cfg) })
	if err != nil {
		return out, lines, append(errs, err)
	}
	cfg.Trials = 256 * min(32, max(2, int(300*time.Millisecond/probe)))
	d1 := once("mc.Run", func() { r1, err = mc.Run(best.Schedule, plat, cfg) })
	if err != nil {
		return out, lines, append(errs, err)
	}
	cfg.Workers = p.nproc
	dn := once("mc.Run", func() { rn, err = mc.Run(best.Schedule, plat, cfg) })
	if err != nil {
		return out, lines, append(errs, err)
	}
	if math.Float64bits(r1.Makespan.Mean()) != math.Float64bits(rn.Makespan.Mean()) {
		errs = append(errs, fmt.Errorf("%s: Monte-Carlo mean differs between 1 and %d workers", inst.label, p.nproc))
	}
	add("mc.trials_per_s", float64(cfg.Trials)/dn.Seconds(), "1/s")
	add("mc.efficiency", d1.Seconds()/(float64(p.nproc)*dn.Seconds()), "ratio")
	return out, lines, errs
}
