package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/pwg"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/wfio"
)

// params are one run's settings.
type params struct {
	seed    uint64
	budget  time.Duration
	nproc   int
	size    sizes
	tr      *tracer // nil: tracing off
	root    int     // span the workload's spans hang under
	section *section
}

// sizes are the workloads' problem dimensions. Runs use benchSizes;
// the tests pass tiny ones.
type sizes struct {
	mixN, hitN     []int // task counts of the serve catalogs
	mixMC          int   // Monte-Carlo trials of half the serve-mix requests
	mixDistinct    int   // distinct requests in serve-mix's stream
	scaleN         int
	figureSizes    []int
	figureGrid     int
	figureMid      int // task count of figures-quick's per-layer instance
	reactiveN      int
	reactiveTrials int
}

var benchSizes = sizes{
	mixN:        []int{50, 100, 200, 300},
	hitN:        []int{50, 100},
	mixMC:       1000,
	mixDistinct: 500,
	scaleN:      800,
	// cmd/experiments -quick's grid on its sizes up to 300, so a run
	// repeats the whole set of figures about six times.
	figureSizes: []int{50, 100, 200, 300},
	figureGrid:  60,
	figureMid:   300,
	// Small enough that a run holds about seventy comparisons, each with
	// enough failures (about 1.5 per trial) that the engine's plan
	// cache both misses (fresh residual states) and hits (states
	// earlier trials saw).
	reactiveN:      60,
	reactiveTrials: 24,
}

// warmSeed generates every warm-up input. It is fixed rather than drawn
// from --seed so that a set-up does the same work on every seed, and
// setup_s moves only with the code and the host.
const warmSeed = 0xa11

// job is a workload after set-up: run executes the timed section,
// check validates outputs afterwards (booking failures on the
// section), probe names the representative instance the per-layer
// pass replays, and close releases servers and connections.
type job interface {
	run(p *params)
	check(p *params)
	probe() (*instance, error)
	report() []string
	close()
}

type workload struct {
	name  string
	setup func(p *params) (job, error)
}

var workloads = []workload{
	{"serve-mix", setupServeMix},
	{"serve-hit", setupServeHit},
	{"scale-800", setupScale},
	{"figures-quick", setupFigures},
	{"reactive-mc", setupReactive},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// instance is one scheduling problem as the layers see it: the
// workflow, the platform and the heuristic options.
type instance struct {
	label string
	wf    pwg.Workflow
	n     int
	gseed uint64
	g     *dag.Graph // nil when dropped to save memory; see graph
	plat  failure.Platform
	opts  sched.Options
	mc    int
}

// newInstance generates a pwg workflow with the paper's c = r = 0.1w
// cost model.
func newInstance(wf pwg.Workflow, n int, gseed uint64, plat failure.Platform, opts sched.Options, mcTrials int) (*instance, error) {
	g, err := generate(wf, n, gseed)
	if err != nil {
		return nil, err
	}
	return &instance{label: fmt.Sprintf("%v n=%d λ=%g grid=%d", wf, n, plat.Lambda, opts.Grid),
		wf: wf, n: n, gseed: gseed, g: g, plat: plat, opts: opts, mc: mcTrials}, nil
}

// graph returns the instance's workflow, regenerating a dropped one.
func (inst *instance) graph() (*dag.Graph, error) {
	if inst.g != nil {
		return inst.g, nil
	}
	return generate(inst.wf, inst.n, inst.gseed)
}

func generate(wf pwg.Workflow, n int, gseed uint64) (*dag.Graph, error) {
	g, err := pwg.Generate(wf, n, gseed)
	if err != nil {
		return nil, fmt.Errorf("generating %v n=%d: %w", wf, n, err)
	}
	experiments.Proportional(0.1).Apply(g)
	return g, nil
}

// request is one POST /v1/schedule as the client sends it.
type request struct {
	inst  *instance
	path  string
	ctype string
	body  []byte
}

// newRequest encodes an instance in the JSON binding, or in the wfio
// text binding with the options as query parameters.
func newRequest(inst *instance, text bool) (*request, error) {
	if text {
		var buf bytes.Buffer
		if err := wfio.Write(&buf, inst.g, nil, nil); err != nil {
			return nil, err
		}
		path := fmt.Sprintf("/v1/schedule?lambda=%s&downtime=%s&grid=%d&seed=%d&mc=%d",
			strconv.FormatFloat(inst.plat.Lambda, 'g', -1, 64), strconv.FormatFloat(inst.plat.Downtime, 'g', -1, 64),
			inst.opts.Grid, inst.opts.RFSeed, inst.mc)
		return &request{inst: inst, path: path, ctype: "text/plain", body: buf.Bytes()}, nil
	}
	body, err := json.Marshal(serve.Request{
		Workflow: *wfio.ToJSON(inst.g, nil, nil),
		Lambda:   inst.plat.Lambda,
		Downtime: inst.plat.Downtime,
		Grid:     inst.opts.Grid,
		Seed:     inst.opts.RFSeed,
		MCTrials: inst.mc,
	})
	if err != nil {
		return nil, err
	}
	return &request{inst: inst, path: "/v1/schedule", ctype: "application/json", body: body}, nil
}

// checkWinner validates a portfolio winner: finite, not below the
// instance's lower bound, and reproduced bit for bit by a fresh
// evaluation of its schedule.
func checkWinner(inst *instance, best sched.Result) error {
	if math.IsNaN(best.Expected) || math.IsInf(best.Expected, 0) {
		return fmt.Errorf("%s: winner %s expected makespan %v is not finite", inst.label, best.Name, best.Expected)
	}
	if lb := core.LowerBound(inst.g, inst.plat); best.Expected < lb {
		return fmt.Errorf("%s: winner %s expected makespan %v below lower bound %v", inst.label, best.Name, best.Expected, lb)
	}
	if v := core.Eval(best.Schedule, inst.plat); math.Float64bits(v) != math.Float64bits(best.Expected) {
		return fmt.Errorf("%s: winner %s re-evaluates to %v, search reported %v", inst.label, best.Name, v, best.Expected)
	}
	return nil
}
