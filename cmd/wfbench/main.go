package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 5

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed every input is generated from (2 is the holdout seed)")
	seconds := fs.Float64("seconds", 20, "length of the timed section in seconds")
	traced := fs.Int("trace", 0, "1: traced run that reports the per-layer metrics and writes a Chrome trace")
	out := fs.String("out", ".bench_build", "directory the trace file is written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if err != nil {
		fmt.Fprintln(stderr, "wfbench:", err)
		return 2
	}
	p := &params{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), nproc: runtime.GOMAXPROCS(0), size: benchSizes}
	res, lines, err := measure(w, p, *traced == 1, *out)
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	if err != nil {
		fmt.Fprintln(stderr, "wfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "wfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs one workload: set-up, the timed section, the output
// checks and, when traced, a second, traced section and the per-layer
// pass. It returns the result and the human-readable report lines.
func measure(w workload, p *params, traced bool, outDir string) (*result, []string, error) {
	var setups []float64
	var j job
	for r := 0; r < setupReps; r++ {
		if j != nil {
			j.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		j, err = w.setup(p)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
	}
	defer func() {
		if j != nil {
			j.close()
		}
	}()
	// A traced run splits the budget: the first half untraced, the
	// second traced on a fresh set-up, so the two halves give the
	// tracing overhead.
	budget := p.budget
	if traced {
		budget /= 2
	}
	sec, peak := timedSection(j, p, budget)

	lines := []string{fmt.Sprintf("wfbench: workload=%s seed=%d nproc=%d go=%s traced=%v",
		w.name, p.seed, p.nproc, runtime.Version(), traced)}
	e2e := []metric{
		{"setup_s", median(setups), "s"},
		{"ops_per_s", median(sec.rates), "1/s"},
		{"op_p50_ms", median(sec.latMS), "ms"},
		{"peak_heap_mb", peak, "MB"},
	}
	lines = append(lines, sectionLine(sec))
	lines = append(lines, formatMetrics(e2e)...)
	res := &result{Correct: true, Metrics: make(map[string]metricValue)}
	chosen := e2e
	if traced {
		j.close()
		p.tr = newTracer()
		p.root = p.tr.begin("setup", 0, -1, 0)
		var err error
		j, err = w.setup(p)
		p.tr.end(p.root)
		if err != nil {
			return nil, lines, fmt.Errorf("%s traced set-up: %w", w.name, err)
		}
		untraced := sec
		sectionSpan := p.tr.begin("section", 0, -1, 0)
		p.root = sectionSpan
		sec, _ = timedSection(j, p, budget)
		p.tr.end(sectionSpan)
		lines = append(lines, "traced "+sectionLine(sec))
		lines = append(lines, res.add(untraced)...)
		if chosen, err = perLayer(j, p, &lines); err != nil {
			return nil, lines, err
		}
		chosen = append(chosen, metric{"trace.overhead_frac", median(untraced.rates)/median(sec.rates) - 1, "ratio"})
		lines = append(lines, formatMetrics(chosen)...)
		spans := p.tr.snapshot()
		path := filepath.Join(outDir, fmt.Sprintf("wfbench-trace-%s-seed%d.json", w.name, p.seed))
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, lines, err
		}
		if err := writeChromeTrace(path, spans); err != nil {
			return nil, lines, err
		}
		lines = append(lines, "trace: "+path)
		lines = append(lines, selfTable(spans)...)
	}
	lines = append(lines, j.report()...)
	lines = append(lines, res.add(sec)...)
	for _, m := range chosen {
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	return res, lines, nil
}

// add books a section's operations and failures on the result and
// returns a report line per failure the section kept.
func (r *result) add(s *section) []string {
	r.Attempted += s.attempted
	r.Failed += s.failed
	r.Correct = r.Failed == 0
	var out []string
	for _, err := range s.errs {
		out = append(out, "FAIL: "+err.Error())
	}
	return out
}

// timedSection runs j's timed section under budget and then its output
// checks, and returns the section with the peak heap during it.
func timedSection(j job, p *params, budget time.Duration) (*section, float64) {
	p.section = &section{budget: budget}
	runtime.GC()
	heap := startHeapSampler()
	j.run(p)
	peak := heap.peakMB()
	j.check(p)
	return p.section, peak
}

func sectionLine(s *section) string {
	return fmt.Sprintf("section: ops=%d failed=%d elapsed_s=%.3f mean_ops_per_s=%.6g op_p90_ms=%.6g rates=%.4g",
		s.attempted, s.failed, s.elapsed.Seconds(), float64(len(s.done))/s.elapsed.Seconds(),
		quantile(s.latMS, 0.9), s.rates)
}

// perLayer is the per-layer pass of a traced run, after its traced
// section: it replays the workload's representative instance through
// the layers and returns their metrics. The pass counts as one more
// operation of the section, failed if any of its checks failed.
func perLayer(j job, p *params, lines *[]string) ([]metric, error) {
	sec := p.section
	sec.attempted++
	inst, err := j.probe()
	if err != nil {
		return nil, err
	}
	if f, ok := j.(*figures); ok {
		p.root = p.tr.begin("attribute", 0, -1, 0)
		more, errs := f.attribute(p)
		p.tr.end(p.root)
		*lines = append(*lines, more...)
		for _, err := range errs {
			sec.fail(err)
		}
	}
	*lines = append(*lines, "ladder: "+inst.label)
	per, more, errs := layers(p, inst)
	*lines = append(*lines, more...)
	for _, err := range errs {
		sec.fail(err)
	}
	return per, nil
}

func formatMetrics(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = fmt.Sprintf("metric: %-32s %14.6g %s", m.name, m.value, m.unit)
	}
	return out
}
