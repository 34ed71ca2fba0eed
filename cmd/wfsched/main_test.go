package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dag"
)

// capture redirects stdout while fn runs and returns what was printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errRun := fn()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	return string(buf[:n]), errRun
}

func TestRunGeneratedAllHeuristics(t *testing.T) {
	out, err := capture(t, func() error {
		return run("CyberShake", 50, 1, "", 0, 0, "0.1w", "all", 10, 0, 0, false, false, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"DF-CkptW", "RF-CkptPer", "DF-CkptNvr", "T/Tinf"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunReactiveComparison(t *testing.T) {
	out, err := capture(t, func() error {
		return run("Montage", 40, 2, "", 1e-3, 10, "0.1w", "all", 8, 400, 2, false, true, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"reactive rescheduling (400 paired trials", "static", "reactive", "improvement", "residual searches"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunSingleHeuristicWithMC(t *testing.T) {
	out, err := capture(t, func() error {
		return run("Montage", 40, 2, "", 1e-3, 1, "0.01w", "DF-CkptW", 8, 500, 2, false, false, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Monte-Carlo") || !strings.Contains(out, "DF-CkptW") {
		t.Fatalf("missing MC section:\n%s", out)
	}
	if strings.Contains(out, "BF-CkptW") {
		t.Fatal("single-heuristic run printed other heuristics")
	}
}

func TestRunFromFileAndDOT(t *testing.T) {
	dir := t.TempDir()
	wf := filepath.Join(dir, "g.wf")
	content := "task a 30 3 3\ntask b 50 5 5\ntask c 20 2 2\nedge a b\nedge a c\n"
	if err := os.WriteFile(wf, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	dot := filepath.Join(dir, "g.dot")
	out, err := capture(t, func() error {
		return run("", 0, 1, wf, 5e-3, 0, "keep", "all", 0, 0, 0, false, false, dot)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "n=3") {
		t.Fatalf("file workflow not loaded:\n%s", out)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") {
		t.Fatal("DOT output missing")
	}
}

func TestRunFromDAXFile(t *testing.T) {
	dir := t.TempDir()
	daxFile := filepath.Join(dir, "w.dax")
	doc := `<adag name="t">
  <job id="A" name="prep" runtime="30"/>
  <job id="B" name="work" runtime="50"/>
  <child ref="B"><parent ref="A"/></child>
</adag>`
	if err := os.WriteFile(daxFile, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run("", 0, 1, daxFile, 1e-3, 0, "0.1w", "DF-CkptW", 0, 0, 0, false, false, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "n=2") {
		t.Fatalf("DAX workflow not loaded:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	silent := func(fn func() error) error {
		_, err := capture(t, fn)
		return err
	}
	if err := silent(func() error {
		return run("Nope", 50, 1, "", 0, 0, "0.1w", "all", 0, 0, 0, false, false, "")
	}); err == nil {
		t.Fatal("unknown workflow accepted")
	}
	if err := silent(func() error {
		return run("Montage", 50, 1, "", 0, 0, "bogus", "all", 0, 0, 0, false, false, "")
	}); err == nil {
		t.Fatal("bad cost model accepted")
	}
	if err := silent(func() error {
		return run("Montage", 50, 1, "", 0, 0, "0.1w", "XF-CkptQ", 0, 0, 0, false, false, "")
	}); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
	if err := silent(func() error {
		return run("Montage", 50, 1, "", -4, 0, "0.1w", "all", 0, 0, 0, false, false, "")
	}); err == nil {
		t.Fatal("negative λ accepted")
	}
	if err := silent(func() error {
		return run("", 0, 1, "/nonexistent/x.wf", 0, 0, "keep", "all", 0, 0, 0, false, false, "")
	}); err == nil {
		t.Fatal("missing input file accepted")
	}
	// Text workflows the parser accepts but Graph.Validate must reject.
	dir := t.TempDir()
	for name, content := range map[string]string{
		"cyclic": "task a 1 1 1\ntask b 2 1 1\nedge a b\nedge b a\n",
		"nan":    "task a NaN 1 1\ntask b 2 1 1\nedge a b\norder a b\n",
		"inf":    "task a Inf 1 1\ntask b 2 1 1\nedge a b\norder a b\n",
	} {
		in := filepath.Join(dir, name+".wf")
		if err := os.WriteFile(in, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := silent(func() error {
			return run("", 0, 1, in, 0, 0, "keep", "all", 0, 0, 0, false, false, "")
		}); err == nil {
			t.Fatalf("%s workflow accepted", name)
		}
	}
}

// The acceptance pin of the portfolio determinism contract at the CLI
// surface: `wfsched -workers k` must produce byte-identical output —
// schedules, expected makespans and Monte-Carlo validation included —
// for k = 1, an awkward k = 7, k = NumCPU and a k far beyond the
// number of search cells.
func TestRunWorkersByteIdentical(t *testing.T) {
	runWith := func(workers int) string {
		out, err := capture(t, func() error {
			return run("CyberShake", 45, 3, "", 2e-3, 0, "0.1w", "all", 0, 400, workers, true, false, "")
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := runWith(1)
	if !strings.Contains(want, "DF-CkptW") || !strings.Contains(want, "Monte-Carlo") {
		t.Fatalf("baseline output incomplete:\n%s", want)
	}
	for _, k := range []int{7, runtime.NumCPU(), 999} {
		if got := runWith(k); got != want {
			t.Fatalf("-workers %d output diverges from -workers 1:\n got:\n%s\nwant:\n%s", k, got, want)
		}
	}
}

// TestRunRefineDeltaByteIdentical guards the wfserve cache-key
// contract on the incremental evaluator: for a fixed seed set, the
// -refine output (heuristic table, refined expectations, checkpoint
// counts and the Monte-Carlo section keyed off the best schedule) must
// be byte-identical at -workers 1 and -workers 3. The sweeps and the
// refine flip neighbourhood evaluate through pooled delta evaluators
// whose loaded state depends on which worker ran which span, so any
// divergence means a delta evaluation depends on its history rather
// than only on the schedule — exactly the regression that would
// silently poison wfserve's byte-equality cache. (core's fuzz and
// quick differential tests pin delta == cold directly.)
func TestRunRefineDeltaByteIdentical(t *testing.T) {
	runRefine := func(workflow string, n int, seed uint64, grid, workers int) string {
		out, err := capture(t, func() error {
			return run(workflow, n, seed, "", 2e-3, 0, "0.1w", "all", grid, 300, workers, true, false, "")
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cases := []struct {
		workflow string
		n        int
		seed     uint64
		grid     int
	}{
		{"CyberShake", 45, 3, 0},
		{"Montage", 40, 9, 8},
		{"Ligo", 35, 5, 0},
	}
	for _, c := range cases {
		want := runRefine(c.workflow, c.n, c.seed, c.grid, 1)
		if got := runRefine(c.workflow, c.n, c.seed, c.grid, 3); got != want {
			t.Fatalf("%s n=%d seed=%d: -refine output diverges between -workers 1 and 3:\n workers 1:\n%s\nworkers 3:\n%s",
				c.workflow, c.n, c.seed, want, got)
		}
		if !strings.Contains(want, "Monte-Carlo") {
			t.Fatalf("refine output incomplete:\n%s", want)
		}
	}
}

func TestApplyCost(t *testing.T) {
	g := dag.Chain([]float64{10}, nil)
	if err := applyCost(g, "7.5s"); err != nil {
		t.Fatal(err)
	}
	if g.CkptCost(0) != 7.5 || g.RecCost(0) != 7.5 {
		t.Fatalf("constant cost wrong: %v", g.CkptCost(0))
	}
	if err := applyCost(g, "0.1w"); err != nil {
		t.Fatal(err)
	}
	if g.CkptCost(0) != 1 {
		t.Fatalf("proportional cost wrong: %v", g.CkptCost(0))
	}
	before := g.CkptCost(0)
	if err := applyCost(g, "keep"); err != nil {
		t.Fatal(err)
	}
	if g.CkptCost(0) != before {
		t.Fatal("keep modified costs")
	}
	if err := applyCost(g, "-3s"); err == nil {
		t.Fatal("negative constant accepted")
	}
}

// TestFlagValidation pins the up-front flag checks: bad values must
// fail with one clear error before reaching the generators or the
// sweep code.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		n, grid, mcTrials, workers int
		in                         string
	}{
		{name: "zero n", n: 0},
		{name: "negative n", n: -7},
		{name: "negative grid", n: 40, grid: -3},
		{name: "negative mc", n: 40, mcTrials: -5},
		{name: "negative workers", n: 40, workers: -1},
	} {
		_, err := capture(t, func() error {
			return run("Montage", tc.n, 1, tc.in, 0, 0, "0.1w", "all", tc.grid, tc.mcTrials, tc.workers, false, false, "")
		})
		if err == nil {
			t.Errorf("%s accepted", tc.name)
		} else if !strings.Contains(err.Error(), "must be ≥") {
			t.Errorf("%s: unhelpful error %q", tc.name, err)
		}
	}
	// -in workflows have no -n; n must not be validated then.
	if err := validateFlags(0, "some.wf", 0, 0, 0); err != nil {
		t.Fatalf("-in with default -n rejected: %v", err)
	}
}

// TestGridOneRuns pins the SweepNs grid == 1 fix end to end: -grid 1
// used to hit an int(NaN) conversion in the sweep code.
func TestGridOneRuns(t *testing.T) {
	out, err := capture(t, func() error {
		return run("Random", 20, 1, "", 0, 0, "0.1w", "all", 1, 0, 1, false, false, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DF-CkptW") {
		t.Fatalf("missing heuristic table:\n%s", out)
	}
}
