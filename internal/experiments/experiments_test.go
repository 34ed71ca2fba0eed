package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/pwg"
)

// fastCfg keeps harness tests quick: tiny sizes, coarse N grid.
var fastCfg = Config{Grid: 8, Seed: 1, Sizes: []int{40, 60}, Workers: 4}

func TestAllSpecsComplete(t *testing.T) {
	specs := AllSpecs()
	if len(specs) != 26 {
		t.Fatalf("AllSpecs returned %d figures, want 26 (3+4+3+4+4+4 paper + 4 scaled)", len(specs))
	}
	ids := map[string]bool{}
	for _, s := range specs {
		if ids[s.ID] {
			t.Fatalf("duplicate figure ID %s", s.ID)
		}
		ids[s.ID] = true
		if s.Title == "" {
			t.Fatalf("%s has no title", s.ID)
		}
	}
	for _, want := range []string{"fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig3c", "fig3d",
		"fig4a", "fig4b", "fig4c", "fig5a", "fig5d", "fig6a", "fig6d", "fig7a", "fig7d",
		"scale-montage", "scale-cybershake", "scale-ligo", "scale-genome"} {
		if !ids[want] {
			t.Fatalf("missing figure %s", want)
		}
	}
}

// The scaled scenarios must pin their own x-axis (reaching n = 2000)
// so that harness-wide size overrides cannot shrink them, and they
// must run end-to-end through the portfolio engine (here with a
// reduced spec copy, exactly how a caller overrides deliberately).
func TestScaledSpecs(t *testing.T) {
	spec, err := SpecByID("scale-cybershake")
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Sizes[len(spec.Sizes)-1]; got != 2000 {
		t.Fatalf("scaled spec tops out at n=%d, want 2000", got)
	}
	// cfg.Sizes must NOT override the pinned axis…
	pts, xs, _ := pointsFor(spec, Config{Sizes: []int{10}})
	if len(pts) != len(spec.Sizes) || xs[len(xs)-1] != 2000 {
		t.Fatalf("Config.Sizes overrode a pinned spec axis: %v", xs)
	}
	// …but a deliberate spec-copy override works, and the figure runs.
	spec.Sizes = []int{30, 45}
	fig, err := Run(spec, Config{Grid: 6, Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 6 || len(fig.X) != 2 {
		t.Fatalf("scaled figure shape wrong: %d series, X=%v", len(fig.Series), fig.X)
	}
}

func TestSpecByID(t *testing.T) {
	s, err := SpecByID("fig3a")
	if err != nil || s.Workflow != pwg.Montage {
		t.Fatalf("SpecByID(fig3a) = %+v, %v", s, err)
	}
	if _, err := SpecByID("fig99"); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

func TestCostModels(t *testing.T) {
	g := dag.Chain([]float64{10, 20}, nil)
	Proportional(0.1).Apply(g)
	if g.CkptCost(1) != 2 || g.RecCost(1) != 2 {
		t.Fatalf("proportional: c=%v r=%v", g.CkptCost(1), g.RecCost(1))
	}
	Constant(5).Apply(g)
	if g.CkptCost(0) != 5 || g.RecCost(1) != 5 {
		t.Fatal("constant cost model wrong")
	}
	if !strings.Contains(Proportional(0.1).Name, "0.1") || !strings.Contains(Constant(5).Name, "5") {
		t.Fatal("cost model names wrong")
	}
}

func TestRunLinearizationFigure(t *testing.T) {
	spec, err := SpecByID("fig2a")
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Run(spec, fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 6 {
		t.Fatalf("linearization figure has %d series", len(fig.Series))
	}
	if len(fig.X) != 2 || fig.X[0] != 40 {
		t.Fatalf("X = %v", fig.X)
	}
	for _, s := range fig.Series {
		for i, v := range s.Y {
			if v < 1 || math.IsInf(v, 0) || math.IsNaN(v) {
				t.Fatalf("%s[%d] = %v (T/Tinf must be ≥ 1)", s.Name, i, v)
			}
		}
	}
}

func TestRunCheckpointFigure(t *testing.T) {
	spec, err := SpecByID("fig3c")
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Run(spec, fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string][]float64{}
	for _, s := range fig.Series {
		names[s.Name] = s.Y
	}
	for _, want := range []string{"CkptNvr", "CkptAlws", "CkptPer", "CkptW", "CkptC", "CkptD"} {
		if names[want] == nil {
			t.Fatalf("missing series %s", want)
		}
	}
	// The searching heuristics must not lose to both baselines at any
	// point (they search a superset-quality space; ties possible).
	for i := range fig.X {
		bestSearch := math.Min(math.Min(names["CkptW"][i], names["CkptC"][i]), names["CkptD"][i])
		worstBase := math.Max(names["CkptNvr"][i], names["CkptAlws"][i])
		if bestSearch > worstBase+1e-9 {
			t.Fatalf("x=%v: best searching heuristic %v worse than worst baseline %v",
				fig.X[i], bestSearch, worstBase)
		}
	}
}

func TestRunLambdaSweepFigure(t *testing.T) {
	spec, err := SpecByID("fig7c")
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Run(spec, Config{Grid: 8, Seed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fig.XLabel != "lambda" || len(fig.X) != 7 {
		t.Fatalf("λ sweep axis wrong: %s %v", fig.XLabel, fig.X)
	}
	// Ratios must grow with λ for every strategy.
	for _, s := range fig.Series {
		if s.Y[len(s.Y)-1] < s.Y[0] {
			t.Fatalf("%s not increasing in λ: %v", s.Name, s.Y)
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	spec, err := SpecByID("fig2b")
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := fastCfg
	cfg1.Workers = 1
	cfg8 := fastCfg
	cfg8.Workers = 8
	a, err := Run(spec, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, cfg8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Series {
		for j := range a.Series[i].Y {
			if a.Series[i].Y[j] != b.Series[i].Y[j] {
				t.Fatalf("series %s diverges across worker counts", a.Series[i].Name)
			}
		}
	}
}

func TestDefaultSizes(t *testing.T) {
	s := DefaultSizes()
	if len(s) != 14 || s[0] != 50 || s[13] != 700 {
		t.Fatalf("DefaultSizes = %v", s)
	}
}

func TestRunPropagatesGeneratorErrors(t *testing.T) {
	spec, err := SpecByID("fig3a")
	if err != nil {
		t.Fatal(err)
	}
	bad := fastCfg
	bad.Sizes = []int{3} // below Montage's minimum
	if _, err := Run(spec, bad); err == nil {
		t.Fatal("generator error swallowed")
	}
}

// TestValidateMCAgreesWithAnalytic: the batched Monte-Carlo pass over
// every winning schedule of a small figure must land close to the
// analytic curves — the cross-validation the figures rest on.
func TestValidateMCAgreesWithAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical validation skipped in -short mode")
	}
	spec, err := SpecByID("fig3c")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Grid: 8, Seed: 1, Sizes: []int{40}, Workers: 4}
	ran, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	analytic, mcFig, err := ValidateMC(spec, cfg, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if mcFig.ID != "fig3c-mc" || len(mcFig.Series) != len(analytic.Series) {
		t.Fatalf("validation figure malformed: %s, %d series", mcFig.ID, len(mcFig.Series))
	}
	// The analytic figure out of the combined pass must equal Run's.
	for i := range ran.Series {
		for j, want := range ran.Series[i].Y {
			if got := analytic.Series[i].Y[j]; got != want {
				t.Fatalf("analytic %s[%d]: ValidateMC %v vs Run %v",
					ran.Series[i].Name, j, got, want)
			}
		}
	}
	for i, s := range mcFig.Series {
		for j, got := range s.Y {
			want := analytic.Series[i].Y[j]
			// 6000 trials keep the standard error well under 2% on
			// these small workflows; allow 5%.
			if math.Abs(got-want)/want > 0.05 {
				t.Fatalf("%s at x=%v: MC %v vs analytic %v", s.Name, mcFig.X[j], got, want)
			}
		}
	}
}

// TestValidateMCDeterministicAcrossWorkerCounts mirrors the analytic
// determinism test: the MC figure inherits the engine's
// worker-invariance.
func TestValidateMCDeterministicAcrossWorkerCounts(t *testing.T) {
	spec, err := SpecByID("fig2b")
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := Config{Grid: 8, Seed: 1, Sizes: []int{40}, Workers: 1}
	cfg8 := cfg1
	cfg8.Workers = 8
	_, a, err := ValidateMC(spec, cfg1, 500)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := ValidateMC(spec, cfg8, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Series {
		for j := range a.Series[i].Y {
			if a.Series[i].Y[j] != b.Series[i].Y[j] {
				t.Fatalf("MC series %s diverges across worker counts", a.Series[i].Name)
			}
		}
	}
}
