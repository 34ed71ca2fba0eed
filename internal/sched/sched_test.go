package sched

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/stats"
)

var plat = failure.Platform{Lambda: 0.01, Downtime: 1}

func randomDAG(seed uint64, n int) *dag.Graph {
	r := rng.New(seed)
	g := dag.New()
	for i := 0; i < n; i++ {
		g.AddTask(dag.Task{Weight: r.Uniform(1, 50), CkptCost: r.Uniform(0.5, 5), RecCost: r.Uniform(0.5, 5)})
	}
	for j := 1; j < n; j++ {
		k := 1 + r.Intn(3)
		for e := 0; e < k; e++ {
			g.MustAddEdge(r.Intn(j), j)
		}
	}
	return g
}

func TestLinearizersProduceValidOrders(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 2 + int(nRaw%40)
		g := randomDAG(seed, n)
		for _, lin := range []Linearizer{DF{}, BF{}, RF{Seed: seed}} {
			if !g.IsLinearization(lin.Linearize(g)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDFFollowsBranches(t *testing.T) {
	// On Figure 1 with unit weights, DF must run a freshly enabled
	// successor before returning to the other entry task: T3 right
	// after T0, and the T3 subtree before T1's.
	g := dag.Figure1(nil, nil)
	order := DF{}.Linearize(g)
	pos := g.Positions(order)
	if pos[3] != pos[0]+1 {
		t.Fatalf("DF did not follow T0 with T3: %v", order)
	}
	if pos[1] > pos[3] && pos[1] < pos[6] {
		t.Fatalf("DF interleaved T1 inside the T3 subtree: %v", order)
	}
}

func TestBFIsLevelOrder(t *testing.T) {
	g := dag.Figure1(nil, nil)
	order := BF{}.Linearize(g)
	lv := g.Levels()
	// BF must be monotone in level for Figure 1 (levels become ready
	// exactly when the previous level completes in this DAG... not in
	// general, but the entry tasks must both precede level-2 tasks).
	pos := g.Positions(order)
	if pos[0] > 1 || pos[1] > 1 {
		t.Fatalf("BF should start with both sources: %v", order)
	}
	_ = lv
}

func TestBFPriorityOrdersSources(t *testing.T) {
	// Three sources with distinct out-weights joined to one sink:
	// BF must start them in decreasing out-weight order... they all
	// share the sink, so differentiate by weight of an intermediate.
	g := dag.New()
	a := g.AddTask(dag.Task{Weight: 1})
	b := g.AddTask(dag.Task{Weight: 1})
	c := g.AddTask(dag.Task{Weight: 1})
	ma := g.AddTask(dag.Task{Weight: 5})
	mb := g.AddTask(dag.Task{Weight: 50})
	mc := g.AddTask(dag.Task{Weight: 500})
	sink := g.AddTask(dag.Task{Weight: 1})
	g.MustAddEdge(a, ma)
	g.MustAddEdge(b, mb)
	g.MustAddEdge(c, mc)
	g.MustAddEdge(ma, sink)
	g.MustAddEdge(mb, sink)
	g.MustAddEdge(mc, sink)
	order := BF{}.Linearize(g)
	pos := g.Positions(order)
	if !(pos[c] < pos[b] && pos[b] < pos[a]) {
		t.Fatalf("BF ignored out-weight priority: %v", order)
	}
}

func TestRFDeterministicPerSeed(t *testing.T) {
	g := randomDAG(3, 30)
	o1 := RF{Seed: 7}.Linearize(g)
	o2 := RF{Seed: 7}.Linearize(g)
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("RF with same seed diverged")
		}
	}
	o3 := RF{Seed: 8}.Linearize(g)
	same := true
	for i := range o1 {
		if o1[i] != o3[i] {
			same = false
		}
	}
	if same {
		t.Fatal("RF with different seeds produced identical order (30 tasks)")
	}
}

func TestSweepNs(t *testing.T) {
	if got := SweepNs(1, 0); got != nil {
		t.Fatalf("SweepNs(1) = %v", got)
	}
	full := SweepNs(10, 0)
	if len(full) != 9 || full[0] != 1 || full[8] != 9 {
		t.Fatalf("full sweep = %v", full)
	}
	grid := SweepNs(701, 60)
	if len(grid) > 60 || grid[0] != 1 || grid[len(grid)-1] != 700 {
		t.Fatalf("grid sweep bad: len=%d ends=%d,%d", len(grid), grid[0], grid[len(grid)-1])
	}
	for i := 1; i < len(grid); i++ {
		if grid[i] <= grid[i-1] {
			t.Fatalf("grid not strictly increasing: %v", grid)
		}
	}
	// Grid larger than the range degenerates to the full sweep.
	if got := SweepNs(5, 100); len(got) != 4 {
		t.Fatalf("SweepNs(5,100) = %v", got)
	}
}

// TestSweepNsGridOne is the regression test for the grid == 1 bug:
// the interpolation divided by grid−1 = 0, producing int(NaN) — an
// undefined conversion — and silently dropping the upper endpoint.
func TestSweepNsGridOne(t *testing.T) {
	if got := SweepNs(2, 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("SweepNs(2,1) = %v, want [1]", got)
	}
	for _, n := range []int{3, 4, 5, 10, 701} {
		got := SweepNs(n, 1)
		want := []int{1, n - 1}
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("SweepNs(%d,1) = %v, want %v", n, got, want)
		}
	}
}

// TestSweepNsContract checks the documented contract over small
// n/grid combinations: for every grid ≥ 1 the sweep is strictly
// increasing, stays within [1, n−1], and includes both endpoints.
func TestSweepNsContract(t *testing.T) {
	for n := 2; n <= 16; n++ {
		for grid := 1; grid <= n+2; grid++ {
			ns := SweepNs(n, grid)
			if len(ns) == 0 {
				t.Fatalf("SweepNs(%d,%d) empty", n, grid)
			}
			if ns[0] != 1 || ns[len(ns)-1] != n-1 {
				t.Fatalf("SweepNs(%d,%d) = %v misses an endpoint", n, grid, ns)
			}
			for i := 1; i < len(ns); i++ {
				if ns[i] <= ns[i-1] {
					t.Fatalf("SweepNs(%d,%d) = %v not strictly increasing", n, grid, ns)
				}
			}
			if grid >= n-1 && len(ns) != n-1 {
				t.Fatalf("SweepNs(%d,%d) = %v should be exhaustive", n, grid, ns)
			}
		}
	}
}

func TestBaselineStrategies(t *testing.T) {
	g := randomDAG(11, 12)
	order := DF{}.Linearize(g)
	ev := core.NewEvaluator()
	sN, vN := CkptNvr{}.Apply(g, plat, order, ev)
	if sN.NumCheckpointed() != 0 {
		t.Fatal("CkptNvr checkpointed something")
	}
	sA, vA := CkptAlws{}.Apply(g, plat, order, ev)
	if sA.NumCheckpointed() != g.N() {
		t.Fatal("CkptAlws missed tasks")
	}
	if vN <= 0 || vA <= 0 {
		t.Fatal("non-positive makespans")
	}
	if stats.RelDiff(vN, core.Eval(sN, plat)) > 1e-12 || stats.RelDiff(vA, core.Eval(sA, plat)) > 1e-12 {
		t.Fatal("reported values disagree with evaluator")
	}
}

func TestRankedStrategiesReportedValueMatches(t *testing.T) {
	g := randomDAG(13, 15)
	order := DF{}.Linearize(g)
	ev := core.NewEvaluator()
	for _, st := range []Strategy{NewCkptW(0), NewCkptC(0), NewCkptD(0), CkptPer{}} {
		s, v := st.Apply(g, plat, order, ev)
		if got := core.Eval(s, plat); stats.RelDiff(got, v) > 1e-12 {
			t.Fatalf("%s: reported %v but schedule evaluates to %v", st.Name(), v, got)
		}
		if !g.IsLinearization(s.Order) {
			t.Fatalf("%s returned invalid order", st.Name())
		}
	}
}

func TestRankedSweepIsExhaustive(t *testing.T) {
	// The best N found by CkptW with the full sweep must be at least
	// as good as every manually evaluated N.
	g := randomDAG(17, 10)
	order := DF{}.Linearize(g)
	ev := core.NewEvaluator()
	_, v := NewCkptW(0).Apply(g, plat, order, ev)
	// Recompute by hand.
	type wid struct {
		w  float64
		id int
	}
	n := g.N()
	for N := 1; N < n; N++ {
		ids := make([]wid, n)
		for i := 0; i < n; i++ {
			ids[i] = wid{g.Weight(i), i}
		}
		// selection of N largest (stable by id)
		for i := 0; i < N; i++ {
			best := i
			for j := i + 1; j < n; j++ {
				if ids[j].w > ids[best].w || (ids[j].w == ids[best].w && ids[j].id < ids[best].id) {
					best = j
				}
			}
			ids[i], ids[best] = ids[best], ids[i]
		}
		mask := make([]bool, n)
		for i := 0; i < N; i++ {
			mask[ids[i].id] = true
		}
		s := &core.Schedule{Graph: g, Order: order, Ckpt: mask}
		if got := core.Eval(s, plat); got < v-1e-9 {
			t.Fatalf("manual N=%d gives %v, better than sweep best %v", N, got, v)
		}
	}
}

func TestCkptPerMaskSize(t *testing.T) {
	g := randomDAG(19, 20)
	order := DF{}.Linearize(g)
	ev := core.NewEvaluator()
	s, _ := CkptPer{}.Apply(g, plat, order, ev)
	// Any CkptPer mask uses at most N−1 ≤ n−2 checkpoints.
	if s.NumCheckpointed() > g.N()-1 {
		t.Fatalf("CkptPer checkpointed %d of %d tasks", s.NumCheckpointed(), g.N())
	}
}

func TestPaper14Composition(t *testing.T) {
	hs := Paper14(Options{RFSeed: 1})
	if len(hs) != 14 {
		t.Fatalf("Paper14 returned %d heuristics", len(hs))
	}
	names := map[string]bool{}
	for _, h := range hs {
		names[h.Name()] = true
	}
	for _, want := range []string{
		"DF-CkptNvr", "DF-CkptAlws",
		"DF-CkptW", "DF-CkptC", "DF-CkptD", "DF-CkptPer",
		"BF-CkptW", "BF-CkptC", "BF-CkptD", "BF-CkptPer",
		"RF-CkptW", "RF-CkptC", "RF-CkptD", "RF-CkptPer",
	} {
		if !names[want] {
			t.Fatalf("missing heuristic %s (have %v)", want, names)
		}
	}
}

func TestByName(t *testing.T) {
	h, err := ByName("DF-CkptW", Options{})
	if err != nil || h.Name() != "DF-CkptW" {
		t.Fatalf("ByName failed: %v", err)
	}
	if _, err := ByName("XX-Ckpt", Options{}); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestRunAllAndBest(t *testing.T) {
	g := randomDAG(23, 15)
	rs := RunAll(Paper14(Options{RFSeed: 5}), g, plat)
	if len(rs) != 14 {
		t.Fatalf("RunAll returned %d results", len(rs))
	}
	best := Best(rs)
	for _, r := range rs {
		if r.Expected < best.Expected {
			t.Fatal("Best did not return the minimum")
		}
		if r.Ratio <= 0 || math.IsInf(r.Ratio, 0) {
			t.Fatalf("%s ratio = %v", r.Name, r.Ratio)
		}
		if got := core.Eval(r.Schedule, plat); stats.RelDiff(got, r.Expected) > 1e-12 {
			t.Fatalf("%s: result value %v but schedule gives %v", r.Name, r.Expected, got)
		}
	}

	// Ties break canonically: fewest checkpoints, then lowest index.
	tie := dag.Chain([]float64{10, 10}, nil)
	mk := func(ck ...bool) *core.Schedule {
		return &core.Schedule{Graph: tie, Order: []int{0, 1}, Ckpt: ck}
	}
	tied := []Result{
		{Name: "a", Expected: 5, Schedule: mk(true, true)},
		{Name: "b", Expected: 5, Schedule: mk(true, false)},
		{Name: "c", Expected: 5, Schedule: mk(false, true)},
		{Name: "d", Expected: 6, Schedule: mk(false, false)},
	}
	if got := Best(tied).Name; got != "b" {
		t.Fatalf("Best = %q on a tie, want \"b\" (fewest checkpoints, lowest index)", got)
	}
}

// On failure-heavy workloads the searching heuristics must beat both
// baselines (the paper's headline empirical finding).
func TestHeuristicsBeatBaselines(t *testing.T) {
	g := randomDAG(29, 40)
	// Make failures frequent relative to task lengths and
	// checkpoints cheap: the optimum checkpoints some but not all.
	g.ScaleCkptCosts(func(t dag.Task) (float64, float64) { return 0.1 * t.Weight, 0.1 * t.Weight })
	p := failure.Platform{Lambda: 0.002}
	rs := RunAll(Paper14(Options{RFSeed: 5}), g, p)
	var never, always, bestSearch float64
	bestSearch = math.Inf(1)
	for _, r := range rs {
		switch r.Name {
		case "DF-CkptNvr":
			never = r.Expected
		case "DF-CkptAlws":
			always = r.Expected
		default:
			if r.Expected < bestSearch {
				bestSearch = r.Expected
			}
		}
	}
	if bestSearch >= never || bestSearch >= always {
		t.Fatalf("searching heuristics (%v) did not beat baselines (never=%v always=%v)",
			bestSearch, never, always)
	}
}

// Small-instance optimality gap: the best heuristic stays within 25%
// of the brute-force optimum (empirically it is usually within a few
// percent; the loose bound keeps the test robust).
func TestHeuristicsNearOptimalOnSmallDAGs(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		g := randomDAG(seed, 7)
		bf, err := bruteforce.Solve(g, plat, 1<<22)
		if err != nil || !bf.Exhausted {
			t.Fatalf("brute force failed: %v", err)
		}
		best := Best(RunAll(Paper14(Options{RFSeed: 9}), g, plat))
		if best.Expected > bf.Expected*1.25 {
			t.Fatalf("seed %d: best heuristic %v vs optimum %v (gap %.1f%%)",
				seed, best.Expected, bf.Expected, 100*(best.Expected/bf.Expected-1))
		}
		if best.Expected < bf.Expected*(1-1e-9) {
			t.Fatalf("seed %d: heuristic %v beats 'optimal' brute force %v — bug in one of them",
				seed, best.Expected, bf.Expected)
		}
	}
}

// The two-stage grid search (coarse grid + exhaustive scan of the
// winning gap) must find exactly the exhaustive optimum whenever the
// makespan is unimodal in N — and never be worse than the plain grid
// points it started from.
func TestTwoStageGridRefinement(t *testing.T) {
	for _, seed := range []uint64{3, 5, 8, 13} {
		g := randomDAG(seed, 50)
		order := DF{}.Linearize(g)
		ev := core.NewEvaluator()
		_, vFull := NewCkptW(0).Apply(g, plat, order, ev)
		_, vGrid := NewCkptW(6).Apply(g, plat, order, ev)
		if vGrid < vFull-1e-9 {
			t.Fatalf("seed %d: grid %v beats exhaustive %v", seed, vGrid, vFull)
		}
		// Compare against the best raw grid point (no second stage):
		// evaluate the 6 grid Ns manually.
		raw := math.Inf(1)
		for _, N := range SweepNs(g.N(), 6) {
			ids := make([]int, g.N())
			for i := range ids {
				ids[i] = i
			}
			sortByWeightDesc(g, ids)
			mask := make([]bool, g.N())
			for i := 0; i < N; i++ {
				mask[ids[i]] = true
			}
			s := &core.Schedule{Graph: g, Order: order, Ckpt: mask}
			if v := core.Eval(s, plat); v < raw {
				raw = v
			}
		}
		if vGrid > raw+1e-9 {
			t.Fatalf("seed %d: two-stage %v worse than raw grid %v", seed, vGrid, raw)
		}
	}
}

// sortByWeightDesc mirrors the CkptW ranking for the test above.
func sortByWeightDesc(g *dag.Graph, ids []int) {
	for i := 0; i < len(ids); i++ {
		best := i
		for j := i + 1; j < len(ids); j++ {
			wa, wb := g.Weight(ids[j]), g.Weight(ids[best])
			if wa > wb || (wa == wb && ids[j] < ids[best]) {
				best = j
			}
		}
		ids[i], ids[best] = ids[best], ids[i]
	}
}

// Grid search must never beat the exhaustive search (it explores a
// subset of N values) and should stay close.
func TestGridSearchSubsetOfFull(t *testing.T) {
	g := randomDAG(31, 60)
	order := DF{}.Linearize(g)
	ev := core.NewEvaluator()
	_, vFull := NewCkptW(0).Apply(g, plat, order, ev)
	_, vGrid := NewCkptW(12).Apply(g, plat, order, ev)
	if vGrid < vFull-1e-9 {
		t.Fatalf("grid %v beats full %v", vGrid, vFull)
	}
	if vGrid > vFull*1.10 {
		t.Fatalf("grid %v more than 10%% worse than full %v", vGrid, vFull)
	}
}
