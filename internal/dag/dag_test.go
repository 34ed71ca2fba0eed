package dag

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func diamond() *Graph {
	// 0 → 1, 0 → 2, 1 → 3, 2 → 3
	g := New()
	for i := 0; i < 4; i++ {
		g.AddTask(Task{Weight: float64(i + 1)})
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(2, 3)
	return g
}

func TestAddTaskAndCounts(t *testing.T) {
	g := diamond()
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("N=%d M=%d, want 4/4", g.N(), g.M())
	}
}

func TestDuplicateEdgeIgnored(t *testing.T) {
	g := diamond()
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("duplicate edge errored: %v", err)
	}
	if g.M() != 4 {
		t.Fatalf("duplicate edge changed edge count: %d", g.M())
	}
	if len(g.Succs(0)) != 2 {
		t.Fatalf("duplicate edge duplicated adjacency: %v", g.Succs(0))
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := diamond()
	if err := g.AddEdge(0, 9); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("negative ID accepted")
	}
	if err := g.AddEdge(2, 2); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestSourcesSinks(t *testing.T) {
	g := diamond()
	if got := g.Sources(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Sources = %v", got)
	}
	if got := g.Sinks(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Sinks = %v", got)
	}
}

func TestDegrees(t *testing.T) {
	g := diamond()
	if g.InDegree(3) != 2 || g.OutDegree(0) != 2 || g.InDegree(0) != 0 || g.OutDegree(3) != 0 {
		t.Fatal("degree mismatch")
	}
}

func TestTotalWeightAndOutWeight(t *testing.T) {
	g := diamond()
	if g.TotalWeight() != 10 {
		t.Fatalf("TotalWeight = %v", g.TotalWeight())
	}
	if g.OutWeight(0) != 2+3 {
		t.Fatalf("OutWeight(0) = %v", g.OutWeight(0))
	}
	if g.OutWeight(3) != 0 {
		t.Fatalf("OutWeight(3) = %v", g.OutWeight(3))
	}
}

func TestTopoSortValid(t *testing.T) {
	g := diamond()
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsLinearization(order) {
		t.Fatalf("TopoSort output %v is not a linearization", order)
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := New()
	g.AddTask(Task{})
	g.AddTask(Task{})
	g.AddTask(Task{})
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 0)
	if _, err := g.TopoSort(); err != ErrCycle {
		t.Fatalf("expected ErrCycle, got %v", err)
	}
	if err := g.Validate(); err != ErrCycle {
		t.Fatalf("Validate: expected ErrCycle, got %v", err)
	}
}

func TestValidate(t *testing.T) {
	if err := New().Validate(); err == nil {
		t.Fatal("empty graph validated")
	}
	g := New()
	g.AddTask(Task{Weight: -1})
	if err := g.Validate(); err == nil {
		t.Fatal("negative weight validated")
	}
	for _, bad := range []Task{
		{Weight: math.NaN()},
		{Weight: math.Inf(1)},
		{Weight: 1, CkptCost: math.NaN()},
		{Weight: 1, CkptCost: math.Inf(1)},
		{Weight: 1, RecCost: math.Inf(-1)},
		{Weight: 1, RecCost: math.NaN()},
	} {
		g := New()
		g.AddTask(bad)
		if err := g.Validate(); err == nil {
			t.Fatalf("non-finite task %+v validated", bad)
		}
	}
	if err := diamond().Validate(); err != nil {
		t.Fatalf("diamond should validate: %v", err)
	}
}

func TestIsLinearization(t *testing.T) {
	g := diamond()
	cases := []struct {
		order []int
		want  bool
	}{
		{[]int{0, 1, 2, 3}, true},
		{[]int{0, 2, 1, 3}, true},
		{[]int{1, 0, 2, 3}, false}, // dependency violated
		{[]int{0, 1, 2}, false},    // wrong length
		{[]int{0, 1, 1, 3}, false}, // duplicate
		{[]int{0, 1, 2, 4}, false}, // out of range
	}
	for _, c := range cases {
		if got := g.IsLinearization(c.order); got != c.want {
			t.Errorf("IsLinearization(%v) = %v, want %v", c.order, got, c.want)
		}
	}
}

func TestPositions(t *testing.T) {
	g := diamond()
	pos := g.Positions([]int{0, 2, 1, 3})
	want := []int{0, 2, 1, 3}
	for id, p := range want {
		if pos[id] != p {
			t.Fatalf("pos[%d] = %d, want %d", id, pos[id], p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Positions with duplicate did not panic")
		}
	}()
	g.Positions([]int{0, 0, 1, 2})
}

func TestLevels(t *testing.T) {
	g := diamond()
	lv := g.Levels()
	want := []int{0, 1, 1, 2}
	for i := range want {
		if lv[i] != want[i] {
			t.Fatalf("level[%d] = %d, want %d", i, lv[i], want[i])
		}
	}
}

func TestCriticalPathWeight(t *testing.T) {
	g := diamond()
	// Longest path is 0→2→3 with weights 1+3+4 = 8.
	if got := g.CriticalPathWeight(); got != 8 {
		t.Fatalf("CriticalPathWeight = %v, want 8", got)
	}
}

func TestReachabilityAndAncestors(t *testing.T) {
	g := diamond()
	r := g.ReachableFrom(0)
	if r[0] || !r[1] || !r[2] || !r[3] {
		t.Fatalf("ReachableFrom(0) = %v", r)
	}
	a := g.Ancestors(3)
	if a[3] || !a[0] || !a[1] || !a[2] {
		t.Fatalf("Ancestors(3) = %v", a)
	}
	if got := g.Ancestors(0); got[1] || got[2] || got[3] {
		t.Fatalf("Ancestors(0) = %v", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := diamond()
	c := g.Clone()
	c.SetTask(0, Task{Weight: 100})
	c.MustAddEdge(1, 2)
	if g.Weight(0) == 100 {
		t.Fatal("Clone shares task storage")
	}
	if g.M() != 4 || c.M() != 5 {
		t.Fatalf("Clone shares edges: g.M=%d c.M=%d", g.M(), c.M())
	}
}

func TestScaleCkptCosts(t *testing.T) {
	g := diamond()
	g.ScaleCkptCosts(func(t Task) (float64, float64) { return 0.1 * t.Weight, 0.2 * t.Weight })
	for i := 0; i < g.N(); i++ {
		if g.CkptCost(i) != 0.1*g.Weight(i) || g.RecCost(i) != 0.2*g.Weight(i) {
			t.Fatalf("cost scaling wrong at %d", i)
		}
	}
}

func TestNames(t *testing.T) {
	g := New()
	g.AddTask(Task{Name: "alpha"})
	g.AddTask(Task{})
	if g.Name(0) != "alpha" || g.Name(1) != "T1" {
		t.Fatalf("Name = %q, %q", g.Name(0), g.Name(1))
	}
}

func TestDOT(t *testing.T) {
	g := diamond()
	out := g.DOT("d", []bool{true, false, false, false})
	for _, frag := range []string{"digraph", "0 -> 1", "2 -> 3", "fillcolor=gray80"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("DOT output missing %q:\n%s", frag, out)
		}
	}
}

func TestStringer(t *testing.T) {
	s := diamond().String()
	if !strings.Contains(s, "n=4") || !strings.Contains(s, "m=4") {
		t.Fatalf("String = %q", s)
	}
}

// randomDAG builds a random layered DAG for property tests.
func randomDAG(seed uint64, n int) *Graph {
	r := rng.New(seed)
	g := New()
	for i := 0; i < n; i++ {
		g.AddTask(Task{Weight: r.Uniform(1, 10)})
	}
	for j := 1; j < n; j++ {
		// Each task gets 1..3 predecessors among earlier tasks.
		k := 1 + r.Intn(3)
		for e := 0; e < k; e++ {
			g.MustAddEdge(r.Intn(j), j)
		}
	}
	return g
}

// Property: TopoSort of a DAG built with edges i<j is always a valid
// linearization, and Levels are monotone along edges.
func TestTopoSortProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 2 + int(nRaw%30)
		g := randomDAG(seed, n)
		order, err := g.TopoSort()
		if err != nil || !g.IsLinearization(order) {
			return false
		}
		lv := g.Levels()
		for v := 0; v < n; v++ {
			for _, s := range g.Succs(v) {
				if lv[s] <= lv[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Ancestors and ReachableFrom are converses.
func TestReachabilityConverseProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 2 + int(nRaw%20)
		g := randomDAG(seed, n)
		for v := 0; v < n; v++ {
			reach := g.ReachableFrom(v)
			for u := 0; u < n; u++ {
				if reach[u] != g.Ancestors(u)[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
