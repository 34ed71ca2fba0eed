package sched

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
)

// countingSweeper counts the maskers a kernel builds.
type countingSweeper struct {
	BoundedSweeper
	maskers *int
}

func (c countingSweeper) NewMasker(g *dag.Graph, order []int) func(int, []bool) {
	*c.maskers++
	return c.BoundedSweeper.NewMasker(g, order)
}

func candidateFingerprint(c Candidate) string {
	return fmt.Sprintf("%x|%d|%d|%v", math.Float64bits(c.Val), c.K, c.N, c.Mask)
}

// A span whose every count is prunable must return the empty
// candidate without building a masker; an unpruned span builds one.
func TestSpanPrunedSkipsMasker(t *testing.T) {
	g := randomDAG(7, 30)
	order := DF{}.Linearize(g)
	maskers := 0
	k := NewKernel(countingSweeper{NewCkptW(0).(BoundedSweeper), &maskers}, g, plat, order)
	ev := core.NewEvaluator()
	inc := NewIncumbent()
	inc.Min(0) // every bound is positive, so every count is prunable
	if c := k.Span(k.Stage1(), ev, inc, nil); c.N != -1 || maskers != 0 {
		t.Fatalf("fully prunable span returned N=%d after building %d maskers", c.N, maskers)
	}
	if c := k.Span(k.Stage1(), ev, NewIncumbent(), nil); c.N < 1 || maskers != 1 {
		t.Fatalf("unpruned span returned N=%d after building %d maskers", c.N, maskers)
	}
}

// A span that hands off its back half evaluates only the front; the
// two halves merged give exactly the undivided span's candidate.
func TestSpanHandoff(t *testing.T) {
	g := randomDAG(11, 30)
	order := BF{}.Linearize(g)
	k := NewKernel(NewCkptD(0).(NSweeper), g, plat, order)
	ev := core.NewEvaluator()
	ns := k.Stage1()
	want := k.Span(ns, ev, nil, nil)

	var given []int
	front := k.Span(ns, ev, nil, func(back []int) bool {
		if given != nil {
			return false
		}
		given = back
		return true
	})
	if cut := (len(ns) + 1) / 2; fmt.Sprint(given) != fmt.Sprint(ns[cut:]) {
		t.Fatalf("handed off %v, want the back half %v", given, ns[cut:])
	}
	if front.N >= given[0] {
		t.Fatalf("front evaluated N=%d from the handed-off half", front.N)
	}
	front.Merge(k.Span(given, ev, nil, nil))
	if got := candidateFingerprint(front); got != candidateFingerprint(want) {
		t.Fatalf("halves merged to %s, want %s", got, candidateFingerprint(want))
	}
}

// The shared incumbent must be monotone under concurrent updates and
// never lose a lower value.
func TestIncumbentConcurrentMin(t *testing.T) {
	in := NewIncumbent()
	if !math.IsInf(in.Load(), 1) {
		t.Fatalf("new floor = %v, want +Inf", in.Load())
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				in.Min(float64(1 + (i*7+w*13)%997))
			}
		}()
	}
	wg.Wait()
	if got := in.Load(); got != 1 {
		t.Fatalf("concurrent min floor = %v, want 1", got)
	}
	in.Min(5)
	if got := in.Load(); got != 1 {
		t.Fatalf("min with larger value moved the floor to %v", got)
	}
}
