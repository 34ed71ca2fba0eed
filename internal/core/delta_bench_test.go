package core

import (
	"fmt"
	"testing"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/pwg"
)

// benchDeltaSetup builds the portfolio benchmark workload (CyberShake,
// ranked-prefix masks) at size n. It is shared with the allocation
// gates in alloc_test.go, hence testing.TB.
func benchDeltaSetup(b testing.TB, n int) (*Schedule, failure.Platform) {
	b.Helper()
	g, err := pwg.Generate(pwg.CyberShake, n, 1)
	if err != nil {
		b.Fatal(err)
	}
	g.ScaleCkptCosts(func(tk dag.Task) (float64, float64) { return 0.1 * tk.Weight, 0.1 * tk.Weight })
	order, err := g.TopoSort()
	if err != nil {
		b.Fatal(err)
	}
	mask := make([]bool, n)
	for i := 0; i < n; i += 2 {
		mask[i] = true
	}
	return &Schedule{Graph: g, Order: order, Ckpt: mask}, failure.Platform{Lambda: 1e-3}
}

// BenchmarkDeltaFlip measures one single-bit incremental re-evaluation
// — the inner step of a checkpoint-count sweep — against
// BenchmarkEvaluator's full pass at the same instance size.
func BenchmarkDeltaFlip(b *testing.B) {
	for _, n := range []int{100, 700} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, p := benchDeltaSetup(b, n)
			ev := NewEvaluator()
			ev.EvalSchedule(s, p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := (i * 17) % n
				s.Ckpt[id] = !s.Ckpt[id]
				if v := ev.EvalSchedule(s, p); v <= 0 {
					b.Fatal("bad makespan")
				}
			}
		})
	}
}
