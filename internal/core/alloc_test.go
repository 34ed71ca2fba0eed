package core

import (
	"testing"
)

// The evaluator hot paths are allocation-free by design: all O(n²)
// state lives in flat arenas sized once per (graph, schedule) shape
// and reused across calls (see the memory notes on Evaluator). These
// gates run under plain `go test ./...` so a regression shows up in
// every CI run, not only when someone reads benchmark output.

// TestDeltaFlipAllocFree pins the incremental flip path — the inner
// step of every N-sweep and of refine's flip neighbourhood — at zero
// allocations per re-evaluation once the evaluator is warm.
func TestDeltaFlipAllocFree(t *testing.T) {
	for _, n := range []int{100, 700} {
		s, p := benchDeltaSetup(t, n)
		ev := NewEvaluator()
		ev.EvalSchedule(s, p) // the full load sizes the arenas
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			id := (i * 17) % n
			i++
			s.Ckpt[id] = !s.Ckpt[id]
			if v := ev.EvalSchedule(s, p); v <= 0 {
				t.Fatal("bad makespan")
			}
		})
		if allocs != 0 {
			t.Errorf("n=%d: delta flip allocates %.1f allocs/op, want 0", n, allocs)
		}
	}
}

// TestColdEvalWarmAllocFree pins the full pass's steady state: after
// the first Eval has sized its arenas, re-evaluating schedules of the
// same shape (any mask, any order) allocates nothing.
func TestColdEvalWarmAllocFree(t *testing.T) {
	s, p := benchDeltaSetup(t, 300)
	ev := NewEvaluator()
	ev.Eval(s, p) // sizes the arenas
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		id := (i * 13) % 300
		i++
		s.Ckpt[id] = !s.Ckpt[id]
		if v := ev.Eval(s, p); v <= 0 {
			t.Fatal("bad makespan")
		}
	})
	if allocs != 0 {
		t.Errorf("warm Eval allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestSharedTableAllocs pins the shared factor-table path the pooled
// engines use: warm evals with an installed table stay at zero
// allocs/op, and constructing an evaluator *from a shared table*
// costs strictly fewer allocations than self-built construction (which
// must build its own table — the shared path skips exactly that).
func TestSharedTableAllocs(t *testing.T) {
	s, p := benchDeltaSetup(t, 300)
	tab := NewFactorTable(s.Graph, p)

	ev := NewEvaluator()
	ev.SetFactorTable(tab)
	ev.Eval(s, p) // sizes the arenas
	i := 0
	warm := testing.AllocsPerRun(50, func() {
		id := (i * 13) % 300
		i++
		s.Ckpt[id] = !s.Ckpt[id]
		if v := ev.Eval(s, p); v <= 0 {
			t.Fatal("bad makespan")
		}
	})
	if warm != 0 {
		t.Errorf("warm Eval with shared table allocates %.1f allocs/op, want 0", warm)
	}

	own := testing.AllocsPerRun(10, func() {
		e := NewEvaluator()
		if v := e.Eval(s, p); v <= 0 {
			t.Fatal("bad makespan")
		}
	})
	shared := testing.AllocsPerRun(10, func() {
		e := NewEvaluator()
		e.SetFactorTable(tab)
		if v := e.Eval(s, p); v <= 0 {
			t.Fatal("bad makespan")
		}
	})
	if shared >= own {
		t.Errorf("shared-table construction costs %.1f allocs, self-built %.1f: want strictly fewer", shared, own)
	}
}

// TestEvaluatorColdAllocBudget bounds the number of allocations a
// fresh evaluator spends sizing itself. The flat arenas make this a
// small constant (a handful of backing arrays plus their row-view
// headers) instead of O(n) row allocations; the budget has headroom
// for runtime-internal noise but fails if per-row makes creep back in.
func TestEvaluatorColdAllocBudget(t *testing.T) {
	const budget = 24
	s, p := benchDeltaSetup(t, 700)
	allocs := testing.AllocsPerRun(10, func() {
		ev := NewEvaluator()
		if v := ev.Eval(s, p); v <= 0 {
			t.Fatal("bad makespan")
		}
	})
	if allocs > budget {
		t.Errorf("fresh evaluator Eval: %.1f allocs, budget %d", allocs, budget)
	}
}
