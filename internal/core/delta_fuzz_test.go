package core

import (
	"math"
	"testing"

	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/stats"
)

// FuzzDeltaEvaluator is the native differential fuzz harness of the
// incremental path: the fuzzer controls the DAG shape (via an rng
// seed), the failure regime and an arbitrary flip/rewrite script, and
// every step asserts that EvalSchedule's output is bit-identical to a
// full pass (Eval) on a second evaluator and agrees with the
// Algorithm-1 reference within tolerance. One opcode runs a full pass
// of another schedule on the same evaluator — a neighbouring
// linearization (refine's swap move) or a mask at least n/2 bits away
// — before the script continues on the original schedule, so the
// state one evaluator shares between full and incremental passes is
// exercised too. Run `go test -fuzz=FuzzDeltaEvaluator ./internal/core`
// to explore; the seed corpus below runs on every plain `go test`
// (including CI's -race pass).
func FuzzDeltaEvaluator(f *testing.F) {
	f.Add(uint64(1), uint64(3), []byte{0, 1, 2})
	f.Add(uint64(42), uint64(0), []byte{7, 7, 7, 7})
	f.Add(uint64(977), uint64(12), []byte{0xff, 0x80, 0x01, 0x40, 0x03})
	f.Add(uint64(31337), uint64(5), []byte{5, 250, 17, 99, 99, 0, 0, 128})
	f.Add(uint64(2024), uint64(4), []byte{3, 0xe8, 5, 9, 0xe9, 1, 0xec, 0xed, 4})
	f.Fuzz(func(t *testing.T, seed, regime uint64, script []byte) {
		r := rng.New(seed%1_000_000 + 1)
		n := 2 + r.Intn(30)
		g := randomDAG(r, n)
		order := identOrder(n)
		lambdas := []float64{0, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}
		p := failure.Platform{
			Lambda:   lambdas[regime%uint64(len(lambdas))],
			Downtime: float64(regime % 3),
		}
		mask := make([]bool, n)
		s := &Schedule{Graph: g, Order: order, Ckpt: mask}
		ev := NewEvaluator()
		full := NewEvaluator()
		check := func(step int, what string, s *Schedule, got float64) {
			t.Helper()
			want := full.Eval(s, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d (%s): %v (%016x) != full pass %v (%016x)",
					step, what, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if n <= 24 && !p.FailureFree() {
				// The O(n⁴) Algorithm-1 reference bounds fuzz cost; it
				// accumulates differently, so tolerance not bitwise.
				if ref := EvalReference(s, p); stats.RelDiff(got, ref) > 1e-9 {
					t.Fatalf("step %d (%s): %v vs reference %v (rel %g)",
						step, what, got, ref, stats.RelDiff(got, ref))
				}
			}
		}
		if len(script) > 48 {
			script = script[:48]
		}
		for step, b := range append([]byte{0}, script...) {
			switch {
			case step > 0 && b >= 0xf8:
				// Rare opcode: rewrite the whole mask from the byte.
				for i := range mask {
					mask[i] = (int(b)+i)%3 == 0
				}
			case step > 0 && b >= 0xf0:
				// Rare opcode: batch-flip a handful of bits.
				for e := 0; e < int(b%8)+2; e++ {
					mask[(int(b)*7+e*13)%n] = !mask[(int(b)*7+e*13)%n]
				}
			case step > 0 && b >= 0xe8:
				// Rare opcode: a full pass of another schedule on the
				// same evaluator, then back to the original one.
				other := &Schedule{Graph: g, Order: order, Ckpt: append([]bool(nil), mask...)}
				swapped := false
				if b%2 == 0 {
					other.Order, swapped = swapAdjacent(g, order, int(b))
				}
				if !swapped {
					// At least ⌈n/2⌉ bits away, so the next
					// EvalSchedule of the original must reload.
					for i := 0; i < (n+1)/2; i++ {
						other.Ckpt[i] = !other.Ckpt[i]
					}
				}
				check(step, "other schedule", other, ev.Eval(other, p))
			case step > 0:
				mask[int(b)%n] = !mask[int(b)%n]
			}
			check(step, "incremental", s, ev.EvalSchedule(s, p))
		}
	})
}
