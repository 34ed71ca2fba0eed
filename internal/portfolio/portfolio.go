// Package portfolio is a deterministic parallel search engine for
// the paper's heuristic portfolio. The Section 5 heuristics — every
// linearization × checkpointing-strategy pair of sched.Paper14, each
// sweeping checkpoint counts N = 1..n−1 (or a grid) through the
// Theorem 3 evaluator — are embarrassingly parallel work over
// independent (heuristic, N-chunk) cells, yet used to run serially
// through one core.Evaluator, which capped experiments at the paper's
// n = 700. This engine fans the cells out over a worker pool, one
// pooled evaluator per worker (evaluators are stateful and must never
// be shared across goroutines — see the ownership rule in core's
// Evaluator docs), and makes n = 2000 sweeps tractable.
//
// # Determinism contract
//
// Mirroring internal/mc, the result is bit-identical for every
// Workers value. Each cell is a pure function of its inputs: it
// evaluates a fixed slice of one heuristic's N sweep with its own
// evaluator through sched.Kernel and reports the best (expected
// makespan, checkpoint count, N) candidate under
// sched.CanonicalBetter — a total order (lower makespan, then fewer
// checkpoints, then lower N / heuristic index), so reducing any
// partition of the candidates yields the same winner regardless of
// which worker ran which cell or in which order cells finished. The
// serial path is the same machinery with one worker, and Run with any
// worker count returns exactly what sched.RunAll returns (its
// sweepApply calls the same kernel), so schedules and expected
// makespans are byte-identical across worker counts — enforced by
// this package's property-based tests.
//
// # Optimality
//
// The engine searches the same space as the serial heuristics, so
// every guarantee carries over: the winner is never below
// core.LowerBound, and with Options.Refine enabled the refined winner
// stays within 2% of the brute-force optimum on exhaustively
// enumerable instances (n ≤ 8) and matches the Toueg–Babaoğlu chain
// optimum exactly on linear chains — both enforced by this package's
// adversarial tests against internal/bruteforce and internal/chains.
package portfolio

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/refine"
	"repro/internal/sched"
)

// DefaultChunkSize is the number of sweep N values per cell when
// Options.ChunkSize is unset: small enough to load-balance a pool on
// grid sweeps (~60 values), large enough that the per-cell masker
// setup (one O(n log n) ranking) is amortized on exhaustive sweeps.
const DefaultChunkSize = 32

// Options tunes one engine invocation. The zero value runs the full
// portfolio on all cores without refinement.
type Options struct {
	// Workers bounds pool parallelism (≤ 0: GOMAXPROCS). The result
	// does not depend on it.
	Workers int
	// ChunkSize is the number of sweep N values per cell (≤ 0:
	// DefaultChunkSize). The result does not depend on it either —
	// chunking only changes how the candidate set is partitioned.
	ChunkSize int
	// Refine hill-climbs every heuristic's winning schedule with
	// refine.ImproveWith before the final reduction, one parallel
	// cell per heuristic.
	Refine bool
	// RefineMaxEvals caps each refinement's evaluator calls (≤ 0:
	// refine's default of 50·n).
	RefineMaxEvals int
}

// Run evaluates every heuristic of hs on workflow g and platform plat
// and returns per-heuristic results in input order, exactly equal to
// sched.RunAll's output (plus refinement when Options.Refine is set)
// for every worker count. Pick the overall winner with Best.
func Run(hs []sched.Heuristic, g *dag.Graph, plat failure.Platform, opt Options) []sched.Result {
	tinf := g.TotalWeight()
	chunk := opt.ChunkSize
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	pool := newEvalPool()
	// One factor table per (graph, platform), shared by every leased
	// evaluator: the table is immutable after construction — the one
	// sanctioned piece of cross-evaluator state (see core.FactorTable)
	// — so no pooled worker recomputes the instance's transcendentals.
	pool.table = core.NewFactorTable(g, plat)

	// Linearizations and sweep kernels are cheap (O(n log n)) and
	// deterministic; build them once up front so every cell of a
	// heuristic shares them (cells only read them). Each heuristic
	// prunes against its own shared incumbent — never a
	// cross-heuristic one — because Run reports every heuristic's own
	// canonical winner, not just the portfolio's.
	orders := make([][]int, len(hs))
	kernels := make([]*sched.Kernel, len(hs)) // nil: opaque strategy, run Apply whole
	incs := make([]*sched.Incumbent, len(hs))
	for i, h := range hs {
		orders[i] = h.Lin.Linearize(g)
		incs[i] = sched.NewIncumbent()
		if sw, ok := h.Strat.(sched.NSweeper); ok {
			if k := sched.NewKernel(sw, g, plat, orders[i]); len(k.Stage1()) > 0 {
				kernels[i] = k
			}
		}
	}

	best := make([]sched.Candidate, len(hs))
	for i := range best {
		best[i] = sched.NoCandidate()
	}
	opaque := make([]*core.Schedule, len(hs))

	// Stage 1: the first-stage sweeps (and every opaque strategy),
	// chunked into spans.
	var spans []span
	for i, k := range kernels {
		if k == nil {
			spans = append(spans, span{h: i, key: -1})
			continue
		}
		spans = chunks(spans, i, k.Stage1(), chunk)
	}
	runSpans(pool, opt.Workers, spans, hs, g, plat, orders, kernels, incs, best, opaque)

	// Stage 2: grid sweeps exhaustively scan the gap around their
	// first-stage winner, as sched's serial sweepApply does. The scan
	// range depends on every stage-1 span of the heuristic, hence the
	// barrier between the stages.
	spans = spans[:0]
	for i, k := range kernels {
		if k != nil {
			spans = chunks(spans, i, k.Stage2(best[i].N), chunk)
		}
	}
	runSpans(pool, opt.Workers, spans, hs, g, plat, orders, kernels, incs, best, opaque)

	// Assemble per-heuristic results in input order.
	out := make([]sched.Result, len(hs))
	for i, h := range hs {
		s := opaque[i]
		if s == nil {
			s = &core.Schedule{Graph: g, Order: orders[i], Ckpt: best[i].Mask}
		}
		ratio := 0.0
		if tinf > 0 {
			ratio = best[i].Val / tinf
		}
		out[i] = sched.Result{Name: h.Name(), Schedule: s, Expected: best[i].Val, Ratio: ratio}
	}

	// Optional refinement pass: hill-climb every heuristic's winner,
	// one cell per heuristic. Refinement is deterministic given its
	// input schedule, so the contract is preserved.
	if opt.Refine {
		pool.forEach(opt.Workers, len(out), func(ev *core.Evaluator, i int) {
			res := refine.ImproveWith(out[i].Schedule, plat,
				refine.Options{MaxEvals: opt.RefineMaxEvals}, ev)
			if res.Expected < out[i].Expected {
				out[i].Schedule = res.Schedule
				out[i].Expected = res.Expected
				if tinf > 0 {
					out[i].Ratio = res.Expected / tinf
				}
			}
		})
	}
	return out
}

// chunks appends heuristic h's counts ns to spans in slices of at
// most size values.
func chunks(spans []span, h int, ns []int, size int) []span {
	for lo := 0; lo < len(ns); lo += size {
		hi := min(lo+size, len(ns))
		spans = append(spans, span{h: h, ns: ns[lo:hi], key: ns[lo]})
	}
	return spans
}

// spanResult pairs a completed span's candidate with its reduction
// key. Completion order varies with donation; the keys make the fold
// order canonical.
type spanResult struct {
	h, key int
	best   sched.Candidate
	s      *core.Schedule // opaque spans: the schedule Apply returned
}

// runSpans evaluates a batch of spans through the donating scheduler
// (queue.go) and merges the candidates into each heuristic's running
// best. Sweep spans run the heuristic's kernel against its shared
// incumbent; between evaluations a span hands the back half of its
// unevaluated counts to the scheduler whenever a worker is starving.
//
// The reduction is a canonical ordered fold: completed spans are
// collected with their (heuristic, N-range) keys, sorted, and merged
// in that fixed order. sched.CanonicalBetter is a total order, so the
// sort is not needed for correctness — but it makes the merge tree
// visibly independent of completion order, and it keeps the contract
// robust should the comparator ever lose totality.
func runSpans(pool *evalPool, workers int, spans []span, hs []sched.Heuristic,
	g *dag.Graph, plat failure.Platform, orders [][]int, kernels []*sched.Kernel,
	incs []*sched.Incumbent, best []sched.Candidate, opaque []*core.Schedule) {
	if len(spans) == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(spans) {
		workers = len(spans)
	}
	q := newSpanQueue(spans)

	var (
		resMu   sync.Mutex
		results []spanResult
	)
	worker := func(ev *core.Evaluator) {
		for {
			sp, ok := q.next()
			if !ok {
				return
			}
			if testSpanDelay != nil {
				testSpanDelay(sp.h, sp.key)
			}
			r := spanResult{h: sp.h, key: sp.key}
			if k := kernels[sp.h]; k == nil {
				s, v := hs[sp.h].Strat.Apply(g, plat, orders[sp.h], ev)
				r.best = sched.Candidate{Val: v, K: s.NumCheckpointed(), N: -1}
				r.s = s
			} else {
				r.best = k.Span(sp.ns, ev, incs[sp.h], func(back []int) bool {
					if len(back) < minSpan || !q.starving() {
						return false
					}
					q.donate(span{h: sp.h, ns: back, key: back[0]})
					return true
				})
			}
			resMu.Lock()
			results = append(results, r)
			resMu.Unlock()
			q.finish()
		}
	}
	if workers == 1 {
		// Serial path: same scheduler and lease discipline, no
		// goroutines (and no donation — nobody is ever starving).
		ev := pool.get()
		worker(ev)
		pool.put(ev)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ev := pool.get()
				defer pool.put(ev)
				worker(ev)
			}()
		}
		wg.Wait()
	}

	sort.Slice(results, func(a, b int) bool {
		if results[a].h != results[b].h {
			return results[a].h < results[b].h
		}
		return results[a].key < results[b].key
	})
	for _, r := range results {
		best[r.h].Merge(r.best)
		if r.s != nil {
			opaque[r.h] = r.s
		}
	}
}

// Best returns sched.Best(results): the canonical winner of a
// portfolio run — best expected makespan, then fewest checkpoints,
// then lowest heuristic index.
func Best(results []sched.Result) sched.Result { return sched.Best(results) }
