package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/failure"
)

// Strategy decides which tasks of a linearized workflow to
// checkpoint, returning the best schedule it can construct for the
// given order (the linearization is owned by the caller and must not
// be modified).
type Strategy interface {
	// Name is the paper's label (CkptNvr, CkptAlws, CkptW, CkptC,
	// CkptD, CkptPer).
	Name() string
	// Apply selects checkpoints for the given linearization and
	// returns the schedule plus its expected makespan.
	Apply(g *dag.Graph, plat failure.Platform, order []int, ev *core.Evaluator) (*core.Schedule, float64)
}

// NSweeper is a Strategy whose Apply is a search over checkpoint
// counts N. It exposes the search's building blocks — the sweep's N
// values, the per-N checkpoint mask, and the optional second-stage
// scan range — which the N-sweep kernel (Kernel) evaluates, so that
// external engines (internal/portfolio) can partition the sweep
// across workers while producing results bit-identical to the serial
// Apply, itself a caller of the same kernel (see sweepApply).
type NSweeper interface {
	Strategy
	// Sweep returns the first-stage checkpoint counts for an n-task
	// workflow (nil when n leaves nothing to search; Apply then falls
	// back to CkptNvr).
	Sweep(n int) []int
	// NewMasker returns a function writing the strategy's checkpoint
	// mask for a given N into mask. The masker may keep incremental
	// state tied to the slice: always pass the same mask slice,
	// initially all false.
	NewMasker(g *dag.Graph, order []int) func(N int, mask []bool)
	// SecondStage returns the inclusive range [lo, hi] of checkpoint
	// counts to scan exhaustively around the winning first-stage
	// count bestN, or an empty range (lo > hi) when the strategy has
	// no second stage or the first stage was already exhaustive. The
	// caller skips N == bestN, which was already evaluated.
	SecondStage(n, bestN int, ns []int) (lo, hi int)
}

// BoundedSweeper is implemented by NSweepers that can cheaply
// lower-bound the expected makespan of every candidate of their
// N-sweep. The kernel uses the bound to skip candidates that provably
// lose to an already-evaluated incumbent (core.Prunable): the bound
// of a pruned N exceeds the incumbent's value by more than the
// core.PruneSlack floating-point margin, so the candidate could not
// have beaten it under CanonicalBetter (strictly larger value loses
// regardless of tie-breaks). Pruning therefore never changes the
// canonical winner, which the pruned-vs-unpruned differential
// harnesses pin.
type BoundedSweeper interface {
	NSweeper
	// NewBounder returns bound(N) ≤ the expected makespan of the
	// strategy's schedule at checkpoint count N on (g, plat, order),
	// valid for every N the sweep visits. bound must be O(1) per call
	// after O(n log n) setup.
	NewBounder(g *dag.Graph, plat failure.Platform, order []int) (bound func(N int) float64)
}

// CanonicalBetter reports whether candidate 1 (expected makespan v1,
// c1 checkpoints, index i1) beats candidate 2 under the total order
// of the portfolio determinism contract: lower expected makespan,
// then fewer checkpoints, then lower index. The index is the
// checkpoint count N inside a sweep and the heuristic position across
// a portfolio. Because the order is total over distinct indices, any
// partition of a candidate set reduces to the same winner regardless
// of evaluation or merge order — the property that makes the parallel
// portfolio engine bit-deterministic for every worker count.
func CanonicalBetter(v1 float64, c1, i1 int, v2 float64, c2, i2 int) bool {
	//wfvet:floatcmp CanonicalBetter IS the sanctioned tie-break comparator; this != guards its ordering branch
	if v1 != v2 {
		return v1 < v2
	}
	if c1 != c2 {
		return c1 < c2
	}
	return i1 < i2
}

// SweepNs returns the checkpoint counts that the N-searching
// strategies explore for an n-task workflow: the paper's exhaustive
// N = 1..n−1 when grid ≤ 0 or grid ≥ n−1, otherwise approximately
// `grid` values spread uniformly over [1, n−1] — always including
// both endpoints, for every grid ≥ 1 — the -quick mode of the
// experiment harness. The result is strictly increasing.
func SweepNs(n, grid int) []int {
	if n <= 1 {
		return nil
	}
	max := n - 1
	if grid <= 0 || grid >= max {
		ns := make([]int, max)
		for i := range ns {
			ns[i] = i + 1
		}
		return ns
	}
	// Past the exhaustive branch max ≥ 2, so a single grid point can
	// never cover both endpoints; degrade grid == 1 to the endpoint
	// pair. (The interpolation below divides by grid−1, which for
	// grid == 1 produced int(NaN) — a conversion with undefined
	// behaviour in Go — and dropped the upper endpoint.)
	if grid == 1 {
		return []int{1, max}
	}
	seen := make(map[int]bool, grid)
	ns := make([]int, 0, grid)
	for i := 0; i < grid; i++ {
		v := 1 + int(math.Round(float64(i)*float64(max-1)/float64(grid-1)))
		if v < 1 {
			v = 1
		}
		if v > max {
			v = max
		}
		if !seen[v] {
			seen[v] = true
			ns = append(ns, v)
		}
	}
	return ns
}

// CkptNvr never checkpoints (baseline).
type CkptNvr struct{}

// Name implements Strategy.
func (CkptNvr) Name() string { return "CkptNvr" }

// Apply implements Strategy.
func (CkptNvr) Apply(g *dag.Graph, plat failure.Platform, order []int, ev *core.Evaluator) (*core.Schedule, float64) {
	s := &core.Schedule{Graph: g, Order: order, Ckpt: make([]bool, g.N())}
	return s, ev.Eval(s, plat)
}

// CkptAlws checkpoints every task (baseline).
type CkptAlws struct{}

// Name implements Strategy.
func (CkptAlws) Name() string { return "CkptAlws" }

// Apply implements Strategy.
func (CkptAlws) Apply(g *dag.Graph, plat failure.Platform, order []int, ev *core.Evaluator) (*core.Schedule, float64) {
	mask := make([]bool, g.N())
	for i := range mask {
		mask[i] = true
	}
	s := &core.Schedule{Graph: g, Order: order, Ckpt: mask}
	return s, ev.Eval(s, plat)
}

// rankedStrategy checkpoints the top-N tasks of a fixed ranking and
// searches N exhaustively (or over a grid) with the evaluator.
type rankedStrategy struct {
	name string
	grid int
	rank func(g *dag.Graph) []int // task IDs, best-to-checkpoint first
}

func (r rankedStrategy) Name() string { return r.name }

// Sweep implements NSweeper.
func (r rankedStrategy) Sweep(n int) []int { return SweepNs(n, r.grid) }

// NewMasker implements NSweeper: the mask for N is the top-N prefix
// of the fixed ranking, adjusted incrementally between calls.
func (r rankedStrategy) NewMasker(g *dag.Graph, order []int) func(N int, mask []bool) {
	n := g.N()
	ranked := r.rank(g)
	if len(ranked) != n {
		panic(fmt.Sprintf("sched: ranking returned %d of %d tasks", len(ranked), n))
	}
	prev := 0
	return func(N int, mask []bool) {
		for ; prev < N; prev++ {
			mask[ranked[prev]] = true
		}
		for ; prev > N; prev-- {
			mask[ranked[prev-1]] = false
		}
	}
}

// SecondStage implements NSweeper: grid searches exhaustively scan
// the gap around the best grid point — the makespan is close to
// unimodal in N, so this recovers most of the exhaustive search's
// quality at a fraction of its cost.
func (r rankedStrategy) SecondStage(n, bestN int, ns []int) (lo, hi int) {
	if r.grid <= 0 || len(ns) < 2 {
		return 0, -1
	}
	lo, hi = 1, n-1
	for i, N := range ns {
		if N == bestN {
			if i > 0 {
				lo = ns[i-1] + 1
			}
			if i < len(ns)-1 {
				hi = ns[i+1] - 1
			}
			break
		}
	}
	return lo, hi
}

// NewBounder implements BoundedSweeper: the mask for count N is the
// top-N prefix of the fixed ranking (independent of the
// linearization), so core.MaskBound reduces to Base plus a prefix sum
// of the ranked per-task increments — O(1) per N.
func (r rankedStrategy) NewBounder(g *dag.Graph, plat failure.Platform, order []int) func(N int) float64 {
	mb := core.NewMaskBound(g, plat)
	ranked := r.rank(g)
	pre := make([]float64, len(ranked)+1)
	pre[0] = mb.Base
	for j, id := range ranked {
		pre[j+1] = pre[j] + mb.Inc[id]
	}
	return func(N int) float64 { return pre[N] }
}

func (r rankedStrategy) Apply(g *dag.Graph, plat failure.Platform, order []int, ev *core.Evaluator) (*core.Schedule, float64) {
	return sweepApply(r, g, plat, order, ev)
}

// rankBy returns task IDs sorted by the given less function with ID
// tie-breaking.
func rankBy(g *dag.Graph, better func(a, b int) (bool, bool)) []int {
	ids := make([]int, g.N())
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(x, y int) bool {
		b, eq := better(ids[x], ids[y])
		if !eq {
			return b
		}
		return ids[x] < ids[y]
	})
	return ids
}

// NewCkptW builds the CkptW strategy: checkpoint first the tasks with
// the largest computational weight w (their loss is the most
// expensive to recompute). grid ≤ 0 searches every N.
func NewCkptW(grid int) Strategy {
	return rankedStrategy{name: "CkptW", grid: grid, rank: func(g *dag.Graph) []int {
		return rankBy(g, func(a, b int) (bool, bool) {
			wa, wb := g.Weight(a), g.Weight(b)
			return wa > wb, math.Float64bits(wa) == math.Float64bits(wb)
		})
	}}
}

// NewCkptC builds the CkptC strategy: checkpoint first the tasks with
// the smallest checkpointing cost c.
func NewCkptC(grid int) Strategy {
	return rankedStrategy{name: "CkptC", grid: grid, rank: func(g *dag.Graph) []int {
		return rankBy(g, func(a, b int) (bool, bool) {
			ca, cb := g.CkptCost(a), g.CkptCost(b)
			return ca < cb, math.Float64bits(ca) == math.Float64bits(cb)
		})
	}}
}

// NewCkptD builds the CkptD strategy: checkpoint first the tasks
// whose direct successors carry the most weight (d_i = out-weight),
// i.e. whose loss endangers the most downstream work.
func NewCkptD(grid int) Strategy {
	return rankedStrategy{name: "CkptD", grid: grid, rank: func(g *dag.Graph) []int {
		return rankBy(g, func(a, b int) (bool, bool) {
			da, db := g.OutWeight(a), g.OutWeight(b)
			return da > db, math.Float64bits(da) == math.Float64bits(db)
		})
	}}
}

// CkptPer is the periodic-checkpointing strategy transplanted from
// divisible-load analysis (Young/Daly): given the linearization and a
// checkpoint count N, it checkpoints the task that completes the
// earliest after each time threshold x·W/N (x = 1..N−1) in a
// failure-free execution, then searches N like the other strategies.
// The paper shows it behaves poorly precisely because it ignores the
// DAG's structure.
type CkptPer struct {
	// Grid bounds the N search as in SweepNs (≤ 0: exhaustive).
	Grid int
}

// Name implements Strategy.
func (CkptPer) Name() string { return "CkptPer" }

// Sweep implements NSweeper.
func (c CkptPer) Sweep(n int) []int { return SweepNs(n, c.Grid) }

// NewMasker implements NSweeper: the mask for N checkpoints the task
// completing the earliest after each time threshold x·W/N in a
// failure-free execution of the linearization.
func (CkptPer) NewMasker(g *dag.Graph, order []int) func(N int, mask []bool) {
	n := g.N()
	// cum[p] = failure-free completion time of the task at position p.
	cum := make([]float64, n)
	acc := 0.0
	for p, id := range order {
		acc += g.Weight(id)
		cum[p] = acc
	}
	total := acc
	return func(N int, mask []bool) {
		for i := range mask {
			mask[i] = false
		}
		pos := 0
		for x := 1; x <= N-1; x++ {
			threshold := float64(x) * total / float64(N)
			for pos < n && cum[pos] < threshold {
				pos++
			}
			if pos < n {
				mask[order[pos]] = true
			}
		}
	}
}

// SecondStage implements NSweeper: CkptPer has no second stage (its
// mask is not a ranking prefix, so the unimodality argument behind
// the gap scan does not apply).
func (CkptPer) SecondStage(int, int, []int) (lo, hi int) { return 0, -1 }

// Apply implements Strategy.
func (c CkptPer) Apply(g *dag.Graph, plat failure.Platform, order []int, ev *core.Evaluator) (*core.Schedule, float64) {
	return sweepApply(c, g, plat, order, ev)
}
