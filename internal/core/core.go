// Package core implements the paper's central contribution
// (Theorem 3): a polynomial-time algorithm computing the expected
// makespan of a schedule — a linearization of a workflow DAG plus a
// set of checkpointed tasks — on a platform with exponentially
// distributed failures.
//
// Two implementations are provided. EvalReference is a literal
// transcription of Algorithm 1 (FindWikRik) with the n×n tab_k array,
// costing O(n³) per failure position k and O(n⁴) overall. Evaluator
// is an optimized, algebraically identical version that exploits the
// fact that, for a fixed k, every task enters the lost set T↓k_i of at
// most one i: a per-k status array replaces tab_k, each DAG edge is
// inspected O(1) times per k, and the probability products of
// properties A and B are running products of cached per-entry
// factors. A full pass costs O(n·(E+n)); the Evaluator keeps the
// pass's state, so a schedule that differs from the loaded one in a
// few checkpoint bits — each step of the Section 5 checkpoint-count
// searches — is re-evaluated incrementally, bit-identical to a full
// pass. That is what makes the searches tractable at the paper's
// largest instances (n = 700) and beyond.
package core

import (
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/failure"
)

// Schedule is a complete answer to DAG-ChkptSched for a given
// workflow: Order is a linearization of the DAG (Order[p] is the ID
// of the task executed at position p) and Ckpt[id] tells whether the
// output of task id is checkpointed right after the task completes.
type Schedule struct {
	Graph *dag.Graph
	Order []int
	Ckpt  []bool
}

// NewSchedule validates and returns a schedule. The order must be a
// linearization of g and ckpt must have one entry per task.
func NewSchedule(g *dag.Graph, order []int, ckpt []bool) (*Schedule, error) {
	s := &Schedule{Graph: g, Order: order, Ckpt: ckpt}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate checks the structural sanity of the schedule.
func (s *Schedule) Validate() error {
	if s.Graph == nil {
		return fmt.Errorf("core: schedule has no graph")
	}
	if err := s.Graph.Validate(); err != nil {
		return err
	}
	if len(s.Ckpt) != s.Graph.N() {
		return fmt.Errorf("core: checkpoint mask has %d entries for %d tasks", len(s.Ckpt), s.Graph.N())
	}
	if !s.Graph.IsLinearization(s.Order) {
		return fmt.Errorf("core: order is not a linearization of the DAG")
	}
	return nil
}

// NumCheckpointed returns the number of checkpointed tasks.
func (s *Schedule) NumCheckpointed() int {
	n := 0
	for _, b := range s.Ckpt {
		if b {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the schedule sharing the same graph.
func (s *Schedule) Clone() *Schedule {
	return &Schedule{
		Graph: s.Graph,
		Order: append([]int(nil), s.Order...),
		Ckpt:  append([]bool(nil), s.Ckpt...),
	}
}

// Eval computes the expected makespan of schedule s on platform p
// using a fresh evaluator. A fresh evaluator allocates the full
// Theorem-3 state, ≈52·(n+1)² bytes (26 MB at n = 700); callers that
// evaluate many schedules should reuse one Evaluator instead.
func Eval(s *Schedule, p failure.Platform) float64 {
	return NewEvaluator().Eval(s, p)
}

// Evaluator computes expected makespans by Theorem 3. It keeps the
// full state of the schedule it last loaded — the lost-set matrix, the
// factorized probability products and the property-C conditional
// expectations — so that EvalSchedule can re-evaluate a schedule that
// differs from the loaded one only in its checkpoint mask by
// recomputing just the state the flipped bits reach. Eval always runs
// the full pass. Both return the same bits (math.Float64bits) for the
// same schedule: the incremental path replays the full pass's
// additions in the same order, reading cached factors instead of
// recomputing them. The differential fuzz and property tests in
// delta_test.go check this on every step against a second evaluator,
// and EvalReference checks both independently.
//
// # Why flips are cheap
//
// Three structural facts bound the work of a flip at position j (all
// positions are 1-based indices into the linearization):
//
//   - Lost-set rows k ≤ j read only the checkpoint flags of positions
//     < k ≤ j, so they are byte-for-byte the same computation and are
//     reused verbatim.
//   - A row k > j can change only if position j was placed in one of
//     the row's lost sets T↓k_i by the defining DFS — the DFS reads a
//     position's flag only after placing it. The evaluator records,
//     per row, the i at which each position was placed (placedAt), so
//     unaffected rows are skipped with one lookup per flipped
//     position, and affected rows resume their DFS mid-row at the
//     earliest flipped placement point. Recomputed suffixes are
//     diffed entry by entry; in practice a flip changes about one
//     entry per affected row.
//   - The factorized makespan pass (see accumulate) calls a
//     transcendental only per lost entry, not per (k, i) pair, so
//     re-evaluation recomputes exp/expm1 only for the changed entries,
//     the changed diagonals and the flipped column, and rebuilds the
//     remaining suffix with plain multiplications. Rows i < j of the
//     accumulators are reused as stored.
//
// A full sweep over checkpoint counts N = 1..n−1 of a ranked strategy
// (adjacent masks differ by one bit) therefore costs O(n²) amortized
// flops plus a near-constant number of transcendentals per step,
// against O(n²) transcendentals per step for full passes.
//
// # Memory
//
// The state is six (n+1)×(n+1) float64 matrices plus the int32
// placedAt matrix, ≈52·(n+1)² bytes (26 MB at n = 700, 208 MB at
// n = 2000) per evaluator, one-shot Eval included. The matrices and
// the O(n) vectors are carved from a few shared arenas, so a fresh
// evaluator sizes itself in a small constant number of allocations,
// a warm one allocates nothing, and row-major passes walk memory
// linearly. (The sixth matrix, condv, trades memory for one fewer
// stream in the accumulate inner loop — the measured hot spot at
// n = 2000.) Engines that lease one evaluator per worker should
// budget accordingly at very large n.
//
// # Ownership rule
//
// An Evaluator is owned by exactly one goroutine at a time: every
// buffer is overwritten by each evaluation, so two goroutines sharing
// one evaluator silently corrupt each other's results (or trip the
// race detector). Parallel engines must give each worker its own
// evaluator — either one per goroutine for its lifetime (as
// internal/mc does via per-shard runners) or through a checked-out
// lease from a pool that hands any evaluator to at most one worker
// at a time (as internal/portfolio's evalPool enforces). Transferring
// an evaluator between goroutines is safe only across a
// happens-before edge (channel send, WaitGroup, pool mutex).
type Evaluator struct {
	graph  *dag.Graph
	plat   failure.Platform
	order  []int // copy of the loaded linearization
	pos    []int // task id -> 0-based position in order
	n      int
	coef   float64 // fl(1/λ + D), the grouping ExpectedTime uses
	loaded bool
	value  float64

	// The loaded schedule in position space, 1-based so the code
	// mirrors the paper's T_1..T_n notation (index 0 unused).
	w, c, r []float64
	ckpt    []bool
	// Predecessor positions in CSR layout: the predecessors of
	// position i are predAdj[predOff[i]:predOff[i+1]]. The flat layout
	// keeps the lost-set DFS on two contiguous arrays.
	predOff, predAdj []int32

	// Lost-set DFS scratch.
	st    []int   // per-row DFS status: stamp when placed
	stk   []int32 // DFS stack
	stamp int     // current row's placement stamp (strictly increasing)

	// lost[k][i] = W^i_k + R^i_k, the rebuild cost of T↓k_i.
	lost [][]float64
	// placedAt[k][j]: the i at which row k's DFS placed position j in
	// a lost set (0: never). A flip of j leaves row k unchanged when
	// placedAt[k][j] == 0, and leaves entries i < placedAt[k][j]
	// unchanged otherwise, so row recomputation resumes mid-row.
	placedAt [][]int32

	// Factor caches: every transcendental of the makespan pass, keyed
	// by the single lost entry / task constant it depends on.
	fw, fc    []float64   // e^{−λ w_i}, e^{−λ c_i}
	bf        [][]float64 // bf[k][t] = e^{−λ(lost[k][t]+w_t)}
	pp        [][]float64 // pp[k][t]: running product P(k,·) through factor t
	er2       [][]float64 // er2[k][i] = fl(e^{λ·rec(k,i)}·(1/λ+D))
	cm        [][]float64 // cm[k][i] = expm1(λ·((lost[k][i]+w_i)+δ_i c_i))
	condv     [][]float64 // condv[k][i] = E[X_i | Z^i_k]: 0 if cm==0, else fl(er2·cm)
	er0       []float64   // er2 for the k = 0 event (lostK = 0)
	cm0, cm0c []float64   // cm for k = 0 with δ_i = false / true
	p0        []float64   // p0[i]: k = 0 running product through position i

	// Row accumulators, persisted so the clean prefix is reused.
	probSum, exSum []float64
	pz             []float64 // pz[k] = P(Z^{k+1}_k)
	exRow          []float64 // E[X_i]
	totPrefix      []float64 // Σ_{i'≤i} E[X_i']

	// Flip scratch.
	flips      []int // pending flipped positions, ascending
	rowBuf     []float64
	chgK, chgT []int // changed lost entries (k, t) of this batch
	diagChg    []int // changed diagonal positions
	minChg     []int // per row: first changed window-factor position

	// The arenas the buffers above are carved from (see resize).
	f64  []float64
	rows [][]float64
	i32  []int32
	ints []int

	// table caches the (graph, platform) transcendental factors. It is
	// either installed by SetFactorTable (shared, read-only — the one
	// sanctioned piece of cross-evaluator state) or built lazily on the
	// first load of an instance and reused for every later load of the
	// same (graph, platform).
	table *FactorTable
}

// NewEvaluator returns an empty evaluator ready for use.
func NewEvaluator() *Evaluator { return &Evaluator{} }

// DeltaEvaluator aliases Evaluator for cmd/wfbench, whose source also builds against older trees.
type DeltaEvaluator = Evaluator

// NewDeltaEvaluator returns NewEvaluator(), for cmd/wfbench's source, which also builds against older trees.
func NewDeltaEvaluator() *DeltaEvaluator { return NewEvaluator() }

// Delta returns e, for cmd/wfbench's source, which also builds against older trees.
func (e *Evaluator) Delta() *DeltaEvaluator { return e }

// Eval computes the expected makespan of s on platform p by a full
// Theorem-3 pass, which also loads s for later EvalSchedule calls. It
// panics if the schedule is invalid (call Validate first for user
// input). For a failure-free platform (λ = 0) it returns
// Σ(w_i + δ_i c_i) and leaves the loaded state untouched.
func (e *Evaluator) Eval(s *Schedule, p failure.Platform) float64 {
	g := s.Graph
	n := g.N()
	if n == 0 {
		return 0
	}
	if p.FailureFree() {
		total := 0.0
		for id := 0; id < n; id++ {
			total += g.Weight(id)
			if s.Ckpt[id] {
				total += g.CkptCost(id)
			}
		}
		return total
	}
	return e.load(s, p)
}

// EvalSchedule computes the same value as Eval(s, p), reusing the
// loaded state: if s shares the graph, linearization and platform of
// the loaded schedule and differs from it in fewer than n/2 checkpoint
// bits, only the state reachable from the flipped bits is recomputed;
// otherwise it runs the full pass. Like Eval it panics on invalid
// schedules.
//
// Graph identity is by pointer: mutating a graph's tasks or edges
// (e.g. ScaleCkptCosts) between evaluations that share it would make
// the cached state stale — mutate before the first evaluation, or
// call Invalidate after. The schedule's Order and Ckpt slices are
// compared by content, so reusing or mutating those is always safe.
func (e *Evaluator) EvalSchedule(s *Schedule, p failure.Platform) float64 {
	if !e.matches(s, p) {
		return e.Eval(s, p)
	}
	e.flips = e.flips[:0]
	for j := 1; j <= e.n; j++ {
		if s.Ckpt[e.order[j-1]] != e.ckpt[j] {
			e.flips = append(e.flips, j)
		}
	}
	switch {
	case len(e.flips) == 0:
		return e.value
	case 2*len(e.flips) >= e.n:
		// Too little of the loaded state survives for maintenance to
		// win over a full pass.
		return e.load(s, p)
	}
	for _, j := range e.flips {
		e.ckpt[j] = !e.ckpt[j]
	}
	return e.applyFlips()
}

// matches reports whether s is the loaded schedule modulo its
// checkpoint mask. A failure-free or empty schedule never matches: Eval
// never loads one.
func (e *Evaluator) matches(s *Schedule, p failure.Platform) bool {
	if !e.loaded || e.graph != s.Graph || e.plat != p || len(e.order) != len(s.Order) {
		return false
	}
	for i, id := range s.Order {
		if e.order[i] != id {
			return false
		}
	}
	return true
}

// Invalidate drops the loaded schedule and the cached factor table, so
// the next evaluation recomputes everything: call it after mutating a
// graph the evaluator has seen.
func (e *Evaluator) Invalidate() {
	e.loaded = false
	e.table = nil
}

// Per-evaluator buffer counts of the float64 arena (see resize).
const (
	f64Vectors  = 15 // w, c, r, fw, fc, er0, cm0, cm0c, p0, probSum, exSum, pz, exRow, totPrefix, rowBuf
	f64Matrices = 6  // lost, bf, pp, er2, cm, condv
)

// grow returns buf resliced to size, reallocated only when its
// capacity is short.
func grow[T any](buf []T, size int) []T {
	if cap(buf) < size {
		return make([]T, size)
	}
	return buf[:size]
}

// take carves the next l elements, with capacity c, off the front of
// *arena.
func take[T any](arena *[]T, l, c int) []T {
	s := (*arena)[:l:c]
	*arena = (*arena)[c:]
	return s
}

// resize carves the buffers of an n-task schedule with m edges out
// of a few typed arenas, growing them only when the schedule is larger
// than any loaded before: a fresh evaluator sizes itself in a constant
// number of allocations, and a warm one in none. Contents are stale
// after a resize; load rewrites every entry it later reads.
func (e *Evaluator) resize(n, m int) {
	w := n + 1
	e.f64 = grow(e.f64, f64Matrices*w*w+f64Vectors*w)
	e.rows = grow(e.rows, f64Matrices*w)
	e.i32 = grow(e.i32, w*w+(w+1)+w+m)
	e.ints = grow(e.ints, 2*n+8*w)
	e.placedAt = grow(e.placedAt, w)
	e.ckpt = grow(e.ckpt, w)

	f, rows := e.f64, e.rows
	matrix := func() [][]float64 {
		mat := take(&rows, w, w)
		for k := range mat {
			mat[k] = take(&f, w, w)
		}
		return mat
	}
	e.lost, e.bf, e.pp = matrix(), matrix(), matrix()
	e.er2, e.cm, e.condv = matrix(), matrix(), matrix()
	for _, v := range []*[]float64{&e.w, &e.c, &e.r, &e.fw, &e.fc, &e.er0, &e.cm0, &e.cm0c,
		&e.p0, &e.probSum, &e.exSum, &e.pz, &e.exRow, &e.totPrefix, &e.rowBuf} {
		*v = take(&f, w, w)
	}

	i32 := e.i32
	for k := range e.placedAt {
		e.placedAt[k] = take(&i32, w, w)
	}
	e.predOff = take(&i32, w+1, w+1)
	e.stk = take(&i32, 0, w)
	e.predAdj = take(&i32, 0, m)

	ints := e.ints
	e.order = take(&ints, 0, n)
	e.pos = take(&ints, n, n)
	e.st = take(&ints, w, w)
	e.minChg = take(&ints, w, w)
	// Flip scratch is sized for the hot path up front — a single-bit
	// flip of a ranked-prefix mask changes about one lost entry per
	// affected row — so flips never grow a slice mid-evaluation: the
	// flip path is zero-alloc (pinned by TestDeltaFlipAllocFree).
	// Pathological flips that change more than 2(n+1) entries fall
	// back to append's amortized growth, which only costs memory.
	e.flips = take(&ints, 0, w)
	e.diagChg = take(&ints, 0, w)
	e.chgK = take(&ints, 0, 2*w)
	e.chgT = take(&ints, 0, 2*w)
}

// load runs the full Theorem-3 pass on s — lost sets, every factor
// cache, the accumulators — and returns the expected makespan. p must
// not be failure-free.
func (e *Evaluator) load(s *Schedule, p failure.Platform) float64 {
	e.loaded = false
	e.loadLost(s)
	n := e.n
	lambda := p.Lambda
	e.graph, e.plat = s.Graph, p
	// Schedule-independent transcendentals come permuted from the
	// factor table (see FactorTable).
	tab := e.ensureTable(s.Graph, p)
	e.coef = tab.coef
	for id, q := range e.pos {
		i := q + 1
		e.fw[i] = tab.fw[id]
		e.fc[i] = tab.fc[id]
		e.cm0[i] = tab.cm0[id]
		e.cm0c[i] = tab.cm0c[id]
	}
	for k := 1; k <= n; k++ {
		e.refreshEntries(k, k+1, n+1)
	}
	for i := 1; i <= n; i++ {
		e.er0[i] = math.Exp(lambda*e.lost[i][i]) * e.coef
	}
	e.totPrefix[0] = 0
	for k := 0; k <= n; k++ {
		e.minChg[k] = 0 // every factor is fresh: rebuild all products
	}
	e.value = e.accumulate(1)
	e.loaded = true
	return e.value
}

// loadLost converts s into position space and fills the lost-set
// matrix with its placement records.
func (e *Evaluator) loadLost(s *Schedule) {
	g := s.Graph
	n := g.N()
	e.resize(n, g.M())
	e.n = n
	e.order = append(e.order, s.Order...)
	e.pos = g.PositionsInto(s.Order, e.pos)
	e.predOff[0], e.predOff[1] = 0, 0 // position 0 unused
	for p, id := range s.Order {
		i := p + 1
		t := g.Task(id)
		e.w[i] = t.Weight
		e.c[i] = t.CkptCost
		e.r[i] = t.RecCost
		e.ckpt[i] = s.Ckpt[id]
		for _, q := range g.Preds(id) {
			e.predAdj = append(e.predAdj, int32(e.pos[q]+1))
		}
		e.predOff[i+1] = int32(len(e.predAdj))
	}
	e.stamp = 0
	for j := range e.st {
		e.st[j] = 0
	}
	for k := 1; k <= n; k++ {
		e.lostRow(k, n, e.lost[k], e.placedAt[k])
	}
}

// lostRow fills row[i] = W^i_k + R^i_k for i = k..n, the total
// rebuild cost of the tasks in T↓k_i (Definition 1): the predecessors
// of position i whose output was destroyed by a failure during X_k,
// is still needed by position i, and has not already been rebuilt for
// an intermediate position. Non-checkpointed members contribute their
// weight w_j (re-execution), checkpointed members their recovery cost
// r_j. placedAt[j] records the i at which position j was placed in
// the row's lost sets (0: never placed): a later flip of a position
// with placedAt 0 provably leaves the whole row unchanged (the DFS
// never read that position's checkpoint flag), and a flip of a placed
// position leaves every entry before its placement point unchanged.
func (e *Evaluator) lostRow(k, n int, row []float64, placedAt []int32) {
	// A fresh stamp per row replaces the O(n) status clear; the DFS
	// arithmetic (and hence every row value) is unchanged.
	e.stamp++
	for j := 1; j < k; j++ {
		placedAt[j] = 0
	}
	e.lostRowFrom(k, n, k, e.stamp, row, placedAt)
}

// lostRowFrom is lostRow's DFS restricted to i = startI..n: the caller
// guarantees that e.st marks exactly the positions placed while
// processing i < startI with the given stamp (for startI == k that is
// no positions). This is the single implementation of Algorithm 1's
// traversal — a full pass runs it whole, a flip resumes it mid-row —
// so both produce byte-identical rows by construction.
func (e *Evaluator) lostRowFrom(k, n, startI, stamp int, row []float64, placedAt []int32) {
	st := e.st
	for i := startI; i <= n; i++ {
		sum := 0.0
		// DFS from the predecessors of i through the
		// non-checkpointed closure restricted to positions < k. The
		// first level is inlined; the stack only holds expansions.
		stk := e.stk[:0]
		l := int32(i)
		for {
			for _, j := range e.predAdj[e.predOff[l]:e.predOff[l+1]] {
				if int(j) >= k {
					// Executed after the failure: its output is
					// in memory, the path is cut (Algorithm 1
					// marks tab 0 and does not recurse).
					continue
				}
				if st[j] == stamp {
					// Already placed in some T↓k_l (l ≤ i):
					// rebuilt at that point, output in memory.
					continue
				}
				st[j] = stamp
				placedAt[j] = int32(i)
				if e.ckpt[j] {
					sum += e.r[j]
				} else {
					sum += e.w[j]
					stk = append(stk, j)
				}
			}
			if len(stk) == 0 {
				break
			}
			l = stk[len(stk)-1]
			stk = stk[:len(stk)-1]
		}
		row[i] = sum
	}
	e.stk = e.stk[:0]
}
