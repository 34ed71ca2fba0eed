package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dag"
	"repro/internal/failure"
)

// DeltaEvaluator is the incremental companion of Evaluator: it keeps
// the full Theorem-3 state of the last evaluated schedule — the
// lost-set matrix, the factorized probability products and the
// property-C conditional expectations — and, when asked to evaluate a
// schedule that differs from the loaded one only in its checkpoint
// mask, recomputes only the state the flipped bits can reach. The
// result is bit-identical (math.Float64bits) to a cold
// Evaluator.Eval of the same schedule; the differential fuzz and
// property tests in delta_test.go enforce this on every step.
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
//   - The factorized makespan pass (see Evaluator.expectedMakespan)
//     calls a transcendental only per lost entry, not per (k, i) pair,
//     so re-evaluation recomputes exp/expm1 only for the changed
//     entries, the changed diagonals and the flipped column, and
//     rebuilds the remaining suffix with plain multiplications. Rows
//     i < j of the accumulators are reused as stored.
//
// A full sweep over checkpoint counts N = 1..n−1 of a ranked strategy
// (adjacent masks differ by one bit) therefore costs O(n²) amortized
// flops plus a near-constant number of transcendentals per step,
// against O(n²) transcendentals per step for cold evaluation.
//
// # Memory
//
// The caches are six (n+1)×(n+1) float64 matrices plus the int32
// placedAt matrix — each a single flat arena, so a resize costs O(1)
// allocations and row-major passes walk memory linearly — ≈ 52·n²
// bytes (26 MB at n = 700, 208 MB at n = 2000) per evaluator. (The
// sixth matrix, condv, trades that memory for one fewer stream in the
// accumulate inner loop — the measured hot spot at n = 2000.) Engines
// that lease one evaluator per worker should budget accordingly at
// very large n.
//
// # Ownership
//
// Like Evaluator, a DeltaEvaluator is owned by one goroutine at a
// time (see the ownership rule on Evaluator). The pooled engines
// obtain one through Evaluator.Delta, which ties it to the parent's
// lease.
type DeltaEvaluator struct {
	schedState

	graph  *dag.Graph
	plat   failure.Platform
	order  []int  // copy of the loaded linearization
	mask   []bool // current checkpoint mask, task-id space
	pos    []int  // task id -> 1-based position
	n      int
	coef   float64 // fl(1/λ + D), the grouping ExpectedTime uses
	loaded bool
	value  float64

	// Theorem-3 state, persisted between evaluations.
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
	pz             []float64
	exRow          []float64 // E[X_i]
	totPrefix      []float64 // Σ_{i'≤i} E[X_i']

	// Scratch.
	flips      []int // pending flipped positions, ascending
	rowBuf     []float64
	chgK, chgT []int // changed lost entries (k, t) of this batch
	diagChg    []int // changed diagonal positions
	minChg     []int // per row: first changed window-factor position

	// cold evaluates schedules whose mask diverged too far from the
	// loaded one for incremental maintenance to win; the loaded state
	// is left untouched (still valid for its recorded mask).
	// coldStreak counts consecutive such fallbacks: the second one in
	// a row reloads instead, so a sweep that moved to a genuinely new
	// mask neighbourhood (say the next strategy's ranking) pays one
	// cold evaluation and is then incremental again, while state from
	// an isolated outlier probe is kept.
	cold       *Evaluator
	coldStreak int

	// table caches the (graph, platform) transcendental factors,
	// shared with the cold parent when pooled (see ensureTable).
	table *FactorTable
}

// NewDeltaEvaluator returns an empty incremental evaluator; the first
// EvalSchedule call performs a full (cold-equivalent) evaluation and
// fills the caches.
func NewDeltaEvaluator() *DeltaEvaluator { return &DeltaEvaluator{} }

// Delta returns the evaluator's lazily created incremental companion.
// The companion has fully independent buffers — interleaving e.Eval
// and e.Delta().EvalSchedule calls is safe (within one goroutine) —
// and it lives on the parent so that engines which lease whole
// Evaluators from a pool (internal/portfolio) get an incremental
// evaluator under the same lease without any signature change.
func (e *Evaluator) Delta() *DeltaEvaluator {
	if e.delta == nil {
		e.delta = NewDeltaEvaluator()
		// Far-diverged masks fall back to the parent — same goroutine,
		// sequential use, so sharing its buffers is safe and avoids a
		// second O(n²) lost matrix.
		e.delta.cold = e
	}
	return e.delta
}

// EvalSchedule computes the expected makespan of s on platform p,
// bit-identical to Evaluator.Eval(s, p). If s shares the graph,
// linearization and platform of the previously evaluated schedule,
// only the state reachable from the flipped checkpoint bits is
// recomputed; otherwise a full evaluation reloads the caches. Like
// Eval it panics on invalid schedules (call Validate for user input).
//
// Graph identity is by pointer: mutating a graph's tasks or edges
// (e.g. ScaleCkptCosts) between evaluations that share it would make
// the cached state stale — mutate before the first evaluation, or
// call Invalidate after. The schedule's Order and Ckpt slices are
// compared by content, so reusing or mutating those is always safe.
func (d *DeltaEvaluator) EvalSchedule(s *Schedule, p failure.Platform) float64 {
	g := s.Graph
	n := g.N()
	if n == 0 {
		return 0
	}
	if p.FailureFree() {
		// Mirror Evaluator.Eval's λ = 0 short-circuit exactly.
		total := 0.0
		for id := 0; id < n; id++ {
			total += g.Weight(id)
			if s.Ckpt[id] {
				total += g.CkptCost(id)
			}
		}
		return total
	}
	if !d.matches(s, p) {
		return d.loadFull(s, p)
	}
	diffs := 0
	for id := 0; id < n; id++ {
		if s.Ckpt[id] != d.mask[id] {
			diffs++
		}
	}
	if diffs == 0 {
		d.coldStreak = 0
		return d.value
	}
	if 2*diffs >= n {
		// The masks share too little for incremental maintenance to
		// win: evaluate cold, leaving the loaded state untouched (it
		// remains valid for its recorded mask, so a later nearby mask
		// still gets the fast path) — unless the previous evaluation
		// already fell back, in which case the sweep has moved on and
		// we reload around the new mask. Identical bits either way.
		if d.coldStreak == 0 {
			d.coldStreak = 1
			if d.cold == nil {
				d.cold = NewEvaluator()
			}
			return d.cold.Eval(s, p)
		}
		d.coldStreak = 0
		return d.loadFull(s, p)
	}
	d.coldStreak = 0
	d.flips = d.flips[:0]
	for id := 0; id < n; id++ {
		if s.Ckpt[id] != d.mask[id] {
			d.mask[id] = s.Ckpt[id]
			j := d.pos[id]
			d.ckpt[j] = s.Ckpt[id]
			d.flips = append(d.flips, j)
		}
	}
	return d.applyFlips()
}

// matches reports whether s is the loaded schedule modulo its
// checkpoint mask.
func (d *DeltaEvaluator) matches(s *Schedule, p failure.Platform) bool {
	if !d.loaded || d.graph != s.Graph || d.plat != p || len(d.order) != len(s.Order) {
		return false
	}
	for i, id := range s.Order {
		if d.order[i] != id {
			return false
		}
	}
	return true
}

// Invalidate drops the loaded schedule, forcing the next EvalSchedule
// to evaluate cold.
func (d *DeltaEvaluator) Invalidate() {
	d.loaded = false
	// Factor tables key on graph identity; Invalidate signals the
	// graph may have been mutated in place, so drop the table too.
	d.table = nil
	if d.cold != nil {
		d.cold.table = nil
	}
}

// resizeDelta prepares all buffers for an n-task schedule.
func (d *DeltaEvaluator) resizeDelta(n int) {
	d.resizeState(n)
	if cap(d.pz) < n+1 {
		d.lost = arenaF64(n+1, n+1)
		d.placedAt = arenaI32(n+1, n+1)
		d.bf = arenaF64(n+1, n+1)
		d.pp = arenaF64(n+1, n+1)
		d.er2 = arenaF64(n+1, n+1)
		d.cm = arenaF64(n+1, n+1)
		d.condv = arenaF64(n+1, n+1)
		d.fw = make([]float64, n+1)
		d.fc = make([]float64, n+1)
		d.er0 = make([]float64, n+1)
		d.cm0 = make([]float64, n+1)
		d.cm0c = make([]float64, n+1)
		d.p0 = make([]float64, n+1)
		d.probSum = make([]float64, n+1)
		d.exSum = make([]float64, n+1)
		d.pz = make([]float64, n+1)
		d.exRow = make([]float64, n+1)
		d.totPrefix = make([]float64, n+1)
		d.pos = make([]int, n)
		d.rowBuf = make([]float64, n+1)
		d.minChg = make([]int, n+1)
		// Scratch is sized for the hot path up front — a single-bit
		// flip of a ranked-prefix mask changes about one lost entry per
		// affected row — so flips never grow a slice mid-evaluation:
		// the flip path is zero-alloc (pinned by TestDeltaFlipAllocFree).
		// Pathological flips that change more than 2(n+1) entries fall
		// back to append's amortized growth, which only costs memory.
		d.flips = make([]int, 0, n+1)
		d.diagChg = make([]int, 0, n+1)
		d.chgK = make([]int, 0, 2*(n+1))
		d.chgT = make([]int, 0, 2*(n+1))
	}
	d.lost = d.lost[:n+1]
	d.placedAt = d.placedAt[:n+1]
	d.bf = d.bf[:n+1]
	d.pp = d.pp[:n+1]
	d.er2 = d.er2[:n+1]
	d.cm = d.cm[:n+1]
	d.condv = d.condv[:n+1]
	d.fw = d.fw[:n+1]
	d.fc = d.fc[:n+1]
	d.er0 = d.er0[:n+1]
	d.cm0 = d.cm0[:n+1]
	d.cm0c = d.cm0c[:n+1]
	d.p0 = d.p0[:n+1]
	d.probSum = d.probSum[:n+1]
	d.exSum = d.exSum[:n+1]
	d.pz = d.pz[:n+1]
	d.exRow = d.exRow[:n+1]
	d.totPrefix = d.totPrefix[:n+1]
	d.pos = d.pos[:n]
	d.rowBuf = d.rowBuf[:n+1]
	d.minChg = d.minChg[:n+1]
}

// loadFull performs a cold-equivalent evaluation of s, rebuilding
// every cache, and returns the expected makespan.
func (d *DeltaEvaluator) loadFull(s *Schedule, p failure.Platform) float64 {
	g := s.Graph
	n := g.N()
	d.resizeDelta(n)
	d.graph = g
	d.plat = p
	d.n = n
	d.order = append(d.order[:0], s.Order...)
	d.mask = append(d.mask[:0], s.Ckpt...)
	d.posBuf = g.PositionsInto(s.Order, d.posBuf)
	for id := 0; id < n; id++ {
		d.pos[id] = d.posBuf[id] + 1
	}
	d.loadSchedule(s)

	lambda := p.Lambda
	// Schedule-independent transcendentals come permuted from the
	// factor table (bit-identical to the inline math.Exp/Expm1 calls
	// this loop used to make — see FactorTable).
	tab := d.ensureTable(g, p)
	d.coef = tab.coef
	for id := 0; id < n; id++ {
		i := d.pos[id]
		d.fw[i] = tab.fw[id]
		d.fc[i] = tab.fc[id]
		d.cm0[i] = tab.cm0[id]
		d.cm0c[i] = tab.cm0c[id]
	}

	for k := 1; k <= n; k++ {
		d.lostRow(k, n, d.lost[k], d.placedAt[k])
	}
	for k := 1; k <= n; k++ {
		row := d.lost[k]
		for i := k + 1; i <= n; i++ {
			d.bf[k][i] = math.Exp(-lambda * (row[i] + d.w[i]))
			d.refreshCond(k, i)
		}
	}
	for i := 1; i <= n; i++ {
		d.er0[i] = math.Exp(lambda*d.lost[i][i]) * d.coef
	}
	d.totPrefix[0] = 0
	for k := 0; k <= n; k++ {
		d.minChg[k] = 0 // every factor is fresh: rebuild all products
	}
	d.value = d.accumulate(1)
	d.loaded = true
	d.coldStreak = 0
	return d.value
}

// refreshCond recomputes the property-C factor caches of the (k, i)
// pair from the current lost entries and checkpoint flag, replicating
// failure.Platform.ExpectedTime's exact grouping.
func (d *DeltaEvaluator) refreshCond(k, i int) {
	lambda := d.plat.Lambda
	lostK := d.lost[k][i]
	wi := lostK + d.w[i]
	ck := 0.0
	if d.ckpt[i] {
		ck = d.c[i]
	}
	cmv := math.Expm1(lambda * (wi + ck))
	erv := math.Exp(lambda*d.recClamped(k, i)) * d.coef
	d.cm[k][i] = cmv
	d.er2[k][i] = erv
	if cmv == 0 {
		d.condv[k][i] = 0
	} else {
		d.condv[k][i] = erv * cmv
	}
}

// recClamped returns rec(k, i) = (W^i_i+R^i_i) − (W^i_k+R^i_k),
// clamped exactly as Evaluator.condExpected clamps it.
func (d *DeltaEvaluator) recClamped(k, i int) float64 {
	lostK := d.lost[k][i]
	lostI := d.lost[i][i]
	rec := lostI - lostK
	if rec < 0 {
		if rec < -1e-9*(1+lostI) {
			panic(fmt.Sprintf("core: negative recovery %v at i=%d k=%d", rec, i, k))
		}
		rec = 0
	}
	return rec
}

// cond returns E[X_i | Z^i_k] from the factor caches — bit-identical
// to Evaluator.condExpected (which computes fl(fl(e^{λrec}·coef)·cm)
// with an early 0 when the expm1 argument is zero).
func (d *DeltaEvaluator) cond(i, k int) float64 {
	if k == 0 {
		cmv := d.cm0[i]
		if d.ckpt[i] {
			cmv = d.cm0c[i]
		}
		if cmv == 0 {
			return 0
		}
		return d.er0[i] * cmv
	}
	return d.condv[k][i]
}

// applyFlips incrementally re-evaluates after the pending checkpoint
// flips and returns the new expected makespan.
func (d *DeltaEvaluator) applyFlips() float64 {
	n := d.n
	lambda := d.plat.Lambda
	sort.Ints(d.flips)
	dmin := d.flips[0]

	// Phase 1: lost-set maintenance. Rows k ≤ dmin read no flipped
	// flag; a row k > dmin changes only if some flipped position was
	// placed by the row's DFS (placedAt ≠ 0), and then only from the
	// earliest such placement point i* on: the DFS through i*−1 never
	// read a flipped flag, so its state is reconstructed from the
	// recorded placements and the traversal resumes mid-row.
	// Recomputed suffixes are diffed entry by entry so phase 2 touches
	// only genuinely changed state. minChg[k] tracks the first changed
	// window factor of each row — a flipped δ_t toggles the fc gate of
	// factor t for every row k < t, a changed entry (k, t) changes
	// bf[k][t] — so phase 3 can reuse stored running products strictly
	// before it.
	d.chgK = d.chgK[:0]
	d.chgT = d.chgT[:0]
	d.diagChg = d.diagChg[:0]
	for k := 0; k <= n; k++ {
		d.minChg[k] = n + 1
	}
	for k := dmin + 1; k <= n; k++ {
		pa := d.placedAt[k]
		iStar := n + 1
		for _, j := range d.flips {
			if j >= k {
				break // flips ascending; placements are < k
			}
			if p := int(pa[j]); p != 0 && p < iStar {
				iStar = p
			}
		}
		if iStar > n {
			continue // no flipped position was placed: row unchanged
		}
		// Prime the DFS status with the placements of i < i*, exactly
		// the state the full traversal would have at i*, and drop the
		// stale placements of i ≥ i* (the resumed DFS re-records them).
		d.stamp++
		stamp := d.stamp
		for j := 1; j < k; j++ {
			if p := pa[j]; p != 0 {
				if int(p) < iStar {
					d.st[j] = stamp
				} else {
					pa[j] = 0
				}
			}
		}
		d.lostRowFrom(k, n, iStar, stamp, d.rowBuf, pa)
		row := d.lost[k]
		for i := iStar; i <= n; i++ {
			// Bit-level change detection: the delta contract is
			// bit-identity with a cold evaluation, and `!=` on floats
			// would miss a +0/−0 flip and re-dirty NaNs forever.
			if math.Float64bits(row[i]) != math.Float64bits(d.rowBuf[i]) {
				row[i] = d.rowBuf[i]
				if i == k {
					d.diagChg = append(d.diagChg, k)
				} else {
					d.chgK = append(d.chgK, k)
					d.chgT = append(d.chgT, i)
					if i < d.minChg[k] {
						d.minChg[k] = i
					}
				}
			}
		}
	}
	// Fold the flipped fc gates into minChg: the first flip > k caps
	// row k's unchanged-product prefix (flips is ascending).
	idx := 0
	for k := 0; k <= n; k++ {
		for idx < len(d.flips) && d.flips[idx] <= k {
			idx++
		}
		if idx < len(d.flips) && d.flips[idx] < d.minChg[k] {
			d.minChg[k] = d.flips[idx]
		}
	}

	// Phase 2: factor maintenance — the only transcendentals of a
	// delta step. Entries first; diagonal columns after, since er2
	// depends on the (now final) diagonals; the flipped columns last
	// (cm depends on the flipped δ).
	for x, k := range d.chgK {
		t := d.chgT[x]
		d.bf[k][t] = math.Exp(-lambda * (d.lost[k][t] + d.w[t]))
		d.refreshCond(k, t)
	}
	for _, t0 := range d.diagChg {
		// A changed diagonal feeds rec(·, t0): refresh column t0 of
		// the recovery cache (the diagonal itself is not a window
		// factor — windows of row t0 start at t0+1 — and cm[k][t0]
		// reads lost[k][t0], not the diagonal).
		d.er0[t0] = math.Exp(lambda*d.lost[t0][t0]) * d.coef
		for k := 1; k < t0; k++ {
			erv := math.Exp(lambda*d.recClamped(k, t0)) * d.coef
			d.er2[k][t0] = erv
			if cmv := d.cm[k][t0]; cmv == 0 {
				d.condv[k][t0] = 0
			} else {
				d.condv[k][t0] = erv * cmv
			}
		}
	}
	for _, j := range d.flips {
		for k := 1; k < j; k++ {
			lostK := d.lost[k][j]
			wi := lostK + d.w[j]
			ck := 0.0
			if d.ckpt[j] {
				ck = d.c[j]
			}
			cmv := math.Expm1(lambda * (wi + ck))
			d.cm[k][j] = cmv
			if cmv == 0 {
				d.condv[k][j] = 0
			} else {
				d.condv[k][j] = d.er2[k][j] * cmv
			}
		}
	}

	// Phase 3: rebuild the accumulator suffix from the first flip.
	d.value = d.accumulate(dmin)
	d.flips = d.flips[:0]
	return d.value
}

// accumulate rebuilds probSum/exSum/pz/exRow/totPrefix for rows
// i ≥ dmin and returns the total expected makespan. It replays
// Evaluator.expectedMakespan's exact loop structure — k = 0 band
// first, then pushes in increasing k interleaved with row
// finalization — reading cached factors instead of calling
// transcendentals, so every accumulator receives the same additions
// in the same order and the result is bit-identical.
func (d *DeltaEvaluator) accumulate(dmin int) float64 {
	n := d.n
	if dmin < 1 {
		dmin = 1
	}
	for i := dmin; i <= n; i++ {
		d.probSum[i] = 0
		d.exSum[i] = 0
	}

	// k = 0 band: running product of per-task success factors.
	p0run := 1.0
	if dmin >= 2 {
		p0run = d.p0[dmin-1]
	}
	for i := dmin; i <= n; i++ {
		if i >= 2 {
			pr := p0run
			d.probSum[i] += pr
			d.exSum[i] += pr * d.cond(i, 0)
		}
		p0run *= d.fw[i]
		if d.ckpt[i] {
			p0run *= d.fc[i]
		}
		d.p0[i] = p0run
	}

	// k ≥ 1 pushes interleaved with finalization.
	for i := 1; i <= n; i++ {
		if i >= dmin {
			last := 1 - d.probSum[i]
			if last < 0 {
				last = 0
			} else if last > 1 {
				last = 1
			}
			d.exRow[i] = d.exSum[i] + last*d.cond(i, i-1)
			d.pz[i-1] = last
		}
		k := i - 1
		if k < 1 {
			continue
		}
		startIP := k + 2
		if dmin > startIP {
			startIP = dmin
		}
		if startIP > n {
			continue
		}
		// The running products are maintained even when pz[k] == 0
		// suppresses the contributions (as it does in the cold pass),
		// so a later evaluation can resume from a valid pp row.
		if d.pz[k] > 0 {
			d.pushRow(k, startIP)
		} else {
			d.maintainRow(k)
		}
	}

	run := 0.0
	if dmin >= 2 {
		run = d.totPrefix[dmin-1]
	}
	for i := dmin; i <= n; i++ {
		run += d.exRow[i]
		d.totPrefix[i] = run
	}
	return run
}

// pushRow accumulates row k's contributions into probSum/exSum for
// ip ≥ startIP. Stored running products strictly before the row's
// first changed factor (minChg[k]) are read back instead of
// recomputed — for a typical flip most of the row is in that phase —
// and the product tail from the changed factor on is rebuilt and
// stored for the next evaluation.
func (d *DeltaEvaluator) pushRow(k, startIP int) {
	n := d.n
	bfk, ppk, condk := d.bf[k], d.pp[k], d.condv[k]
	probSum, exSum := d.probSum, d.exSum
	_, _, _ = bfk[n], ppk[n], condk[n] // bounds hints
	_, _ = probSum[n], exSum[n]
	pzk := d.pz[k]
	b := d.minChg[k]
	// Phase 1: products through factor ip−1 < b are valid as stored.
	ip := startIP
	for ; ip <= n && ip-1 < b; ip++ {
		P := ppk[ip-1]
		if P == 0 {
			// Once a prefix product underflows to exact zero every
			// later product is zero too (factors are finite), so the
			// rest of the row contributes exactly +0.0 — cold
			// evaluation breaks at the same point.
			return
		}
		pr := P * pzk
		probSum[ip] += pr
		if cv := condk[ip]; cv != 0 {
			exSum[ip] += pr * cv
		}
	}
	if ip > n {
		return
	}
	// Phase 2: rebuild the product tail from the changed factor.
	P := 1.0
	if ip-2 >= k+1 {
		P = ppk[ip-2]
	}
	for ; ip <= n; ip++ {
		t := ip - 1
		P *= bfk[t]
		if d.ckpt[t] {
			P *= d.fc[t]
		}
		ppk[t] = P
		if P == 0 {
			for t2 := t + 1; t2 <= n-1; t2++ {
				ppk[t2] = 0
			}
			return
		}
		pr := P * pzk
		probSum[ip] += pr
		if cv := condk[ip]; cv != 0 {
			exSum[ip] += pr * cv
		}
	}
}

// maintainRow rebuilds row k's product tail from its first changed
// factor without accumulating, run when pz[k] == 0 suppresses the
// row's contributions (as it does in the cold pass) so that a later
// evaluation can still resume from a valid pp row.
func (d *DeltaEvaluator) maintainRow(k int) {
	n := d.n
	b := d.minChg[k]
	if b > n {
		return // no factor of this row changed
	}
	bfk, ppk := d.bf[k], d.pp[k]
	ip := b + 1
	if ip < k+2 {
		ip = k + 2
	}
	P := 1.0
	if ip-2 >= k+1 {
		P = ppk[ip-2]
	}
	for ; ip <= n; ip++ {
		t := ip - 1
		P *= bfk[t]
		if d.ckpt[t] {
			P *= d.fc[t]
		}
		ppk[t] = P
		if P == 0 {
			for t2 := t + 1; t2 <= n-1; t2++ {
				ppk[t2] = 0
			}
			return
		}
	}
}
