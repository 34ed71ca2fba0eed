package core

import (
	"fmt"
	"math"
)

// This file holds the Theorem-3 pass over the loaded state: the
// property-C factor caches, the flip maintenance of applyFlips and the
// accumulation shared by full passes and flips (see Evaluator).

// refreshEntries recomputes every factor cache of the entries (k, i),
// lo ≤ i < hi, from the current lost entries and checkpoint flags: the
// window factor bf and the property-C factors cm, er2 and condv, the
// latter with failure.Platform.ExpectedTime's grouping
// fl(fl(e^{λ·rec}·coef)·cm).
func (e *Evaluator) refreshEntries(k, lo, hi int) {
	lambda := e.plat.Lambda
	row, bfk, cmk, er2k, condk := e.lost[k], e.bf[k], e.cm[k], e.er2[k], e.condv[k]
	for i := lo; i < hi; i++ {
		wi := row[i] + e.w[i]
		bfk[i] = math.Exp(-lambda * wi)
		ck := 0.0
		if e.ckpt[i] {
			ck = e.c[i]
		}
		cmv := math.Expm1(lambda * (wi + ck))
		erv := math.Exp(lambda*recovery(e.lost[i][i], row[i], i, k)) * e.coef
		cmk[i] = cmv
		er2k[i] = erv
		if cmv == 0 {
			condk[i] = 0
		} else {
			condk[i] = erv * cmv
		}
	}
}

// recovery returns rec(k, i) = lostI − lostK with lostI = W^i_i+R^i_i
// and lostK = W^i_k+R^i_k, the recovery term of property C.
// T↓k_i ⊆ T↓i_i guarantees rec ≥ 0; rounding noise is clamped to 0,
// anything larger panics.
func recovery(lostI, lostK float64, i, k int) float64 {
	rec := lostI - lostK
	if rec < 0 {
		return clampRecovery(rec, lostI, i, k)
	}
	return rec
}

// clampRecovery is recovery's rare path, kept out of line so that
// recovery inlines into the factor loops.
//
//go:noinline
func clampRecovery(rec, lostI float64, i, k int) float64 {
	if rec < -1e-9*(1+lostI) {
		panic(fmt.Sprintf("core: negative recovery %v at i=%d k=%d", rec, i, k))
	}
	return 0
}

// cond returns E[X_i | Z^i_k] (property C) from the factor caches;
// k = 0 denotes the no-failure-so-far event with empty lost sets. Like
// ExpectedTime it is 0 when the expm1 argument is zero.
func (e *Evaluator) cond(i, k int) float64 {
	if k == 0 {
		cmv := e.cm0[i]
		if e.ckpt[i] {
			cmv = e.cm0c[i]
		}
		if cmv == 0 {
			return 0
		}
		return e.er0[i] * cmv
	}
	return e.condv[k][i]
}

// applyFlips incrementally re-evaluates after the pending checkpoint
// flips and returns the new expected makespan.
func (e *Evaluator) applyFlips() float64 {
	n := e.n
	lambda := e.plat.Lambda
	dmin := e.flips[0]

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
	e.chgK = e.chgK[:0]
	e.chgT = e.chgT[:0]
	e.diagChg = e.diagChg[:0]
	for k := 0; k <= n; k++ {
		e.minChg[k] = n + 1
	}
	for k := dmin + 1; k <= n; k++ {
		pa := e.placedAt[k]
		iStar := n + 1
		for _, j := range e.flips {
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
		e.stamp++
		stamp := e.stamp
		for j := 1; j < k; j++ {
			if p := pa[j]; p != 0 {
				if int(p) < iStar {
					e.st[j] = stamp
				} else {
					pa[j] = 0
				}
			}
		}
		e.lostRowFrom(k, n, iStar, stamp, e.rowBuf, pa)
		row := e.lost[k]
		for i := iStar; i <= n; i++ {
			// Bit-level change detection: the contract is
			// bit-identity with a full pass, and `!=` on floats
			// would miss a +0/−0 flip and re-dirty NaNs forever.
			if math.Float64bits(row[i]) != math.Float64bits(e.rowBuf[i]) {
				row[i] = e.rowBuf[i]
				if i == k {
					e.diagChg = append(e.diagChg, k)
				} else {
					e.chgK = append(e.chgK, k)
					e.chgT = append(e.chgT, i)
					if i < e.minChg[k] {
						e.minChg[k] = i
					}
				}
			}
		}
	}
	// Fold the flipped fc gates into minChg: the first flip > k caps
	// row k's unchanged-product prefix (flips is ascending).
	idx := 0
	for k := 0; k <= n; k++ {
		for idx < len(e.flips) && e.flips[idx] <= k {
			idx++
		}
		if idx < len(e.flips) && e.flips[idx] < e.minChg[k] {
			e.minChg[k] = e.flips[idx]
		}
	}

	// Phase 2: factor maintenance — the only transcendentals of a
	// delta step. Entries first; diagonal columns after, since er2
	// depends on the (now final) diagonals; the flipped columns last
	// (cm depends on the flipped δ).
	for x, k := range e.chgK {
		t := e.chgT[x]
		e.refreshEntries(k, t, t+1)
	}
	for _, t0 := range e.diagChg {
		// A changed diagonal feeds rec(·, t0): refresh column t0 of
		// the recovery cache (the diagonal itself is not a window
		// factor — windows of row t0 start at t0+1 — and cm[k][t0]
		// reads lost[k][t0], not the diagonal).
		e.er0[t0] = math.Exp(lambda*e.lost[t0][t0]) * e.coef
		for k := 1; k < t0; k++ {
			erv := math.Exp(lambda*recovery(e.lost[t0][t0], e.lost[k][t0], t0, k)) * e.coef
			e.er2[k][t0] = erv
			if cmv := e.cm[k][t0]; cmv == 0 {
				e.condv[k][t0] = 0
			} else {
				e.condv[k][t0] = erv * cmv
			}
		}
	}
	for _, j := range e.flips {
		for k := 1; k < j; k++ {
			lostK := e.lost[k][j]
			wi := lostK + e.w[j]
			ck := 0.0
			if e.ckpt[j] {
				ck = e.c[j]
			}
			cmv := math.Expm1(lambda * (wi + ck))
			e.cm[k][j] = cmv
			if cmv == 0 {
				e.condv[k][j] = 0
			} else {
				e.condv[k][j] = e.er2[k][j] * cmv
			}
		}
	}

	// Phase 3: rebuild the accumulator suffix from the first flip.
	e.value = e.accumulate(dmin)
	e.flips = e.flips[:0]
	return e.value
}

// accumulate combines properties A, B and C of Theorem 3 into
// E[Σ X_i], rebuilding probSum/exSum/pz/exRow/totPrefix for rows
// i ≥ dmin (1 for a full pass) and reusing rows i < dmin as stored.
//
// # Factorized probability products
//
// Property A needs P(Z^i_k) = pz[k] · e^{−λ Σ_{t=k+1..i−1} A_t(k)}
// with A_t(k) = lost[k][t] + w_t + δ_t c_t. Instead of accumulating
// the exponent and calling Exp once per (k, i) pair, the probability
// is maintained as a running product of per-term factors
//
//	P(k, i) = Π_{t=k+1..i−1} e^{−λ(lost[k][t]+w_t)} · (δ_t ? e^{−λ c_t} : 1)
//
// which is algebraically identical (and no less accurate: the
// exponent would accumulate the same n rounding errors inside Exp's
// argument). Every transcendental then depends on a single lost-set
// entry or task constant, so the factors are cached (bf, fc, condv)
// and a flip re-derives the products with plain multiplications,
// calling Exp only for the entries it actually changes.
//
// The loop order is fixed: the k = 0 band first, then the k ≥ 1
// pushes in increasing k interleaved with row finalization, so every
// accumulator receives its additions in increasing k. A partial
// rebuild from dmin therefore performs exactly the additions of a
// full pass on rows i ≥ dmin, and the result is bit-identical.
func (e *Evaluator) accumulate(dmin int) float64 {
	n := e.n
	if dmin < 1 {
		dmin = 1
	}
	for i := dmin; i <= n; i++ {
		e.probSum[i] = 0
		e.exSum[i] = 0
	}

	// k = 0 band: running product of per-task success factors.
	p0run := 1.0
	if dmin >= 2 {
		p0run = e.p0[dmin-1]
	}
	for i := dmin; i <= n; i++ {
		if i >= 2 {
			pr := p0run
			e.probSum[i] += pr
			e.exSum[i] += pr * e.cond(i, 0)
		}
		p0run *= e.fw[i]
		if e.ckpt[i] {
			p0run *= e.fc[i]
		}
		e.p0[i] = p0run
	}

	// k ≥ 1 pushes interleaved with finalization.
	for i := 1; i <= n; i++ {
		if i >= dmin {
			last := 1 - e.probSum[i]
			if last < 0 {
				last = 0
			} else if last > 1 {
				last = 1
			}
			e.exRow[i] = e.exSum[i] + last*e.cond(i, i-1)
			e.pz[i-1] = last
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
		// suppresses the contributions, so a later evaluation can
		// resume from a valid pp row.
		if e.pz[k] > 0 {
			e.pushRow(k, startIP)
		} else {
			e.maintainRow(k)
		}
	}

	run := 0.0
	if dmin >= 2 {
		run = e.totPrefix[dmin-1]
	}
	for i := dmin; i <= n; i++ {
		run += e.exRow[i]
		e.totPrefix[i] = run
	}
	return run
}

// pushRow accumulates row k's contributions into probSum/exSum for
// ip ≥ startIP. Stored running products strictly before the row's
// first changed factor (minChg[k]) are read back instead of
// recomputed — for a typical flip most of the row is in that phase —
// and the product tail from the changed factor on is rebuilt and
// stored for the next evaluation.
func (e *Evaluator) pushRow(k, startIP int) {
	n := e.n
	bfk, ppk, condk := e.bf[k], e.pp[k], e.condv[k]
	probSum, exSum := e.probSum, e.exSum
	_, _, _ = bfk[n], ppk[n], condk[n] // bounds hints
	_, _ = probSum[n], exSum[n]
	pzk := e.pz[k]
	b := e.minChg[k]
	// Phase 1: products through factor ip−1 < b are valid as stored.
	ip := startIP
	for ; ip <= n && ip-1 < b; ip++ {
		P := ppk[ip-1]
		if P == 0 {
			// Once a prefix product underflows to exact zero every
			// later product is zero too (factors are finite), so the
			// rest of the row contributes exactly +0.0, as it does
			// when phase 2 stops at the same point.
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
		if e.ckpt[t] {
			P *= e.fc[t]
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
// row's contributions, so that a later evaluation can still resume
// from a valid pp row.
func (e *Evaluator) maintainRow(k int) {
	n := e.n
	b := e.minChg[k]
	if b > n {
		return // no factor of this row changed
	}
	bfk, ppk := e.bf[k], e.pp[k]
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
		if e.ckpt[t] {
			P *= e.fc[t]
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
