package core

import (
	"math"

	"repro/internal/failure"
)

// This file is a literal transcription of Algorithm 1 of the paper
// (procedure FindWikRik and its helper Traverse) plus the direct
// application of properties A, B, C of Theorem 3, without any of the
// optimizations used by Evaluator. It exists to certify the optimized
// evaluator: tests assert both produce identical W/R sets and
// makespans on every workload. Complexity: O(n³) per k, O(n⁴) per
// evaluation, exactly as stated in the paper.

// refTab values mirror the paper's tab_k entries.
const (
	refUnseen     = -1 // not yet studied
	refNotInSet   = 0  // ∃ i' ≤ i with T_j ∈ T↓k_{i'}, or boundary j ≥ k
	refInSetNCkpt = 1  // T_j ∈ T↓k_i, not checkpointed
	refInSetCkpt  = 2  // T_j ∈ T↓k_i, checkpointed
)

// refSchedule is the position-space view used by the reference
// implementation (1-based, mirroring T_1..T_n).
type refSchedule struct {
	n     int
	w     []float64
	c     []float64
	r     []float64
	ckpt  []bool
	preds [][]int
}

func newRefSchedule(s *Schedule) *refSchedule {
	g := s.Graph
	n := g.N()
	rs := &refSchedule{
		n:     n,
		w:     make([]float64, n+1),
		c:     make([]float64, n+1),
		r:     make([]float64, n+1),
		ckpt:  make([]bool, n+1),
		preds: make([][]int, n+1),
	}
	pos := g.Positions(s.Order)
	for p, id := range s.Order {
		i := p + 1
		t := g.Task(id)
		rs.w[i] = t.Weight
		rs.c[i] = t.CkptCost
		rs.r[i] = t.RecCost
		rs.ckpt[i] = s.Ckpt[id]
		for _, q := range g.Preds(id) {
			rs.preds[i] = append(rs.preds[i], pos[q]+1)
		}
	}
	return rs
}

// findWikRikReference implements procedure FindWikRik(k) of
// Algorithm 1, returning Wk and Rk indexed by position i (entries
// below k are zero).
func (rs *refSchedule) findWikRikReference(k int) (wk, rk []float64) {
	n := rs.n
	// tabk: (n+1)×(n+1) array initialized with −1 (index 0 unused).
	tab := make([][]int, n+1)
	for i := range tab {
		tab[i] = make([]int, n+1)
		for j := range tab[i] {
			tab[i][j] = refUnseen
		}
	}
	wk = make([]float64, n+1)
	rk = make([]float64, n+1)
	for i := k; i <= n; i++ {
		rs.traverseReference(i, i, k, tab)
		for j := 1; j <= k-1; j++ {
			switch tab[i][j] {
			case refInSetNCkpt:
				wk[i] += rs.w[j]
			case refInSetCkpt:
				rk[i] += rs.r[j]
			}
		}
	}
	return wk, rk
}

// traverseReference implements procedure Traverse(l, i, k, tab_k).
func (rs *refSchedule) traverseReference(l, i, k int, tab [][]int) {
	for _, j := range rs.preds[l] {
		switch tab[i][j] {
		case refNotInSet:
			// ∃ i' < i with T_j ∈ T↓k_{i'}: do nothing.
		case refInSetNCkpt, refInSetCkpt:
			// T_j ∈ T↓k_i, already studied: do nothing.
		case refUnseen:
			// T_j ∈ T↓k_i, not yet studied.
			for r := i + 1; r <= rs.n; r++ {
				tab[r][j] = refNotInSet // T_j ∈ T↓k_i ⇒ T_j ∉ T↓k_r
			}
			if j < k {
				if rs.ckpt[j] {
					tab[i][j] = refInSetCkpt
				} else {
					tab[i][j] = refInSetNCkpt
					rs.traverseReference(j, i, k, tab)
				}
			} else {
				tab[i][j] = refNotInSet
			}
		}
	}
}

// EvalReference computes the expected makespan exactly as Eval does,
// but using the verbatim Algorithm 1 for the T↓k_i sets and the
// direct (un-optimized) evaluation of properties A, B and C. Use it
// only in tests and for certification: it is O(n⁴).
func EvalReference(s *Schedule, p failure.Platform) float64 {
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
	rs := newRefSchedule(s)
	lambda := p.Lambda

	// lost[k][i] = W^i_k + R^i_k from the verbatim algorithm.
	lost := make([][]float64, n+1)
	lost[0] = make([]float64, n+1) // k=0: empty sets
	for k := 1; k <= n; k++ {
		wk, rk := rs.findWikRikReference(k)
		lost[k] = make([]float64, n+1)
		for i := k; i <= n; i++ {
			lost[k][i] = wk[i] + rk[i]
		}
	}

	scost := func(j int) float64 {
		v := rs.w[j]
		if rs.ckpt[j] {
			v += rs.c[j]
		}
		return v
	}
	// Property A exponent: S(k, i) = Σ_{j=k+1}^{i-1} (lost[k][j] + scost(j)).
	bigS := func(k, i int) float64 {
		s := 0.0
		for j := k + 1; j <= i-1; j++ {
			s += lost[k][j] + scost(j)
		}
		return s
	}
	condE := func(i, k int) float64 {
		rec := lost[i][i] - lost[k][i]
		if rec < 0 {
			rec = 0
		}
		ck := 0.0
		if rs.ckpt[i] {
			ck = rs.c[i]
		}
		return p.ExpectedTime(lost[k][i]+rs.w[i], ck, rec)
	}

	pz := make([]float64, n+1) // pz[k] = P(Z^{k+1}_k)
	total := 0.0
	for i := 1; i <= n; i++ {
		probSum := 0.0
		ex := 0.0
		for k := 0; k <= i-2; k++ {
			var pr float64
			if k == 0 {
				pr = math.Exp(-lambda * bigS(0, i))
			} else {
				pr = math.Exp(-lambda*bigS(k, i)) * pz[k]
			}
			probSum += pr
			ex += pr * condE(i, k)
		}
		last := 1 - probSum // property B
		if last < 0 {
			last = 0
		} else if last > 1 {
			last = 1
		}
		ex += last * condE(i, i-1)
		pz[i-1] = last
		total += ex
	}
	return total
}

// LostSetsReference exposes, for tests, the per-(k, i) rebuild costs
// W^i_k + R^i_k computed by the verbatim Algorithm 1. Entry [k][i]
// is meaningful for 1 ≤ k ≤ i ≤ n; row 0 is all zeros.
func LostSetsReference(s *Schedule) [][]float64 {
	rs := newRefSchedule(s)
	n := rs.n
	lost := make([][]float64, n+1)
	lost[0] = make([]float64, n+1)
	for k := 1; k <= n; k++ {
		wk, rk := rs.findWikRikReference(k)
		lost[k] = make([]float64, n+1)
		for i := k; i <= n; i++ {
			lost[k][i] = wk[i] + rk[i]
		}
	}
	return lost
}

// LostSets exposes the same matrix computed by the optimized
// traversal used by Evaluator, for cross-checking in tests.
func LostSets(s *Schedule) [][]float64 {
	n := s.Graph.N()
	e := NewEvaluator()
	e.loadLost(s)
	out := make([][]float64, n+1)
	out[0] = make([]float64, n+1)
	for k := 1; k <= n; k++ {
		out[k] = make([]float64, n+1)
		copy(out[k], e.lost[k][:n+1])
	}
	return out
}
