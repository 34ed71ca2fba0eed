package core

import (
	"math"

	"repro/internal/dag"
	"repro/internal/failure"
)

// FactorTable caches every transcendental of the makespan pass that
// depends only on the (graph, platform) pair — not on the schedule's
// linearization or checkpoint mask: the per-task success factors
// e^{−λw}, e^{−λc}, the k = 0 conditional-expectation terms
// expm1(λw) / expm1(λ(w+c)), and the grouping constant fl(1/λ + D).
// Everything is keyed by task id; evaluators permute the factors into
// position space when they load a schedule, so repeated loads of the
// same instance — every cell of a portfolio search — cost zero
// transcendentals here.
//
// A FactorTable is immutable after NewFactorTable returns. That is
// what makes it the one piece of evaluator state that MAY be shared
// across goroutines: pooled engines compute one table per (graph,
// platform) and install it in every leased evaluator. wfvet's
// evalshare analyzer sanctions exactly this — sharing the table is
// allowed, writing to its fields outside this file is a finding.
//
// A table's bits depend only on (graph, platform), so results with a
// shared table and with an evaluator's self-built one are
// bit-identical (the differential tests pin this).
type FactorTable struct {
	graph *dag.Graph
	plat  failure.Platform

	coef float64   // fl(1/λ + D), the grouping ExpectedTime uses
	fw   []float64 // task id -> e^{−λ w}
	fc   []float64 // task id -> e^{−λ c}
	cm0  []float64 // task id -> expm1(λ (w+0)): k = 0, δ = false
	cm0c []float64 // task id -> expm1(λ (w+c)): k = 0, δ = true
}

// NewFactorTable computes the factor table of the (graph, platform)
// pair. Cost: four transcendentals per task, paid once — the point is
// to pay it once per instance instead of once per evaluator load.
func NewFactorTable(g *dag.Graph, p failure.Platform) *FactorTable {
	n := g.N()
	buf := make([]float64, 4*n)
	t := &FactorTable{
		graph: g,
		plat:  p,
		fw:    buf[:n:n],
		fc:    buf[n : 2*n : 2*n],
		cm0:   buf[2*n : 3*n : 3*n],
		cm0c:  buf[3*n:],
	}
	if !p.FailureFree() {
		lambda := p.Lambda
		t.coef = 1/lambda + p.Downtime
		for id := 0; id < n; id++ {
			w := g.Weight(id)
			c := g.CkptCost(id)
			t.fw[id] = math.Exp(-lambda * w)
			t.fc[id] = math.Exp(-lambda * c)
			t.cm0[id] = math.Expm1(lambda * (w + 0))
			t.cm0c[id] = math.Expm1(lambda * (w + c))
		}
	}
	return t
}

// Matches reports whether the table was built for exactly this
// (graph, platform) pair. Graph identity is by pointer, like the
// Evaluator's loaded-state identity: mutating a graph's tasks after
// building a table for it makes the table stale (build a new one).
func (t *FactorTable) Matches(g *dag.Graph, p failure.Platform) bool {
	return t != nil && t.graph == g && t.plat == p
}

// SetFactorTable installs a shared read-only factor table. Evaluators
// build (and cache) their own table on demand, so this is purely an
// optimization: pooled engines call it with one table per (graph,
// platform) so that no two leased evaluators recompute the same
// transcendentals. Installing a table for a different instance than
// the one evaluated is harmless — it is ignored and replaced by a
// self-built table on the next evaluation.
func (e *Evaluator) SetFactorTable(t *FactorTable) { e.table = t }

// ensureTable returns a factor table matching (g, p): the installed
// or previously built one when it matches, a freshly built (and
// cached) one otherwise.
func (e *Evaluator) ensureTable(g *dag.Graph, p failure.Platform) *FactorTable {
	if !e.table.Matches(g, p) {
		e.table = NewFactorTable(g, p)
	}
	return e.table
}
