// Package dag implements the directed-acyclic-graph workflow model of
// the paper: vertices are tightly-coupled parallel tasks with a
// computational weight w, a checkpoint cost c and a recovery cost r;
// edges are data dependencies. The package provides construction,
// validation, traversal and linearization utilities shared by the
// evaluator, the simulator, the heuristics and the generators.
package dag

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Task describes one workflow task. Weight is the failure-free
// execution time w_i on the full platform; CkptCost (c_i) is the time
// to checkpoint its output; RecCost (r_i) is the time to recover that
// checkpoint.
type Task struct {
	Name     string
	Weight   float64
	CkptCost float64
	RecCost  float64
}

// Graph is a workflow DAG. Tasks are identified by dense integer IDs
// in [0, N()). The zero value is an empty graph ready for use.
type Graph struct {
	tasks []Task
	succs [][]int
	preds [][]int
	// edgeSet de-duplicates edges; key = from*stride+to once frozen,
	// but during construction we use a map keyed on the pair.
	edgeSet map[[2]int]bool
	nEdges  int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{edgeSet: make(map[[2]int]bool)}
}

// AddTask appends a task and returns its ID.
func (g *Graph) AddTask(t Task) int {
	if g.edgeSet == nil {
		g.edgeSet = make(map[[2]int]bool)
	}
	g.tasks = append(g.tasks, t)
	g.succs = append(g.succs, nil)
	g.preds = append(g.preds, nil)
	return len(g.tasks) - 1
}

// AddEdge inserts the dependency from → to (to consumes the output of
// from). Duplicate edges are ignored. It returns an error on invalid
// IDs or self-loops; cycle detection is deferred to Validate.
func (g *Graph) AddEdge(from, to int) error {
	if from < 0 || from >= len(g.tasks) || to < 0 || to >= len(g.tasks) {
		return fmt.Errorf("dag: edge (%d→%d) references unknown task (have %d tasks)", from, to, len(g.tasks))
	}
	if from == to {
		return fmt.Errorf("dag: self-loop on task %d", from)
	}
	key := [2]int{from, to}
	if g.edgeSet[key] {
		return nil
	}
	g.edgeSet[key] = true
	g.succs[from] = append(g.succs[from], to)
	g.preds[to] = append(g.preds[to], from)
	g.nEdges++
	return nil
}

// MustAddEdge is AddEdge that panics on error; for use by generators
// whose indices are correct by construction.
func (g *Graph) MustAddEdge(from, to int) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// N returns the number of tasks.
func (g *Graph) N() int { return len(g.tasks) }

// M returns the number of edges.
func (g *Graph) M() int { return g.nEdges }

// Task returns a copy of the task with the given ID.
func (g *Graph) Task(id int) Task { return g.tasks[id] }

// SetTask replaces the task record with the given ID.
func (g *Graph) SetTask(id int, t Task) { g.tasks[id] = t }

// Weight returns w_id.
func (g *Graph) Weight(id int) float64 { return g.tasks[id].Weight }

// CkptCost returns c_id.
func (g *Graph) CkptCost(id int) float64 { return g.tasks[id].CkptCost }

// RecCost returns r_id.
func (g *Graph) RecCost(id int) float64 { return g.tasks[id].RecCost }

// Name returns the task's name, or "T<id>" when unnamed.
func (g *Graph) Name(id int) string {
	if n := g.tasks[id].Name; n != "" {
		return n
	}
	return fmt.Sprintf("T%d", id)
}

// Succs returns the direct successors of id. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Succs(id int) []int { return g.succs[id] }

// Preds returns the direct predecessors of id. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Preds(id int) []int { return g.preds[id] }

// InDegree returns the number of direct predecessors of id.
func (g *Graph) InDegree(id int) int { return len(g.preds[id]) }

// OutDegree returns the number of direct successors of id.
func (g *Graph) OutDegree(id int) int { return len(g.succs[id]) }

// Sources returns the IDs of all entry tasks (no predecessors), in
// increasing ID order.
func (g *Graph) Sources() []int {
	var out []int
	for i := range g.tasks {
		if len(g.preds[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Sinks returns the IDs of all exit tasks (no successors), in
// increasing ID order.
func (g *Graph) Sinks() []int {
	var out []int
	for i := range g.tasks {
		if len(g.succs[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// TotalWeight returns Σ w_i, the failure-free checkpoint-free
// makespan T_inf used as the normalization baseline in the paper's
// figures.
func (g *Graph) TotalWeight() float64 {
	s := 0.0
	for i := range g.tasks {
		s += g.tasks[i].Weight
	}
	return s
}

// OutWeight returns the sum of the weights of id's direct successors,
// the priority used by the DF and BF linearization strategies and by
// the CkptD checkpointing strategy.
func (g *Graph) OutWeight(id int) float64 {
	s := 0.0
	for _, j := range g.succs[id] {
		s += g.tasks[j].Weight
	}
	return s
}

// ErrCycle is returned by Validate when the graph has a directed
// cycle.
var ErrCycle = errors.New("dag: graph contains a cycle")

// Validate checks structural invariants: at least one task, no cycle,
// finite non-negative weights and costs. It returns nil when the graph
// is a well-formed workflow.
func (g *Graph) Validate() error {
	if len(g.tasks) == 0 {
		return errors.New("dag: empty graph")
	}
	for i, t := range g.tasks {
		for _, v := range [...]float64{t.Weight, t.CkptCost, t.RecCost} {
			// !(v >= 0) also catches NaN, which every comparison fails.
			if !(v >= 0) || math.IsInf(v, 1) {
				return fmt.Errorf("dag: task %d (%s) has a negative or non-finite weight/cost", i, g.Name(i))
			}
		}
	}
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	return nil
}

// TopoSort returns a topological order of the tasks (Kahn's
// algorithm; ties broken by smallest ID). It returns ErrCycle if the
// graph is cyclic.
func (g *Graph) TopoSort() ([]int, error) {
	n := len(g.tasks)
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = len(g.preds[i])
	}
	// Min-ID ready queue via a sorted insertion would be O(n^2); a
	// simple heap-free approach: repeatedly scan a ready list kept
	// sorted. For the graph sizes here (≤ a few thousand) a binary
	// heap is unnecessary, but we keep it linearithmic with sort.
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	sort.Ints(ready)
	order := make([]int, 0, n)
	for len(ready) > 0 {
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		changed := false
		for _, w := range g.succs[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
				changed = true
			}
		}
		if changed {
			sort.Ints(ready)
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// IsLinearization reports whether order is a permutation of all task
// IDs that respects every dependency (predecessors appear before
// successors).
func (g *Graph) IsLinearization(order []int) bool {
	n := len(g.tasks)
	if len(order) != n {
		return false
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for p, id := range order {
		if id < 0 || id >= n || pos[id] != -1 {
			return false
		}
		pos[id] = p
	}
	for id := 0; id < n; id++ {
		for _, s := range g.succs[id] {
			if pos[s] < pos[id] {
				return false
			}
		}
	}
	return true
}

// Positions returns the inverse permutation of order: pos[id] is the
// schedule position of task id. It panics if order is not a
// permutation of [0, N()).
func (g *Graph) Positions(order []int) []int {
	return g.PositionsInto(order, nil)
}

// PositionsInto is Positions writing into buf when its capacity
// allows, so evaluators that invert a linearization on every load can
// reuse one buffer across calls instead of allocating. It returns the
// filled slice (buf, re-sliced, or a fresh allocation).
func (g *Graph) PositionsInto(order, buf []int) []int {
	n := len(g.tasks)
	if len(order) != n {
		panic("dag: Positions: order length mismatch")
	}
	pos := buf
	if cap(pos) < n {
		pos = make([]int, n)
	}
	pos = pos[:n]
	for i := range pos {
		pos[i] = -1
	}
	for p, id := range order {
		if id < 0 || id >= n || pos[id] != -1 {
			panic("dag: Positions: order is not a permutation")
		}
		pos[id] = p
	}
	return pos
}

// Levels returns, for every task, its depth: 0 for sources, otherwise
// 1 + max(level of predecessors). It assumes the graph is acyclic.
func (g *Graph) Levels() []int {
	order, err := g.TopoSort()
	if err != nil {
		panic(err)
	}
	lv := make([]int, len(g.tasks))
	for _, v := range order {
		for _, p := range g.preds[v] {
			if lv[p]+1 > lv[v] {
				lv[v] = lv[p] + 1
			}
		}
	}
	return lv
}

// CriticalPathWeight returns the largest total weight along any
// directed path (including both endpoints). It assumes acyclicity.
func (g *Graph) CriticalPathWeight() float64 {
	order, err := g.TopoSort()
	if err != nil {
		panic(err)
	}
	best := make([]float64, len(g.tasks))
	ans := 0.0
	for _, v := range order {
		best[v] = g.tasks[v].Weight
		for _, p := range g.preds[v] {
			if best[p]+g.tasks[v].Weight > best[v] {
				best[v] = best[p] + g.tasks[v].Weight
			}
		}
		if best[v] > ans {
			ans = best[v]
		}
	}
	return ans
}

// ReachableFrom returns the set of tasks reachable from id by
// following successor edges (id excluded), as a boolean mask.
func (g *Graph) ReachableFrom(id int) []bool {
	seen := make([]bool, len(g.tasks))
	stack := append([]int(nil), g.succs[id]...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		stack = append(stack, g.succs[v]...)
	}
	return seen
}

// Ancestors returns the set of tasks from which id is reachable
// (id excluded), as a boolean mask.
func (g *Graph) Ancestors(id int) []bool {
	seen := make([]bool, len(g.tasks))
	stack := append([]int(nil), g.preds[id]...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		stack = append(stack, g.preds[v]...)
	}
	return seen
}

// Subgraph returns the subgraph induced by the tasks with keep[id]
// true, with dense new IDs assigned in increasing original-ID order,
// plus the mapping toOrig (new ID → original ID). Edges between two
// kept tasks are preserved; edges touching a dropped task are
// omitted — a dropped predecessor's output is assumed available to
// the subgraph (the reactive rescheduler only drops tasks whose
// outputs survive on stable storage). It panics when keep's length
// does not match the task count; keeping no tasks returns an empty
// graph, which Validate rejects, so callers guard the all-dropped
// case themselves.
func (g *Graph) Subgraph(keep []bool) (*Graph, []int) {
	if len(keep) != len(g.tasks) {
		panic(fmt.Sprintf("dag: Subgraph keep mask has %d entries for %d tasks", len(keep), len(g.tasks)))
	}
	newID := make([]int, len(g.tasks))
	var toOrig []int
	for id := range g.tasks {
		if keep[id] {
			newID[id] = len(toOrig)
			toOrig = append(toOrig, id)
		} else {
			newID[id] = -1
		}
	}
	sub := New()
	for _, orig := range toOrig {
		sub.AddTask(g.tasks[orig])
	}
	for _, orig := range toOrig {
		for _, succ := range g.succs[orig] {
			if keep[succ] {
				sub.MustAddEdge(newID[orig], newID[succ])
			}
		}
	}
	return sub, toOrig
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		tasks:   append([]Task(nil), g.tasks...),
		succs:   make([][]int, len(g.succs)),
		preds:   make([][]int, len(g.preds)),
		edgeSet: make(map[[2]int]bool, len(g.edgeSet)),
		nEdges:  g.nEdges,
	}
	for i := range g.succs {
		c.succs[i] = append([]int(nil), g.succs[i]...)
		c.preds[i] = append([]int(nil), g.preds[i]...)
	}
	for k, v := range g.edgeSet {
		c.edgeSet[k] = v
	}
	return c
}

// ScaleCkptCosts sets every task's checkpoint and recovery cost. The
// paper's experiments use three cost models: proportional (c = α·w),
// constant (c = k), and always r = c. The setter takes a function so
// all models are expressible.
func (g *Graph) ScaleCkptCosts(f func(t Task) (c, r float64)) {
	for i := range g.tasks {
		c, r := f(g.tasks[i])
		g.tasks[i].CkptCost = c
		g.tasks[i].RecCost = r
	}
}

// DOT renders the graph in Graphviz DOT syntax. Checkpointed tasks
// (per the optional mask) are drawn shaded, mirroring Figure 1 of the
// paper.
func (g *Graph) DOT(name string, ckpt []bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=TB;\n")
	for i := range g.tasks {
		attr := ""
		if ckpt != nil && i < len(ckpt) && ckpt[i] {
			attr = ", style=filled, fillcolor=gray80"
		}
		fmt.Fprintf(&b, "  %d [label=\"%s\\nw=%.3g c=%.3g\"%s];\n",
			i, g.Name(i), g.tasks[i].Weight, g.tasks[i].CkptCost, attr)
	}
	for i := range g.tasks {
		for _, j := range g.succs[i] {
			fmt.Fprintf(&b, "  %d -> %d;\n", i, j)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("dag{n=%d, m=%d, sources=%d, sinks=%d, W=%.4g}",
		g.N(), g.M(), len(g.Sources()), len(g.Sinks()), g.TotalWeight())
}
