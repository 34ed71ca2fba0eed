package simulator

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// This file implements the paper's first "future direction":
// non-blocking checkpointing. Instead of stalling the platform for
// c_i seconds after task i, the checkpoint is written in the
// background while subsequent computation proceeds at a reduced
// speed. Model:
//
//   - at most one checkpoint is in flight at a time (storage
//     bandwidth); later checkpoints queue in FIFO order;
//   - while any checkpoint is in flight, computation (executions,
//     recoveries, re-executions alike) progresses at rate 1 − α,
//     where α ∈ [0, 1) is the interference slowdown; the checkpoint
//     itself needs c_i seconds of wall-clock regardless;
//   - a checkpoint becomes durable only when it completes; a failure
//     destroys every in-flight and queued checkpoint along with the
//     in-memory state (their tasks re-enqueue a checkpoint when they
//     are re-executed);
//   - checkpoints still in flight when the workflow's last task
//     completes are abandoned (nothing consumes them).
//
// α = 0 hides checkpoints entirely (free overlap); α → 1 degenerates
// towards the blocking model. The analytical evaluator of Theorem 3
// does not cover this mode — which is exactly why the paper leaves it
// as future work — so the simulator is the evaluation vehicle, and
// examples/nonblocking quantifies the potential gain.

// pendingCkpt is one queued background checkpoint.
type pendingCkpt struct {
	task      int
	remaining float64
}

// NBSimulator simulates schedules under non-blocking checkpointing.
type NBSimulator struct {
	inner *Simulator
	alpha float64
	queue []pendingCkpt
}

// NewNonBlocking wraps a configured Simulator with the non-blocking
// checkpoint semantics at slowdown α ∈ [0, 1).
func NewNonBlocking(sim *Simulator, alpha float64) *NBSimulator {
	if alpha < 0 || alpha >= 1 || math.IsNaN(alpha) {
		panic(fmt.Sprintf("simulator: non-blocking slowdown α=%v outside [0,1)", alpha))
	}
	return &NBSimulator{inner: sim, alpha: alpha}
}

// Run executes the schedule once under non-blocking checkpointing.
func (nb *NBSimulator) Run(s *core.Schedule) Result {
	sim := nb.inner
	n := s.Graph.N()
	sim.now = 0
	sim.res = Result{}
	if cap(sim.inMem) < n {
		sim.inMem = make([]bool, n)
		sim.onDisk = make([]bool, n)
	}
	sim.inMem = sim.inMem[:n]
	sim.onDisk = sim.onDisk[:n]
	for i := range sim.inMem {
		sim.inMem[i] = false
		sim.onDisk[i] = false
	}
	nb.queue = nb.queue[:0]
	if sim.gaps == nil {
		sim.nextFail = math.Inf(1)
	} else {
		sim.nextFail = sim.gaps(sim.src)
	}

	for _, id := range s.Order {
		for {
			if err := nb.ensureInputs(s, id); err != nil {
				continue
			}
			if err := nb.work(s.Graph.Weight(id)); err != nil {
				sim.res.Reexec++
				continue
			}
			sim.inMem[id] = true
			if s.Ckpt[id] {
				nb.queue = append(nb.queue, pendingCkpt{task: id, remaining: s.Graph.CkptCost(id)})
			}
			break
		}
	}
	sim.res.Makespan = sim.now
	return sim.res
}

// ensureInputs mirrors Simulator.ensureInputs under the non-blocking
// work primitive. Re-executed tasks that are scheduled for
// checkpointing but not yet durable re-enqueue their checkpoint.
func (nb *NBSimulator) ensureInputs(s *core.Schedule, id int) error {
	sim := nb.inner
	for _, p := range s.Graph.Preds(id) {
		if sim.inMem[p] {
			continue
		}
		if sim.onDisk[p] {
			if err := nb.work(s.Graph.RecCost(p)); err != nil {
				return err
			}
			sim.res.Recovered++
			sim.inMem[p] = true
			continue
		}
		if err := nb.ensureInputs(s, p); err != nil {
			return err
		}
		if err := nb.work(s.Graph.Weight(p)); err != nil {
			return err
		}
		sim.res.Reexec++
		sim.inMem[p] = true
		if s.Ckpt[p] && !sim.onDisk[p] {
			nb.queue = append(nb.queue, pendingCkpt{task: p, remaining: s.Graph.CkptCost(p)})
		}
	}
	return nil
}

// work advances the simulation until w units of compute work are
// done, progressing the background checkpoint queue concurrently.
// On failure, memory and the whole checkpoint queue are destroyed
// and errFault is returned.
func (nb *NBSimulator) work(w float64) error {
	sim := nb.inner
	if w < 0 {
		panic(fmt.Sprintf("simulator: negative work %v", w))
	}
	for w > 1e-12 || nbQueueIdleBarrier && len(nb.queue) > 0 {
		rate := 1.0
		if len(nb.queue) > 0 {
			rate = 1 - nb.alpha
		}
		// Wall-clock until: work done / head checkpoint done.
		step := math.Inf(1)
		if w > 0 && rate > 0 {
			step = w / rate
		}
		if len(nb.queue) > 0 && nb.queue[0].remaining < step {
			step = nb.queue[0].remaining
		}
		if math.IsInf(step, 1) {
			break
		}
		if sim.now+step > sim.nextFail {
			// Failure strikes mid-phase.
			wasted := sim.nextFail - sim.now
			sim.now = sim.nextFail + sim.plat.Downtime
			sim.res.Failures++
			sim.res.LostTime += wasted + sim.plat.Downtime
			for i := range sim.inMem {
				sim.inMem[i] = false
			}
			nb.queue = nb.queue[:0] // in-flight checkpoints destroyed
			sim.nextFail = sim.now + sim.gaps(sim.src)
			return errFault{}
		}
		sim.now += step
		w -= step * rate
		if len(nb.queue) > 0 {
			nb.queue[0].remaining -= step
			if nb.queue[0].remaining <= 1e-12 {
				sim.onDisk[nb.queue[0].task] = true
				nb.queue = nb.queue[1:]
			}
		}
	}
	return nil
}

// nbQueueIdleBarrier controls whether work() drains the checkpoint
// queue even when no compute work remains. The model abandons
// checkpoints at workflow completion, so the barrier stays disabled;
// the constant documents the choice.
const nbQueueIdleBarrier = false
