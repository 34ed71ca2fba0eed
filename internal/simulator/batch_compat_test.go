package simulator

import (
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/mc"
	"repro/internal/rng"
	"repro/internal/stats"
)

// serialBatch runs trials back to back in a single mc shard whose
// runner, built by f, draws from rng.New(seed) — the draws of one
// simulator looping on one goroutine — and returns the makespan
// statistics plus the average failure count per run.
func serialBatch(t testing.TB, s *core.Schedule, plat failure.Platform, f mc.Factory, seed uint64, trials int) (stats.Accumulator, float64) {
	t.Helper()
	res, err := mc.Run(s, plat, mc.Config{
		Trials:    trials,
		Workers:   1,
		ShardSize: trials,
		Factory:   f,
		Stream:    func(_, _ uint64) *rng.Source { return rng.New(seed) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Makespan, float64(res.TotalFailures) / float64(trials)
}

// legacySerialBatch is the pre-engine serial batch, kept verbatim as
// an independent oracle: one simulator, one RNG stream, trials run
// back to back on one goroutine.
func legacySerialBatch(s *core.Schedule, plat failure.Platform, seed uint64, trials int) (stats.Accumulator, float64) {
	sim := New(plat, rng.New(seed))
	var makespan stats.Accumulator
	totFail := 0
	for t := 0; t < trials; t++ {
		r := sim.Run(s)
		makespan.Add(r.Makespan)
		totFail += r.Failures
	}
	avgFailures := 0.0
	if trials > 0 {
		avgFailures = float64(totFail) / float64(trials)
	}
	return makespan, avgFailures
}

// TestEngineMatchesBatchStatistically: the parallel engine draws
// different streams than the serial loop, but on the same schedule
// the two means must agree within combined Monte-Carlo error.
func TestEngineMatchesBatchStatistically(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison skipped in -short mode")
	}
	s, plat := randomScheduledDAG(21, 9)
	serial, _ := legacySerialBatch(s, plat, 12, 20000)
	res, err := mc.Run(s, plat, mc.Config{
		Trials: 20000, Seed: 12, Factory: Factory()})
	if err != nil {
		t.Fatal(err)
	}
	par := res.Makespan
	tol := 4.5 * (serial.CI(0.99) + par.CI(0.99))
	if diff := serial.Mean() - par.Mean(); diff > tol || diff < -tol {
		t.Fatalf("serial %v vs parallel %v (tol %v)", serial.Mean(), par.Mean(), tol)
	}
}
