// Package mc is a sharded, deterministic, parallel Monte-Carlo
// engine for schedule evaluation. The paper validates its Theorem 3
// expected-makespan evaluator by fault-injection simulation; those
// Monte-Carlo batches dominate the cost of cross-validation tests,
// cmd/wfsched -mc and the figure benchmarks, and used to run serially
// on one core. This engine partitions trials across a worker pool
// while keeping results exactly reproducible.
//
// # Determinism contract
//
// A run is identified by (Seed, Trials, ShardSize). Trials are
// partitioned into ⌈Trials/ShardSize⌉ shards; shard k of job j draws
// from the source rng.Stream(rng.StreamSeed(Seed, j), k), a pure
// O(1) splitmix64 derivation independent of which worker executes the
// shard. Per-shard statistics are merged in shard order (the exact
// parallel Welford merge of stats.Accumulator.Merge), percentile and
// histogram samples are concatenated in shard order before sorting,
// so the full Result is bit-identical for any Workers value —
// Workers=1 and Workers=8 produce the same statistics. Changing
// ShardSize (or Trials) selects different random streams and is a
// different experiment.
//
// The engine is generic over the trial runner: package simulator
// provides factories for the paper's blocking model
// (simulator.Factory), arbitrary inter-failure laws
// (simulator.FactoryWithGaps) and the non-blocking checkpointing
// extension (simulator.NonBlockingFactory), which keeps this package
// free of a dependency cycle.
package mc

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/stats"
)

// DefaultShardSize is the number of trials per shard when
// Config.ShardSize is unset: small enough to load-balance a pool at
// thousand-trial batches, large enough to amortize runner setup.
const DefaultShardSize = 256

// Sample is the outcome of one independent trial.
type Sample struct {
	Makespan  float64
	Failures  int     // failures that struck during the trial
	LostTime  float64 // destroyed work plus downtime
	Recovered int     // checkpoint recoveries performed
	Reexec    int     // re-executions beyond the first
}

// Runner executes independent trials of one schedule. A Runner is
// created once per shard via the Factory and never shared between
// goroutines, so implementations may keep mutable state.
type Runner interface {
	Trial(s *core.Schedule) Sample
}

// Factory builds the per-shard trial runner from the job's platform
// and the shard's deterministic random source.
type Factory func(plat failure.Platform, src *rng.Source) Runner

// Config tunes one engine invocation.
type Config struct {
	// Trials is the number of trials per job. It must be ≥ 0.
	Trials int
	// Seed is the master seed; every shard stream derives from it.
	Seed uint64
	// Workers bounds pool parallelism (≤ 0: GOMAXPROCS). The result
	// does not depend on it.
	Workers int
	// ShardSize is the number of trials per shard (≤ 0:
	// DefaultShardSize). Part of the determinism contract.
	ShardSize int
	// Percentiles, when non-empty, requests makespan percentiles
	// (values in [0, 100]) at the cost of retaining all samples.
	Percentiles []float64
	// HistogramBins, when > 0, requests a makespan histogram with
	// that many equal-width bins over the observed range.
	HistogramBins int
	// Factory builds per-shard runners; required.
	Factory Factory
	// Stream, when non-nil, overrides the shard RNG derivation
	// (job, shard) → source. Used by compatibility wrappers that must
	// reproduce a legacy single-stream layout; leave nil otherwise.
	Stream func(job, shard uint64) *rng.Source
}

// Job pairs a schedule with the platform to evaluate it on.
type Job struct {
	Schedule *core.Schedule
	Plat     failure.Platform
}

// Histogram is an equal-width histogram of trial makespans.
type Histogram struct {
	Min, Max float64
	Counts   []int
}

// BinWidth returns the width of one bin (0 when degenerate).
func (h *Histogram) BinWidth() float64 {
	if len(h.Counts) == 0 {
		return 0
	}
	return (h.Max - h.Min) / float64(len(h.Counts))
}

// Result accumulates one job's trial statistics.
type Result struct {
	Makespan stats.Accumulator // per-trial makespans
	Failures stats.Accumulator // per-trial failure counts
	LostTime stats.Accumulator // per-trial lost time

	TotalFailures  int
	TotalRecovered int
	TotalReexec    int

	// Percentiles holds the requested makespan percentiles, parallel
	// to Config.Percentiles (nil when none were requested or no
	// trials ran).
	Percentiles []float64
	// Histogram is the requested makespan histogram (nil unless
	// Config.HistogramBins > 0 and trials ran).
	Histogram *Histogram
}

// AvgFailures returns the mean failure count per trial.
func (r *Result) AvgFailures() float64 { return r.Failures.Mean() }

// Run evaluates a single schedule; it is RunMany with one schedule.
func Run(s *core.Schedule, plat failure.Platform, cfg Config) (Result, error) {
	results, err := RunMany([]*core.Schedule{s}, plat, cfg)
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// RunMany evaluates several schedules on one platform in a single
// pool pass. Job j draws from streams derived via
// rng.StreamSeed(cfg.Seed, j), so results[0] matches Run on the first
// schedule with the same Config.
func RunMany(ss []*core.Schedule, plat failure.Platform, cfg Config) ([]Result, error) {
	jobs := make([]Job, len(ss))
	for i, s := range ss {
		jobs[i] = Job{Schedule: s, Plat: plat}
	}
	return RunJobs(jobs, cfg)
}

// partial is one shard's contribution, merged in shard order.
type partial struct {
	mk, fail, lost stats.Accumulator
	totFail        int
	totRec         int
	totRe          int
	samples        []float64
}

// RunJobs is the engine: it evaluates every job (each with its own
// platform — e.g. all heuristics × workflows of one figure) for
// cfg.Trials trials on one worker pool and returns per-job results in
// input order.
func RunJobs(jobs []Job, cfg Config) ([]Result, error) {
	if err := validate(jobs, cfg); err != nil {
		return nil, err
	}
	results := make([]Result, len(jobs))
	if len(jobs) == 0 || cfg.Trials == 0 {
		return results, nil
	}

	shardSize := cfg.ShardSize
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	numShards := (cfg.Trials + shardSize - 1) / shardSize
	keepSamples := len(cfg.Percentiles) > 0 || cfg.HistogramBins > 0

	parts := make([][]partial, len(jobs))
	for j := range parts {
		parts[j] = make([]partial, numShards)
	}

	type task struct{ job, shard, trials int }
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if total := len(jobs) * numShards; workers > total {
		workers = total
	}

	work := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range work {
				job := jobs[tk.job]
				runner := cfg.Factory(job.Plat, shardSource(cfg, tk.job, tk.shard))
				p := &parts[tk.job][tk.shard]
				if keepSamples {
					p.samples = make([]float64, 0, tk.trials)
				}
				for i := 0; i < tk.trials; i++ {
					smp := runner.Trial(job.Schedule)
					p.mk.Add(smp.Makespan)
					p.fail.Add(float64(smp.Failures))
					p.lost.Add(smp.LostTime)
					p.totFail += smp.Failures
					p.totRec += smp.Recovered
					p.totRe += smp.Reexec
					if keepSamples {
						p.samples = append(p.samples, smp.Makespan)
					}
				}
			}
		}()
	}
	for j := range jobs {
		for k := 0; k < numShards; k++ {
			trials := shardSize
			if k == numShards-1 {
				trials = cfg.Trials - k*shardSize
			}
			work <- task{job: j, shard: k, trials: trials}
		}
	}
	close(work)
	wg.Wait()

	for j := range jobs {
		res := &results[j]
		var samples []float64
		if keepSamples {
			samples = make([]float64, 0, cfg.Trials)
		}
		for k := 0; k < numShards; k++ {
			p := &parts[j][k]
			res.Makespan.Merge(&p.mk)
			res.Failures.Merge(&p.fail)
			res.LostTime.Merge(&p.lost)
			res.TotalFailures += p.totFail
			res.TotalRecovered += p.totRec
			res.TotalReexec += p.totRe
			samples = append(samples, p.samples...)
		}
		if keepSamples && len(samples) > 0 {
			sort.Float64s(samples)
			if len(cfg.Percentiles) > 0 {
				res.Percentiles = make([]float64, len(cfg.Percentiles))
				for i, p := range cfg.Percentiles {
					res.Percentiles[i] = stats.PercentileSorted(samples, p)
				}
			}
			if cfg.HistogramBins > 0 {
				res.Histogram = histogram(samples, cfg.HistogramBins)
			}
		}
	}
	return results, nil
}

// shardSource derives shard k of job j's random source.
func shardSource(cfg Config, job, shard int) *rng.Source {
	if cfg.Stream != nil {
		return cfg.Stream(uint64(job), uint64(shard))
	}
	return rng.Stream(rng.StreamSeed(cfg.Seed, uint64(job)), uint64(shard))
}

// validate rejects malformed configurations up front, so worker
// goroutines never panic on them.
func validate(jobs []Job, cfg Config) error {
	if cfg.Factory == nil {
		return errors.New("mc: Config.Factory is required")
	}
	if cfg.Trials < 0 {
		return fmt.Errorf("mc: negative trial count %d", cfg.Trials)
	}
	for _, p := range cfg.Percentiles {
		if p < 0 || p > 100 || math.IsNaN(p) {
			return fmt.Errorf("mc: percentile %v outside [0, 100]", p)
		}
	}
	for i, job := range jobs {
		if job.Schedule == nil {
			return fmt.Errorf("mc: job %d has a nil schedule", i)
		}
		if err := job.Plat.Validate(); err != nil {
			return fmt.Errorf("mc: job %d: %w", i, err)
		}
	}
	return nil
}

// histogram bins an ascending-sorted sample into equal-width bins
// over its observed range. A degenerate range puts everything in the
// first bin.
func histogram(sorted []float64, bins int) *Histogram {
	h := &Histogram{Min: sorted[0], Max: sorted[len(sorted)-1], Counts: make([]int, bins)}
	width := (h.Max - h.Min) / float64(bins)
	for _, x := range sorted {
		idx := 0
		if width > 0 {
			idx = int((x - h.Min) / width)
			if idx >= bins {
				idx = bins - 1
			}
		}
		h.Counts[idx]++
	}
	return h
}
