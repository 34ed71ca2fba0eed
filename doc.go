// Package repro reproduces "Scheduling computational workflows on
// failure-prone platforms" (Aupy, Benoit, Casanova, Robert — INRIA
// RR-8609 / IPDPS 2015) as a Go library.
//
// The library lives under internal/: the Theorem 3 schedule evaluator
// (internal/core), the failure model (internal/failure), the workflow
// DAG substrate (internal/dag), exact algorithms for forks, joins and
// chains (internal/fork, internal/join, internal/chains), the
// NP-completeness reduction (internal/npc), the Section 5 heuristics
// (internal/sched), the deterministic parallel portfolio-search
// engine (internal/portfolio), Pegasus-like workflow generators
// (internal/pwg), a Monte-Carlo fault-injection simulator
// (internal/simulator), the sharded parallel Monte-Carlo engine
// (internal/mc), the Section 6 experiment harness
// (internal/experiments), the reactive rescheduling engine
// (internal/rerun), the HTTP scheduling service (internal/serve),
// and the wfvet static-analysis suite that mechanically enforces the
// cross-cutting engine contracts (internal/analysis, cmd/wfvet).
//
// # The Monte-Carlo engine
//
// internal/mc batches fault-injection trials across a worker pool:
// trials are partitioned into fixed-size shards, shard k of job j
// draws from the deterministic stream
// rng.Stream(rng.StreamSeed(seed, j), k), and per-shard Welford
// accumulators are merged exactly in shard order. The resulting
// statistics (means, variances, percentiles, histograms) are
// bit-identical for any worker count — the determinism contract is
// (Seed, Trials, ShardSize), never Workers. The engine is generic
// over a per-shard trial runner; internal/simulator provides
// factories for the paper's blocking model, arbitrary inter-failure
// laws (Weibull robustness studies) and non-blocking checkpointing.
//
// # The portfolio engine
//
// internal/portfolio is the search-side twin of the Monte-Carlo
// engine: the Section 5 heuristic portfolio — every linearization ×
// checkpointing strategy, each sweeping checkpoint counts N through
// the Theorem 3 evaluator — is fanned out over (heuristic, N-chunk)
// cells on a worker pool, one pooled core.Evaluator per worker
// (evaluators are stateful; core documents the single-goroutine
// ownership rule and the pool enforces it). Candidates are reduced
// under a canonical total order (lowest expected makespan, then
// fewest checkpoints, then lowest strategy index / N), so the
// winning schedule is byte-identical for any worker count and equal
// to the serial sched.RunAll, which remains the reference path: both
// sweep through the one N-sweep kernel, sched.Kernel. The experiment
// harness (including the scale-* scenarios at n = 2000), the ablation
// studies, refinement passes (refine.ImproveWith) and the cmd
// binaries all route their searches through the engine behind
// -workers flags.
//
// # The incremental sweep evaluator
//
// The portfolio's hot path is the checkpoint-count sweep: adjacent
// sweep points of a ranked strategy differ by a single flipped
// checkpoint bit, yet a full O(n²) Theorem 3 pass per point costs
// O(n³) per sweep, transcendental-bound. core.Evaluator is therefore
// one evaluator with one pass: the expectation pass is factorized —
// every exp/expm1 depends on a single lost-set entry or task constant,
// combined by running products — and the evaluator keeps the
// lost-set matrix, the per-entry factors, the running products and
// per-row placement records between evaluations. Eval always runs the
// full pass; EvalSchedule reuses the loaded state when only a few
// checkpoint bits changed (fewer than n/2, same graph, order and
// platform) and runs the full pass otherwise. A flip at position j
// reuses rows k ≤ j verbatim, resumes affected rows mid-row at the
// flip's recorded placement point, recomputes transcendentals only for
// genuinely changed entries, and rebuilds the accumulator suffix with
// plain multiplications — O(n²) amortized flops per sweep step and
// results bit-identical (math.Float64bits) to the full pass, so every
// determinism contract below holds on it. Native fuzz plus
// testing/quick differential harnesses against a second evaluator and
// core.EvalReference (internal/core), an exhaustive enumeration of
// full passes every sweep must match (internal/sched), Monte-Carlo
// cross-validation of incrementally produced schedules
// (internal/simulator) and a worker-count byte-identity regression on
// cmd/wfsched -refine enforce the equivalence; BENCH_sweep.json
// records the measured speedups (≥3× on BenchmarkPortfolioParallel at
// n = 700, ~6× on a full exhaustive sweep). Every N-sweep evaluates
// through it (sched.Kernel), refine.ImproveWith and sched.CkptGreedy
// use it for their one-bit neighbourhoods (refine's swap probes pay a
// full load), and internal/portfolio leases the state with its
// evaluators. Each evaluator holds ≈52·(n+1)² bytes (26 MB at
// n = 700), a one-shot core.Eval included.
//
// # Allocation discipline and bound-based pruning
//
// The evaluator carves its O(n²) matrices and O(n) vectors out of a
// few shared arenas — one flat backing array per element type, split
// into row views — sized once per (graph, schedule) shape and reused
// across evaluations, so the hot paths are allocation-free: a warm
// flip and a warm full Eval run at 0 allocs/op, and a fresh evaluator
// sizes itself in a small constant number of allocations. testing.AllocsPerRun gates in
// internal/core pin all three on every plain `go test ./...`.
//
// On top of the evaluators, the N-sweeps prune provably losing
// candidates: core.MaskBound lower-bounds the expected makespan of
// any schedule from its checkpoint mask alone (Base plus per-task
// increments, from the monotonicity of failure.ExpectedTime), and
// strategies expose it per checkpoint count via sched.BoundedSweeper.
// The sweep kernel skips each N whose bound is prunable against an
// incumbent (core.Prunable); the parallel engine shares a
// per-heuristic atomic incumbent across its cells, and a span whose
// every N is prunable returns before building a masker. A candidate
// is discarded only when its bound exceeds the incumbent beyond the
// core.PruneSlack floating-point margin, so the canonical winner is
// bit-identical to the unpruned sweep — pinned by differential
// harnesses in internal/sched, internal/portfolio and internal/refine
// against in-package references (the kernel with no incumbent, an
// exhaustive enumeration of full passes, the climb with no bound)
// across the four DAG families, all strategies and worker counts.
// refine.ImproveWith reuses the same bound to skip provably rejected
// add-checkpoint flips without spending evaluation budget.
//
// # Benchmark methodology and the regression gate
//
// BENCH_sweep.json is the benchmark trajectory: labelled multi-sample
// entries maintained by cmd/benchjson (`make bench-json`). The hot
// paths are additionally gated: `make bench-gate` (blocking in CI)
// re-runs the gated benchmark set several times and compares the
// samples against the checked-in 'gate-baseline' entry with an
// offline benchstat equivalent — median ratios, two-sided
// Mann–Whitney U significance, geomean normalization so uniform
// machine-speed shifts cancel — and fails on a statistically
// significant regression past the threshold. Deliberate performance
// changes refresh the baseline via `make bench-baseline` and commit
// the result.
//
// # The reactive rescheduling engine
//
// The paper's pipeline is static: one portfolio search up front, then
// in-place retries under failures. internal/rerun executes a schedule
// through the simulator's resumable primitives (Begin/TryTask/Finish)
// as an event stream and re-runs the portfolio on the residual
// workflow at every failure. The residual model matches what
// execution actually pays: the never-completed tasks, plus a recovery
// stub per on-disk input a pending task reads, plus a re-execution
// node per completed-but-lost output still read — completed work
// nothing reads is neither re-executed nor re-priced. Residual
// searches are pure functions of the (completed, on-disk) state and
// are memoized in a plan cache shared across Monte-Carlo shards; the
// engine inherits the determinism contract (fixed seed: bit-identical
// event trace and makespan for any worker count). Engine.CompareMC
// pairs static and reactive runs under common random numbers;
// cmd/wfsched -reactive, the reactive-* experiment family and
// examples/reactive sit on top, and BenchmarkReactiveRun is part of
// the blocking benchmark gate.
//
// # The scheduling service
//
// internal/serve and cmd/wfserve put both engines behind a
// long-running HTTP service. A request — the wfio text format or its
// JSON binding (internal/wfio's JSONWorkflow), plus platform and
// search options — is reduced to a canonical hash
// (wfio.CanonicalHash: tasks, edges and parameters, independent of
// declaration order). Because both engines are bit-deterministic for
// any worker count, the response body is a pure function of that
// hash: a bounded concurrent-safe LRU caches encoded responses, and
// concurrent identical requests collapse singleflight-style onto one
// in-flight search, so cached, collapsed and cold answers are
// byte-identical (cache status travels in the X-Wfserve-Cache
// header). The server splits one worker budget across in-flight
// evaluations — a pure throughput decision under the determinism
// contract. The cache sits behind the serve.Store interface: the
// in-memory double-bounded LRU is the default, and serve.DiskStore
// (-cache-dir) persists one file per hash by atomic rename so a
// restarted server answers old requests as byte-identical hits. The
// service is observable without touching that contract:
// internal/metrics is a dependency-free counter/gauge/histogram
// library with Prometheus text exposition, wired through the serve
// layer as read-only observers (per-endpoint request counts and
// latency, dedup outcomes, engine timings, store occupancy, load
// gauges), and every request emits one structured log/slog record
// (endpoint, status, latency, cache outcome, canonical hash).
// Endpoints: POST /v1/schedule, GET /healthz, GET /stats,
// GET /metrics.
//
// # Correctness tooling
//
// The contracts above — bit-identical determinism for any worker
// count, canonical float tie-breaking, single-owner evaluators — are
// enforced mechanically by cmd/wfvet, a custom multichecker over
// internal/analysis that runs as a blocking CI job and inside
// `make lint`. Four analyzers encode the contracts: maporder (no
// order-sensitive range over maps in the deterministic packages
// core, sched, portfolio, mc, rerun, refine, wfio, serve, metrics —
// iterate
// sorted keys or keep the body commutative), nondet (no time.Now,
// global math/rand, os.Getenv or multi-way select there; randomness
// comes from internal/rng stream seeding), floatcmp (no ==/!=
// between computed floats and no switch on float tags in engine
// packages; candidate ordering goes through sched.CanonicalBetter,
// bit-identity through math.Float64bits), and evalshare (no
// *core.Evaluator, under any alias, captured by a go literal,
// passed to a go call or sent on a channel — workers lease their own
// via the portfolio pool). A justified exception is annotated in
// place with `//wfvet:<analyzer> <reason>`; the reason is mandatory,
// and bare or misspelled directives are themselves findings. The
// framework is a small dependency-free mirror of the
// golang.org/x/tools/go/analysis API — the module deliberately has
// no external dependencies so every result is reproducible from a Go
// toolchain alone, offline; the matching API shape keeps a future
// migration to the real x/tools multichecker mechanical. CI
// additionally re-runs the tests with -shuffle=on (blocking) and
// runs a non-blocking govulncheck advisory scan.
//
// Binaries: cmd/experiments regenerates every figure of the paper
// (with -mc N it also re-validates each figure through the engine);
// cmd/wfsched schedules one workflow with the paper's heuristics;
// cmd/wfgen emits synthetic workflows; cmd/evaluate computes the
// expected makespan of a user-supplied schedule; cmd/wfserve serves
// scheduling over HTTP with the deterministic result cache.
//
// The benchmarks in bench_test.go regenerate one data point of every
// figure (fig2a..fig7d) plus micro-benchmarks of the evaluator, the
// simulator, the generators and both parallel engines
// (BenchmarkMCParallel across worker counts, BenchmarkPortfolioParallel
// vs BenchmarkPortfolioSerial).
package repro
