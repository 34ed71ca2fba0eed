# Local mirror of the CI gates (.github/workflows/ci.yml): run
# `make check` before pushing to see exactly what CI will see —
# including `make bench-gate` (the blocking benchmark-regression
# gate), `make wfvet` (the blocking repo-specific analyzer suite),
# `make shuffle` (blocking test-order-independence run) and
# `make staticcheck` (blocking lint). Non-gating CI mirrors:
# `make fuzz` (the delta-evaluator differential fuzz session),
# `make govulncheck` (advisory known-vulnerability scan) and
# `make bench-json` (records a BENCH_sweep.json perf-trajectory point;
# CI uploads the refreshed file as an artifact).

GO ?= go

.PHONY: build test race bench bench-json bench-hot bench-baseline bench-gate \
	fuzz lint fmt vet cover check serve staticcheck wfvet shuffle govulncheck \
	profile

# Differential fuzzing of the incremental sweep evaluator (bit-identity
# with a full pass plus the Algorithm-1 reference); FUZZTIME bounds
# the session. The seed corpus also runs on every plain `go test`.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzDeltaEvaluator -fuzztime=$(FUZZTIME) ./internal/core

build:
	$(GO) build ./...

# cmd/wfbench is its own module, which ./... does not reach; vet and
# test it explicitly (as CI does).
test:
	$(GO) test ./...
	cd cmd/wfbench && $(GO) vet . && $(GO) test .

race:
	$(GO) test -race ./...
	$(GO) test -race -count=1 -run 'TestConcurrent' ./internal/serve
	$(GO) test -race -count=1 -run 'TestReactiveDeterminism|TestCompareMCWorkerInvariance' ./internal/rerun
	$(GO) test -race -count=1 -run 'TestStealDeterminismStress' ./internal/portfolio

# Run the scheduling service locally (ADDR overrides the listen
# address: make serve ADDR=:9090).
ADDR ?= :8080
serve:
	$(GO) run ./cmd/wfserve -addr $(ADDR)

# One iteration per benchmark: compile-and-run coverage, not timing.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Benchmark trajectory: run the portfolio/refine/evaluator benchmarks
# at n ∈ {100, 700} and record them as a labelled entry of
# BENCH_sweep.json (BENCH_LABEL overrides the label; same label
# replaces, new label appends). Compare two points with
#   go run ./cmd/benchjson -file BENCH_sweep.json -extract <old>  > old.txt
#   go run ./cmd/benchjson -file BENCH_sweep.json -extract <new>  > new.txt
#   benchstat old.txt new.txt
BENCH_LABEL ?= local-$(shell date +%Y-%m-%d)
BENCH_JSON_SET = BenchmarkEvaluator$$|BenchmarkPortfolioSerial$$|BenchmarkPortfolioParallel$$|BenchmarkPortfolioN100$$|BenchmarkPortfolioN2000$$|BenchmarkPortfolioN2000Short$$|BenchmarkRefine$$|BenchmarkRefineN700$$|BenchmarkSweepExhaustive$$|BenchmarkReactiveRun$$
bench-json:
	@out=$$(mktemp); \
	{ $(GO) test -run='^$$' -bench='$(BENCH_JSON_SET)' -benchtime=1x . && \
	  $(GO) test -run='^$$' -bench='BenchmarkDeltaFlip' -benchtime=100x ./internal/core; } > "$$out"; \
	rc=$$?; cat "$$out"; \
	if [ $$rc -eq 0 ]; then \
	  $(GO) run ./cmd/benchjson -label '$(BENCH_LABEL)' -file BENCH_sweep.json < "$$out"; rc=$$?; \
	else echo "bench-json: benchmark run failed; BENCH_sweep.json not updated" >&2; fi; \
	rm -f "$$out"; exit $$rc

# Benchmark regression gate (blocking in CI, mirrored here). The gate
# runs the hot-path benchmark set GATE_COUNT times each — enough
# samples for cmd/benchjson's Mann–Whitney test to separate a real
# regression from run-to-run noise — and compares the fresh samples
# against the checked-in '$(GATE_BASELINE)' entry of BENCH_sweep.json:
# a benchmark slower by more than GATE_THRESHOLD with statistical
# significance fails the build. Ratios are geomean-normalized, so a
# uniformly slower machine does not trip the gate; only a benchmark
# regressing *relative to its siblings* does. After a deliberate,
# justified performance change, refresh the baseline with
# `make bench-baseline` and commit the updated BENCH_sweep.json.
GATE_BASELINE ?= gate-baseline
GATE_COUNT ?= 6
GATE_THRESHOLD ?= 0.10
GATE_REQUIRE = BenchmarkDeltaFlip/n=700,BenchmarkSweepExhaustive/n=700,BenchmarkPortfolioN100,BenchmarkPortfolioN2000Short,BenchmarkRefineN700,BenchmarkReactiveRun
# One shell pipeline emitting GATE_COUNT samples of every gated
# benchmark; per-benchmark -benchtime keeps each sample meaningful
# without letting the slow sweeps dominate the wall clock.
GATE_RUN = { \
  $(GO) test -run='^$$' -bench='BenchmarkSweepExhaustive$$' -benchtime=2x -count=$(GATE_COUNT) . && \
  $(GO) test -run='^$$' -bench='BenchmarkPortfolioN100$$' -benchtime=20x -count=$(GATE_COUNT) . && \
  $(GO) test -run='^$$' -bench='BenchmarkPortfolioN2000Short$$' -benchtime=1x -count=$(GATE_COUNT) . && \
  $(GO) test -run='^$$' -bench='BenchmarkRefineN700$$' -benchtime=3x -count=$(GATE_COUNT) . && \
  $(GO) test -run='^$$' -bench='BenchmarkReactiveRun$$' -benchtime=50x -count=$(GATE_COUNT) . && \
  $(GO) test -run='^$$' -bench='BenchmarkDeltaFlip$$' -benchtime=200x -count=$(GATE_COUNT) ./internal/core; }

# Run the gate's benchmark set without comparing (eyeball the output).
bench-hot:
	@$(GATE_RUN)

# Capture an end-to-end portfolio profile at scale through wfsched's
# profiling flags: CPU profile (where the evaluator time goes), heap
# profile (the per-worker arena budget), execution trace (where the
# workers idle — the signal the span scheduler's donation acts on).
# Inspect with `go tool pprof` / `go tool trace`.
PROFILE_N ?= 2000
profile:
	mkdir -p artifacts
	$(GO) run ./cmd/wfsched -workflow CyberShake -n $(PROFILE_N) -grid 24 \
	  -cpuprofile artifacts/portfolio_n$(PROFILE_N).cpu.pprof \
	  -memprofile artifacts/portfolio_n$(PROFILE_N).mem.pprof \
	  -trace artifacts/portfolio_n$(PROFILE_N).trace.out
	@echo "profile: wrote artifacts/portfolio_n$(PROFILE_N).{cpu,mem}.pprof and .trace.out"

# Record the gate's benchmark set as the checked-in baseline entry.
bench-baseline:
	@out=$$(mktemp); $(GATE_RUN) > "$$out"; rc=$$?; cat "$$out"; \
	if [ $$rc -eq 0 ]; then \
	  $(GO) run ./cmd/benchjson -label '$(GATE_BASELINE)' -file BENCH_sweep.json < "$$out"; rc=$$?; \
	else echo "bench-baseline: benchmark run failed; baseline not updated" >&2; fi; \
	rm -f "$$out"; exit $$rc

# Compare a fresh run against the checked-in baseline; nonzero exit on
# a statistically significant >GATE_THRESHOLD ns/op regression or a
# missing required benchmark.
bench-gate:
	@out=$$(mktemp); $(GATE_RUN) > "$$out"; rc=$$?; cat "$$out"; \
	if [ $$rc -eq 0 ]; then \
	  $(GO) run ./cmd/benchjson -file BENCH_sweep.json -gate '$(GATE_BASELINE)' \
	    -threshold $(GATE_THRESHOLD) -normalize -require '$(GATE_REQUIRE)' < "$$out"; rc=$$?; \
	else echo "bench-gate: benchmark run failed" >&2; fi; \
	rm -f "$$out"; exit $$rc

# Test coverage: per-function profile in coverage.out plus a total,
# mirroring the CI coverage step, so regressions in any package
# (especially the new ones) are visible before pushing.
cover:
	$(GO) test -short -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

vet:
	$(GO) vet ./...

# wfvet = the repo-specific analyzer suite (cmd/wfvet): maporder,
# nondet, floatcmp and evalshare mechanically enforce the engines'
# determinism, tie-break and evaluator-ownership contracts. Blocking
# in CI; a finding is fixed or carries a justified //wfvet:<analyzer>
# waiver (see internal/analysis).
wfvet:
	$(GO) run ./cmd/wfvet ./...

# Test-order independence: the same gate CI enforces (blocking).
shuffle:
	$(GO) test -shuffle=on ./...

# lint = the non-test static gates CI enforces: vet + staticcheck +
# wfvet (plus the gofmt check). staticcheck needs its binary (or
# network to fetch it); when neither is available — the offline
# environments `check` must still work in — it is skipped with a
# notice, and CI's blocking staticcheck job remains the enforcement
# point.
lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck binary not installed; skipped here, enforced by CI (make staticcheck fetches it when online)"; \
	fi
	$(GO) run ./cmd/wfvet ./...

# staticcheck mirrors the blocking CI lint job. Uses an installed
# staticcheck when present, otherwise fetches it (needs network);
# not part of `check` only because offline environments could not run
# `check` at all otherwise.
STATICCHECK_VERSION ?= 2025.1.1
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	fi

# Known-vulnerability scan, mirroring the non-blocking CI job (needs
# network to fetch govulncheck and the vulnerability database).
GOVULNCHECK_VERSION ?= v1.1.4
govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# fmt rewrites instead of checking.
fmt:
	gofmt -w .

check: build lint race bench
