# DALIA-Go build/verify/bench targets.
#
#   make test       — tier-1 verification: vet + build + full test suite,
#                     plus vet of the nested benchmark module (perfbench/),
#                     which ./... does not reach
#   make ci         — the CI pipeline locally: gofmt gate, tier-1, race,
#                     purego fallback, then the non-blocking bench smoke
#   make ci-local   — the full workflow job sequence, including the
#                     GOMAXPROCS race matrix, the chaos suite, the arm64
#                     cross-build and the latency gate — what a green run
#                     of .github/workflows/ci.yml proves, runnable offline
#   make bench      — microbenchmarks (testing.B, 1 iteration, with allocs)
#   make baseline   — write $(BENCH) (refused if the file exists: stored
#                     baselines are never overwritten): the perf baseline this PR
#                     establishes (EXP selects the experiment; PR 1 wrote
#                     the kernels baseline, PR 2 the serving baseline,
#                     PR 3 the parallel-in-time baseline, PR 4 the hybrid
#                     two-level scheduling baseline, PR 5 the recursive
#                     reduced-system engine baseline, PR 6 the serving
#                     latency baseline, PR 7 the crash-recovery baseline,
#                     PR 8 the mixed-precision baseline, PR 9 the task-DAG
#                     scheduler baseline)
#   make bench-smoke— regression gates: kernels GEMM rate vs BENCH_1.json
#                     (25% floor), serving engine path vs BENCH_2.json,
#                     pintime rates vs BENCH_3.json, hybrid solver cycle
#                     rates vs BENCH_4.json, reduced-engine cycle rates vs
#                     BENCH_5.json (40% floors — the quick-mode runs are
#                     shorter and noisier), serving p99 latency vs
#                     BENCH_6.json (25% ceiling, p99 only) and crash
#                     recovery vs BENCH_7.json (restart cost ceiling plus
#                     the unconditional byte-identical-predictions check)
#                     and mixed-precision GEMM rates — fp32 and fp64 —
#                     vs BENCH_8.json (40% floor; the gate also refuses
#                     a baseline recorded under a different precision mode)
#                     and the task-DAG scheduler vs BENCH_9.json (40%
#                     floor on the dag and spawn/join rates)
#   make all        — test and bench (baseline is run explicitly)

GO ?= go
# PR/BASE/BENCH parameterize the baseline artifact so successive PRs never
# clobber earlier baselines (BENCH_1.json is the PR 1 kernels reference the
# smoke compares against). BASE lags PR by one since PR 8 (persistence
# hardening) gated on the existing baselines without adding a new one.
PR ?= 10
BASE ?= 9
BENCH ?= BENCH_$(BASE).json
EXP ?= sched

.PHONY: all test vet fmt-check race purego bench baseline bench-smoke ci ci-local

all: test bench

fmt-check:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test: vet
	$(GO) -C perfbench vet ./...
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Portable path: the amd64 assembly micro-kernel compiled out.
purego:
	$(GO) test -tags purego ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./...

baseline:
	@if [ -e $(BENCH) ]; then \
		echo "$(BENCH) exists; set PR/BASE or BENCH to a new file"; exit 1; \
	fi
	$(GO) run ./cmd/dalia-bench -exp=$(EXP) -out $(BENCH)

bench-smoke:
	$(GO) run ./cmd/dalia-bench -exp=kernels -compare BENCH_1.json
	$(GO) run ./cmd/dalia-bench -exp=serving -quick -compare BENCH_2.json -maxregress 0.4
	$(GO) run ./cmd/dalia-bench -exp=pintime -quick -compare BENCH_3.json -maxregress 0.4
	$(GO) run ./cmd/dalia-bench -exp=hybrid -quick -compare BENCH_4.json -maxregress 0.4
	$(GO) run ./cmd/dalia-bench -exp=reduced -quick -compare BENCH_5.json -maxregress 0.4
	$(GO) run ./cmd/dalia-bench -exp=latency -quick -compare BENCH_6.json -maxregress 0.25
	$(GO) run ./cmd/dalia-bench -exp=recovery -quick -compare BENCH_7.json -maxregress 1.0
	$(GO) run ./cmd/dalia-bench -exp=precision -quick -compare BENCH_8.json -maxregress 0.4
	$(GO) run ./cmd/dalia-bench -exp=sched -quick -compare BENCH_9.json -maxregress 0.4

ci: fmt-check test race purego
	-$(MAKE) bench-smoke

# Mirror of the GitHub workflow, job by job: tier1, race, the race-pintime
# GOMAXPROCS matrix over the partition/replica packages, the chaos
# fault-injection suite, the purego fallback with the arm64 cross-build,
# then the non-blocking perf smoke and latency gate.
ci-local: fmt-check test race
	GOMAXPROCS=2 $(GO) test -race -count=1 ./internal/sched/ ./internal/bta/ ./internal/comm/ ./internal/inla/ ./internal/predict/ ./internal/serve/
	GOMAXPROCS=8 $(GO) test -race -count=1 ./internal/sched/ ./internal/bta/ ./internal/comm/ ./internal/inla/ ./internal/predict/ ./internal/serve/
	$(GO) test -race -count=2 \
		-run 'Chaos|Fault|Kill|Shrink|Revoke|Timeout|Corrupt|Dropped|Dead|Quarantine|Recovery|Overload|Shutdown|Drain|Panic|Readyz|Resilience|Torture|Restart|Interrupted' \
		./internal/comm/ ./internal/bta/ ./internal/inla/ ./internal/serve/ ./internal/store/
	$(GO) test -count=1 -run 'CrashRestartRecovery' ./cmd/dalia-serve/
	$(GO) test -tags purego ./...
	$(GO) test -tags purego -count=1 -run '32|Mixed|Refined|Precision' ./internal/dense/ ./internal/bta/ ./internal/inla/
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	-$(MAKE) bench-smoke
