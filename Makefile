GO ?= go

# Kernel micro-benchmarks for measuring while you work. The experiment
# benchmarks (BenchmarkTable*, BenchmarkFig*) are much slower and run via
# `make bench-all`; the repository's benchmark is `make benchmark`.
KERNEL_BENCH = 'BenchmarkLoss(Naive|NegSampling|Rewritten)$$|BenchmarkLossRewrittenWorkers|BenchmarkHausdorffLoss|BenchmarkScoreSlab|BenchmarkMulBlocked|BenchmarkRank$$|BenchmarkSpectralInit|BenchmarkTrainEpoch|BenchmarkTopN(Alloc|Scratch|Batch)'

.PHONY: build test race vet bench bench-all bench-test benchmark check gradcheck fuzz \
	golden-update serve loadgen smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the library packages, including the worker-count
# invariance tests and the Workers=8 short training run, and over the
# commands' own tests (tcssgw's spawn/kill path runs real child processes).
race:
	$(GO) test -race -count=1 ./internal/... ./cmd/...

vet:
	$(GO) vet ./...

# Kernel benchmarks; raw output lands in bench_kernels.txt.
bench:
	$(GO) test -run '^$$' -bench $(KERNEL_BENCH) -benchmem -benchtime=1x -count=1 . ./internal/core | tee bench_kernels.txt
	@# One cold call says little about a 1 ms scan: repeat the J = 131 072
	@# top-N runs (f64/f32/int8, single request and batch of 8) 200 times.
	$(GO) test -run '^$$' -bench 'BenchmarkTopN(Scratch|Batch)/j128k' -benchmem -benchtime=200x -count=1 ./internal/core | tee -a bench_kernels.txt

bench-all:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=1x -count=1 .

# The repository's benchmark (BENCHMARK.json, bench/README.md): four
# fixed-work workloads, six end-to-end metrics each, one process per workload.
# For one workload, or its per-layer rows, run the script directly, e.g.
# `bash bench/run.sh -workload cluster-hot -seed 1 -trace 1`.
benchmark:
	bash bench/run.sh -all

# The benchmark module's own tests (smoke of every workload at 1/200 scale,
# goldens, BENCHMARK.json kept in step). bench/ has its own go.mod, so
# `go test ./...` at the root never reaches them.
bench-test:
	$(GO) -C bench test ./...

# The differential correctness harness (internal/check): every loss head, nn
# layer and gradient-trained baseline swept by the central-difference gradient
# checker, plus the golden-run trajectory comparisons.
gradcheck:
	$(GO) test -run 'Gradcheck|Gradients|Golden' -count=1 ./internal/check ./internal/core ./internal/nn ./internal/baselines

# Short coverage-guided exploration of each fuzz target (the seed corpora
# already run as plain tests in `make test`). Go allows one -fuzz pattern per
# invocation, hence the loop.
FUZZTIME ?= 10s
fuzz:
	for t in FuzzCOOInvariants FuzzScoreSlabVsPredict FuzzHausdorffSymmetry; do \
		$(GO) test -run '^$$' -fuzz $$t -fuzztime $(FUZZTIME) ./internal/check || exit 1; \
	done
	@# The wire decoders every process trusts (the gateway decodes NodeMetrics
	@# from every shard on every scrape), and the node's observe validation.
	for t in FuzzDeadlineBudget FuzzObserveDecode FuzzNodeMetricsDecode; do \
		$(GO) test -run '^$$' -fuzz $$t -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/wire || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz FuzzObserveValidate -fuzztime $(FUZZTIME) ./internal/serve
	@# The two decoders behind every file load and every replica shipment. The
	@# minimizer would otherwise spend up to a minute on the first new input.
	$(GO) test -run '^$$' -fuzz FuzzReadFramed -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/fault
	$(GO) test -run '^$$' -fuzz FuzzDecodeBinary -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/core

# Re-record the golden trajectories after an INTENDED change to training math.
golden-update:
	$(GO) test -run Golden -update -count=1 ./internal/check

# Online serving: train on a preset and expose the HTTP API.
SERVE_PRESET ?= gowalla
SERVE_ADDR ?= :8080
serve:
	$(GO) run ./cmd/tcss serve -preset $(SERVE_PRESET) -addr $(SERVE_ADDR)

# Load generator against a running node or gateway, e.g.
# `make loadgen LOADGEN_FLAGS='-url http://127.0.0.1:8080 -users 360 -pois 800 -times 12'`.
LOADGEN_FLAGS ?=
loadgen:
	$(GO) run ./cmd/loadgen $(LOADGEN_FLAGS)

# End-to-end smokes against real processes: `make smoke` runs all eight
# scenarios, `make <name>-smoke` one of serve resume crash quant ab drift
# cluster chaos. scripts/smoke.sh says what each proves and lists the
# tunables; everything it writes goes under a fresh subdirectory of SMOKE_DIR
# (the system temp dir when empty), removed when it exits.
SMOKE_DIR ?=
smoke:
	bash scripts/smoke.sh all $(SMOKE_DIR)
%-smoke:
	bash scripts/smoke.sh $* $(SMOKE_DIR)

check: build vet test bench-test race gradcheck fuzz
