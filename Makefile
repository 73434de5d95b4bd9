GO ?= go

# Kernel micro-benchmarks for measuring while you work. The experiment
# benchmarks (BenchmarkTable*, BenchmarkFig*) are much slower and run via
# `make bench-all`; the repository's benchmark is `make benchmark`.
KERNEL_BENCH = 'BenchmarkLoss(Naive|NegSampling|Rewritten)$$|BenchmarkLossRewrittenWorkers|BenchmarkHausdorffLoss|BenchmarkScoreSlab|BenchmarkRank$$|BenchmarkSpectralInit|BenchmarkTrainEpoch|BenchmarkTopN(Alloc|Scratch|Batch)|BenchmarkDotRows|BenchmarkHeadKernels|BenchmarkAdamStep|BenchmarkGrowSideInfo'

.PHONY: build test purego race vet fmt loc bench bench-all bench-test benchmark check gradcheck fuzz \
	golden-update serve loadgen smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The pins and goldens again with every assembly body left out (the purego
# tag selects internal/mat's Go reference bodies on amd64 too), so the
# portable path is held to the same bits, not only compiled.
purego:
	$(GO) test -tags purego -count=1 -run 'Pinned|Golden' ./...

# Race-detector pass over the library packages, including the worker-count
# invariance tests and the Workers=8 short training run, and over the
# commands' own tests (tcssgw's spawn/kill path runs real child processes).
race:
	$(GO) test -race -count=1 ./internal/... ./cmd/...

# The second pass vets the build without assembly (internal/mat's AVX2
# bodies are amd64-only), so the portable Go path always compiles.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# Fails when any tracked Go file is not gofmt-clean.
fmt:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

# Size of the program: non-test Go outside bench/, as raw lines and as
# non-blank lines that are not // comments; then raw lines of test Go outside
# bench/, so a move into a test file shows on both sides.
GO_SOURCES = find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat
GO_TESTS = find . -name '*_test.go' ! -path './bench/*' | xargs cat
loc:
	@echo "raw  $$($(GO_SOURCES) | wc -l)"
	@echo "code $$($(GO_SOURCES) | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l)"
	@echo "test $$($(GO_TESTS) | wc -l)"

# Kernel benchmarks; raw output lands in bench_kernels.txt.
bench:
	$(GO) test -run '^$$' -bench $(KERNEL_BENCH) -benchmem -benchtime=1x -count=1 . ./internal/core ./internal/mat | tee bench_kernels.txt
	@# One cold call says little about a 1 ms scan: repeat the J = 131 072
	@# top-N runs (f64/f32/int8, single request and batch of 8) 200 times,
	@# on one core (the serial scan) and on two (split into POI ranges).
	$(GO) test -run '^$$' -bench 'BenchmarkTopN(Scratch|Batch)/j128k' -benchmem -benchtime=200x -count=1 -cpu 1,2 ./internal/core | tee -a bench_kernels.txt

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
	@# from every shard on every scrape), and the node's observe and read
	@# validation.
	for t in FuzzDeadlineBudget FuzzObserveDecode FuzzNodeMetricsDecode; do \
		$(GO) test -run '^$$' -fuzz $$t -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/wire || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz FuzzObserveValidate -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzReadRequest -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/serve
	@# The decoders behind every file load and every replica shipment. The
	@# minimizer would otherwise spend up to a minute on the first new input.
	$(GO) test -run '^$$' -fuzz FuzzReadFramed -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/fault
	$(GO) test -run '^$$' -fuzz FuzzDecodeBinary -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzDecodeJSON -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzDecodeShipment -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzLoadSeqState -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/baselines
	@# The drift stream `tcss replay` reads, and the dataset directory
	@# `tcss -data` loads.
	$(GO) test -run '^$$' -fuzz FuzzReadWeeksJSONL -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/lbsn
	$(GO) test -run '^$$' -fuzz FuzzReadDir -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/lbsn
	@# The eigen solver behind the spectral initialization and the SVD
	@# baselines, on low-rank inputs that annihilate basis vectors.
	$(GO) test -run '^$$' -fuzz FuzzTopEigenvectors -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/mat
	@# The sparse Gram rows the spectral initialization reads, bit for bit
	@# against the dense accumulation they replaced.
	$(GO) test -run '^$$' -fuzz FuzzGramOfUnfolding -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/tensor
	@# The side-information fold, bit for bit against the map-based
	@# reference fold, with and without an old base, across growth.
	$(GO) test -run '^$$' -fuzz FuzzGrowSideInfo -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/core
	@# The one row-dot kernel: assembly and Go bodies against the reference
	@# order, bit for bit, on special values.
	$(GO) test -run '^$$' -fuzz FuzzDotRows -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/mat
	@# The social-Hausdorff head's kernels, the same way, at every shape
	@# remainder and at the clamp bounds.
	$(GO) test -run '^$$' -fuzz FuzzHausdorffKernels -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/mat
	@# The Adam step every trainer takes, the same way, on special values
	@# and at arbitrary hyperparameters.
	$(GO) test -run '^$$' -fuzz FuzzAdamStep -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/mat

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

check: build fmt vet test purego bench-test race gradcheck fuzz
