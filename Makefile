GO ?= go

.PHONY: check vet build test race alloc staticcheck perfbench-check fuzz-smoke bench perf bench-train bench-compress perf-compress

# The full gate: what CI (and any PR) must keep green.
check: vet staticcheck build test race alloc perfbench-check fuzz-smoke

# Static analysis beyond go vet. The toolchain is not vendored and CI
# containers install nothing, so the target degrades to a skip notice when
# the binary is absent; developers with it on PATH get the full run. Pin
# honnef.co/go/tools/cmd/staticcheck@2025.1 when installing locally so
# finding sets are reproducible.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: binary not on PATH; skipping (pin honnef.co/go/tools/cmd/staticcheck@2025.1 to enable)"; \
	fi

# Allocation-regression gate: the serving engine must stay heap-free in
# steady state (AllocsPerRun == 0 for both classifier kernels and for every
# tail strategy — fused, remat, folded and staged; see
# TestEngineZeroAlloc / TestEngineZeroAllocTailModes — and for the compressed
# int4/ternary predict path, TestEngineZeroAllocCompressed, plus the batch-1
# latency shape across every tail mode × kernel and the implicit-GEMM conv
# path, TestEngineZeroAllocBatch1*; all ride the
# same -run prefix), and so must the
# router's fan-out hot path (frame encode, partial decode, score merge; see
# TestRouterZeroAlloc).
alloc:
	$(GO) test -run TestEngineZeroAlloc -count 1 ./internal/engine/
	$(GO) test -run TestRouterZeroAlloc -count 1 ./internal/serve/

vet:
	$(GO) vet ./...

# The serving benchmark (perfbench/, run as `bash perfbench/run.sh --workload
# <w>`) is a nested module the root ./... never reaches; vet and test it in
# place.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Short fuzz run of the /partial response decoder from its seed corpus in
# internal/serve/testdata/fuzz.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePartialResponse$$' -fuzztime 10s ./internal/serve/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the packages with hand-rolled parallelism (the serving front
# end's hammer test lives in internal/serve).
race:
	$(GO) test -race ./internal/parallel/... ./internal/tensor/... ./internal/nn/... ./internal/quant/... ./internal/hdc/... ./internal/hdlearn/... ./internal/engine/... ./internal/serve/...

# Kernel microbenchmarks (tensor package) with allocation counts.
bench:
	$(GO) test -run xxx -bench . -benchmem ./internal/tensor/ ./internal/parallel/

# Serving performance (batch-1, open-loop batcher, bulk int8, sharded HTTP)
# is measured by the benchmark, one workload at a time:
#   bash perfbench/run.sh --workload <edge-b1|online-open|bulk-int8|cluster-http>

# Regenerate the machine-readable perf report (end-to-end serving + kernels
# + training path).
perf:
	$(GO) run ./cmd/nshd-bench -perf BENCH_PR3.json

# Re-run only the training-path benchmarks and diff them against the
# committed BENCH_PR3.json baseline (writes the fresh rows to a scratch file).
bench-train:
	$(GO) run ./cmd/nshd-bench -perf-train /tmp/nshd_bench_train.json -perf-baseline BENCH_PR3.json

# Re-run the post-training compression tradeoff benchmarks (bytes / tail
# latency / accuracy at keep ∈ {100,75,50,25}% × {int4, ternary}, the 1-point
# auto search and its remat composition) and diff against the committed
# BENCH_PR8.json baseline.
bench-compress:
	$(GO) run ./cmd/nshd-bench -perf-compress /tmp/nshd_bench_compress.json -perf-compress-baseline BENCH_PR8.json

# Regenerate the committed compression baseline.
perf-compress:
	$(GO) run ./cmd/nshd-bench -perf-compress BENCH_PR8.json
