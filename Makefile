# Development targets. `make check` is the gate every change must
# pass: build, formatting, vet, the full test suite, and the same
# suite under the race detector — the concurrency in internal/parallel
# and the codec's sharded motion search make -race non-negotiable
# (see ARCHITECTURE.md, determinism guarantees).

GO ?= go

.PHONY: all build fmt vet test race cross bench bench-json docs-lint perfbench-check fuzz soak-smoke check

# Seconds each fuzz target runs under `make fuzz` (CI uses the same
# smoke budget; raise it locally for a real fuzzing session).
FUZZTIME ?= 5s

all: check

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt required for:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Cross-architecture gate: vet and build the whole module for arm64.
# SAD16's row loop is assembly on amd64 only (internal/motion
# sad_amd64.s); every other architecture must still compile the
# portable SWAR kernel through sad_other.go, which an amd64-only build
# never type-checks.
cross:
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...

# Reduced-scale reproduction of every figure benchmark.
bench:
	$(GO) test -bench . -benchtime 1x

# Benchtime for the kernel micro-benchmarks feeding BENCH_kernels.json.
# 0.5s per benchmark keeps a full regeneration under two minutes while
# giving stable ns/op on the tiny kernels.
BENCHTIME ?= 0.5s

# Regenerate the committed benchmark trajectories, parsed into JSON
# by pbpair-benchjson so they can be diffed across revisions:
#  - BENCH_kernels.json: the encode-phase fast/reference kernel pairs
#    (SAD, half-pel, DCT, bitstream, VLC) plus the end-to-end encoder,
#    five samples each (-count 5; the JSON holds the median with its
#    min/max), gated by -check-pairs on the medians.
#  - BENCH_sim.json: the simulate-phase pairs (fused frame metrics,
#    concealment boundary matching) plus the decoder, gated by
#    -check-pairs — the build fails if any fast kernel measures
#    slower than the scalar reference it replaced.
#  - BENCH_analytic.json: the closed-form grid engine, gated on its
#    points/s and mc_speedup_x metrics being present (the speedup vs
#    an equivalent 5-seed Monte-Carlo cell, documented >= 100x).
#  - BENCH_mc.json: the bit-packed Monte-Carlo batch engine, gated on
#    its documented floors — the dedup speedup over the scalar trial
#    loop (>= 20x at 5% loss) and the figure-level bar (a 10k-trial
#    Figure 5 point at most 2x the wall-clock of fig5MultiSeed, the
#    test oracle that reruns the scalar Figure 5 once per seed, at 5
#    seeds, i.e. vs_5seed_x >= 0.5).
#  - BENCH_serve.json: the serving layer, gated on the 10k-session
#    scale figure — aggregate frames/s over the full run (>= 10000,
#    the sharded-datapath floor), genuinely batched receives (>= 5
#    datagrams per recvmmsg wakeup under the fleet's per-frame report
#    torrent), at least one lineage re-merge proving the fork ->
#    quiesce -> fold-back lifecycle fires under full fanout load, and
#    shard_rx_balance >= 0.5 — the kernel's SO_REUSEPORT steering must
#    actually spread the fleet across the receive shards.
bench-json:
	$(GO) test -run xxx -bench 'BenchmarkSAD|BenchmarkCompensateHalf|BenchmarkForward|BenchmarkInverse|BenchmarkWriteBits|BenchmarkReadBits|BenchmarkWriteEvent|BenchmarkReadEvent|BenchmarkEncodeParallel' \
		-benchmem -benchtime $(BENCHTIME) -count 5 \
		./internal/motion/ ./internal/dct/ ./internal/bitstream/ ./internal/entropy/ . \
		| $(GO) run ./cmd/pbpair-benchjson -check-pairs -out BENCH_kernels.json
	@echo wrote BENCH_kernels.json
	$(GO) test -run xxx -bench 'BenchmarkFrameStats|BenchmarkBadPixels|BenchmarkBoundaryCost|BenchmarkConceal|BenchmarkDecodeFrame' \
		-benchmem -benchtime $(BENCHTIME) \
		./internal/metrics/ ./internal/conceal/ ./internal/codec/ \
		| $(GO) run ./cmd/pbpair-benchjson -check-pairs -out BENCH_sim.json
	@echo wrote BENCH_sim.json
	$(GO) test -run xxx -bench 'BenchmarkServe' -benchtime $(BENCHTIME) \
		./internal/serve/ \
		| $(GO) run ./cmd/pbpair-benchjson \
			-require 'BenchmarkServeFarm:frames/s,BenchmarkServeFarm:MB/s,BenchmarkServeFarm:p50_us,BenchmarkServeFarm:p99_us,BenchmarkServeThroughput:frames/s,BenchmarkServeThroughput:MB/s,BenchmarkServeFarm10k:frames/s,BenchmarkServeFarm10k:datagrams_per_syscall,BenchmarkServeFarm10k:lineage_merges,BenchmarkServeFarm10k:shard_rx_balance' \
			-min 'BenchmarkServeFarm10k:frames/s=10000,BenchmarkServeFarm10k:datagrams_per_syscall=5,BenchmarkServeFarm10k:lineage_merges=1,BenchmarkServeFarm10k:shard_rx_balance=0.5' \
			-out BENCH_serve.json
	@echo wrote BENCH_serve.json
	$(GO) test -run xxx -bench 'BenchmarkAnalyticGrid' -benchtime $(BENCHTIME) \
		./internal/experiment/ \
		| $(GO) run ./cmd/pbpair-benchjson \
			-require 'BenchmarkAnalyticGrid:points/s,BenchmarkAnalyticGrid:mc_speedup_x' \
			-out BENCH_analytic.json
	@echo wrote BENCH_analytic.json
	$(GO) test -run xxx -bench 'BenchmarkSimBatch$$|BenchmarkFig5BatchPoint' -benchtime $(BENCHTIME) \
		./internal/experiment/ \
		| $(GO) run ./cmd/pbpair-benchjson \
			-require 'BenchmarkSimBatch:trials/s,BenchmarkSimBatch:lanes_per_decode,BenchmarkFig5BatchPoint:trials/s' \
			-min 'BenchmarkSimBatch:speedup_x=20,BenchmarkFig5BatchPoint:vs_5seed_x=0.5' \
			-out BENCH_mc.json
	@echo wrote BENCH_mc.json

# Session-churn smoke under the race detector: a fixed pool of client
# slots that finish and immediately rejoin, over and over — the
# lifecycle stress (ephemeral-port reuse, metric teardown racing
# admission, lineage membership folding) that a fixed fleet never
# exercises. Deliberately small so it stays well under 30 seconds on
# two cores; the full-scale version is TestSoakTenThousandSessions.
soak-smoke:
	GOMAXPROCS=2 $(GO) test -race -run TestChurnSoak -count=1 ./internal/serve/

# Documentation gate: every relative link in the repo's markdown must
# resolve, and the docs must track the code — pbpair-mdlint
# cross-checks OPERATIONS.md against the live pbpair-serve/pbpair-load
# flag sets and the serve-layer metric names, and every -flag on a
# documented cmd/ tool command line against that tool's flag set.
docs-lint:
	$(GO) run ./cmd/pbpair-mdlint .

# The benchmark harness under perfbench/ is its own module (it pins
# the parent module with a replace directive), so `go build ./...`
# from the root never compiles it. Vet and test it here, so a change to
# the experiment API cannot break the benchmark silently.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Short fuzz smoke over every fuzz target: decoder, entropy reader,
# stream container, the fast-vs-reference kernel equivalence harness
# (SAD, DCT, bitstream, VLC, frame metrics, concealment) and the
# analytic-vs-Monte-Carlo agreement check. Each target gets FUZZTIME.
fuzz:
	$(GO) test -run xxx -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME) ./internal/codec/
	$(GO) test -run xxx -fuzz FuzzEncodeSpecFingerprint -fuzztime $(FUZZTIME) ./internal/experiment/
	$(GO) test -run xxx -fuzz FuzzAnalyticVsMC -fuzztime $(FUZZTIME) ./internal/experiment/
	$(GO) test -run xxx -fuzz FuzzBatchVsScalar -fuzztime $(FUZZTIME) ./internal/experiment/
	$(GO) test -run xxx -fuzz FuzzReadEvent -fuzztime $(FUZZTIME) ./internal/entropy/
	$(GO) test -run xxx -fuzz FuzzReadUE -fuzztime $(FUZZTIME) ./internal/entropy/
	$(GO) test -run xxx -fuzz FuzzReader -fuzztime $(FUZZTIME) ./internal/stream/
	$(GO) test -run xxx -fuzz FuzzSADEquiv -fuzztime $(FUZZTIME) ./internal/motion/
	$(GO) test -run xxx -fuzz FuzzMetricsEquiv -fuzztime $(FUZZTIME) ./internal/metrics/
	$(GO) test -run xxx -fuzz FuzzConcealEquiv -fuzztime $(FUZZTIME) ./internal/conceal/
	$(GO) test -run xxx -fuzz FuzzDCTEquiv -fuzztime $(FUZZTIME) ./internal/dct/
	$(GO) test -run xxx -fuzz FuzzBitstreamEquiv -fuzztime $(FUZZTIME) ./internal/bitstream/
	$(GO) test -run xxx -fuzz FuzzVLCDecodeEquiv -fuzztime $(FUZZTIME) ./internal/entropy/

check: build fmt vet test race cross soak-smoke docs-lint perfbench-check
