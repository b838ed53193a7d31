# Developer entry points. `make check` is the full pre-merge gate.

GO ?= go

.PHONY: check vet build test race procs-smoke serve-smoke chaos corrupt-smoke fuzz-smoke trace-smoke perfbench-smoke bench bench-kernels bench-json bench-smoke bench-compare bench-compare-smoke experiments

check: vet build test race procs-smoke serve-smoke chaos corrupt-smoke fuzz-smoke trace-smoke perfbench-smoke bench-smoke bench-compare-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The two distributed engines run real goroutines; keep them race-clean,
# along with the kernel worker pool and the pooled-body kernels that many
# goroutines call at once (internal/matrix), the sketch engines that fan out
# across both platforms, and the round driver (internal/rounds, plus the EM
# engines' crash/resume suites in internal/ppca), whose interrupt is set from
# the context and watchdog goroutines while the driver polls it.
race:
	$(GO) test -race ./internal/rdd ./internal/mapred ./internal/parallel ./internal/matrix ./internal/rsvd ./internal/serve ./internal/rounds ./internal/ppca

# One-core leg: the MapReduce engine runs its tasks on min(cores, splits,
# parallel.Workers()) workers, the calling goroutine among them, so at
# GOMAXPROCS=1 every map and reduce task runs inline. The engine and EM suites
# must pass there too.
procs-smoke:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/mapred ./internal/ppca ./internal/rsvd

# Serving-layer smoke: registry round-trip, both wire protocols, the
# zero-allocation gate on the binary hot path, and the graceful drain.
serve-smoke:
	$(GO) test -count=1 ./internal/serve

# Fault-injection suite under the race detector: once with the fixed default
# seed, then with a randomized seed, logged so any failure is replayable via
# SPCA_CHAOS_SEED=<seed> make chaos.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' .
	@seed=$$(od -An -N4 -tu4 /dev/urandom | tr -d ' '); \
	echo "chaos: randomized seed $$seed (replay with SPCA_CHAOS_SEED=$$seed)"; \
	SPCA_CHAOS_SEED=$$seed $(GO) test -race -count=1 -run 'TestChaos' .

# Data-integrity suite: payload-corruption and checkpoint-corruption
# injection, multi-generation recovery, quarantine, and the clean-run
# snapshot golden. Same fixed-then-randomized seed discipline as chaos.
corrupt-smoke:
	$(GO) test -race -count=1 -run 'TestCorrupt' .
	@seed=$$(od -An -N4 -tu4 /dev/urandom | tr -d ' '); \
	echo "corrupt: randomized seed $$seed (replay with SPCA_CHAOS_SEED=$$seed)"; \
	SPCA_CHAOS_SEED=$$seed $(GO) test -race -count=1 -run 'TestCorrupt' .

# Short randomized pass over the matrix-reader fuzzers (the seed corpus
# always runs; this adds a few seconds of real mutation). Part of `make
# check` so the parsers stay panic-free on hostile input.
fuzz-smoke:
	$(GO) test ./internal/matrix -run '^$$' -fuzz FuzzReadSparse$$ -fuzztime 5s
	$(GO) test ./internal/matrix -run '^$$' -fuzz FuzzReadSparseBinary$$ -fuzztime 5s
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz FuzzReadSnapshot$$ -fuzztime 5s

# End-to-end observability gate: fit with a JSONL observer, re-parse the
# stream, and require the reconstructed trace to fingerprint identically to
# the in-memory collector's; then validate the Chrome trace_event export.
trace-smoke:
	$(GO) test -count=1 -run 'TestTraceSmoke' .

# Self-tests of the repository benchmark (perfbench/, a module of its own):
# each workload once at tiny sizes, checking the pinned fingerprints and
# SimSeconds in perfbench/pins.json, that every metric BENCHMARK.json names is
# emitted with its unit, and that a corrupted pin or a tampered serve response
# fails the run.
perfbench-smoke:
	cd perfbench && $(GO) test -count=1 ./...

bench:
	$(GO) test -bench=. -benchmem

# Matrix kernels, sequential vs parallel pool, including the sketch engines'
# orthonormalization shapes (BenchmarkKernelsQR: the 5000x26 driver QR,
# BenchmarkKernelsGramSchmidt: one 1250x26 Spark partition basis).
bench-kernels:
	$(GO) test ./internal/matrix -run '^$$' -bench BenchmarkKernels -benchmem
	$(GO) test . -run '^$$' -bench BenchmarkParallelSpeedup

# Machine-readable benchmark baseline: in-place kernels, steady-state mapper
# allocations, the end-to-end EM fits on pooled scratch, and the sketch
# engines' fit paths, written to $(BENCH_JSON) for committing and diffing
# against earlier BENCH_*.json files (the compare step only diffs benchmarks
# both files contain, so baselines that still carry the retired *Legacy A/B
# rows stay comparable).
BENCH_JSON ?= BENCH_10.json
bench-json:
	{ $(GO) test ./internal/matrix -run '^$$' -bench BenchmarkKernelsInPlace -benchmem -benchtime 20x; \
	  $(GO) test ./internal/ppca -run '^$$' -bench 'BenchmarkSteady|Pooled|BenchmarkFitStream' -benchmem -benchtime 10x; \
	  $(GO) test ./internal/rsvd -run '^$$' -bench 'BenchmarkFitRSVD' -benchmem -benchtime 10x; \
	  $(GO) test ./internal/ssvd -run '^$$' -bench 'BenchmarkFitSSVD' -benchmem -benchtime 10x; \
	  $(GO) test ./internal/serve -run '^$$' -bench 'BenchmarkServe' -benchmem -benchtime 50x; } \
	| $(GO) run ./cmd/benchjson -out $(BENCH_JSON)

# Diff two committed baselines: >10% ns/op growth or any allocs/op increase
# on a common benchmark exits 1. `make bench-compare` checks the two most
# recent baselines; override with BENCH_OLD/BENCH_NEW. ns/op is wall-clock
# and baselines are recorded at different times, so cross-baseline ns diffs
# are only meaningful under comparable machine conditions (allocs/op is
# load-independent); to validate a PR under ambient drift, regenerate both
# sides in one sitting (`git stash` the change for the old side) or raise
# -ns-tol via `go run ./cmd/benchjson -compare -ns-tol 0.5 old new`.
BENCH_OLD ?= BENCH_8.json
BENCH_NEW ?= BENCH_10.json
bench-compare:
	$(GO) run ./cmd/benchjson -compare $(BENCH_OLD) $(BENCH_NEW)

# Fixture-based smoke of the compare gate (no benchmarks re-run); part of
# `make check` so the comparator itself cannot rot.
bench-compare-smoke:
	@$(GO) run ./cmd/benchjson -compare cmd/benchjson/testdata/old.json cmd/benchjson/testdata/new.json >/dev/null
	@! $(GO) run ./cmd/benchjson -compare cmd/benchjson/testdata/old.json cmd/benchjson/testdata/regressed.json >/dev/null 2>&1
	@echo "bench-compare-smoke: comparator gates fixtures correctly"

# One-iteration smoke of the bench harness and the JSON converter; part of
# `make check` so the pipeline cannot rot. The throwaway output stays out of
# the committed baselines.
bench-smoke:
	@$(GO) test ./internal/ppca -run '^$$' -bench BenchmarkSteady -benchmem -benchtime 1x \
	| $(GO) run ./cmd/benchjson -out .bench-smoke.json
	@rm -f .bench-smoke.json

experiments:
	$(GO) run ./cmd/experiments -exp all -profile quick
