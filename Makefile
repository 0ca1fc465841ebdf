GO ?= go
GOFMT ?= gofmt

.PHONY: build fmt test vet race fuzz bench bench-go bench-test profile verify smoke crashtest plandiff

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails listing every Go file (the bench module's
# included) that gofmt would rewrite.
fmt:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repository's benchmark (BENCHMARK.json): builds bench/gqsbench
# from source and runs every workload, ending with a JSON line whose
# "correct" field covers the seed-1 bug report, index ≡ scan, durable ≡
# plain and replay stability; pass a single workload through
# bench/run.sh directly, e.g. `bash bench/run.sh --workload replay`.
bench:
	bash bench/run.sh

# Fuzzing, each target for a short, fixed time beyond its committed
# seeds under testdata/fuzz (which also run in `make test`):
#   - FuzzParsePrint: no input panics or hangs the parser, and every
#     input it accepts prints to a fixpoint after one round;
#   - FuzzGroundTruth: for any seed, graph size, dialect and ablation,
#     the fault-free engine returns exactly the synthesized expected
#     result, on the prepared and the text path;
#   - FuzzJournalScan: journal recovery never panics on any bytes, errs
#     only on a foreign header, and its valid prefix rescans and
#     re-frames to itself;
#   - FuzzCheckpointRecover: picking the snapshot to resume from never
#     panics, refuses a foreign fingerprint, and a restored snapshot
#     re-encodes to the same units;
#   - FuzzShardLogsDecode: decoding a unit's payload never panics,
#     returns one log per shard, and reports input it cannot decode.
# The last three are seeded from real journals of a few KB, and
# minimizing a new input of that size takes quadratically many runs, so
# their minimization is capped at 1s to leave the 10s for fuzzing.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParsePrint$$' -fuzztime 10s ./internal/cypher/parser/
	$(GO) test -run '^$$' -fuzz '^FuzzGroundTruth$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzJournalScan$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/journal/
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointRecover$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzShardLogsDecode$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/experiments/

# Planned-vs-interpreted differential under the race detector: every
# query of a fixed-seed synthesized corpus (plus a curated construct
# list) must produce byte-identical results — or the identical error —
# on the compiled-plan path and the tree-walking interpreter, on every
# dialect configuration.
plandiff:
	$(GO) test -race -count=1 -run 'TestPlanDiff' ./internal/engine/

# Tests of the benchmark module. It is its own Go module (gqs/bench), so
# the root `go test ./...` does not reach it.
bench-test:
	cd bench && $(GO) test ./... && $(GO) test -race ./...

# Go micro-benchmarks: per-layer diagnostics, not evidence for a
# speedup (that is `make bench`).
bench-go:
	$(GO) test -bench=. -benchmem ./...

# CPU + heap profiles of the fixed-seed Table 3 campaign (four GDBs,
# GOMAXPROCS workers); inspect with `go tool pprof cpu.out` /
# `go tool pprof mem.out`.
profile:
	$(GO) run ./cmd/gqs-bench -exp table3 -iterations 100 -cpuprofile cpu.out -memprofile mem.out

# Kill-and-resume differential under the race detector, repeated: a
# campaign killed at a checkpoint boundary (journal tail torn on top) at
# the default worker count, at 1 worker and at GOMAXPROCS workers, plus a
# kill in the middle of a journal write, must resume into the
# byte-identical bug report of an uninterrupted run; and the gqs command,
# canceled at a checkpoint boundary at 1 and 2 workers, must resume into
# an uninterrupted run's output and report files.
crashtest:
	$(GO) test -race -count=3 -run 'TestKillResumeDifferential|TestMidWriteKillResume' ./internal/experiments/
	$(GO) test -race -count=3 -run 'TestCLIKillResumeDifferential' ./cmd/gqs/

# Tier-1 verification gate (see ROADMAP.md), plus the formatting gate,
# the fuzzers, the crash-safety differentials, the
# planned-vs-interpreted differential and the benchmark module's tests.
# Performance is measured by `make bench`, not gated here.
verify: build fmt vet test race fuzz crashtest plandiff bench-test

# Short resilient-campaign smoke under the race detector: live faults,
# flaky connection, watchdog timeouts — the hardened-runner acceptance.
smoke:
	$(GO) test -race -run 'TestResilientCampaign' -count=1 ./internal/experiments/
