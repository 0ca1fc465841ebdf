GO ?= go
GOFMT ?= gofmt

.PHONY: build fmt test vet race bench bench-regress bench-go bench-e2e bench-test profile verify smoke crashtest plandiff

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

# Sharded-executor throughput bench: the same fixed-seed campaign at 1
# worker and at >=2 workers (GOMAXPROCS forced to >=2 for the parallel
# leg), plus the prepared-vs-text parse-share micro-comparison, the
# compiled-plan-vs-interpreter plan-exec micro-comparison, the
# COW-vs-clone snapshot-reset micro-comparison, and the durable-campaign
# checkpoint-overhead comparison (min of 3 reps per leg), and the
# large-graph leg (bulk-load rate, per-hop match latency, hub expansion
# index vs scan); writes BENCH_pr10.json — including the
# parallel_efficiency (speedup / workers) and
# campaign_allocs_per_iteration the regression gate tracks — and fails
# if the two campaign runs report different bug sets.
bench:
	$(GO) run ./cmd/gqs-bench -exp bench -iterations 20 -bench-out BENCH_pr10.json

# Regression gate: compares BENCH_pr10.json against every other
# BENCH_*.json and fails on >10% parallel-throughput regression, a
# parallel-efficiency regression vs a baseline at the same worker count
# (annotated instead on single-CPU hosts), a like-for-like bug-set or
# allocs-per-iteration (+10%) regression, checkpoint-journal write time
# or total durable overhead above 1% of the campaign, a
# durable-vs-plain bug-report mismatch, a plan-vs-interpreter result
# mismatch, an index-vs-scan result mismatch on the large-graph leg, or
# a >1.5x per-hop p95 latency regression vs any baseline carrying the
# large_graph block.
bench-regress:
	$(GO) run ./cmd/gqs-bench -exp bench-regress -bench-out BENCH_pr10.json

# Planned-vs-interpreted differential under the race detector: every
# query of a fixed-seed synthesized corpus (plus a curated construct
# list) must produce byte-identical results — or the identical error —
# on the compiled-plan path and the tree-walking interpreter, on every
# dialect configuration.
plandiff:
	$(GO) test -race -count=1 -run 'TestPlanDiff' ./internal/engine/

# End-to-end benchmark (BENCHMARK.json): builds bench/gqsbench from
# source and runs every workload; pass a single workload through
# bench/run.sh directly, e.g. `bash bench/run.sh --workload replay`.
bench-e2e:
	bash bench/run.sh

# Tests of the benchmark module. It is its own Go module (gqs/bench), so
# the root `go test ./...` does not reach it.
bench-test:
	cd bench && $(GO) test ./... && $(GO) test -race ./...

# Go micro-benchmarks (the pre-existing bench target).
bench-go:
	$(GO) test -bench=. -benchmem ./...

# CPU + heap profiles of the fixed-seed campaign; inspect with
# `go tool pprof cpu.out` / `go tool pprof mem.out`.
profile:
	$(GO) run ./cmd/gqs-bench -exp bench -iterations 20 -cpuprofile cpu.out -memprofile mem.out

# Kill-and-resume differential under the race detector, repeated: a
# campaign killed at a checkpoint boundary (journal tail torn on top) at
# the default worker count, at 1 worker and at GOMAXPROCS workers, plus a
# kill in the middle of a journal write, must resume into the
# byte-identical bug report of an uninterrupted run.
crashtest:
	$(GO) test -race -count=3 -run 'TestKillResumeDifferential|TestMidWriteKillResume' ./internal/experiments/

# Tier-1 verification gate (see ROADMAP.md), plus the formatting gate,
# the crash-safety differential, the planned-vs-interpreted
# differential, the benchmark module's tests, and the perf-regression
# gate over the recorded BENCH_*.json history.
verify: build fmt vet test race crashtest plandiff bench-test bench-regress

# Short resilient-campaign smoke under the race detector: live faults,
# flaky connection, watchdog timeouts — the hardened-runner acceptance.
smoke:
	$(GO) test -race -run 'TestResilientCampaign' -count=1 ./internal/experiments/
