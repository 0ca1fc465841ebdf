package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gqs/internal/functions"
)

// This file is the campaign executor. The paper's evaluation runs
// month-long fuzzing campaigns; one runner caps throughput at one core.
// The workflow is embarrassingly parallel per iteration — every
// iteration generates its own graph, restarts its own instance, and
// synthesizes its own queries — so the executor fans iterations across a
// worker pool. Every campaign front-end (the paper tables, cmd/gqs, the
// public gqs.Tester) runs on it, at one worker or many.
//
// The determinism contract: the unit of sharding is the LOGICAL
// iteration, not the worker and not the batch. Shard i derives its RNG
// seed from (campaign seed, i) alone and records its stats into slot i.
// Workers drain contiguous *ranges* of shards (work units of Batch
// iterations) to amortize per-shard setup, but a unit is nothing more
// than a loop over its shards — each one reseeded exactly as if it were
// enqueued alone. The work decomposition is therefore independent of
// both the worker count and the batch size, and a merged campaign at
// `seed S, workers 1, batch 1` reports the byte-identical bug set as
// `seed S, workers N, batch K` — only wall-clock time changes.

// ShardSeed derives the RNG seed of logical shard i from the campaign
// seed. Exposed so connector factories can derive matching per-shard
// streams (e.g. flaky-injection seeds) that stay independent of the
// worker count.
func ShardSeed(seed int64, shard int) int64 {
	return functions.DeriveSeed(seed, int64(shard))
}

// TargetFactory builds the connector for one shard. Every call must
// return an independent instance — its own engine, fault catalog, and
// flaky wrapper — because shards execute concurrently and connectors are
// not goroutine-safe.
type TargetFactory func(shard int) (Target, error)

// ShardSeeder is the optional connector-reuse extension of Target: a
// connector that can re-derive all its per-shard deterministic state
// (engine seed and execution counter, flaky-injection stream) for a new
// shard index. A worker builds one such connector and reuses it across
// every shard it drains, calling SeedShard before each one, the first
// included; this skips the per-shard engine and fault-catalog
// construction, under the contract that after SeedShard(i) the target
// behaves byte-identically to a freshly built factory(i) instance.
// Every campaign connector is one. A worker builds any other connector
// for its shard and closes it after that shard.
type ShardSeeder interface {
	SeedShard(shard int)
}

// ParallelConfig bounds one sharded campaign.
type ParallelConfig struct {
	// Workers is the worker-pool size; 0 selects GOMAXPROCS. The pool is
	// clamped to the number of pending work units (more workers than
	// units is waste).
	Workers int
	// Iterations is the number of logical shards, one workflow iteration
	// (graph generation + instance restart + query batch) each.
	Iterations int
	// Batch is the work-unit size: each unit a worker drains is a
	// contiguous range of Batch logical iterations (the tail unit may be
	// shorter). 0 or negative selects 1. Batching amortizes per-unit
	// scheduling and checkpoint costs; it never changes what any shard
	// computes, so results are byte-identical across batch sizes.
	Batch int
	// Runner configures each shard's runner. Runner.Seed is the campaign
	// seed; shard i runs with ShardSeed(Runner.Seed, i).
	Runner RunnerConfig
	// Share, when set, dedups the per-iteration graph, schema and sealed
	// snapshot across every executor pass that runs the same logical
	// shards — e.g. the per-GDB legs of a campaign, whose shard-i graphs
	// are identical by construction. The first pass to reach shard i
	// generates, seals and publishes; later passes adopt the published
	// triple and advance their RNG stream past its generation draws
	// without generating, so generation, the seal and the per-schema
	// index build happen once per shard instead of once per shard per
	// target.
	Share *SnapshotShare
	// UnitDone observes each work unit that ran to completion, called
	// from the worker goroutine that ran it immediately afterwards (and
	// after the checkpointer recorded it) with the summed stats of its
	// shards. It is not called for units restored from the checkpointer,
	// for units still in flight when the context is canceled —
	// cancellation is monotonic, so a UnitDone call guarantees the
	// unit's full, uninterrupted stats — nor for units in which any
	// shard's target factory failed: a factory error is transient
	// infrastructure trouble, and recording the unit as complete would
	// make a resumed campaign skip (never retry) the failed shard.
	// Callers touching shared state must synchronize.
	UnitDone func(start, count int, s Stats)
}

// workUnit is one contiguous range of logical shards drained by a
// single worker.
type workUnit struct {
	start, count int
}

// ShardStats is one shard's outcome.
type ShardStats struct {
	Shard int
	Stats Stats
}

// ParallelStats is the merged, order-independent outcome of a sharded
// campaign: per-field sums over the shards plus the pool's wall-clock
// time. The merged Stats.Elapsed sums per-shard busy time, restored
// units included; Parallelism uses the live part only.
type ParallelStats struct {
	Stats
	Wall    time.Duration
	Workers int
	// Ran counts the logical iterations this run actually attempted
	// (including failed attempts); Restored counts the iterations
	// restored from a checkpoint without running. Ran+Restored ≤
	// Iterations, with the gap being canceled-before-start shards.
	Ran      int
	Restored int
	// RanQueries counts the queries executed live this run and
	// RanElapsed sums their shards' busy time (restored units' queries
	// and busy time are in Stats but not here).
	RanQueries int
	RanElapsed time.Duration
	Shards     []ShardStats // indexed by shard, always in shard order
}

// Parallelism is the achieved parallelism of this run: live busy time
// over the pool's wall-clock time. Restored units are excluded — their
// busy time was spent by another run, against another clock.
func (p *ParallelStats) Parallelism() float64 {
	if p.Wall <= 0 {
		return 0
	}
	return p.RanElapsed.Seconds() / p.Wall.Seconds()
}

// Add accumulates another stats block; the merge layer sums per-shard
// stats this way, so the totals are independent of completion order.
func (s *Stats) Add(o Stats) {
	s.Graphs += o.Graphs
	s.Queries += o.Queries
	s.Passes += o.Passes
	s.LogicBugs += o.LogicBugs
	s.ErrorBugs += o.ErrorBugs
	s.Skips += o.Skips
	s.Elapsed += o.Elapsed
	s.Robust.Add(o.Robust)
}

// RunParallel is RunCheckpointedParallel as a plain run: no context to
// cancel it, no checkpointer and no hooks.
func RunParallel(cfg ParallelConfig, factory TargetFactory, observe func(shard int, target Target, tc *TestCase)) *ParallelStats {
	return RunCheckpointedParallel(context.Background(), cfg, "", factory, observe, nil, DurableHooks{})
}

// RunCheckpointedParallel is the campaign executor: it runs
// cfg.Iterations logical shards across a worker pool and merges the
// results. observe (optional) sees every test case together with its
// shard index and that shard's target (for fault attribution): calls for
// one shard are sequential, but calls for different shards arrive
// concurrently from different goroutines — observers touching shared
// state must synchronize.
//
// A factory error costs one failed iteration (recorded in the merged
// Stats.Robust), never the campaign — the same degraded-not-dead
// contract the Runner keeps for a target that will not come up.
//
// Once ctx is done the feed loop stops enqueueing units, idle workers
// drain the queue without running, and in-flight shards stop between
// queries. A canceled run still returns merged stats for whatever
// completed.
//
// ck (nil ⇒ a plain run) journals the campaign's units under the target
// name. A unit the checkpointer restored from an earlier run is not run:
// the feed loop hands it to hooks.Restore, in ascending unit order and
// before any unit is enqueued, and its recorded stats merge as if it had
// run. A recorded unit whose range no longer matches the batching is
// ignored rather than half-restored (the fingerprint pins the batch, so
// this only guards against hand-edited journals). Every unit that runs
// to completion is recorded, with hooks.Payload's state, before
// cfg.UnitDone sees it.
func RunCheckpointedParallel(ctx context.Context, cfg ParallelConfig, name string,
	factory TargetFactory, observe func(shard int, target Target, tc *TestCase),
	ck *Checkpointer, hooks DurableHooks) *ParallelStats {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	n := cfg.Iterations
	if n < 0 {
		n = 0
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = 1
	}
	perShard := make([]Stats, n)
	// Resume pass: restored units get their recorded stats and never
	// reach the queue. The feed loop below only sees the rest. A
	// restored unit's summed stats land in its start slot; the merged
	// totals are identical to per-shard placement.
	pending := make([]workUnit, 0, (n+batch-1)/batch)
	restored := 0
	for us := 0; us < n; us += batch {
		count := min(batch, n-us)
		if u, ok := ck.take(name, us); ok && u.UnitCount() == count {
			if hooks.Restore != nil {
				hooks.Restore(u)
			}
			u.Stats.Robust.RestoredIterations += count
			perShard[us] = u.Stats
			restored += count
			continue
		}
		pending = append(pending, workUnit{start: us, count: count})
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	var ran, ranQueries, ranElapsed atomic.Int64
	jobs := make(chan workUnit)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One runner serves the worker for its lifetime: before each
			// shard it is bound to the shard's connector and reseeded.
			// A ShardSeeder connector is built once and reseeded per
			// shard too; any other is built for its shard and closed
			// after it. Reuse changes which instance runs a shard, never
			// what the shard computes: the shard's RNG streams derive
			// from (campaign seed, shard) alone.
			rn := NewRunnerCtx(ctx, nil, cfg.Runner)
			var reused Target
			defer closeTarget(&reused)
			runShard := func(shard int) bool {
				target := reused
				if target == nil {
					t, err := factory(shard)
					if err != nil {
						var s Stats
						s.Robust.FailedIterations++
						perShard[shard] = s
						return false
					}
					target = t
				}
				if s, ok := target.(ShardSeeder); ok {
					s.SeedShard(shard)
					reused = target
				} else {
					defer closeTarget(&target)
				}
				rn.startShard(target, ShardSeed(cfg.Runner.Seed, shard), cfg.Share, shard)
				var report func(*TestCase)
				if observe != nil {
					report = func(tc *TestCase) { observe(shard, target, tc) }
				}
				rn.RunIteration(report)
				perShard[shard] = rn.Stats()
				return true
			}
			for u := range jobs {
				if ctx.Err() != nil {
					continue // canceled: drain the queue without running
				}
				complete := true
				for shard := u.start; shard < u.start+u.count; shard++ {
					if ctx.Err() != nil {
						complete = false
						break
					}
					ran.Add(1)
					if !runShard(shard) {
						// Keep running the unit's other shards — their work
						// is still valid — but the unit must not be
						// reported complete (see UnitDone).
						complete = false
						continue
					}
					ranQueries.Add(int64(perShard[shard].Queries))
					ranElapsed.Add(int64(perShard[shard].Elapsed))
				}
				// Cancellation is monotonic: a nil ctx.Err() here proves
				// the whole unit ran uninterrupted, so recording it as
				// complete is safe even though the check races the cancel.
				if !complete || ctx.Err() != nil {
					continue
				}
				var sum Stats
				for shard := u.start; shard < u.start+u.count; shard++ {
					sum.Add(perShard[shard])
				}
				if ck != nil {
					rec := UnitRecord{Target: name, Shard: u.start, Count: u.count, Queries: sum.Queries, Stats: sum}
					if hooks.Payload != nil {
						rec.Payload = hooks.Payload(name, u.start, u.count)
					}
					ck.Record(rec)
				}
				if cfg.UnitDone != nil {
					cfg.UnitDone(u.start, u.count, sum)
				}
			}
		}()
	}
feed:
	for _, u := range pending {
		select {
		case jobs <- u:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	ps := &ParallelStats{
		Workers:    workers,
		Wall:       time.Since(start),
		Ran:        int(ran.Load()),
		Restored:   restored,
		RanQueries: int(ranQueries.Load()),
		RanElapsed: time.Duration(ranElapsed.Load()),
	}
	ps.Shards = make([]ShardStats, n)
	for i := range perShard {
		ps.Shards[i] = ShardStats{Shard: i, Stats: perShard[i]}
		ps.Stats.Add(perShard[i])
	}
	return ps
}

// closeTarget closes a connector if it supports closing; the pointer
// form lets deferred worker cleanup see the final reused instance.
func closeTarget(t *Target) {
	if t == nil || *t == nil {
		return
	}
	if c, ok := (*t).(interface{ Close() error }); ok {
		c.Close()
	}
}
