package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"gqs/internal/core"
	"gqs/internal/engine"
	"gqs/internal/experiments"
	"gqs/internal/gdb"
	"gqs/internal/graph"
)

// replayItem is one synthesized query with everything a check needs.
type replayItem struct {
	pq       *engine.PreparedQuery
	expected *engine.Result
	snap     *graph.Snapshot
	schema   *graph.Schema
}

// replayCorpus is the replay workload's input: the queries of the first
// campaign shards, prepared once, and the five connectors they run on.
type replayCorpus struct {
	items []replayItem
	conns []*gdb.Sim // the four simulated GDBs, then the reference last
}

// buildReplayCorpus synthesizes and prepares the queries of the first
// `shards` shards of the campaign config at seed, in the runner's draw
// order and the reference dialect.
func buildReplayCorpus(seed int64, shards int) (*replayCorpus, error) {
	cfg := experiments.DefaultCampaignConfig()
	cfg.Seed = seed
	rcfg := runnerConfig(cfg)
	maxResult := rcfg.Plan().MaxResultSet
	rc := &replayCorpus{conns: append(gdb.All(), gdb.NewReference())}
	for shard := 0; shard < shards; shard++ {
		r := rand.New(rand.NewSource(core.ShardSeed(seed, shard)))
		g, schema := graph.Generate(r, rcfg.Graph)
		snap := g.Seal()
		syn := core.NewSynthesizer(r, g, schema, rcfg.Synth)
		for q := 0; q < rcfg.QueriesPerGraph; q++ {
			gt := core.SelectGroundTruth(r, g, maxResult)
			for k := 0; k < rcfg.QueriesPerGT; k++ {
				sq, err := syn.Synthesize(gt)
				if err != nil {
					continue
				}
				rc.items = append(rc.items, replayItem{
					pq: engine.PrepareAST(sq.Query, sq.Text), expected: sq.Expected, snap: snap, schema: schema,
				})
			}
		}
	}
	if len(rc.items) == 0 {
		return nil, fmt.Errorf("replay corpus at seed %d is empty", seed)
	}
	return rc, nil
}

// outcomeKey digests one connector's outcome: the error text, or the
// columns and the sorted rows.
func outcomeKey(res *engine.Result, err error) uint64 {
	h := fnv.New64a()
	if err != nil {
		h.Write([]byte("error: " + err.Error()))
		return h.Sum64()
	}
	h.Write([]byte(strings.Join(res.Columns, "|")))
	for _, row := range res.Canonical() {
		h.Write([]byte{'\n'})
		h.Write([]byte(row))
	}
	return h.Sum64()
}

// replayRun is the outcome of one sequence of checks.
type replayRun struct {
	checks  int
	wall    time.Duration
	lat     []time.Duration
	refErrs int
	// mismatch counts outcomes that differ from the first time the same
	// (query, connector) pair ran; wrong counts reference results that
	// differ from the synthesized expected result.
	mismatch int
	wrong    int
	execErrs int64
	verdict  time.Duration
}

// replay runs checks in seeded shuffled passes over the corpus until the
// deadline passes (or, with limit > 0, exactly limit checks). A check is
// one query on all five connectors, each reset to the query's snapshot
// first. outcomes persists across calls so every run compares against the
// first.
func (rc *replayCorpus) replay(seed int64, deadline time.Duration, limit int, outcomes [][]uint64, tr *Tracer) replayRun {
	ctx := context.Background()
	var run replayRun
	ref := len(rc.conns) - 1
	order := make([]int, len(rc.items))
	start := time.Now()
	for pass := 0; ; pass++ {
		for i := range order {
			order[i] = i
		}
		rand.New(rand.NewSource(seed+int64(pass))).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			if limit > 0 && run.checks >= limit || limit <= 0 && run.checks > 0 && time.Since(start) >= deadline {
				run.wall = time.Since(start)
				return run
			}
			it := &rc.items[idx]
			c0 := time.Now()
			checkID := -1
			if tr != nil {
				checkID = tr.Add("replay.check", c0, c0, -1, run.checks)
			}
			for ci, c := range rc.conns {
				t0 := time.Now()
				if err := c.ResetSnapshot(it.snap, it.schema); err != nil {
					run.refErrs++ // a reset never fails on these connectors
				}
				t1 := time.Now()
				res, err := c.ExecutePrepared(ctx, it.pq)
				t2 := time.Now()
				if tr != nil {
					tr.Add("gdb.reset", t0, t1, checkID, run.checks)
					tr.Add("engine.exec", t1, t2, checkID, run.checks)
				}
				if err != nil {
					run.execErrs++
				}
				key := outcomeKey(res, err)
				if outcomes[idx][ci] == 0 {
					outcomes[idx][ci] = key
				} else if outcomes[idx][ci] != key {
					run.mismatch++
				}
				if ci == ref {
					if err != nil {
						run.refErrs++
						continue
					}
					v0 := time.Now()
					if !it.expected.Equal(res) {
						run.wrong++
					}
					run.verdict += time.Since(v0)
				}
			}
			end := time.Now()
			tr.SetEnd(checkID, end)
			run.lat = append(run.lat, end.Sub(c0))
			run.checks++
		}
	}
}

// replayShards is how many campaign shards the corpus draws from.
func replayShards(tiny bool) int {
	if tiny {
		return 2
	}
	// The p99 check is set by the corpus's heaviest queries; 256 shards
	// (about 3,000 queries) put some 30 of them beyond it, so the tail
	// varies little from seed to seed.
	return 256
}

// runReplay is the `replay` workload: synthesis and compilation happen in
// set-up, so the window measures execution, fault triggers and the
// oracle's result comparison alone.
func runReplay(o Options) (*Result, error) {
	res := newResult()
	rc, setup, err := timeSetup(setupReps, func() (*replayCorpus, error) {
		return buildReplayCorpus(o.Seed, replayShards(o.Tiny))
	})
	if err != nil {
		return nil, err
	}
	res.Set("setup_s", setup)
	outcomes := make([][]uint64, len(rc.items))
	for i := range outcomes {
		outcomes[i] = make([]uint64, len(rc.conns))
	}

	var tr *Tracer
	if o.Trace {
		tr = NewTracer()
	}
	rt0 := readRuntime()
	run := rc.replay(o.Seed, o.Window, 0, outcomes, tr)
	rt := rt0.to(readRuntime())
	res.Attempted, res.Failed = run.checks, run.refErrs
	res.Note("window: %d checks over %d queries x %d connectors, %.2fs", run.checks, len(rc.items), len(rc.conns), run.wall.Seconds())
	check := func(r replayRun, what string) {
		res.Check("replay_outcomes_stable"+what, r.mismatch == 0,
			fmt.Sprintf("%d of %d (query, connector) outcomes differ from their first run", r.mismatch, r.checks*len(rc.conns)))
		res.Check("reference_equals_expected"+what, r.wrong == 0 && r.refErrs == 0,
			fmt.Sprintf("%d wrong and %d failed reference results in %d checks", r.wrong, r.refErrs, r.checks))
	}
	check(run, "")

	if !o.Trace {
		setOpMetrics(res, run.wall, run.lat, rt)
		return res, nil
	}
	// The same checks again, untraced: the tracing overhead and the
	// runtime counters come from this run.
	rt0 = readRuntime()
	plain := rc.replay(o.Seed, 0, run.checks, outcomes, nil)
	rt = rt0.to(readRuntime())
	check(plain, "_untraced")
	planned := 0
	for _, it := range rc.items {
		if it.pq.Planned() {
			planned++
		}
	}
	conns := float64(len(rc.conns))
	res.Set("engine.prepare.planned_ratio", float64(planned)/float64(len(rc.items)))
	setExecMetrics(res, tr, float64(run.wall), float64(run.checks)*conns, run.execErrs)
	resets := tr.Durations("gdb.reset")
	res.Set("gdb.reset.us_per_call", float64(tr.Total("gdb.reset").Nanoseconds())/1e3/float64(len(resets)))
	res.Set("gdb.reset.calls_per_op", float64(len(resets))/float64(run.checks))
	res.Set("core.verdict.us_per_query", float64(run.verdict.Nanoseconds())/1e3/float64(run.checks))
	res.Set("runtime.gc_cpu_share", rt.gcCPUShare)
	res.Set("runtime.alloc_mb_per_op", rt.allocBytes/(1<<20)/float64(plain.checks))
	res.Set("bench.trace_overhead", run.wall.Seconds()/plain.wall.Seconds()-1)
	return res, tr.WriteFile(o.SpansPath)
}
