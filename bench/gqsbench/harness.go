package main

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"gqs/internal/core"
	"gqs/internal/experiments"
	"gqs/internal/faults"
	"gqs/internal/gdb"
)

// The campaign harness runs a campaign the way experiments.RunGQSCampaign
// does — one core.RunParallel pass per simulated GDB over a shared
// SnapshotShare, connectors from gdb.NewFactory, the same runner
// configuration and batch — but from outside, so the benchmark sees each
// test case's latency and can wrap the connectors for tracing.
// Every run checks that the harness's canonical bug report is
// byte-identical to experiments.RunGQSCampaign's for the same config.

// shardEvent is one shard-local first detection of an injected fault.
type shardEvent struct {
	bug     *faults.Bug
	query   string
	steps   int
	atLocal int // 1-based query index within the shard
}

// shardLog is what one shard reports to the merge.
type shardLog struct {
	queries int
	skips   int
	events  []shardEvent
	lat     []time.Duration // one per test case
}

// caseKey names one test case: the GDB, the logical shard, and the
// runner's sequence number within the shard.
type caseKey struct {
	gdb   string
	shard int
	seq   int
}

// campaignRun is the outcome of one driven campaign.
type campaignRun struct {
	camp   *experiments.Campaign
	perGDB map[string]core.Stats
	// lat holds every test case's latency; busy sums the executor's
	// per-shard Elapsed.
	lat  []time.Duration
	busy time.Duration
	// ran counts GDB-iterations attempted; failed those whose target
	// could not be brought up.
	ran    int
	failed int
	// parallelWall sums the per-GDB executor walls (the denominator of
	// core.shard.parallelism).
	parallelWall time.Duration

	// Filled only when traced.
	cases    map[caseKey]string
	verdict  time.Duration
	execErrs int64
}

// runnerConfig mirrors the runner configuration experiments derives
// from a CampaignConfig; the report check against RunGQSCampaign fails
// if the two drift apart.
func runnerConfig(cfg experiments.CampaignConfig) core.RunnerConfig {
	return core.RunnerConfig{
		Seed:            cfg.Seed,
		Graph:           cfg.Graph,
		Synth:           cfg.Synth,
		QueriesPerGraph: 6,
		QueriesPerGT:    2,
		Robust:          cfg.Robust,
	}
}

// driveCampaign runs cfg across the four simulated GDBs. ck (optional)
// journals completed units exactly as RunGQSCampaignDurable does; tr
// (optional) wraps every connector and records spans under parent.
func driveCampaign(cfg experiments.CampaignConfig, ck *core.Checkpointer, tr *Tracer, parent int) *campaignRun {
	out := &campaignRun{
		camp:   &experiments.Campaign{Workers: cfg.Workers},
		perGDB: map[string]core.Stats{},
	}
	if tr != nil {
		out.cases = map[caseKey]string{}
	}
	seen := map[string]bool{}
	share := core.NewSnapshotShare(cfg.Iterations, len(gdb.All()))
	for _, sim := range gdb.All() {
		driveLeg(out, sim.Name(), cfg, ck, share, seen, tr, parent)
	}
	return out
}

func driveLeg(out *campaignRun, name string, cfg experiments.CampaignConfig, ck *core.Checkpointer,
	share *core.SnapshotShare, seen map[string]bool, tr *Tracer, parent int) {
	n := cfg.Iterations
	logs := make([]shardLog, n)
	connect := gdb.NewFactory(gdb.FactoryConfig{GDB: name, Live: cfg.Live, FlakyRate: cfg.FlakyRate, Seed: cfg.Seed})

	var execErrs atomic.Int64
	var wrapMu sync.Mutex
	var wrapped []*tracedTarget
	factory := func(shard int) (core.Target, error) {
		c, err := connect(shard)
		if err != nil || tr == nil {
			return c, err
		}
		t := newTracedTarget(c, shard, tr, &execErrs)
		wrapMu.Lock()
		wrapped = append(wrapped, t)
		wrapMu.Unlock()
		return t, nil
	}

	legStart := time.Now()
	legID := -1
	var casesMu sync.Mutex
	var verdictNs atomic.Int64
	observe := func(shard int, target core.Target, tc *core.TestCase) {
		log := &logs[shard]
		log.queries++
		log.lat = append(log.lat, tc.Elapsed)
		if tr != nil {
			traceQuery(tr, target.(*tracedTarget), tc, legID, shard, &verdictNs)
			casesMu.Lock()
			out.cases[caseKey{name, shard, tc.Seq}] = tc.Query
			casesMu.Unlock()
		}
		switch tc.Verdict {
		case core.VerdictSkip:
			log.skips++
			return
		case core.VerdictPass:
			return
		}
		b := target.(interface{ TriggeredBug() *faults.Bug }).TriggeredBug()
		if b == nil {
			return
		}
		for _, ev := range log.events {
			if ev.bug.ID == b.ID {
				return
			}
		}
		log.events = append(log.events, shardEvent{bug: b, query: tc.Query, steps: tc.Steps, atLocal: log.queries})
	}
	if tr != nil {
		// The leg span's ID is needed by the observer before the leg ends,
		// so it is recorded up front and its end patched below.
		legID = tr.Add("gdb.leg", legStart, legStart, parent, -1)
	}

	pcfg := core.ParallelConfig{
		Workers:    cfg.Workers,
		Iterations: n,
		Batch:      cfg.ResolvedBatch(),
		Runner:     runnerConfig(cfg),
		Share:      share,
	}
	hooks := core.DurableHooks{
		Payload: func(_ string, start, count int) json.RawMessage {
			return encodeShardLogs(logs[start : start+count])
		},
	}
	ps := core.RunCheckpointedParallel(context.Background(), pcfg, name, factory, observe, ck, hooks)

	if tr != nil {
		tr.SetEnd(legID, time.Now())
		for _, t := range wrapped {
			_, rest := t.take(time.Now())
			tr.Adopt(legID, rest)
		}
		out.verdict += time.Duration(verdictNs.Load())
		out.execErrs += execErrs.Load()
	}
	for i, s := range ps.Shards {
		out.busy += s.Stats.Elapsed
		out.lat = append(out.lat, logs[i].lat...)
	}
	out.ran += ps.Ran
	out.failed += ps.Robust.FailedIterations
	out.parallelWall += ps.Wall
	out.perGDB[name] = ps.Stats
	mergeLogs(out.camp, name, logs, seen)
}

// traceQuery closes one query span from the test case's own elapsed
// time, adopts the reset and execute spans the connector recorded inside
// it, and times the verdict's result comparison on the same results.
func traceQuery(tr *Tracer, t *tracedTarget, tc *core.TestCase, legID, shard int, verdictNs *atomic.Int64) {
	end := time.Now()
	start := end.Add(-tc.Elapsed)
	inside, before := t.take(start)
	qid := tr.Add("core.query", start, end, legID, shard)
	tr.Adopt(qid, inside)
	tr.Adopt(legID, before)
	if tc.Expected != nil && tc.Actual != nil {
		v0 := time.Now()
		tc.Expected.Equal(tc.Actual)
		verdictNs.Add(int64(time.Since(v0)))
	}
}

// mergeLogs folds one leg's shard logs into the campaign in ascending
// shard order, deduplicating against the campaign-wide seen set.
func mergeLogs(c *experiments.Campaign, gdbName string, logs []shardLog, seen map[string]bool) {
	base := c.Queries
	for i, log := range logs {
		for _, ev := range log.events {
			if seen[ev.bug.ID] {
				continue
			}
			seen[ev.bug.ID] = true
			c.Findings = append(c.Findings, &experiments.Finding{
				Bug:     ev.bug,
				GDB:     gdbName,
				Query:   ev.query,
				Steps:   ev.steps,
				AtQuery: base + ev.atLocal,
				Shard:   i,
			})
		}
		base += log.queries
		c.Skips += log.skips
	}
	c.Queries = base
}

// shardLogRecord and shardEventRecord are the journal payload of one
// shard log, in the format RunGQSCampaignDurable writes and restores; the
// durable workload's resume check reads the harness's journal back
// through RunGQSCampaignDurable.
type shardEventRecord struct {
	Bug   string `json:"bug"`
	Query string `json:"query"`
	Steps int    `json:"steps"`
	At    int    `json:"at"`
}

type shardLogRecord struct {
	Queries int                `json:"queries"`
	Skips   int                `json:"skips"`
	Events  []shardEventRecord `json:"events,omitempty"`
}

func encodeShardLogs(logs []shardLog) json.RawMessage {
	recs := make([]shardLogRecord, len(logs))
	for i, l := range logs {
		recs[i] = shardLogRecord{Queries: l.queries, Skips: l.skips}
		for _, ev := range l.events {
			recs[i].Events = append(recs[i].Events, shardEventRecord{
				Bug: ev.bug.ID, Query: ev.query, Steps: ev.steps, At: ev.atLocal,
			})
		}
	}
	p, err := json.Marshal(recs)
	if err != nil {
		return nil
	}
	return p
}
