package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"gqs/internal/core"
	"gqs/internal/faults"
	"gqs/internal/gdb"
	"gqs/internal/metrics"
)

// This file is the campaign pipeline every front-end runs on — the paper
// tables, the benchmark's checks and the gqs command: one leg per GDB,
// each fanning the campaign's iterations across core.RunParallel, and a
// streaming merge of the per-shard detections into a canonical,
// order-independent report.
//
// The merge is the half of the determinism contract that lives above the
// executor. Work units complete in wall-clock order, which varies run to
// run; the merge therefore never looks at completion order. Detections
// are buffered per shard during the run and *streamed* into a dedicated
// merger goroutine as each unit completes: the merger holds completed
// ranges in a pending set and folds them strictly in ascending shard
// order, deduplicating against a campaign-wide seen-set. Folding unit
// [s, s+c) therefore always happens after every shard < s has been
// folded and before any shard ≥ s+c: early shards merge (and a Monitor
// prints them) while late shards still run. A finding's canonical
// AtQuery index is its shard-local query index plus the query counts of
// every earlier shard — the index it would have had in a purely
// sequential replay of the shards — so `seed S, workers 1, batch 1` and
// `seed S, workers N, batch K` produce byte-identical CanonicalBugReport
// output.

// Detection is one failing test case of a campaign, handed to a Monitor
// as the merge reaches its shard.
type Detection struct {
	GDB   string
	Shard int
	// Bug is the injected fault the case triggered; nil when no fault
	// was attributed.
	Bug *faults.Bug
	// Case is the failing test case. A restored detection's case carries
	// only Seq, Query, Steps, Verdict and Features.
	Case *core.TestCase
	// Report is the case's reproducible bug report under
	// CampaignConfig.Reports; "" for unattributed cases and repeats.
	Report string
	// Fresh marks the campaign's first detection of Bug.
	Fresh bool
	// Restored marks a detection restored from the checkpoint journal.
	Restored bool
}

// Monitor follows a campaign as it runs; the gqs command prints from
// one. The callbacks are optional and never run concurrently: per leg,
// LegStart, then every Detection in ascending shard order as its unit
// merges, then LegDone with the leg's executor stats.
type Monitor struct {
	// AllCases reports every failing case of the units that run, not
	// only each shard's first detection of each bug (and every case no
	// fault was attributed to). The repeats never become findings and
	// are never journaled, so restored units report the latter only.
	AllCases  bool
	LegStart  func(gdb string)
	Detection func(d Detection)
	LegDone   func(gdb string, ps *core.ParallelStats)
}

// shardEvent is one shard-local detection, buffered until the merge:
// the shard's first detection of each bug, every detection no fault was
// attributed to, and, under Monitor.AllCases, the repeats.
type shardEvent struct {
	bug     *faults.Bug    // nil: no injected fault was attributed
	tc      *core.TestCase // restored events: Seq, Query, Steps, Verdict, Features
	report  string         // under CampaignConfig.Reports
	repeat  bool           // not the shard's first detection of bug
	latency time.Duration
}

// shardLog is everything one shard reports: its test-case tallies and
// its detections, in shard-local execution order.
type shardLog struct {
	queries  int
	skips    int
	events   []shardEvent
	restored bool
}

// detected reports whether the shard already holds a first detection of
// bug.
func (l *shardLog) detected(bug *faults.Bug) bool {
	for _, ev := range l.events {
		if ev.bug != nil && !ev.repeat && ev.bug.ID == bug.ID {
			return true
		}
	}
	return false
}

// RunCampaign runs the campaign cfg describes under a cancelable context
// and an optional checkpointer (nil ⇒ plain run), reporting its progress
// to mon (nil ⇒ nobody): completed units are journaled, restored units
// are skipped, and cancellation stops between units. A canceled
// campaign's merge covers only the units that completed, and callers
// resuming later discard it. The caller owns ck: flush and close it
// after the campaign returns.
func RunCampaign(ctx context.Context, cfg CampaignConfig, ck *core.Checkpointer, mon *Monitor) *Campaign {
	return runCampaign(ctx, cfg, ck, mon, nil)
}

// campaignRun is one campaign's state across its legs. wrap, when
// non-nil, wraps every connector the campaign builds before the executor
// sees it; the differential tests use it to move execution paths.
type campaignRun struct {
	cfg  CampaignConfig
	ck   *core.Checkpointer
	mon  *Monitor
	wrap func(gdb.Connector) core.Target
	c    *Campaign
	seen map[string]bool
	// ran and ranQueries count the iterations and queries this run
	// executed, the live work Campaign.Throughput reports.
	ran, ranQueries int
	// share holds one snapshot per shard for the whole campaign: shard
	// i's generated graph is identical in every per-GDB leg (its RNG
	// seed depends only on the campaign seed and i), so the seal and the
	// snapshot's index build happen once per shard instead of once per
	// shard per GDB.
	share *core.SnapshotShare
}

func runCampaign(ctx context.Context, cfg CampaignConfig, ck *core.Checkpointer, mon *Monitor, wrap func(gdb.Connector) core.Target) *Campaign {
	if mon == nil {
		mon = &Monitor{}
	}
	names := cfg.gdbs()
	r := &campaignRun{
		cfg: cfg, ck: ck, mon: mon, wrap: wrap,
		c:     &Campaign{Workers: cfg.Workers},
		seen:  map[string]bool{},
		share: core.NewSnapshotShare(cfg.Iterations, len(names)),
	}
	start := time.Now()
	for _, name := range names {
		if ctx.Err() != nil {
			break
		}
		r.leg(ctx, name)
	}
	r.c.Wall = time.Since(start)
	r.c.Throughput = metrics.Throughput{Iterations: int64(r.ran), Queries: int64(r.ranQueries),
		Bugs: int64(len(r.c.Findings)), Elapsed: r.c.Wall}
	return r.c
}

// leg runs the campaign against one GDB, streaming completed work units
// into the canonical ascending-shard merge.
func (r *campaignRun) leg(ctx context.Context, name string) {
	cfg := r.cfg
	n := max(cfg.Iterations, 0)
	if r.mon.LegStart != nil {
		r.mon.LegStart(name)
	}
	pcfg := core.ParallelConfig{
		Workers:    cfg.Workers,
		Iterations: n,
		Batch:      cfg.ResolvedBatch(),
		Runner:     campaignRunnerConfig(cfg),
		Share:      r.share,
	}
	connect := gdb.NewFactory(gdb.FactoryConfig{
		GDB:       name,
		Live:      cfg.Live,
		FlakyRate: cfg.FlakyRate,
		Seed:      cfg.Seed,
		NoPlan:    cfg.NoPlan,
	})
	factory := func(shard int) (core.Target, error) {
		conn, err := connect(shard)
		if err != nil || r.wrap == nil {
			return conn, err
		}
		return r.wrap(conn), nil
	}

	// Shard slots are disjoint and observer calls per shard are
	// sequential, so the logs need no locking (see RunParallel's
	// observer contract). The checkpoint hooks obey the same slotting:
	// Payload runs on the worker that just finished the unit, Restore on
	// the single-threaded feed loop before any worker starts.
	logs := make([]shardLog, n)

	// The streaming merge: completed unit ranges arrive on a channel (a
	// restored unit's range from the feed loop, a live unit's from the
	// worker that ran it — both after the unit's log slots are final and
	// its payload is journaled, so the channel send orders the slot
	// writes before the merger's reads) and the merger folds them
	// strictly in ascending shard order, holding out-of-order ranges in
	// a pending set. Only the merger goroutine touches r.c, r.seen and
	// r.mon.Detection until it is joined below. Units canceled
	// mid-flight are never announced and never merged — exactly the
	// units a resume discards and re-runs.
	type unitRange struct{ start, count int }
	merge := make(chan unitRange, 64)
	merged := make(chan struct{})
	go func() {
		defer close(merged)
		pending := make(map[int]int)
		next := 0
		for u := range merge {
			pending[u.start] = u.count
			for count, ok := pending[next]; ok; count, ok = pending[next] {
				delete(pending, next)
				r.mergeLogs(name, logs[next:next+count], next)
				next += count
			}
		}
	}()

	undecoded := 0
	hooks := core.DurableHooks{
		Payload: func(_ string, start, count int) json.RawMessage {
			return encodeShardLogs(logs[start : start+count])
		},
		Restore: func(u core.UnitRecord) {
			restored, ok := decodeShardLogs(name, u.Payload, u.UnitCount())
			if !ok {
				// The unit's detections are lost; keep its tallies so the
				// campaign totals and later findings' AtQuery stay right.
				undecoded++
				restored[0].queries, restored[0].skips = u.Stats.Queries, u.Stats.Skips
			}
			copy(logs[u.Shard:], restored)
			merge <- unitRange{start: u.Shard, count: len(restored)}
		},
	}
	pcfg.UnitDone = func(start, count int, _ core.Stats) {
		merge <- unitRange{start: start, count: count}
	}
	allCases := r.mon.AllCases
	start := time.Now()
	ps := core.RunCheckpointedParallel(ctx, pcfg, name, factory, func(shard int, target core.Target, tc *core.TestCase) {
		log := &logs[shard]
		log.queries++
		switch tc.Verdict {
		case core.VerdictSkip:
			log.skips++
			return
		case core.VerdictPass:
			return
		}
		var bug *faults.Bug
		if tb, ok := target.(interface{ TriggeredBug() *faults.Bug }); ok {
			bug = tb.TriggeredBug()
		}
		// Shard-local first-detection filter; the cross-shard (and
		// cross-GDB) dedup happens at merge time against r.seen.
		repeat := bug != nil && log.detected(bug)
		if repeat && !allCases {
			return
		}
		ev := shardEvent{bug: bug, tc: tc, repeat: repeat, latency: time.Since(start)}
		if cfg.Reports && bug != nil && !repeat {
			ev.report = tc.Report(name)
		}
		log.events = append(log.events, ev)
	}, r.ck, hooks)
	close(merge)
	<-merged
	r.ran += ps.Ran
	r.ranQueries += ps.RanQueries
	r.c.Robust.Add(ps.Robust)
	r.c.UndecodedUnits += undecoded
	r.c.legs = append(r.c.legs, ps.Stats)
	if r.mon.LegDone != nil {
		r.mon.LegDone(name, ps)
	}
}

// mergeLogs folds buffered per-shard detections into the campaign in
// canonical order: ascending shard index, AtQuery = campaign queries so
// far + earlier shards' query counts + the shard-local index. The
// merger streams contiguous ranges through here in ascending order;
// startShard is the range's first logical shard. Each log is dropped
// once merged, so a leg holds only the detections still in flight.
func (r *campaignRun) mergeLogs(gdbName string, logs []shardLog, startShard int) {
	c := r.c
	base := c.Queries
	for i := range logs {
		log := &logs[i]
		for _, ev := range log.events {
			fresh := ev.bug != nil && !ev.repeat && !r.seen[ev.bug.ID]
			if fresh {
				r.seen[ev.bug.ID] = true
				c.Findings = append(c.Findings, &Finding{
					Bug:      ev.bug,
					GDB:      gdbName,
					Query:    ev.tc.Query,
					Features: ev.tc.Features,
					Steps:    ev.tc.Steps,
					AtQuery:  base + ev.tc.Seq,
					Graph:    ev.tc.Graph,
					Schema:   ev.tc.Schema,
					Shard:    startShard + i,
					Latency:  ev.latency,
				})
			}
			if r.mon.Detection != nil {
				r.mon.Detection(Detection{
					GDB: gdbName, Shard: startShard + i, Bug: ev.bug, Case: ev.tc,
					Report: ev.report, Fresh: fresh, Restored: log.restored,
				})
			}
		}
		base += log.queries
		c.Skips += log.skips
		*log = shardLog{}
	}
	c.Queries = base
}

// CanonicalBugReport renders the campaign's merged outcome with every
// hardware-dependent field (wall time, latency, throughput) stripped:
// two campaigns at the same seed must produce byte-identical reports
// regardless of worker count. The determinism tests and the benchmark's
// campaign checks compare exactly this string.
func (c *Campaign) CanonicalBugReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "queries=%d skips=%d findings=%d\n", c.Queries, c.Skips, len(c.Findings))
	for _, f := range c.Findings {
		fmt.Fprintf(&b, "%s %s kind=%v manifest=%v shard=%d at=%d steps=%d query=%s\n",
			f.GDB, f.Bug.ID, f.Bug.Kind, f.Bug.Manifest, f.Shard, f.AtQuery, f.Steps, f.Query)
	}
	return b.String()
}
