// Package experiments implements the harness that regenerates every
// table and figure of the GQS paper's evaluation (§5) against the
// simulated GDBs. Each experiment returns a structured result and can
// render itself as a text table; the gqs-bench command and the root
// benchmark suite drive them. Its GQS campaign (RunCampaign) is also the
// one the gqs command runs and prints.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"gqs/internal/baselines"
	"gqs/internal/core"
	"gqs/internal/engine"
	"gqs/internal/faults"
	"gqs/internal/gdb"
	"gqs/internal/graph"
	"gqs/internal/metrics"
)

// Finding is one distinct bug discovered during a campaign, with the
// first query that triggered it.
type Finding struct {
	Bug      *faults.Bug
	GDB      string
	Query    string
	Features *metrics.Features
	Steps    int // synthesis steps (GQS findings only)
	AtQuery  int // canonical campaign query index of first detection
	Graph    *graph.Graph
	Schema   *graph.Schema
	// Shard is the logical shard (iteration) of first detection.
	Shard int
	// Latency is the wall-clock time from campaign start to the
	// detection — the time-to-bug metric. Excluded from the canonical
	// report: it depends on the hardware, not the seed.
	Latency time.Duration
}

// Campaign is the outcome of one GQS testing campaign across the four
// simulated GDBs — the raw material for Table 3 and Figures 10–15.
type Campaign struct {
	Findings []*Finding
	Queries  int
	Skips    int
	// Robust sums what the resilience layer absorbed across all targets
	// (timeouts, retries, restarts, breaker trips, downtime).
	Robust core.RobustnessStats
	// Workers is the configured worker-pool size (0 = GOMAXPROCS); Wall
	// is the campaign's wall-clock time and Throughput the work this run
	// executed in it.
	Workers    int
	Wall       time.Duration
	Throughput metrics.Throughput
	// UndecodedUnits counts the work units restored from the checkpoint
	// journal whose payload did not decode: their stats are in the
	// campaign, their detections are missing from it.
	UndecodedUnits int
	// legs holds each GDB leg's merged executor Stats, in run order.
	legs []core.Stats
}

// CampaignConfig bounds a GQS campaign.
type CampaignConfig struct {
	Seed       int64
	Iterations int // graph generations per GDB
	Graph      graph.GenConfig
	Synth      core.Config
	// Live makes injected faults manifest for real — hangs block until
	// the watchdog cancels them, crashes panic inside the connector —
	// instead of returning simulated errors.
	Live bool
	// FlakyRate wraps each target in a gdb.Flaky injector dropping this
	// fraction of calls with transient errors (0 disables).
	FlakyRate float64
	// Robust bounds the runner's resilience layer (zero ⇒ defaults).
	Robust core.RobustnessConfig
	// Workers is the sharded executor's worker-pool size; 0 selects
	// GOMAXPROCS. The merged bug set is identical for every worker count
	// at the same seed.
	Workers int
	// Batch is the sharded executor's work-unit size: each unit a worker
	// drains is Batch contiguous logical iterations. 0 selects an
	// automatic size from Iterations and Workers (see ResolvedBatch);
	// results are byte-identical for every batch size.
	Batch int
	// GDBs names the simulated GDBs the campaign tests, one leg each, in
	// this order; nil tests the four of gdb.All().
	GDBs []string
	// QueriesPerGraph is the number of ground truths drawn per generated
	// graph; 0 selects 6.
	QueriesPerGraph int
	// Reports renders the reproducible bug report of each shard's first
	// detection of each bug into Detection.Report and the journal
	// payload, so a resumed campaign can still hand it out.
	Reports bool
}

// ResolvedBatch is the effective work-unit size of the sharded
// executor. The automatic choice aims at ~4 units per worker — coarse
// enough to amortize per-unit scheduling and checkpoint costs, fine
// enough that a straggler unit cannot idle the pool — and is a pure
// function of the config (it feeds the checkpoint fingerprint, which
// must not depend on the machine).
func (cfg CampaignConfig) ResolvedBatch() int {
	if cfg.Batch > 0 {
		return cfg.Batch
	}
	if cfg.Workers < 1 {
		return 1
	}
	b := cfg.Iterations / (cfg.Workers * 4)
	if b < 1 {
		b = 1
	}
	if b > 16 {
		b = 16
	}
	return b
}

// DefaultCampaignConfig is sized so the full Table 3 campaign runs in
// seconds while exercising the same parameter ranges as §5.1.
func DefaultCampaignConfig() CampaignConfig {
	return CampaignConfig{
		Seed:       1,
		Iterations: 60,
		Graph:      graph.GenConfig{MaxNodes: 13, MaxRels: 60},
		Synth:      core.DefaultConfig(),
	}
}

// RunGQSCampaign runs GQS against every simulated GDB on the sharded
// executor (see parallel.go), deduplicating findings by injected-fault
// identity (the ground truth the paper's manual deduplication
// approximates).
func RunGQSCampaign(cfg CampaignConfig) *Campaign {
	return runCampaign(context.Background(), cfg, nil, nil, nil)
}

// gdbs returns the names of the GDBs the campaign tests, in leg order.
func (cfg CampaignConfig) gdbs() []string {
	if cfg.GDBs != nil {
		return cfg.GDBs
	}
	var names []string
	for _, sim := range gdb.All() {
		names = append(names, sim.Name())
	}
	return names
}

// campaignRunnerConfig is the one runner configuration every campaign —
// plain or durable — derives from a CampaignConfig. Keeping it
// single-sourced is what lets the checkpoint fingerprint agree with the
// executor.
func campaignRunnerConfig(cfg CampaignConfig) core.RunnerConfig {
	qpg := cfg.QueriesPerGraph
	if qpg <= 0 {
		qpg = 6
	}
	return core.RunnerConfig{
		Seed:            cfg.Seed,
		Graph:           cfg.Graph,
		Synth:           cfg.Synth,
		QueriesPerGraph: qpg,
		QueriesPerGT:    2,
		Robust:          cfg.Robust,
	}
}

// ByGDB groups findings per GDB.
func (c *Campaign) ByGDB() map[string][]*Finding {
	out := map[string][]*Finding{}
	for _, f := range c.Findings {
		out[f.GDB] = append(out[f.GDB], f)
	}
	return out
}

// LogicFindings returns the logic-bug findings only.
func (c *Campaign) LogicFindings() []*Finding {
	var out []*Finding
	for _, f := range c.Findings {
		if f.Bug.Kind.IsLogic() {
			out = append(out, f)
		}
	}
	return out
}

// recordingTarget wraps a connector and records every injected fault any
// executed query triggered — the ground-truth attribution used when a
// baseline tester's oracle runs several queries per round.
type recordingTarget struct {
	sim  *gdb.Sim
	bugs map[string]*faults.Bug
}

func newRecordingTarget(sim *gdb.Sim) *recordingTarget {
	return &recordingTarget{sim: sim, bugs: map[string]*faults.Bug{}}
}

func (rt *recordingTarget) Name() string { return rt.sim.Name() }

func (rt *recordingTarget) Reset(g *graph.Graph, schema *graph.Schema) error {
	return rt.sim.Reset(g, schema)
}

func (rt *recordingTarget) Execute(q string) (*engine.Result, error) {
	res, err := rt.sim.Execute(q)
	if b := rt.sim.TriggeredBug(); b != nil {
		rt.bugs[b.ID] = b
	}
	return res, err
}

func (rt *recordingTarget) drain() []*faults.Bug {
	var out []*faults.Bug
	for _, b := range rt.bugs {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	rt.bugs = map[string]*faults.Bug{}
	return out
}

// TesterEvent is one detection during a baseline (or GQS) campaign, for
// the Figure 18 cumulative curves.
type TesterEvent struct {
	Round int
	Bug   *faults.Bug
}

// TesterCampaign is the outcome of one tester × GDB budgeted campaign.
type TesterCampaign struct {
	Tester         string
	GDB            string
	Rounds         int
	Found          map[string]*faults.Bug
	Events         []TesterEvent
	FalsePositives int
}

// LogicCount returns the number of distinct logic bugs found.
func (tc *TesterCampaign) LogicCount() int {
	n := 0
	for _, b := range tc.Found {
		if b.Kind.IsLogic() {
			n++
		}
	}
	return n
}

// RunBaselineCampaign runs one baseline tester against one simulated GDB
// for a fixed number of oracle rounds, regenerating the graph every
// graphEvery rounds (the instance restarts with it, as all these tools
// do between databases).
func RunBaselineCampaign(tester baselines.Tester, gdbName string, rounds int, seed int64) (*TesterCampaign, error) {
	sim, err := gdb.ByName(gdbName)
	if err != nil {
		return nil, err
	}
	out := &TesterCampaign{Tester: tester.Name(), GDB: gdbName, Rounds: rounds, Found: map[string]*faults.Bug{}}
	if !tester.Supports(gdbName) {
		return out, nil
	}
	r := rand.New(rand.NewSource(seed))
	rt := newRecordingTarget(sim)

	// GDsmith compares against the other systems; give it the pristine
	// reference plus one other dialect, like its multi-GDB setup.
	if gds, ok := tester.(*baselines.GDsmith); ok {
		peerName := "memgraph"
		if gdbName == "memgraph" {
			peerName = "falkordb"
		}
		peer, _ := gdb.ByName(peerName)
		gds.Peers = []baselines.Target{newRecordingTarget(peer)}
		defer func() { gds.Peers = nil }()
	}

	const graphEvery = 10
	var g *graph.Graph
	var schema *graph.Schema
	for round := 0; round < rounds; round++ {
		if round%graphEvery == 0 {
			g, schema = graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 30})
			if err := rt.Reset(g, schema); err != nil {
				return nil, fmt.Errorf("reset %s: %w", rt.Name(), err)
			}
			if gds, ok := tester.(*baselines.GDsmith); ok {
				for _, p := range gds.Peers {
					if err := p.Reset(g, schema); err != nil {
						return nil, fmt.Errorf("reset peer %s: %w", p.Name(), err)
					}
				}
			}
		}
		rep := tester.Test(r, rt, g, schema)
		triggered := rt.drain()
		// Discard peer-side triggers: the Table 6 columns count bugs of
		// the GDB under test. (A peer-only discrepancy is a true report
		// about another system, but not a find for this column.)
		if gds, ok := tester.(*baselines.GDsmith); ok {
			for _, p := range gds.Peers {
				if rt, ok := p.(*recordingTarget); ok {
					rt.drain()
				}
			}
		}
		var be interface{ BugID() string }
		if !rep.Violated && !errors.As(rep.Err, &be) {
			continue
		}
		var own []*faults.Bug
		for _, b := range triggered {
			if b.GDB == gdbName {
				own = append(own, b)
			}
		}
		if len(own) == 0 {
			out.FalsePositives++
			continue
		}
		for _, b := range own {
			if _, dup := out.Found[b.ID]; !dup {
				out.Found[b.ID] = b
				out.Events = append(out.Events, TesterEvent{Round: round, Bug: b})
			}
		}
	}
	return out, nil
}

// RunGQSTimeline runs GQS against one GDB with a round budget, emitting
// detection events comparable to the baseline campaigns (one "round" is
// one synthesized query).
func RunGQSTimeline(gdbName string, rounds int, seed int64) (*TesterCampaign, error) {
	sim, err := gdb.ByName(gdbName)
	if err != nil {
		return nil, err
	}
	out := &TesterCampaign{Tester: "gqs", GDB: gdbName, Rounds: rounds, Found: map[string]*faults.Bug{}}
	cfg := core.RunnerConfig{
		Seed:            seed,
		Graph:           graph.GenConfig{MaxNodes: 10, MaxRels: 30},
		Synth:           core.DefaultConfig(),
		QueriesPerGraph: 5,
		QueriesPerGT:    2,
	}
	rn := core.NewRunner(sim, cfg)
	round := 0
	// Stall guard: on a dead target RunIteration records a failed
	// iteration and returns, so a permanently-down instance must not
	// spin this budget loop forever.
	const maxStalls = 25
	stalls := 0
	for round < rounds && stalls < maxStalls {
		before := round
		rn.RunIteration(func(tc *core.TestCase) {
			round++
			if round > rounds {
				return
			}
			if tc.Verdict != core.VerdictLogicBug && tc.Verdict != core.VerdictErrorBug {
				return
			}
			b := sim.TriggeredBug()
			if b == nil {
				return
			}
			if _, dup := out.Found[b.ID]; !dup {
				out.Found[b.ID] = b
				out.Events = append(out.Events, TesterEvent{Round: round, Bug: b})
			}
		})
		if round == before {
			stalls++
		} else {
			stalls = 0
		}
	}
	return out, nil
}

// fmtF is a compact float formatter for the rendered tables.
func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }
