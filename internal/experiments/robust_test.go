package experiments

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"gqs/internal/core"
	"gqs/internal/engine"
	"gqs/internal/faults"
	"gqs/internal/gdb"
)

// TestResilientCampaign is the acceptance scenario for the hardened
// harness: a full campaign with live hang/crash faults and a flaky
// connector (>10% transient rate) must complete in-process — hangs are
// canceled at the deadline, crashes are recovered from panics, the
// instances are restarted, and no transient error ever counts as a bug.
func TestResilientCampaign(t *testing.T) {
	cfg := DefaultCampaignConfig()
	// 25 iterations discover every hang and crash in the catalog; each
	// live hang costs one full timeout, so the deadline stays short.
	cfg.Iterations = 25
	cfg.Live = true
	cfg.FlakyRate = 0.12
	cfg.Robust = core.RobustnessConfig{Timeout: 25 * time.Millisecond}
	c := RunGQSCampaign(cfg)

	// Reaching this line is the headline assertion: zero process deaths
	// despite every fault manifesting for real.
	if c.Queries == 0 {
		t.Fatal("campaign executed no queries")
	}
	rb := c.Robust
	if rb.Timeouts == 0 {
		t.Errorf("live hangs must produce watchdog timeouts: %+v", rb)
	}
	if rb.PanicsRecovered == 0 {
		t.Errorf("live crashes must be recovered as panics: %+v", rb)
	}
	if rb.Retries == 0 || rb.TransientErrors == 0 {
		t.Errorf("flaky connector must force retries: %+v", rb)
	}
	if rb.Restarts == 0 {
		t.Errorf("crash/hang recovery must restart instances: %+v", rb)
	}

	// Hang and crash faults are still attributed as error-bug findings.
	kinds := map[faults.Kind]int{}
	for _, f := range c.Findings {
		kinds[f.Bug.Kind]++
	}
	if kinds[faults.Hang] == 0 {
		t.Errorf("no hang fault attributed: %v", kinds)
	}
	if kinds[faults.Crash] == 0 {
		t.Errorf("no crash fault attributed: %v", kinds)
	}

	// A transient error never reaches a verdict: every give-up is a skip
	// and every finding carries real fault attribution (enforced by
	// construction in the campaign merge — a Finding requires TriggeredBug).
	if rb.TransientGiveUps > c.Skips {
		t.Errorf("give-ups (%d) must be classified as skips (%d)", rb.TransientGiveUps, c.Skips)
	}
}

// TestLiveCampaignStillFindsLogicBugs: manifesting faults live must not
// cost logic-bug coverage relative to the simulated baseline.
func TestLiveCampaignStillFindsLogicBugs(t *testing.T) {
	cfg := DefaultCampaignConfig()
	cfg.Iterations = 20
	cfg.Live = true
	cfg.Robust = core.RobustnessConfig{Timeout: 25 * time.Millisecond}
	c := RunGQSCampaign(cfg)
	if len(c.LogicFindings()) == 0 {
		t.Errorf("live campaign found no logic bugs in %d queries", c.Queries)
	}
}

// watchdogOnly hides a connector's cancel-awareness, so the runner
// sends each of its calls through a watchdog goroutine. SeedShard is
// forwarded, so the executor still reuses one connector per worker.
type watchdogOnly struct{ gdb.Connector }

func (watchdogOnly) CancelAware() bool { return false }

func (w watchdogOnly) SeedShard(shard int) { w.Connector.(core.ShardSeeder).SeedShard(shard) }

// interpreterOnly hands its connector a copy of each prepared query
// without the compiled plan, so the whole simulated GDB, fault selection
// and manifestation included, runs on the interpreter. It counts the
// queries that had a plan, so the differential cannot be vacuous.
// SeedShard is forwarded, as watchdogOnly does.
type interpreterOnly struct {
	gdb.Connector
	planned *atomic.Int64
}

func (c interpreterOnly) ExecutePrepared(ctx context.Context, pq *engine.PreparedQuery) (*engine.Result, error) {
	if pq.Planned() {
		c.planned.Add(1)
	}
	return c.Connector.ExecutePrepared(ctx, &engine.PreparedQuery{Text: pq.Text, AST: pq.AST, Features: pq.Features})
}

func (c interpreterOnly) SeedShard(shard int) { c.Connector.(core.ShardSeeder).SeedShard(shard) }

// freshPerShard hides SeedShard, so the executor builds a connector for
// every shard and closes it after the shard, as it does for the targets
// of gqs.NewShardedTester.
type freshPerShard struct{ gdb.Connector }

// TestInlineMatchesWatchdogCampaign compares one fixed-seed campaign run
// on each connector variant with the plain campaign. Each variant
// changes only how its queries run: on a watchdog goroutine instead of
// the runner's own (watchdogOnly), on the interpreter instead of the
// compiled plans (interpreterOnly), or on a connector built and closed
// per shard instead of one reseeded per worker (freshPerShard). Each
// must give the byte-identical canonical bug report and the same per-GDB
// Stats, Robust included, with the default simulated faults. The
// watchdog variant must also match with live faults behind a flaky
// connection. The live scenario's deadline is 200 ms: under -race, with
// a full `go test -race ./...` running beside it, no query that did not
// hang took longer than 17 ms, so a slow query cannot pass for a hang.
func TestInlineMatchesWatchdogCampaign(t *testing.T) {
	plain := DefaultCampaignConfig()
	plain.Iterations = 10
	live := plain
	live.Iterations = 2
	live.Live = true
	live.FlakyRate = 0.12
	live.Robust = core.RobustnessConfig{Timeout: 200 * time.Millisecond}
	var planned atomic.Int64
	type variant struct {
		name  string
		wrap  func(gdb.Connector) core.Target
		check func(t *testing.T) // optional, after the comparison
	}
	watchdog := variant{name: "watchdog", wrap: func(c gdb.Connector) core.Target { return watchdogOnly{c} }}
	for _, sc := range []struct {
		name     string
		cfg      CampaignConfig
		variants []variant
	}{
		{"default-faults", plain, []variant{
			watchdog,
			{name: "interpreter", wrap: func(c gdb.Connector) core.Target { return interpreterOnly{c, &planned} },
				check: func(t *testing.T) {
					if planned.Load() == 0 {
						t.Error("no query had a compiled plan to strip: the differential is vacuous")
					}
				}},
			{name: "fresh-per-shard", wrap: func(c gdb.Connector) core.Target { return freshPerShard{c} }},
		}},
		{"live-flaky", live, []variant{watchdog}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			want := runCampaign(context.Background(), sc.cfg, nil, nil, nil)
			if len(want.legs) != len(gdb.All()) {
				t.Fatalf("plain campaign ran %d legs, want %d", len(want.legs), len(gdb.All()))
			}
			if sc.cfg.Live && (want.Robust.Timeouts == 0 || want.Robust.PanicsRecovered == 0 || want.Robust.Retries == 0) {
				t.Errorf("live scenario too tame to compare the paths: %+v", want.Robust)
			}
			for _, v := range sc.variants {
				t.Run(v.name, func(t *testing.T) {
					got := runCampaign(context.Background(), sc.cfg, nil, nil, v.wrap)
					if a, b := got.CanonicalBugReport(), want.CanonicalBugReport(); a != b {
						t.Fatalf("bug reports diverge:\n%s:\n%s\nplain:\n%s", v.name, a, b)
					}
					if len(got.legs) != len(want.legs) {
						t.Fatalf("legs: %s %d, plain %d", v.name, len(got.legs), len(want.legs))
					}
					for i := range want.legs {
						a, b := got.legs[i], want.legs[i]
						a.Elapsed, b.Elapsed = 0, 0
						if a != b {
							t.Errorf("%s stats diverge:\n%s %+v\nplain %+v", gdb.All()[i].Name(), v.name, a, b)
						}
					}
					if v.check != nil {
						v.check(t)
					}
				})
			}
		})
	}
}
