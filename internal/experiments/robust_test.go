package experiments

import (
	"context"
	"testing"
	"time"

	"gqs/internal/core"
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

// TestInlineMatchesWatchdogCampaign: running cancel-aware connectors'
// queries on the runner's goroutine changes only where each call runs.
// The same fixed-seed campaign through the watchdog gives the
// byte-identical canonical bug report and the same per-GDB Stats,
// Robust included, with the default simulated faults and with live
// faults behind a flaky connection under a short deadline.
func TestInlineMatchesWatchdogCampaign(t *testing.T) {
	plain := DefaultCampaignConfig()
	plain.Iterations = 10
	live := plain
	live.Live = true
	live.FlakyRate = 0.12
	live.Robust = core.RobustnessConfig{Timeout: 40 * time.Millisecond}
	for name, cfg := range map[string]CampaignConfig{"default-faults": plain, "live-flaky": live} {
		t.Run(name, func(t *testing.T) {
			inline := runCampaign(context.Background(), cfg, nil, nil, nil)
			watchdog := runCampaign(context.Background(), cfg, nil, nil,
				func(c gdb.Connector) core.Target { return watchdogOnly{c} })
			if a, b := watchdog.CanonicalBugReport(), inline.CanonicalBugReport(); a != b {
				t.Fatalf("bug reports diverge:\nwatchdog:\n%s\ninline:\n%s", a, b)
			}
			if len(inline.legs) != len(gdb.All()) || len(watchdog.legs) != len(inline.legs) {
				t.Fatalf("legs: watchdog %d, inline %d, want %d", len(watchdog.legs), len(inline.legs), len(gdb.All()))
			}
			for i := range inline.legs {
				a, b := watchdog.legs[i], inline.legs[i]
				a.Elapsed, b.Elapsed = 0, 0
				if a != b {
					t.Errorf("%s stats diverge:\nwatchdog %+v\ninline   %+v", gdb.All()[i].Name(), a, b)
				}
			}
			if cfg.Live && (inline.Robust.Timeouts == 0 || inline.Robust.PanicsRecovered == 0 || inline.Robust.Retries == 0) {
				t.Errorf("live scenario too tame to compare the paths: %+v", inline.Robust)
			}
		})
	}
}
