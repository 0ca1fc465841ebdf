package experiments

import (
	"strings"
	"testing"
	"time"

	"gqs/internal/core"
	"gqs/internal/graph"
)

func shardedTestConfig(workers int) CampaignConfig {
	cfg := DefaultCampaignConfig()
	cfg.Iterations = 8
	cfg.Graph = graph.GenConfig{MaxNodes: 8, MaxRels: 20}
	cfg.Workers = workers
	return cfg
}

// TestShardedCampaignDeterministicAcrossWorkers is the determinism
// contract: same seed, different worker counts, byte-identical merged
// bug reports. The default case also pins the seed-1 report itself
// (digest and finding count) that the benchmark's campaign checks, so a
// change to synthesis, execution or the fault catalog that alters which
// bugs a campaign finds fails here first.
func TestShardedCampaignDeterministicAcrossWorkers(t *testing.T) {
	defaultCfg := DefaultCampaignConfig()
	defaultCfg.Seed = 1
	defaultCfg.Iterations = 20
	for _, tc := range []struct {
		name     string
		cfg      CampaignConfig
		workers  []int
		digest   string // "" = not pinned
		findings int
	}{
		{name: "small", cfg: shardedTestConfig(1), workers: []int{1, 4}},
		{name: "default-seed1", cfg: defaultCfg, workers: []int{1, 2},
			digest: "0bae9bd11b8716ef", findings: 35},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first *Campaign
			for _, n := range tc.workers {
				cfg := tc.cfg
				cfg.Workers = n
				c := RunGQSCampaign(cfg)
				if c.Workers != n || c.Throughput.Iterations == 0 {
					t.Errorf("sharded campaign must record workers and throughput, got %d workers, %+v",
						c.Workers, c.Throughput)
				}
				if len(c.Findings) == 0 {
					t.Fatal("campaign found no bugs; the determinism check is vacuous")
				}
				if tc.digest != "" {
					if d := reportDigest(c); d != tc.digest || len(c.Findings) != tc.findings {
						t.Errorf("workers=%d: report digest %s with %d findings, want %s with %d",
							n, d, len(c.Findings), tc.digest, tc.findings)
					}
				}
				if first == nil {
					first = c
					continue
				}
				if a, b := first.CanonicalBugReport(), c.CanonicalBugReport(); a != b {
					t.Fatalf("canonical reports differ across worker counts:\n--- workers=%d ---\n%s--- workers=%d ---\n%s",
						first.Workers, a, n, b)
				}
				if first.Queries != c.Queries || first.Skips != c.Skips {
					t.Fatalf("tallies differ: %d/%d queries, %d/%d skips",
						first.Queries, c.Queries, first.Skips, c.Skips)
				}
			}
		})
	}
}

// TestShardedCampaignReportShape spot-checks the canonical report: the
// hardware-independent fields are present, wall-clock ones are not.
func TestShardedCampaignReportShape(t *testing.T) {
	c := RunGQSCampaign(shardedTestConfig(2))
	rep := c.CanonicalBugReport()
	if !strings.HasPrefix(rep, "queries=") {
		t.Fatalf("report must open with the tallies, got %q", rep[:min(len(rep), 40)])
	}
	if strings.Contains(rep, "latency") || strings.Contains(rep, "wall") {
		t.Fatal("canonical report must not contain wall-clock fields")
	}
	for _, f := range c.Findings {
		if f.Shard < 0 || f.Shard >= shardedTestConfig(2).Iterations {
			t.Errorf("finding %s has out-of-range shard %d", f.Bug.ID, f.Shard)
		}
		if f.AtQuery <= 0 || f.AtQuery > c.Queries {
			t.Errorf("finding %s has non-canonical AtQuery %d (campaign ran %d)", f.Bug.ID, f.AtQuery, c.Queries)
		}
		if f.Latency <= 0 {
			t.Errorf("finding %s missing time-to-bug latency", f.Bug.ID)
		}
	}
}

// TestShardedCampaignLiveFlaky drives the sharded executor through the
// live-fault and flaky-connector machinery on several workers; under
// -race this is the concurrent-shards soak test.
func TestShardedCampaignLiveFlaky(t *testing.T) {
	cfg := shardedTestConfig(4)
	cfg.Iterations = 6
	cfg.Live = true
	cfg.FlakyRate = 0.15
	// Live hangs block until the watchdog fires; a tight deadline keeps
	// the soak fast without changing what it exercises.
	cfg.Robust = core.RobustnessConfig{Timeout: 40 * time.Millisecond, Grace: 50 * time.Millisecond}
	c := RunGQSCampaign(cfg)
	if c.Queries == 0 {
		t.Fatal("live sharded campaign executed no queries")
	}
}
