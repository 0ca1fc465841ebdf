package gdb

import (
	"context"
	"testing"

	"gqs/internal/core"
	"gqs/internal/engine"
	"gqs/internal/graph"
)

// legacyOnly wraps a Sim whose ResetSnapshot loads a fresh overlay graph
// through the deep-clone Reset path instead of the copy-on-write one. It
// is the control arm of the COW campaign differential below.
type legacyOnly struct{ s *Sim }

func (l legacyOnly) Name() string { return l.s.Name() }
func (l legacyOnly) ResetSnapshot(snap *graph.Snapshot, schema *graph.Schema) error {
	return l.s.Reset(graph.FromSnapshot(snap), schema)
}
func (l legacyOnly) ExecutePrepared(ctx context.Context, pq *engine.PreparedQuery) (*engine.Result, error) {
	return l.s.ExecutePrepared(ctx, pq)
}
func (l legacyOnly) RelUniqueness() bool    { return l.s.RelUniqueness() }
func (l legacyOnly) ProvidesDBLabels() bool { return l.s.ProvidesDBLabels() }

// campaignTrace runs a fixed-seed campaign and records each test case's
// query, verdict, and canonical actual result.
func campaignTrace(t *testing.T, target core.Target, iterations int) []string {
	t.Helper()
	cfg := core.DefaultRunnerConfig()
	cfg.Seed = 17
	cfg.Graph = graph.GenConfig{MaxNodes: 10, MaxRels: 30}
	rn := core.NewRunner(target, cfg)
	var trace []string
	rn.Run(iterations, func(tc *core.TestCase) {
		line := tc.Query + " | " + tc.Verdict.String()
		if tc.Actual != nil {
			for _, row := range tc.Actual.Canonical() {
				line += " | " + row
			}
		}
		trace = append(trace, line)
	})
	return trace
}

// TestCampaignCOWMatchesLegacyReset is the campaign-level differential
// for the copy-on-write Reset: the same fixed-seed campaign through the
// snapshot path and through the deep-clone Reset path must
// produce the identical sequence of queries, verdicts, and results, on
// the clean reference engine and on a fault-injected GDB (whose write
// workload exercises overlay mutation + restore every iteration).
func TestCampaignCOWMatchesLegacyReset(t *testing.T) {
	targets := []struct {
		name         string
		cow, control core.Target
	}{
		{"reference", NewReference(), legacyOnly{NewReference()}},
		{All()[0].Name(), All()[0], legacyOnly{All()[0]}},
	}
	for _, tt := range targets {
		cowTrace := campaignTrace(t, tt.cow, 8)
		legacyTrace := campaignTrace(t, tt.control, 8)
		if len(cowTrace) == 0 {
			t.Fatalf("%s: campaign ran no test cases", tt.name)
		}
		if len(cowTrace) != len(legacyTrace) {
			t.Fatalf("%s: trace lengths differ: cow=%d legacy=%d",
				tt.name, len(cowTrace), len(legacyTrace))
		}
		for i := range cowTrace {
			if cowTrace[i] != legacyTrace[i] {
				t.Fatalf("%s: case %d diverged\ncow:    %s\nlegacy: %s",
					tt.name, i, cowTrace[i], legacyTrace[i])
			}
		}
	}
}
