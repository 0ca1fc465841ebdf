package main

import (
	"testing"

	"gqs/internal/experiments"
)

// TestWrappedCampaignMatchesRunGQSCampaign pins that the traced harness —
// every connector wrapped — reports byte-for-byte what RunGQSCampaign
// reports, at one and at two workers, so the wrapper forwards everything
// the executor and the fault attribution use. The second pass must
// re-derive every test case the traced campaign ran.
func TestWrappedCampaignMatchesRunGQSCampaign(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := experiments.DefaultCampaignConfig()
		cfg.Iterations, cfg.Workers = 3, workers
		want := experiments.RunGQSCampaign(cfg).CanonicalBugReport()

		tr := NewTracer()
		traced := driveCampaign(cfg, nil, tr, -1)
		if got := traced.camp.CanonicalBugReport(); got != want {
			t.Fatalf("workers %d: wrapped report\n%s\nwant\n%s", workers, got, want)
		}
		if got := driveCampaign(cfg, nil, nil, -1).camp.CanonicalBugReport(); got != want {
			t.Fatalf("workers %d: unwrapped report\n%s\nwant\n%s", workers, got, want)
		}
		if len(traced.lat) != traced.camp.Queries || len(traced.cases) != traced.camp.Queries {
			t.Fatalf("workers %d: traced %d latencies, %d cases; campaign ran %d",
				workers, len(traced.lat), len(traced.cases), traced.camp.Queries)
		}
		if n := len(tr.Durations("engine.exec")); n < traced.camp.Queries-traced.camp.Skips {
			t.Fatalf("workers %d: %d execute spans for %d executed queries", workers, n, traced.camp.Queries)
		}
		var rs resynthStats
		if resynthesize(cfg, traced.cases, tr, -1, &rs); rs.mismatches != 0 {
			t.Fatalf("workers %d: %d resynthesis mismatches: %s", workers, rs.mismatches, rs.firstMismatch)
		}
	}
}
