package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"gqs/internal/core"
	"gqs/internal/gdb"
	"gqs/internal/graph"
	"gqs/internal/journal"
)

// Kill modes of a FuzzCampaign input.
const (
	noKill     = iota // run to completion
	flushKill         // cancel at the k-th journal flush, tear the tail, resume
	journalCut        // kill the journal file at a byte budget, then resume
)

// FuzzCampaign checks the executor's two contracts on generated
// configurations: worker and batch invariance, and byte-identical
// crash-resume. An input decodes to a seed, 1-6 iterations, a non-empty
// subset of the four GDBs (bit i of gdbs is gdb.All()[i]; 0 means all),
// graph bounds of at most 13 nodes and 60 relationships, 1-3 workers, a
// batch of 1-4, a flaky rate of 0-20% and an optional kill: cancel at
// the killAt-th journal flush (brought into the campaign's unit count)
// with the journal tail torn on top, or kill the journal file itself once it
// holds killAt bytes (at least 16). Live faults are left out: their
// outcomes depend on the wall clock.
//
// The oracle is the uninterrupted campaign at 1 worker and batch 1: the
// run under test, and a killed run once resumed, must give its canonical
// bug report and each leg's Stats, with Elapsed and the checkpoint
// counters zeroed. The seeds are the configurations of the fixed tests
// (TestShardedCampaignDeterministicAcrossWorkers,
// TestBatchDeterminismDifferential, TestKillResumeDifferential and
// TestMidWriteKillResume), brought into the decoded ranges.
func FuzzCampaign(f *testing.F) {
	type seed struct {
		seed                                                int64
		iterations, gdbs, maxNodes, maxRels, workers, batch uint8
		flakyPct, kill                                      uint8
		killAt                                              uint16
	}
	for _, s := range []seed{
		// TestShardedCampaignDeterministicAcrossWorkers: "small" at 4
		// workers, and the pinned default campaign at 2.
		{seed: 1, iterations: 6, maxNodes: 8, maxRels: 20, workers: 3, batch: 1},
		{seed: 1, iterations: 6, maxNodes: 13, maxRels: 60, workers: 2, batch: 1},
		// TestBatchDeterminismDifferential: its three batched legs and its
		// kill after the second flush.
		{seed: 1, iterations: 6, maxNodes: 8, maxRels: 20, workers: 3, batch: 3},
		{seed: 1, iterations: 6, maxNodes: 8, maxRels: 20, workers: 2, batch: 4},
		{seed: 1, iterations: 6, maxNodes: 8, maxRels: 20, workers: 2, batch: 3, kill: flushKill, killAt: 2},
		// TestKillResumeDifferential at its default, one and GOMAXPROCS
		// workers (2 on the reference host), with their kill points.
		{seed: 1, iterations: 6, maxNodes: 13, maxRels: 60, workers: 2, batch: 1, flakyPct: 5, kill: flushKill, killAt: 5},
		{seed: 1, iterations: 6, maxNodes: 13, maxRels: 60, workers: 1, batch: 1, flakyPct: 5, kill: flushKill, killAt: 3},
		{seed: 1, iterations: 6, maxNodes: 13, maxRels: 60, workers: 3, batch: 1, flakyPct: 5, kill: flushKill, killAt: 7},
		// TestMidWriteKillResume.
		{seed: 1, iterations: 6, maxNodes: 13, maxRels: 60, workers: 1, batch: 1, flakyPct: 5, kill: journalCut, killAt: 48 << 10},
	} {
		f.Add(s.seed, s.iterations, s.gdbs, s.maxNodes, s.maxRels, s.workers, s.batch, s.flakyPct, s.kill, s.killAt)
	}
	f.Fuzz(func(t *testing.T, seed int64, iterations, gdbs, maxNodes, maxRels, workers, batch, flakyPct, kill uint8, killAt uint16) {
		cfg := DefaultCampaignConfig()
		cfg.Seed = seed
		cfg.Iterations = decode(int(iterations), 1, 6)
		cfg.GDBs = gdbSubset(gdbs)
		cfg.Graph = graph.GenConfig{MaxNodes: decode(int(maxNodes), 1, 13), MaxRels: decode(int(maxRels), 1, 60)}
		cfg.FlakyRate = float64(decode(int(flakyPct), 0, 20)) / 100
		ref := cfg
		ref.Workers, ref.Batch = 1, 1
		wantReport, wantLegs := campaignOutcome(RunGQSCampaign(ref))

		cfg.Workers = decode(int(workers), 1, 3)
		cfg.Batch = decode(int(batch), 1, 4)
		check := func(what string, c *Campaign) {
			t.Helper()
			report, legs := campaignOutcome(c)
			if report != wantReport {
				t.Fatalf("%s: bug report diverges from the 1-worker batch-1 run:\ngot:\n%s\nwant:\n%s", what, report, wantReport)
			}
			if !reflect.DeepEqual(legs, wantLegs) {
				t.Fatalf("%s: leg stats diverge from the 1-worker batch-1 run:\ngot:  %+v\nwant: %+v", what, legs, wantLegs)
			}
		}
		if kill%3 == noKill {
			check(fmt.Sprintf("%d workers, batch %d", cfg.Workers, cfg.Batch), RunGQSCampaign(cfg))
			return
		}
		path := filepath.Join(t.TempDir(), "campaign.journal")
		var killed string
		if kill%3 == flushKill {
			units := len(cfg.GDBs) * ((cfg.Iterations + cfg.Batch - 1) / cfg.Batch)
			at := int64(decode(int(killAt), 1, units))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var flushes atomic.Int64 // OnFlush runs on every worker
			ck := openCheckpoint(t, cfg, core.CheckpointConfig{Path: path, Every: 1, OnFlush: func(int) {
				if flushes.Add(1) == at {
					cancel()
				}
			}})
			RunGQSCampaignDurable(ctx, cfg, ck) // a killed run's result is lost
			ck.Close()
			file, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			file.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xba, 0xad}) //nolint:errcheck
			file.Close()
			killed = fmt.Sprintf("flush %d", at)
		} else {
			budget := max(int64(killAt), 16)
			ck := openCheckpoint(t, cfg, core.CheckpointConfig{Path: path, Every: 1, Journal: journal.Options{
				OpenFile: func(p string) (journal.File, error) {
					file, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
					if err != nil {
						return nil, err
					}
					return journal.NewFaultFile(file, journal.FaultConfig{KillAfterBytes: budget}), nil
				}}})
			killed = fmt.Sprintf("a journal killed at %d bytes", budget)
			check(killed, RunGQSCampaignDurable(context.Background(), cfg, ck))
			ck.Close()
		}
		re := openCheckpoint(t, cfg, core.CheckpointConfig{Path: path, Every: 1, Resume: true})
		defer re.Close()
		check("resumed after "+killed, RunGQSCampaignDurable(context.Background(), cfg, re))
	})
}

// decode maps a fuzzed value into [lo, hi], keeping values already in
// range, so a seed states its setting as is.
func decode(v, lo, hi int) int {
	if v >= lo && v <= hi {
		return v
	}
	return lo + v%(hi-lo+1)
}

// gdbSubset names the GDBs whose bits are set in mask, in gdb.All()
// order; no bit set means all four.
func gdbSubset(mask uint8) []string {
	if mask&15 == 0 {
		mask = 15
	}
	var names []string
	for i, sim := range gdb.All() {
		if mask&(1<<i) != 0 {
			names = append(names, sim.Name())
		}
	}
	return names
}

// campaignOutcome is what FuzzCampaign compares: the canonical bug
// report and each leg's Stats, less the fields that depend on the clock
// or on checkpointing.
func campaignOutcome(c *Campaign) (string, []core.Stats) {
	legs := slices.Clone(c.legs)
	for i := range legs {
		legs[i].Elapsed = 0
		r := &legs[i].Robust
		r.CheckpointsWritten, r.CheckpointBytes, r.LastCheckpointAge, r.RestoredIterations = 0, 0, 0, 0
	}
	return c.CanonicalBugReport(), legs
}

func openCheckpoint(t *testing.T, cfg CampaignConfig, ckcfg core.CheckpointConfig) *core.Checkpointer {
	t.Helper()
	ck, err := core.OpenCheckpoint(ckcfg, CampaignFingerprint(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return ck
}
