package experiments

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"gqs/internal/core"
	"gqs/internal/journal"
)

func reportDigest(c *Campaign) string {
	h := fnv.New64a()
	h.Write([]byte(c.CanonicalBugReport()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// killResumeConfig sizes a campaign small enough for -race yet long
// enough to hold several kill points. The flaky injector stays on: its
// per-shard streams reseed deterministically on resume.
func killResumeConfig(workers int) CampaignConfig {
	cfg := DefaultCampaignConfig()
	cfg.Iterations = 6
	cfg.Workers = workers
	cfg.FlakyRate = 0.05
	return cfg
}

// TestKillResumeDifferential is the durability proof obligation: a
// campaign killed at a checkpoint boundary — with the journal tail torn
// on top — resumes into the byte-identical canonical bug report of an
// uninterrupted run, at the default worker count (Workers 0, which the
// paper tables use), at 1 worker, and at GOMAXPROCS workers.
func TestKillResumeDifferential(t *testing.T) {
	legs := []struct {
		name      string
		workers   int
		killAfter int // cancel at this checkpoint flush
	}{
		{"workers0", 0, 5},
		{"workers1", 1, 3},
		{"workersN", runtime.GOMAXPROCS(0), 7},
	}
	for _, leg := range legs {
		leg := leg
		t.Run(leg.name, func(t *testing.T) {
			cfg := killResumeConfig(leg.workers)
			fp := CampaignFingerprint(cfg)
			want := reportDigest(RunGQSCampaign(cfg))
			path := filepath.Join(t.TempDir(), "campaign.journal")

			// The interrupted run: canceled at the killAfter-th flush and
			// abandoned without a final flush or close — the hard-kill
			// shape. Its partial campaign result is discarded, like a
			// killed process's memory.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// OnFlush runs outside the checkpoint lock, concurrently
			// from every worker.
			var flushes atomic.Int64
			ck, err := core.OpenCheckpoint(core.CheckpointConfig{
				Path: path, Every: 1,
				OnFlush: func(int) {
					if flushes.Add(1) == int64(leg.killAfter) {
						cancel()
					}
				},
			}, fp)
			if err != nil {
				t.Fatal(err)
			}
			RunGQSCampaignDurable(ctx, cfg, ck)

			// A kill can also land mid-append: tear the journal tail and
			// let the recovery scan absorb it.
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xba, 0xad}) //nolint:errcheck
			f.Close()

			re, err := core.OpenCheckpoint(core.CheckpointConfig{Path: path, Every: 1, Resume: true}, fp)
			if err != nil {
				t.Fatal(err)
			}
			if re.Stats().ResumedUnits == 0 {
				t.Fatalf("kill point left nothing to resume (flushes=%d)", flushes.Load())
			}
			resumed := RunGQSCampaignDurable(context.Background(), cfg, re)
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			if resumed.Robust.RestoredIterations == 0 {
				t.Fatal("resume re-ran the whole campaign from scratch")
			}
			if got := reportDigest(resumed); got != want {
				t.Errorf("resumed digest %s != uninterrupted %s\nresumed report:\n%s",
					got, want, resumed.CanonicalBugReport())
			}
		})
	}
}

// TestMidWriteKillResume kills the journal — not the campaign — midway
// through an append (fault-injected torn write). The campaign must
// finish unperturbed, and a later resume from the torn journal must
// restore the valid prefix and converge on the same report.
func TestMidWriteKillResume(t *testing.T) {
	cfg := killResumeConfig(1)
	fp := CampaignFingerprint(cfg)
	want := reportDigest(RunGQSCampaign(cfg))
	path := filepath.Join(t.TempDir(), "campaign.journal")

	first := true
	opts := journal.Options{OpenFile: func(p string) (journal.File, error) {
		f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		if !first {
			return f, nil
		}
		first = false
		// Big enough that the first few records (fingerprint +
		// unit stats + query-text payloads) land durably, small enough to
		// die long before the campaign's ~24 units finish.
		return journal.NewFaultFile(f, journal.FaultConfig{KillAfterBytes: 48 << 10}), nil
	}}
	ck, err := core.OpenCheckpoint(core.CheckpointConfig{Path: path, Every: 1, Journal: opts}, fp)
	if err != nil {
		t.Fatal(err)
	}
	got := RunGQSCampaignDurable(context.Background(), cfg, ck)
	if d := reportDigest(got); d != want {
		t.Errorf("a dying journal perturbed the campaign: %s != %s", d, want)
	}
	if st := ck.Stats(); st.Failures == 0 {
		t.Fatalf("the mid-write kill never fired: %+v", st)
	}
	// No Close: the handle died mid-write. Resume from the torn file.
	re, err := core.OpenCheckpoint(core.CheckpointConfig{Path: path, Every: 1, Resume: true}, fp)
	if err != nil {
		t.Fatal(err)
	}
	if re.Stats().ResumedUnits == 0 {
		t.Fatal("no valid record survived the torn write")
	}
	resumed := RunGQSCampaignDurable(context.Background(), cfg, re)
	re.Close()
	if d := reportDigest(resumed); d != want {
		t.Errorf("resume from torn journal diverged: %s != %s\n%s", d, want, resumed.CanonicalBugReport())
	}
}

// TestResumeRefusesChangedConfig: the fingerprint guard — resuming under
// any configuration change that alters the deterministic stream must be
// refused, not spliced.
func TestResumeRefusesChangedConfig(t *testing.T) {
	cfg := killResumeConfig(0)
	cfg.Iterations = 2
	path := filepath.Join(t.TempDir(), "campaign.journal")
	ck, err := core.OpenCheckpoint(core.CheckpointConfig{Path: path, Every: 1}, CampaignFingerprint(cfg))
	if err != nil {
		t.Fatal(err)
	}
	RunGQSCampaignDurable(context.Background(), cfg, ck)
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	changed := cfg
	changed.Seed++
	_, err = core.OpenCheckpoint(core.CheckpointConfig{Path: path, Resume: true}, CampaignFingerprint(changed))
	if !errors.Is(err, core.ErrFingerprintMismatch) {
		t.Fatalf("resume with a changed seed: err = %v, want ErrFingerprintMismatch", err)
	}
	// Same config resumes fine (a completed campaign simply has nothing
	// left to run).
	re, err := core.OpenCheckpoint(core.CheckpointConfig{Path: path, Resume: true}, CampaignFingerprint(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	done := RunGQSCampaignDurable(context.Background(), cfg, re)
	if done.Robust.RestoredIterations == 0 || done.Queries == 0 {
		t.Fatalf("completed campaign did not restore: %+v", done.Robust)
	}
}

// TestCampaignFingerprintFormat pins the default campaign's fingerprint
// byte for byte: a journal resumes only under an equal string, so a
// format change here refuses every journal written before it. The
// catalog digest changes with the fault catalog, as it should.
func TestCampaignFingerprintFormat(t *testing.T) {
	const want = "gqs-checkpoint-v1 mode=sharded targets=neo4j,memgraph,kuzu,falkordb catalog=c3137471899b3d0f" +
		" workers=0 batch=1 iterations=60 seed=1" +
		" graph={MaxNodes:13 MaxRels:60 NumLabels:0 NumRelTypes:0 NumProps:0 MaxLabelsPerNode:0 MaxPropsPerElem:0 SelfLoopPercent:0 Scale:0}" +
		" synth={MaxSteps:9 Plan:{MaxResultSet:6 MaxExtraElems:7 MaxAliases:2 MaxLists:2} ExprDepth:4" +
		" RelUniqueness:true ProvidesDBLabels:true OptionalMatchPct:25 UnionPct:10 CallPct:10 TruePredPct:60" +
		" DisableMutation:false DisableComplexExprs:false} qpg=6 qpgt=2" +
		" robust={Timeout:0s Grace:0s Retries:0 RetryBackoff:0s RestartAttempts:0 RestartBackoff:0s RestartBackoffMax:0s BreakerThreshold:0}"
	if got := CampaignFingerprint(DefaultCampaignConfig()); got != want {
		t.Errorf("fingerprint changed:\n got %s\nwant %s", got, want)
	}
}

// TestDurableCampaignCountsUndecodablePayloads: a restored unit whose
// payload does not decode is counted, not merged silently as empty. Its
// tallies still come from the journal, so the campaign totals stay
// those of an uninterrupted run while its findings are missing.
func TestDurableCampaignCountsUndecodablePayloads(t *testing.T) {
	cfg := DefaultCampaignConfig()
	cfg.Iterations, cfg.Workers, cfg.Batch = 2, 1, 1
	cfg.GDBs = []string{"falkordb"}
	want := RunGQSCampaign(cfg)
	path := filepath.Join(t.TempDir(), "campaign.journal")
	ck, err := core.OpenCheckpoint(core.CheckpointConfig{Path: path}, CampaignFingerprint(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0 of the campaign is the whole of its one-iteration prefix.
	first := cfg
	first.Iterations = 1
	shard0 := RunGQSCampaign(first).legs[0]
	ck.Record(core.UnitRecord{Target: "falkordb", Shard: 0, Count: 1, Queries: shard0.Queries, Stats: shard0,
		Payload: []byte(`[[{"bug":"FK-L1","verdict":"logic-bug","seq":3}]]`)})
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := core.OpenCheckpoint(core.CheckpointConfig{Path: path, Resume: true}, CampaignFingerprint(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := RunGQSCampaignDurable(context.Background(), cfg, re)
	if got.UndecodedUnits != 1 {
		t.Fatalf("UndecodedUnits = %d, want 1", got.UndecodedUnits)
	}
	if got.Queries != want.Queries || len(got.Findings) >= len(want.Findings) {
		t.Errorf("resumed %d queries and %d findings; want %d queries and fewer than %d findings",
			got.Queries, len(got.Findings), want.Queries, len(want.Findings))
	}
}
