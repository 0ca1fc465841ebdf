package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestRunParallelDeterministicAcrossBatches is the batching half of the
// determinism contract: the work-unit size changes how shards are
// bucketed onto workers, never what any shard computes.
func TestRunParallelDeterministicAcrossBatches(t *testing.T) {
	run := func(batch int) *ParallelStats {
		cfg := shardTestConfig()
		cfg.Workers = 3
		cfg.Batch = batch
		return RunParallel(cfg, func(int) (Target, error) { return newRefTarget(nil), nil }, nil)
	}
	one := run(1)
	for _, batch := range []int{2, 3, 100} { // 100 > Iterations: one unit
		b := run(batch)
		for i := range one.Shards {
			x, y := scrub(one.Shards[i].Stats), scrub(b.Shards[i].Stats)
			if x != y {
				t.Errorf("batch=%d: shard %d stats differ:\n  batch=1: %+v\n  batch=%d: %+v",
					batch, i, x, batch, y)
			}
		}
		if scrub(one.Stats) != scrub(b.Stats) {
			t.Errorf("batch=%d: merged stats differ: %+v vs %+v",
				batch, scrub(one.Stats), scrub(b.Stats))
		}
	}
	if one.Stats.Queries == 0 {
		t.Fatal("campaign executed no queries")
	}
}

// TestParallelThroughputCountsOnlyRan is the resumed-throughput
// regression test: restored work units were another run's work, so they
// must appear in Restored (and the merged stats) but never in Ran, the
// numerator of the live iteration rate, nor in RanElapsed, the numerator
// of the achieved parallelism.
func TestParallelThroughputCountsOnlyRan(t *testing.T) {
	pcfg := shardTestConfig()
	pcfg.Workers = 2
	pcfg.Batch = 2
	fp := CampaignFingerprint("reference", "", pcfg.Workers, pcfg.Batch, pcfg.Iterations, pcfg.Runner)
	factory := func(int) (Target, error) { return newRefTarget(nil), nil }

	path := ckPath(t)
	ck, err := OpenCheckpoint(CheckpointConfig{Path: path, Every: 1}, fp)
	if err != nil {
		t.Fatal(err)
	}
	live := RunCheckpointedParallel(context.Background(), pcfg, "reference", factory, nil, ck, DurableHooks{})
	ck.Close()
	if live.Ran != pcfg.Iterations || live.Restored != 0 {
		t.Fatalf("uninterrupted run: Ran=%d Restored=%d, want %d/0", live.Ran, live.Restored, pcfg.Iterations)
	}
	if live.RanQueries != live.Queries || live.RanQueries == 0 {
		t.Fatalf("uninterrupted run: RanQueries=%d, want Stats.Queries=%d (nonzero)", live.RanQueries, live.Queries)
	}
	if live.Wall <= 0 {
		t.Fatalf("live run reports no wall time: %v", live.Wall)
	}
	if live.RanElapsed != live.Elapsed || live.Parallelism() <= 0 {
		t.Fatalf("uninterrupted run: RanElapsed=%v, want Stats.Elapsed=%v (parallelism %.2f)",
			live.RanElapsed, live.Elapsed, live.Parallelism())
	}

	// A resume of the completed campaign restores every unit and runs
	// nothing: its live throughput is zero even though the merged stats
	// still cover the whole campaign.
	re, err := OpenCheckpoint(CheckpointConfig{Path: path, Every: 1, Resume: true}, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	resumed := RunCheckpointedParallel(context.Background(), pcfg, "reference", factory, nil, re, DurableHooks{})
	if resumed.Ran != 0 || resumed.Restored != pcfg.Iterations {
		t.Fatalf("resumed run: Ran=%d Restored=%d, want 0/%d", resumed.Ran, resumed.Restored, pcfg.Iterations)
	}
	if resumed.RanQueries != 0 {
		t.Fatalf("resumed run claims %d live queries", resumed.RanQueries)
	}
	// The restored busy time stays in the merged stats, but it was spent
	// against another run's clock: dividing it by this run's wall time
	// reported parallelism far above the worker count.
	if resumed.Elapsed == 0 || resumed.RanElapsed != 0 {
		t.Fatalf("resumed run: Stats.Elapsed=%v (want restored busy time), RanElapsed=%v (want 0)",
			resumed.Elapsed, resumed.RanElapsed)
	}
	if p := resumed.Parallelism(); p > float64(resumed.Workers) {
		t.Fatalf("resumed run reports %.2fx parallelism on %d workers", p, resumed.Workers)
	}
	if scrubCk(resumed.Stats) != scrubCk(live.Stats) {
		t.Fatalf("restored merged stats diverge:\n  live:    %+v\n  resumed: %+v",
			scrubCk(live.Stats), scrubCk(resumed.Stats))
	}
}

// TestFactoryFailureNotCheckpointedRetriedOnResume: a transient factory
// error must cost one failed iteration, not the shard — the unit it
// belongs to must stay out of the journal so a resumed campaign retries
// the shard instead of permanently skipping it.
func TestFactoryFailureNotCheckpointedRetriedOnResume(t *testing.T) {
	pcfg := shardTestConfig()
	pcfg.Workers = 1 // deterministic unit order around the failure
	pcfg.Batch = 2
	fp := CampaignFingerprint("reference", "", pcfg.Workers, pcfg.Batch, pcfg.Iterations, pcfg.Runner)

	const failShard = 3 // mid-unit: unit [2,4) must not be recorded
	var failed atomic.Bool
	flaky := func(shard int) (Target, error) {
		if shard == failShard && failed.CompareAndSwap(false, true) {
			return nil, errors.New("connection refused")
		}
		return newRefTarget(nil), nil
	}
	clean := RunParallel(pcfg, func(int) (Target, error) { return newRefTarget(nil), nil }, nil)

	path := ckPath(t)
	ck, err := OpenCheckpoint(CheckpointConfig{Path: path, Every: 1}, fp)
	if err != nil {
		t.Fatal(err)
	}
	first := RunCheckpointedParallel(context.Background(), pcfg, "reference", flaky, nil, ck, DurableHooks{})
	ck.Close()
	if first.Robust.FailedIterations != 1 {
		t.Fatalf("FailedIterations = %d, want 1", first.Robust.FailedIterations)
	}
	if !failed.Load() {
		t.Fatal("the failing factory never fired")
	}

	re, err := OpenCheckpoint(CheckpointConfig{Path: path, Every: 1, Resume: true}, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.Completed("reference", 2); ok {
		t.Fatal("the unit with the factory failure was journaled as completed")
	}
	if _, ok := re.Completed("reference", 0); !ok {
		t.Fatal("units without failures were not journaled")
	}
	resumed := RunCheckpointedParallel(context.Background(), pcfg, "reference", flaky, nil, re, DurableHooks{})
	if resumed.Ran != 2 {
		t.Fatalf("resume ran %d shards, want 2 (the failed unit's range)", resumed.Ran)
	}
	if resumed.Robust.FailedIterations != 0 {
		t.Fatalf("resume re-failed: %+v", resumed.Robust)
	}
	// The retried campaign converges on the clean run's merged outcome
	// exactly (restored units' stats land summed in their start slots, so
	// only the merged totals — and the live-retried shards — compare
	// slot-for-slot).
	if scrubCk(resumed.Stats) != scrubCk(clean.Stats) {
		t.Fatalf("retried campaign diverges from a clean run:\n  clean:   %+v\n  resumed: %+v",
			scrubCk(clean.Stats), scrubCk(resumed.Stats))
	}
	for _, i := range []int{2, failShard} {
		if a, b := scrubCk(clean.Shards[i].Stats), scrubCk(resumed.Shards[i].Stats); a != b {
			t.Errorf("retried shard %d diverges:\n  clean:   %+v\n  resumed: %+v", i, a, b)
		}
	}
}
