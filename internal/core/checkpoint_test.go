package core

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gqs/internal/journal"
)

func ckPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "campaign.journal")
}

// scrubCk additionally zeroes the checkpoint-layer fields that
// legitimately differ between a resumed run and an uninterrupted one.
func scrubCk(s Stats) Stats {
	s = scrub(s)
	s.Robust.RestoredIterations = 0
	s.Robust.CheckpointsWritten = 0
	s.Robust.CheckpointBytes = 0
	s.Robust.LastCheckpointAge = 0
	return s
}

func TestCheckpointerBatchFlushAndResume(t *testing.T) {
	path := ckPath(t)
	fp := "fp-batch"
	ck, err := OpenCheckpoint(CheckpointConfig{Path: path, Every: 2}, fp)
	if err != nil {
		t.Fatal(err)
	}
	unit := func(shard, queries int) UnitRecord {
		var s Stats
		s.Queries = queries
		return UnitRecord{Target: "a", Shard: shard, Queries: queries, Stats: s}
	}
	ck.Record(unit(0, 3))
	if st := ck.Stats(); st.Written != 0 {
		t.Fatalf("flushed before Every units: %+v", st)
	}
	ck.Record(unit(1, 4))
	if st := ck.Stats(); st.Written != 1 || st.Bytes == 0 {
		t.Fatalf("batch of 2 did not flush once: %+v", st)
	}
	ck.Record(unit(2, 5)) // dirty: only Close's flush persists it
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenCheckpoint(CheckpointConfig{Path: path, Resume: true}, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.ResumedUnits != 3 {
		t.Fatalf("ResumedUnits = %d, want 3", st.ResumedUnits)
	}
	u, ok := re.Completed("a", 2)
	if !ok || u.Queries != 5 || u.Stats.Queries != 5 {
		t.Fatalf("unit 2 not restored: %+v ok=%v", u, ok)
	}
	if _, ok := re.Completed("a", 3); ok {
		t.Fatal("phantom unit restored")
	}
	if _, ok := re.Completed("b", 0); ok {
		t.Fatal("unit restored under the wrong target")
	}
}

func TestCheckpointRefusesNonEmptyWithoutResume(t *testing.T) {
	path := ckPath(t)
	ck, err := OpenCheckpoint(CheckpointConfig{Path: path}, "fp")
	if err != nil {
		t.Fatal(err)
	}
	ck.Record(UnitRecord{Target: "a", Shard: 0})
	ck.Close()

	if _, err := OpenCheckpoint(CheckpointConfig{Path: path}, "fp"); err == nil {
		t.Fatal("reopening a non-empty journal without Resume must fail")
	}
}

func TestCheckpointFingerprintMismatch(t *testing.T) {
	path := ckPath(t)
	ck, err := OpenCheckpoint(CheckpointConfig{Path: path}, "fp-old")
	if err != nil {
		t.Fatal(err)
	}
	ck.Record(UnitRecord{Target: "a", Shard: 0})
	ck.Close()

	_, err = OpenCheckpoint(CheckpointConfig{Path: path, Resume: true}, "fp-new")
	if !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("err = %v, want ErrFingerprintMismatch", err)
	}
	if err == nil || !strings.Contains(err.Error(), "fp-old") || !strings.Contains(err.Error(), "fp-new") {
		t.Fatalf("mismatch error must show both fingerprints: %v", err)
	}
}

// TestCheckpointWritesEachUnitOnce: a flush appends only the units
// completed since the previous one, so the journal is its 8-byte header
// plus exactly the bytes Stats reports, each (target, shard) is in
// exactly one record, and the fold of those records restores them all.
func TestCheckpointWritesEachUnitOnce(t *testing.T) {
	path := ckPath(t)
	fp := "fp-once"
	const n = 50
	ck, err := OpenCheckpoint(CheckpointConfig{Path: path, Every: 1}, fp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ck.Record(UnitRecord{Target: "a", Shard: i, Queries: i})
		ck.Record(UnitRecord{Target: "b", Shard: i, Queries: i})
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	st := ck.Stats()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 8+st.Bytes {
		t.Fatalf("journal is %d bytes, want its 8-byte header plus the %d bytes appended", fi.Size(), st.Bytes)
	}
	j, recs, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(recs) != st.Written || st.Written != 2*n {
		t.Fatalf("%d records on disk, Written = %d, want %d", len(recs), st.Written, 2*n)
	}
	seen := map[unitKey]int{}
	for _, rec := range recs {
		var r unitsRecord
		if err := json.Unmarshal(rec, &r); err != nil {
			t.Fatal(err)
		}
		for _, u := range r.Units {
			seen[unitKey{u.Target, u.Shard}]++
		}
	}
	for i := 0; i < n; i++ {
		for _, target := range []string{"a", "b"} {
			if c := seen[unitKey{target, i}]; c != 1 {
				t.Fatalf("unit (%s, %d) is in %d records, want 1", target, i, c)
			}
		}
	}

	re, err := OpenCheckpoint(CheckpointConfig{Path: path, Resume: true}, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.ResumedUnits != 2*n {
		t.Fatalf("ResumedUnits = %d, want %d", st.ResumedUnits, 2*n)
	}
}

// TestCheckpointBrokenJournalRecordsNothing: once an append fails the
// journal is broken and checkpointing stops, so a later unit is neither
// queued nor encoded and counts no further failure; Flush still names
// the first one.
func TestCheckpointBrokenJournalRecordsNothing(t *testing.T) {
	// Write 1 is the journal header, write 2 the first record.
	open := func(path string) (journal.File, error) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		return journal.NewFaultFile(f, journal.FaultConfig{ShortWriteAt: 2}), nil
	}
	ck, err := OpenCheckpoint(CheckpointConfig{Path: ckPath(t), Every: 1,
		Journal: journal.Options{OpenFile: open}}, "fp-broken")
	if err != nil {
		t.Fatal(err)
	}
	payload := json.RawMessage(`"` + strings.Repeat("x", 1<<10) + `"`)
	for i := 0; i < 500; i++ {
		ck.Record(UnitRecord{Target: "a", Shard: i, Payload: payload})
	}
	if st := ck.Stats(); st.Failures != 1 || st.Written != 0 {
		t.Fatalf("stats: %+v, want one failure and nothing written", st)
	}
	if err := ck.Flush(); err == nil || !strings.Contains(err.Error(), "short write") {
		t.Fatalf("Flush = %v, want the short write reported", err)
	}
	ck.Close()
}

func TestCampaignFingerprintSensitivity(t *testing.T) {
	cfg := tinyRunnerConfig()
	base := CampaignFingerprint("reference", "cat", 1, 1, 10, cfg)
	if base != CampaignFingerprint("reference", "cat", 1, 1, 10, cfg) {
		t.Fatal("fingerprint not deterministic")
	}
	if !strings.Contains(base, " mode=sharded ") {
		t.Fatalf("fingerprint must keep mode=sharded so older journals resume: %s", base)
	}
	cfg2 := cfg
	cfg2.Seed++
	for name, other := range map[string]string{
		"seed":       CampaignFingerprint("reference", "cat", 1, 1, 10, cfg2),
		"targets":    CampaignFingerprint("memgraph", "cat", 1, 1, 10, cfg),
		"catalog":    CampaignFingerprint("reference", "cat2", 1, 1, 10, cfg),
		"workers":    CampaignFingerprint("reference", "cat", 2, 1, 10, cfg),
		"iterations": CampaignFingerprint("reference", "cat", 1, 1, 11, cfg),
		"batch":      CampaignFingerprint("reference", "cat", 1, 4, 10, cfg),
	} {
		if other == base {
			t.Errorf("fingerprint insensitive to %s", name)
		}
	}
}

// TestCampaignFingerprintCoversRunnerConfig: changing any leaf field of a
// RunnerConfig — graph, synthesis and plan settings, query counts,
// robustness bounds — changes the fingerprint. A field added to the
// configuration but left out of the format fails here, instead of
// letting a journal resume under a different setting.
func TestCampaignFingerprintCoversRunnerConfig(t *testing.T) {
	cfg := DefaultRunnerConfig()
	base := CampaignFingerprint("reference", "cat", 1, 1, 10, cfg)
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
			return
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("%s: no change defined for a %s field", path, v.Kind())
		}
		if CampaignFingerprint("reference", "cat", 1, 1, 10, cfg) == base {
			t.Errorf("fingerprint insensitive to %s", path)
		}
		v.Set(old)
	}
	walk(reflect.ValueOf(&cfg).Elem(), "RunnerConfig")
}

// TestCheckpointedParallelResume: a sharded campaign canceled after some
// checkpoints resumes to the same merged stats, skipping completed
// shards.
func TestCheckpointedParallelResume(t *testing.T) {
	pcfg := shardTestConfig()
	pcfg.Workers = 1 // deterministic completion order for the kill point
	fp := CampaignFingerprint("reference", "", pcfg.Workers, 1, pcfg.Iterations, pcfg.Runner)
	factory := func(int) (Target, error) { return newRefTarget(nil), nil }

	baseline := RunParallel(pcfg, factory, nil)

	path := ckPath(t)
	var canceled context.CancelFunc
	flushes := 0
	ck, err := OpenCheckpoint(CheckpointConfig{Path: path, Every: 1,
		OnFlush: func(int) {
			if flushes++; flushes == 3 {
				canceled()
			}
		}}, fp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	canceled = cancel
	defer cancel()
	RunCheckpointedParallel(ctx, pcfg, "reference", factory, nil, ck, DurableHooks{})
	ck.Close()

	re, err := OpenCheckpoint(CheckpointConfig{Path: path, Every: 1, Resume: true}, fp)
	if err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); st.ResumedUnits == 0 || st.ResumedUnits >= pcfg.Iterations {
		t.Fatalf("kill point restored %d units, want a partial campaign", st.ResumedUnits)
	}
	skipped := 0
	resumed := RunCheckpointedParallel(context.Background(), pcfg, "reference", factory, nil,
		re, DurableHooks{Restore: func(UnitRecord) { skipped++ }})
	re.Close()

	if skipped == 0 {
		t.Fatal("resume ran every shard from scratch")
	}
	if resumed.Robust.RestoredIterations != skipped {
		t.Fatalf("RestoredIterations = %d, want %d", resumed.Robust.RestoredIterations, skipped)
	}
	if scrubCk(resumed.Stats) != scrubCk(baseline.Stats) {
		t.Fatalf("resumed merged stats diverge:\n  baseline: %+v\n  resumed:  %+v",
			scrubCk(baseline.Stats), scrubCk(resumed.Stats))
	}
	for i := range baseline.Shards {
		a, b := scrubCk(baseline.Shards[i].Stats), scrubCk(resumed.Shards[i].Stats)
		if a != b {
			t.Errorf("shard %d stats diverge after resume:\n  baseline: %+v\n  resumed:  %+v", i, a, b)
		}
	}
}

// TestCheckpointedParallelResumeThroughOutage: a durable campaign
// killed while some of its shards' targets never came up resumes to the
// uninterrupted campaign's stats field by field — failed iterations,
// restart counters and booked downtime included — because a dead shard's
// outcome is journaled like any other and re-derived from its own seed.
func TestCheckpointedParallelResumeThroughOutage(t *testing.T) {
	pcfg := shardTestConfig()
	pcfg.Workers = 1 // deterministic completion order for the kill point
	fp := CampaignFingerprint("reference", "", pcfg.Workers, 1, pcfg.Iterations, pcfg.Runner)
	down := map[int]bool{1: true, 2: true, 4: true} // one outage before the kill, one after
	factory := func(shard int) (Target, error) {
		return &flakyReset{Target: newRefTarget(nil), down: down[shard]}, nil
	}
	// Only the busy time differs between runs; downtime is booked from
	// the seeded jitter stream and must match.
	clean := func(s Stats) Stats {
		s.Elapsed = 0
		s.Robust.RestoredIterations = 0
		return s
	}

	baseline := RunParallel(pcfg, factory, nil)
	if rb := baseline.Robust; rb.FailedIterations != len(down) || rb.RestartFailures == 0 || rb.Downtime == 0 {
		t.Fatalf("baseline outage did not fail its iterations: %+v", rb)
	}

	path := ckPath(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	flushes := 0
	ck, err := OpenCheckpoint(CheckpointConfig{Path: path, Every: 1,
		OnFlush: func(int) {
			if flushes++; flushes == 3 {
				cancel()
			}
		}}, fp)
	if err != nil {
		t.Fatal(err)
	}
	RunCheckpointedParallel(ctx, pcfg, "reference", factory, nil, ck, DurableHooks{})
	ck.Close()

	re, err := OpenCheckpoint(CheckpointConfig{Path: path, Every: 1, Resume: true}, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.ResumedUnits != 3 {
		t.Fatalf("kill point restored %d units, want 3", st.ResumedUnits)
	}
	u, ok := re.Completed("reference", 2)
	if !ok || u.Queries != 0 || u.Stats.Robust.FailedIterations != 1 || u.Stats.Robust.RestartFailures == 0 {
		t.Fatalf("outage unit not journaled as a failed iteration: %+v ok=%v", u, ok)
	}
	resumed := RunCheckpointedParallel(context.Background(), pcfg, "reference", factory, nil, re, DurableHooks{})
	if resumed.Restored != 3 || resumed.Ran != pcfg.Iterations-3 {
		t.Fatalf("resume: Restored=%d Ran=%d, want 3/%d", resumed.Restored, resumed.Ran, pcfg.Iterations-3)
	}
	if got, want := clean(resumed.Stats), clean(baseline.Stats); got != want {
		t.Fatalf("resumed stats diverge:\n  baseline: %+v\n  resumed:  %+v", want, got)
	}
	for i := 3; i < pcfg.Iterations; i++ {
		if a, b := clean(baseline.Shards[i].Stats), clean(resumed.Shards[i].Stats); a != b {
			t.Errorf("live shard %d diverges after resume:\n  baseline: %+v\n  resumed:  %+v", i, a, b)
		}
	}
}

// TestCheckpointFlushFailureReported: a flush that fails (here, a
// record that cannot be encoded) costs only its own units, and must
// surface from Flush and Close, naming the first failure, even though
// the campaign — and its checkpoint — carries on.
func TestCheckpointFlushFailureReported(t *testing.T) {
	ck, err := OpenCheckpoint(CheckpointConfig{Path: ckPath(t), Every: 1}, "fp-fail")
	if err != nil {
		t.Fatal(err)
	}
	ck.Record(UnitRecord{Target: "a", Shard: 0, Payload: []byte("{not json")})
	ck.Record(UnitRecord{Target: "a", Shard: 1})
	if st := ck.Stats(); st.Failures != 1 || st.Written != 1 {
		t.Fatalf("stats: %+v", st)
	}
	err = ck.Flush()
	if err == nil || !strings.Contains(err.Error(), "encode record") {
		t.Fatalf("Flush = %v, want the first failure reported", err)
	}
	if err := ck.Close(); err == nil {
		t.Fatal("Close must report the failed flushes too")
	}
}
