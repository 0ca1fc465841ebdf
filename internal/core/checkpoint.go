package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gqs/internal/journal"
)

// This file is the campaign checkpoint layer (DESIGN.md §10): a durable
// record of which work units a campaign has completed, kept in an
// append-only CRC-framed journal so a killed process resumes
// byte-identically. The unit of durability is the sharded executor's
// work unit — a contiguous range of logical iterations, each of which
// derives its RNG stream from (campaign seed, iteration) alone. Each
// flush appends one full-state snapshot record; recovery takes the last
// valid one, so a torn tail costs at most the units recorded since the
// previous flush, which the resumed campaign simply re-runs —
// deterministically, to the same outcome.

// checkpointVersion tags snapshot records; a future layout change bumps
// it and refuses to resume older journals rather than misreading them.
const checkpointVersion = 1

// ErrFingerprintMismatch reports a resume attempt against a journal
// written by a different campaign configuration.
var ErrFingerprintMismatch = errors.New("checkpoint: campaign fingerprint mismatch")

// CampaignFingerprint canonically renders everything that determines a
// campaign's outcome — target set, fault-catalog hash, seed and
// iteration budget, and the full runner configuration (graph
// generation, synthesis, query counts, robustness bounds). Two runs may
// share a checkpoint journal only if their fingerprints are equal;
// resuming under a changed configuration would splice two different
// deterministic streams into one nonsense campaign.
// batch is part of the fingerprint because it fixes the work-unit
// ranges the journal records: resuming a batch=4 journal under batch=1
// would misalign every unit. (The batch never affects what a shard
// computes — only how completion is bucketed for durability.) The
// string still carries "mode=sharded", from when a second executor
// existed, so journals written before its removal keep resuming.
func CampaignFingerprint(targets, catalog string, workers, batch, iterations int, rcfg RunnerConfig) string {
	if batch <= 0 {
		batch = 1
	}
	return fmt.Sprintf(
		"gqs-checkpoint-v%d mode=sharded targets=%s catalog=%s workers=%d batch=%d iterations=%d seed=%d graph=%+v synth=%+v qpg=%d qpgt=%d robust=%+v",
		checkpointVersion, targets, catalog, workers, batch, iterations,
		rcfg.Seed, rcfg.Graph, rcfg.Synth, rcfg.QueriesPerGraph, rcfg.QueriesPerGT, rcfg.Robust)
}

// UnitRecord is one completed work unit: a contiguous range of Count
// shards starting at Shard. Stats is the unit's own contribution (a sum
// over its shards) so restored units merge exactly like live ones.
type UnitRecord struct {
	Target string `json:"target"`
	Shard  int    `json:"shard"`
	// Count is the number of contiguous shards the unit covers; 0 means
	// 1 (pre-batching records).
	Count   int   `json:"count,omitempty"`
	Queries int   `json:"queries"` // test cases the unit produced
	Stats   Stats `json:"stats"`
	// Payload is the embedder's per-unit state — the experiments layer
	// stores its buffered detection events here so a resumed campaign can
	// rebuild the canonical merged report.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// UnitCount is the number of shards the unit covers (Count, with the
// zero value meaning one).
func (u UnitRecord) UnitCount() int {
	if u.Count <= 0 {
		return 1
	}
	return u.Count
}

// snapshotRecord is one journal record: the full campaign state at a
// flush. Full-state records make recovery trivial (last valid record
// wins) at the cost of journal growth, which compaction bounds.
type snapshotRecord struct {
	Version     int          `json:"version"`
	Fingerprint string       `json:"fingerprint"`
	Units       []UnitRecord `json:"units"`
}

// CheckpointConfig configures a campaign checkpoint.
type CheckpointConfig struct {
	// Path is the journal file.
	Path string
	// Every flushes a snapshot record after this many newly completed
	// units; 0 ⇒ 1 (every unit). A kill loses at most Every-1 units of
	// progress — never correctness.
	Every int
	// Resume accepts an existing journal (with a matching fingerprint)
	// and restores its units. Without it, opening a non-empty journal is
	// an error — silently restarting a half-done campaign over its own
	// checkpoint would be data loss.
	Resume bool
	// Journal passes options (fault-injection hook, NoSync) to the
	// underlying journal.
	Journal journal.Options
	// CompactBytes triggers an atomic rewrite (latest snapshot only) when
	// the journal grows past this size; 0 ⇒ 4 MiB.
	CompactBytes int64
	// OnFlush, when set, observes every flush attempt with the number of
	// completed units; tests use it to kill campaigns at exact points.
	// Called outside the checkpoint lock.
	OnFlush func(completedUnits int)
}

// CheckpointStats counts the checkpoint layer's work.
type CheckpointStats struct {
	Written      int           // snapshot records flushed successfully
	Failures     int           // flushes that failed (journal broken or marshal error)
	Bytes        int64         // framed bytes appended
	WriteTime    time.Duration // time spent writing+syncing the journal
	LastFlush    time.Time     // wall time of the newest successful flush
	ResumedUnits int           // units restored from the journal at open
}

// Checkpointer tracks completed units and journals them. All methods
// are goroutine-safe and nil-safe (a nil *Checkpointer does nothing), so
// callers thread one through unconditionally. A broken journal degrades
// the campaign — flush failures are counted, checkpointing stops, and
// Flush reports it — but never kills it; the campaign's own work
// continues.
type Checkpointer struct {
	mu    sync.Mutex
	cfg   CheckpointConfig
	j     *journal.Journal
	fp    string
	idx   map[unitKey]int
	units []UnitRecord
	dirty int
	stats CheckpointStats
	// failure is the first flush failure since open.
	failure error
}

type unitKey struct {
	target string
	shard  int
}

// OpenCheckpoint opens (or resumes) the checkpoint journal for a
// campaign with the given fingerprint. Opening an existing non-empty
// journal requires cfg.Resume and a matching fingerprint; resuming an
// empty or absent journal is a fresh start.
func OpenCheckpoint(cfg CheckpointConfig, fingerprint string) (*Checkpointer, error) {
	if cfg.Every <= 0 {
		cfg.Every = 1
	}
	if cfg.CompactBytes <= 0 {
		cfg.CompactBytes = 4 << 20
	}
	j, recs, err := journal.Open(cfg.Path, cfg.Journal)
	if err != nil {
		return nil, err
	}
	c := &Checkpointer{cfg: cfg, j: j, fp: fingerprint, idx: map[unitKey]int{}}
	if len(recs) == 0 {
		return c, nil
	}
	if !cfg.Resume {
		j.Close()
		return nil, fmt.Errorf(
			"checkpoint %s: journal already holds a campaign (%d records); resume it or remove the file",
			cfg.Path, len(recs))
	}
	units, err := recoverUnits(recs, fingerprint)
	if err != nil {
		j.Close()
		if !errors.Is(err, ErrFingerprintMismatch) {
			err = fmt.Errorf("checkpoint %s: %w", cfg.Path, err)
		}
		return nil, err
	}
	for _, u := range units {
		c.idx[unitKey{u.Target, u.Shard}] = len(c.units)
		c.units = append(c.units, u)
	}
	c.stats.ResumedUnits = len(c.units)
	return c, nil
}

// recoverUnits picks the state a resume restores from a journal's
// records: the units of the newest record that decodes as a snapshot of
// this checkpoint version (earlier records are superseded full-state
// snapshots kept only until the next compaction). It fails when no
// record decodes, and with ErrFingerprintMismatch when that snapshot
// belongs to another campaign.
func recoverUnits(recs [][]byte, fingerprint string) ([]UnitRecord, error) {
	for i := len(recs) - 1; i >= 0; i-- {
		var snap snapshotRecord
		if json.Unmarshal(recs[i], &snap) != nil || snap.Version != checkpointVersion {
			continue
		}
		if snap.Fingerprint != fingerprint {
			return nil, fmt.Errorf("%w:\n  journal: %s\n  current: %s",
				ErrFingerprintMismatch, snap.Fingerprint, fingerprint)
		}
		return snap.Units, nil
	}
	return nil, fmt.Errorf("no decodable snapshot among %d records", len(recs))
}

// Completed returns the recorded unit for (target, shard) if the
// campaign has completed it (restored or recorded this run).
func (c *Checkpointer) Completed(target string, shard int) (UnitRecord, bool) {
	if c == nil {
		return UnitRecord{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.idx[unitKey{target, shard}]
	if !ok {
		return UnitRecord{}, false
	}
	return c.units[i], true
}

// Record registers a completed unit and flushes a snapshot record once
// Every units have accumulated. Safe to call from worker goroutines.
func (c *Checkpointer) Record(u UnitRecord) {
	if c == nil {
		return
	}
	c.mu.Lock()
	k := unitKey{u.Target, u.Shard}
	if i, ok := c.idx[k]; ok {
		c.units[i] = u
	} else {
		c.idx[k] = len(c.units)
		c.units = append(c.units, u)
	}
	c.dirty++
	flushed := -1
	if c.dirty >= c.cfg.Every {
		c.flushLocked()
		flushed = len(c.units)
	}
	cb := c.cfg.OnFlush
	c.mu.Unlock()
	if flushed >= 0 && cb != nil {
		cb(flushed)
	}
}

// flushLocked appends one full-state snapshot record. Units are
// serialized sorted by (target, shard) so the record bytes are
// independent of completion order. Failures are counted, not fatal: a
// campaign with a broken journal keeps finding bugs, it just stops
// being resumable past the last good record.
func (c *Checkpointer) flushLocked() {
	snap := snapshotRecord{Version: checkpointVersion, Fingerprint: c.fp,
		Units: append([]UnitRecord(nil), c.units...)}
	sort.SliceStable(snap.Units, func(i, k int) bool {
		if snap.Units[i].Target != snap.Units[k].Target {
			return snap.Units[i].Target < snap.Units[k].Target
		}
		return snap.Units[i].Shard < snap.Units[k].Shard
	})
	payload, err := json.Marshal(snap)
	if err != nil {
		c.failLocked(fmt.Errorf("checkpoint: encode snapshot: %w", err))
		return
	}
	before := c.j.Stats()
	err = c.j.Append(payload)
	after := c.j.Stats()
	c.stats.WriteTime += after.WriteTime - before.WriteTime
	if err != nil {
		c.failLocked(err)
		return
	}
	c.dirty = 0
	c.stats.Written++
	c.stats.Bytes += after.Bytes - before.Bytes
	c.stats.LastFlush = time.Now()
	if c.j.Size() > c.cfg.CompactBytes {
		c.j.Compact([][]byte{payload}) //nolint:errcheck // failure leaves the (valid) long journal
	}
}

// failLocked counts a failed flush and keeps the first failure.
func (c *Checkpointer) failLocked(err error) {
	c.stats.Failures++
	if c.failure == nil {
		c.failure = err
	}
}

// Flush forces a snapshot record for any unflushed units; the final
// checkpoint of a graceful shutdown. If any flush since open failed, it
// returns an error naming the first failure, and otherwise the
// journal's sticky error (a failed compaction leaves one), so callers
// can warn that resumability was lost.
func (c *Checkpointer) Flush() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dirty > 0 {
		c.flushLocked()
	}
	if c.failure != nil {
		return fmt.Errorf("%d checkpoint flush(es) failed, the first: %w", c.stats.Failures, c.failure)
	}
	return c.j.Err()
}

// Stats returns the checkpoint counters.
func (c *Checkpointer) Stats() CheckpointStats {
	if c == nil {
		return CheckpointStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Path returns the journal path ("" on a nil checkpointer).
func (c *Checkpointer) Path() string {
	if c == nil {
		return ""
	}
	return c.cfg.Path
}

// ApplyTo folds the checkpoint counters into a campaign's robustness
// block. Call it after the final Flush so the counters are complete;
// per-unit stats never include these fields, so there is no double
// counting.
func (c *Checkpointer) ApplyTo(r *RobustnessStats) {
	if c == nil {
		return
	}
	cs := c.Stats()
	r.CheckpointsWritten += cs.Written
	r.CheckpointBytes += cs.Bytes
	if !cs.LastFlush.IsZero() {
		r.LastCheckpointAge = time.Since(cs.LastFlush)
	}
}

// Close flushes any unflushed units and closes the journal.
func (c *Checkpointer) Close() error {
	if c == nil {
		return nil
	}
	err := c.Flush()
	c.mu.Lock()
	defer c.mu.Unlock()
	if cerr := c.j.Close(); err == nil {
		err = cerr
	}
	return err
}

// DurableHooks lets an embedder attach per-unit state to the checkpoint
// records RunCheckpointedParallel writes, and observe the units restored
// on resume. Both are optional.
type DurableHooks struct {
	// Payload renders the embedder's state for a just-completed unit
	// covering shards [start, start+count); it runs on the goroutine
	// that ran the unit, after its last test case.
	Payload func(target string, start, count int) json.RawMessage
	// Restore observes one restored unit. It is called from the
	// (single-goroutine) feed loop in ascending unit order, before the
	// unit's shards would have been enqueued.
	Restore func(u UnitRecord)
}

// RunCheckpointedParallel is RunParallelCtx with checkpointing: restored
// work units are skipped (their recorded stats merge as if they had run)
// and every completed unit is recorded. A recorded unit whose range no
// longer matches the executor's batching is ignored rather than half-
// restored (the fingerprint pins the batch, so this only guards against
// hand-edited journals). With a nil checkpointer it is exactly
// RunParallelCtx. The caller's own UnitDone hook, if any, runs after the
// unit is recorded.
func RunCheckpointedParallel(ctx context.Context, cfg ParallelConfig, name string,
	factory TargetFactory, observe func(int, Target, *TestCase),
	ck *Checkpointer, hooks DurableHooks) *ParallelStats {
	if ck != nil {
		userDone := cfg.UnitDone
		cfg.SkipUnit = func(start, count int) (Stats, bool) {
			u, ok := ck.Completed(name, start)
			if !ok || u.UnitCount() != count {
				return Stats{}, false
			}
			if hooks.Restore != nil {
				hooks.Restore(u)
			}
			return u.Stats, true
		}
		cfg.UnitDone = func(start, count int, s Stats) {
			u := UnitRecord{Target: name, Shard: start, Count: count, Queries: s.Queries, Stats: s}
			if hooks.Payload != nil {
				u.Payload = hooks.Payload(name, start, count)
			}
			ck.Record(u)
			if userDone != nil {
				userDone(start, count, s)
			}
		}
	}
	return RunParallelCtx(ctx, cfg, factory, observe)
}
