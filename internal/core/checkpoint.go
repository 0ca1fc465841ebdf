package core

import (
	"encoding/json"
	"errors"
	"fmt"
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
// flush appends one record of the units completed since the previous
// flush; recovery folds every valid record in order, the last write
// winning per (target, shard), so a torn tail costs at most the units of
// the record being written, which the resumed campaign simply re-runs —
// deterministically, to the same outcome.

// checkpointVersion tags records; a future layout change bumps it and
// refuses to resume older journals rather than misreading them.
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
// computes — only how completion is bucketed for durability.)
//
// The format is explicit, field by field. It spells what formatting the
// configurations with %+v once gave, so older journals keep resuming:
// "mode=sharded" dates from a second executor, the graph vocabulary
// sizes (now constants of package graph) print as the zeros every
// campaign configuration carried, and the synthesis constants print
// their values. A new RunnerConfig field must be printed here; one that
// is off by default only when set, so that existing journals resume.
func CampaignFingerprint(targets, catalog string, workers, batch, iterations int, rcfg RunnerConfig) string {
	if batch <= 0 {
		batch = 1
	}
	g, s, rb := rcfg.Graph, rcfg.Synth, rcfg.Robust
	return fmt.Sprintf("gqs-checkpoint-v%d mode=sharded targets=%s catalog=%s workers=%d batch=%d iterations=%d seed=%d"+
		" graph={MaxNodes:%d MaxRels:%d NumLabels:0 NumRelTypes:0 NumProps:0 MaxLabelsPerNode:0 MaxPropsPerElem:0 SelfLoopPercent:%d Scale:%d}"+
		" synth={MaxSteps:%d Plan:{MaxResultSet:%d MaxExtraElems:%d MaxAliases:%d MaxLists:%d} ExprDepth:%d"+
		" RelUniqueness:%t ProvidesDBLabels:%t OptionalMatchPct:%d UnionPct:%d CallPct:%d TruePredPct:%d"+
		" DisableMutation:%t DisableComplexExprs:%t} qpg=%d qpgt=%d robust={Timeout:%v Grace:%v Retries:%d"+
		" RetryBackoff:%v RestartAttempts:%d RestartBackoff:%v RestartBackoffMax:%v BreakerThreshold:%d}",
		checkpointVersion, targets, catalog, workers, batch, iterations, rcfg.Seed,
		g.MaxNodes, g.MaxRels, g.SelfLoopPercent, g.Scale,
		s.MaxSteps, s.Plan.MaxResultSet, maxExtraElems, maxAliases, maxLists, exprDepth,
		s.RelUniqueness, s.ProvidesDBLabels, optionalMatchPct, unionPct, callPct, truePredPct,
		s.DisableMutation, s.DisableComplexExprs, rcfg.QueriesPerGraph, rcfg.QueriesPerGT, rb.Timeout, rb.Grace, rb.Retries,
		rb.RetryBackoff, rb.RestartAttempts, rb.RestartBackoff, rb.RestartBackoffMax, rb.BreakerThreshold)
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

// unitsRecord is one journal record: the units completed since the
// previous flush. Journals written before records held only those units
// hold full-state records of the same layout, which the fold reads as
// large deltas.
type unitsRecord struct {
	Version     int          `json:"version"`
	Fingerprint string       `json:"fingerprint"`
	Units       []UnitRecord `json:"units"`
}

// CheckpointConfig configures a campaign checkpoint.
type CheckpointConfig struct {
	// Path is the journal file.
	Path string
	// Every appends a record after this many newly completed units;
	// 0 ⇒ 1 (every unit). A kill loses at most Every units of progress
	// — never correctness.
	Every int
	// Resume accepts an existing journal (with a matching fingerprint)
	// and restores its units. Without it, opening a non-empty journal is
	// an error — silently restarting a half-done campaign over its own
	// checkpoint would be data loss.
	Resume bool
	// Journal passes options (fault-injection hook, NoSync) to the
	// underlying journal.
	Journal journal.Options
	// OnFlush, when set, observes every flush attempt Record makes with
	// the number of units the record holds; tests use it to kill
	// campaigns at exact points. Called outside the checkpoint lock.
	OnFlush func(units int)
}

// CheckpointStats counts the checkpoint layer's work.
type CheckpointStats struct {
	Written      int           // records appended successfully
	Failures     int           // flushes that failed (journal broken or marshal error)
	Bytes        int64         // framed bytes appended
	WriteTime    time.Duration // time spent writing+syncing the journal
	LastFlush    time.Time     // wall time of the newest successful flush
	ResumedUnits int           // units restored from the journal at open
}

// Checkpointer journals completed units. It holds only the units not
// yet flushed (at most Every) and the restored units the executor has
// not yet taken. All methods are goroutine-safe and nil-safe (a nil
// *Checkpointer does nothing), so callers thread one through
// unconditionally. A broken journal degrades the campaign — the failure
// is counted, checkpointing stops, and Flush reports it — but never
// kills it; the campaign's own work continues.
type Checkpointer struct {
	mu       sync.Mutex
	cfg      CheckpointConfig
	j        *journal.Journal
	fp       string
	pending  []UnitRecord
	restored map[unitKey]UnitRecord
	resumed  int
	failures int
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
	j, recs, err := journal.Open(cfg.Path, cfg.Journal)
	if err != nil {
		return nil, err
	}
	c := &Checkpointer{cfg: cfg, j: j, fp: fingerprint}
	if len(recs) == 0 {
		return c, nil
	}
	if !cfg.Resume {
		j.Close()
		return nil, fmt.Errorf(
			"checkpoint %s: journal already holds a campaign (%d records); resume it or remove the file",
			cfg.Path, len(recs))
	}
	c.restored, err = recoverUnits(recs, fingerprint)
	if err != nil {
		j.Close()
		if !errors.Is(err, ErrFingerprintMismatch) {
			err = fmt.Errorf("checkpoint %s: %w", cfg.Path, err)
		}
		return nil, err
	}
	c.resumed = len(c.restored)
	return c, nil
}

// recoverUnits folds a journal's records into the units a resume
// restores: every record that decodes at this checkpoint version, in
// journal order, the last write winning per (target, shard). It skips
// records that do not decode, fails when none does, and fails with
// ErrFingerprintMismatch when one belongs to another campaign.
func recoverUnits(recs [][]byte, fingerprint string) (map[unitKey]UnitRecord, error) {
	units := map[unitKey]UnitRecord{}
	decoded := 0
	for _, rec := range recs {
		var r unitsRecord
		if json.Unmarshal(rec, &r) != nil || r.Version != checkpointVersion {
			continue
		}
		if r.Fingerprint != fingerprint {
			return nil, fmt.Errorf("%w:\n  journal: %s\n  current: %s",
				ErrFingerprintMismatch, r.Fingerprint, fingerprint)
		}
		decoded++
		for _, u := range r.Units {
			units[unitKey{u.Target, u.Shard}] = u
		}
	}
	if decoded == 0 {
		return nil, fmt.Errorf("no decodable record among %d records", len(recs))
	}
	return units, nil
}

// Completed returns the restored unit for (target, shard) if the journal
// held one that the executor has not taken yet.
func (c *Checkpointer) Completed(target string, shard int) (UnitRecord, bool) {
	if c == nil {
		return UnitRecord{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	u, ok := c.restored[unitKey{target, shard}]
	return u, ok
}

// take is Completed for the executor: it hands the restored unit over
// once and drops it, so restored payloads do not outlive their merge.
func (c *Checkpointer) take(target string, shard int) (UnitRecord, bool) {
	if c == nil {
		return UnitRecord{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := unitKey{target, shard}
	u, ok := c.restored[k]
	delete(c.restored, k)
	return u, ok
}

// Record queues a completed unit and appends a record once Every units
// are queued. Once the journal is broken it does nothing: checkpointing
// has stopped, and Flush reports why. Safe to call from worker
// goroutines.
func (c *Checkpointer) Record(u UnitRecord) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.j.Err() != nil {
		c.mu.Unlock()
		return
	}
	c.pending = append(c.pending, u)
	units := len(c.pending)
	flushed := units >= c.cfg.Every
	if flushed {
		c.flushLocked()
	}
	cb := c.cfg.OnFlush
	c.mu.Unlock()
	if flushed && cb != nil {
		cb(units)
	}
}

// flushLocked appends one record of the queued units and empties the
// queue, whether or not the append succeeds. Failures are counted, not
// fatal: a campaign with a broken journal keeps finding bugs, it just
// stops being resumable past the last good record; a record that does
// not encode costs only its own units, which a resume re-runs.
func (c *Checkpointer) flushLocked() {
	rec, err := json.Marshal(unitsRecord{Version: checkpointVersion, Fingerprint: c.fp, Units: c.pending})
	clear(c.pending)
	c.pending = c.pending[:0]
	if err != nil {
		err = fmt.Errorf("checkpoint: encode record: %w", err)
	} else {
		err = c.j.Append(rec)
	}
	if err != nil {
		c.failures++
		if c.failure == nil {
			c.failure = err
		}
	}
}

// Flush appends a record of any queued units; the final checkpoint of a
// graceful shutdown. If any flush since open failed, it returns an error
// naming the first failure, so callers can warn that resumability was
// lost.
func (c *Checkpointer) Flush() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) > 0 {
		c.flushLocked()
	}
	if c.failure != nil {
		return fmt.Errorf("%d checkpoint flush(es) failed, the first: %w", c.failures, c.failure)
	}
	return nil
}

// Stats returns the checkpoint counters.
func (c *Checkpointer) Stats() CheckpointStats {
	if c == nil {
		return CheckpointStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	js := c.j.Stats()
	return CheckpointStats{Written: js.Appends, Failures: c.failures, Bytes: js.Bytes,
		WriteTime: js.WriteTime, LastFlush: js.LastAppend, ResumedUnits: c.resumed}
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
// on resume. Both are optional, and neither runs without a checkpointer.
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
