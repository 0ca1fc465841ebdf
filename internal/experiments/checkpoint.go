package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"gqs/internal/core"
	"gqs/internal/faults"
	"gqs/internal/gdb"
	"gqs/internal/metrics"
)

// This file is the durable campaign front-end: RunGQSCampaign with a
// checkpoint journal threaded through the executor. The per-unit
// payload is the shard log — the buffered detections the canonical merge
// consumes — serialized by fault ID and re-resolved against the catalogs
// on resume, so a resumed campaign's CanonicalBugReport is byte-identical
// to an uninterrupted run's.
//
// Restored findings lose their Graph/Schema pointers and Latency (the
// graph is re-derivable from the seed but not persisted; latency is
// hardware-dependent and excluded from the canonical report anyway).

// CampaignFingerprint renders everything that determines a campaign's
// outcome; see core.CampaignFingerprint for the refusal contract.
func CampaignFingerprint(cfg CampaignConfig) string {
	var names []string
	for _, sim := range gdb.All() {
		names = append(names, sim.Name())
	}
	return Fingerprint(names, cfg, campaignRunnerConfig(cfg))
}

// Fingerprint is the checkpoint identity of a campaign against the named
// GDBs under runner configuration rcfg. cfg supplies the target modes
// (Live, FlakyRate), the executor shape (Workers, ResolvedBatch) and the
// iteration budget; its other fields are read only through rcfg. The
// gqs command binds its journals through it as well, so every front-end
// labels targets and resolves batches the same way.
func Fingerprint(names []string, cfg CampaignConfig, rcfg core.RunnerConfig) string {
	targets := strings.Join(names, ",")
	if cfg.Live {
		targets += " live"
	}
	if cfg.FlakyRate > 0 {
		targets += fmt.Sprintf(" flaky=%g", cfg.FlakyRate)
	}
	return core.CampaignFingerprint(targets, faults.CatalogFingerprint(),
		cfg.Workers, cfg.ResolvedBatch(), cfg.Iterations, rcfg)
}

// RunGQSCampaignDurable is RunGQSCampaign under a cancelable context and
// an optional checkpoint journal. With a nil checkpointer it still honors
// ctx (for signal-driven shutdown without durability); with both nil
// arguments it is exactly RunGQSCampaign. The caller owns the
// checkpointer: flush/close it after the campaign returns, and treat a
// canceled campaign's result as partial.
func RunGQSCampaignDurable(ctx context.Context, cfg CampaignConfig, ck *core.Checkpointer) *Campaign {
	if ctx == nil {
		ctx = context.Background()
	}
	return runShardedCampaignCtx(ctx, cfg, ck, nil)
}

// shardEventRecord and shardLogRecord are the journal payload codec for
// one shard log. Bugs are persisted by catalog ID and re-resolved on
// decode; feature vectors are recomputed from the query text. A unit
// payload is a JSON array of shard-log records, one per logical shard
// in the unit's range.
type shardEventRecord struct {
	Bug   string `json:"bug"`
	Query string `json:"query"`
	Steps int    `json:"steps"`
	At    int    `json:"at"` // 1-based shard-local query index
}

type shardLogRecord struct {
	Queries int                `json:"queries"`
	Skips   int                `json:"skips"`
	Events  []shardEventRecord `json:"events,omitempty"`
}

func encodeShardLogs(logs []shardLog) json.RawMessage {
	recs := make([]shardLogRecord, len(logs))
	for i := range logs {
		recs[i] = shardLogRecord{Queries: logs[i].queries, Skips: logs[i].skips}
		for _, ev := range logs[i].events {
			recs[i].Events = append(recs[i].Events, shardEventRecord{
				Bug: ev.bug.ID, Query: ev.query, Steps: ev.steps, At: ev.atLocal,
			})
		}
	}
	p, err := json.Marshal(recs)
	if err != nil {
		return nil
	}
	return p
}

// decodeShardLogs always returns exactly count logs: a payload that is
// missing, truncated, or undecodable yields zero logs in the broken
// positions (the unit then merges as if it had found nothing — the
// fingerprint guards against every systematic cause).
func decodeShardLogs(gdbName string, data json.RawMessage, count int) []shardLog {
	logs := make([]shardLog, count)
	var recs []shardLogRecord
	if len(data) == 0 || json.Unmarshal(data, &recs) != nil {
		return logs
	}
	cat := faults.Catalogs()[gdbName]
	for i := 0; i < len(recs) && i < count; i++ {
		rec := recs[i]
		log := shardLog{queries: rec.Queries, skips: rec.Skips}
		for _, er := range rec.Events {
			if cat == nil {
				break
			}
			b := cat.ByID(er.Bug)
			if b == nil {
				continue // catalog drift is fingerprint-guarded; belt and braces
			}
			log.events = append(log.events, shardEvent{
				bug:      b,
				query:    er.Query,
				features: metrics.Analyze(er.Query),
				steps:    er.Steps,
				atLocal:  er.At,
			})
		}
		logs[i] = log
	}
	return logs
}
