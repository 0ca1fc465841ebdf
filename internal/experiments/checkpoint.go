package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"gqs/internal/core"
	"gqs/internal/faults"
	"gqs/internal/metrics"
)

// This file is the durable half of the campaign: the checkpoint
// identity and the per-unit journal payload. The payload is the shard
// log — the buffered detections the canonical merge consumes —
// serialized by fault ID and re-resolved against the catalogs on resume,
// so a resumed campaign's CanonicalBugReport is byte-identical to an
// uninterrupted run's.
//
// Restored findings lose their Graph/Schema pointers and Latency (the
// graph is re-derivable from the seed but not persisted; latency is
// hardware-dependent and excluded from the canonical report anyway).

// CampaignFingerprint renders everything that determines a campaign's
// outcome; see core.CampaignFingerprint for the refusal contract. The
// target label lists the campaign's GDBs and their modes (Live,
// FlakyRate). Reports is left out: reports change what is printed, not
// what is found, so a campaign checkpointed under one setting may resume
// under the other.
func CampaignFingerprint(cfg CampaignConfig) string {
	targets := strings.Join(cfg.gdbs(), ",")
	if cfg.Live {
		targets += " live"
	}
	if cfg.FlakyRate > 0 {
		targets += fmt.Sprintf(" flaky=%g", cfg.FlakyRate)
	}
	return core.CampaignFingerprint(targets, faults.CatalogFingerprint(),
		cfg.Workers, cfg.ResolvedBatch(), cfg.Iterations, campaignRunnerConfig(cfg))
}

// RunGQSCampaignDurable is RunGQSCampaign under a cancelable context and
// an optional checkpoint journal: RunCampaign without a Monitor. The
// caller owns the checkpointer: flush/close it after the campaign
// returns, and treat a canceled campaign's result as partial.
func RunGQSCampaignDurable(ctx context.Context, cfg CampaignConfig, ck *core.Checkpointer) *Campaign {
	if ctx == nil {
		ctx = context.Background()
	}
	return runCampaign(ctx, cfg, ck, nil, nil)
}

// shardEventRecord and shardLogRecord are the journal payload codec: a
// unit's payload is a JSON array holding one shard-log record per
// logical shard in the unit's range. It keeps each shard's first
// detection of each bug and every detection no fault was attributed to
// (Bug ""), never the repeats. Verdict and Report came later. Verdict is
// written only where the bug's kind does not imply it (an unattributed
// detection, or a logic bug that raised an error), so a record without
// one — every record the benchmark harness writes — restores the
// implied verdict, and the payload of a campaign whose detections all
// have their implied verdicts is byte for byte what it was before
// verdicts were journaled. Report is written only under
// CampaignConfig.Reports.
type shardEventRecord struct {
	Bug     string `json:"bug"`
	Query   string `json:"query"`
	Steps   int    `json:"steps"`
	At      int    `json:"at"` // the case's 1-based shard-local query index
	Verdict string `json:"verdict,omitempty"`
	Report  string `json:"report,omitempty"`
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
			if ev.repeat {
				continue
			}
			rec := shardEventRecord{Query: ev.tc.Query, Steps: ev.tc.Steps, At: ev.tc.Seq, Report: ev.report}
			if ev.bug != nil {
				rec.Bug = ev.bug.ID
			}
			if ev.bug == nil || impliedVerdict(ev.bug) != ev.tc.Verdict {
				rec.Verdict = ev.tc.Verdict.String()
			}
			recs[i].Events = append(recs[i].Events, rec)
		}
	}
	p, err := json.Marshal(recs)
	if err != nil {
		return nil
	}
	return p
}

// decodeShardLogs restores a unit's payload into exactly count shard
// logs, all marked restored, and reports whether the payload decoded.
// A payload that is missing, is not count shard-log records, or holds
// an event naming a bug outside gdbName's catalog or an unknown verdict
// does not decode: the logs are then empty, and the caller must report
// the unit's detections as lost.
func decodeShardLogs(gdbName string, data json.RawMessage, count int) ([]shardLog, bool) {
	empty := make([]shardLog, count)
	for i := range empty {
		empty[i].restored = true
	}
	var recs []*shardLogRecord
	if json.Unmarshal(data, &recs) != nil || len(recs) != count {
		return empty, false
	}
	cat := faults.Catalogs()[gdbName]
	logs := make([]shardLog, count)
	for i, rec := range recs {
		if rec == nil {
			return empty, false
		}
		logs[i] = shardLog{queries: rec.Queries, skips: rec.Skips, restored: true}
		for _, er := range rec.Events {
			ev, ok := restoreEvent(cat, er)
			if !ok {
				return empty, false
			}
			logs[i].events = append(logs[i].events, ev)
		}
	}
	return logs, true
}

// restoreEvent rebuilds one journaled detection against the GDB's fault
// catalog (nil for a GDB without one).
func restoreEvent(cat *faults.Set, er shardEventRecord) (shardEvent, bool) {
	var bug *faults.Bug
	if er.Bug != "" && cat != nil {
		bug = cat.ByID(er.Bug)
	}
	verdict, ok := verdicts[er.Verdict]
	if er.Verdict == "" && bug != nil {
		verdict, ok = impliedVerdict(bug), true
	}
	if !ok || (er.Bug != "") != (bug != nil) {
		return shardEvent{}, false
	}
	return shardEvent{bug: bug, report: er.Report, tc: &core.TestCase{
		Seq: er.At, Query: er.Query, Steps: er.Steps, Verdict: verdict,
		Features: metrics.Analyze(er.Query),
	}}, true
}

// impliedVerdict is the verdict a detection of bug gets unless it
// misbehaves: a logic bug corrupts the result, any other bug errs.
func impliedVerdict(bug *faults.Bug) core.Verdict {
	if bug.Kind.IsLogic() {
		return core.VerdictLogicBug
	}
	return core.VerdictErrorBug
}

// verdicts maps the journaled verdict names back to verdicts.
var verdicts = map[string]core.Verdict{
	core.VerdictLogicBug.String(): core.VerdictLogicBug,
	core.VerdictErrorBug.String(): core.VerdictErrorBug,
}
