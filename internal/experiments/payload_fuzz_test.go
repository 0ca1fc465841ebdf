package experiments

import (
	"encoding/json"
	"testing"
)

// FuzzShardLogsDecode: restoring a unit must cope with any payload a
// journal holds. For any GDB name, payload and shard count,
// decodeShardLogs never panics and returns exactly count logs; it
// reports a payload that is not even JSON as undecodable and then
// returns empty logs; and a payload it decodes re-encodes to one that
// decodes to the same logs. The seeds under
// testdata/fuzz/FuzzShardLogsDecode hold the unit payloads of a journal
// the gqs command wrote (`gqs -gdb falkordb -iterations 2 -workers 1
// -batch 1 -max-nodes 3 -max-rels 4 -max-steps 3 -checkpoint-every 1`),
// one with the verdicts a bug's kind does not imply, and one from before
// the command ran on this codec (prerendered detections).
func FuzzShardLogsDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, gdbName string, payload []byte, count uint8) {
		logs, ok := decodeShardLogs(gdbName, payload, int(count))
		if len(logs) != int(count) {
			t.Fatalf("%d logs, want %d", len(logs), count)
		}
		if ok && !json.Valid(payload) {
			t.Fatal("a payload that is not JSON decoded")
		}
		if !ok {
			for i, l := range logs {
				if l.queries != 0 || l.skips != 0 || len(l.events) != 0 || !l.restored {
					t.Fatalf("undecodable payload restored log %d: %+v", i, l)
				}
			}
			return
		}
		again, ok := decodeShardLogs(gdbName, encodeShardLogs(logs), int(count))
		if !ok {
			t.Fatal("a decoded payload does not decode once re-encoded")
		}
		if got, want := describeLogs(again), describeLogs(logs); got != want {
			t.Fatalf("re-encoded payload decodes to other logs:\n got:  %s\n want: %s", got, want)
		}
	})
}

// describeLogs renders what a restored log carries, for comparison.
func describeLogs(logs []shardLog) string {
	type event struct {
		Bug                 string
		Seq, Steps          int
		Query, Verdict, Rep string
	}
	type log struct {
		Queries, Skips int
		Events         []event
	}
	var out []log
	for _, l := range logs {
		d := log{Queries: l.queries, Skips: l.skips}
		for _, ev := range l.events {
			e := event{Seq: ev.tc.Seq, Steps: ev.tc.Steps, Query: ev.tc.Query, Verdict: ev.tc.Verdict.String(), Rep: ev.report}
			if ev.bug != nil {
				e.Bug = ev.bug.ID
			}
			d.Events = append(d.Events, e)
		}
		out = append(out, d)
	}
	b, _ := json.Marshal(out)
	return string(b)
}
