package core

import (
	"encoding/json"
	"errors"
	"testing"
)

// FuzzCheckpointRecover: resuming must cope with whatever records the
// journal's recovery scan hands back. For any two records and any
// fingerprint, recoverUnits never panics. When it restores a snapshot,
// the same records under any other fingerprint give
// ErrFingerprintMismatch, and the restored units, re-encoded as a
// snapshot record, restore to the same units. The seeds under
// testdata/fuzz/FuzzCheckpointRecover hold the two records and the
// fingerprint of a journal the gqs command wrote (`gqs -gdb falkordb
// -iterations 2 -workers 1 -batch 1 -max-nodes 3 -max-rels 4 -max-steps 3
// -checkpoint-every 1`), with the newer record torn, bit-flipped or
// under a foreign fingerprint.
func FuzzCheckpointRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, older, newer []byte, fingerprint string) {
		recs := [][]byte{older, newer}
		units, err := recoverUnits(recs, fingerprint)
		if err != nil {
			return
		}
		if _, err := recoverUnits(recs, fingerprint+"'"); !errors.Is(err, ErrFingerprintMismatch) {
			t.Fatalf("a foreign fingerprint restored the snapshot: err = %v", err)
		}
		rec, err := json.Marshal(snapshotRecord{Version: checkpointVersion, Fingerprint: fingerprint, Units: units})
		if err != nil {
			t.Fatalf("re-encoding the restored snapshot: %v", err)
		}
		again, err := recoverUnits([][]byte{rec}, fingerprint)
		if err != nil {
			t.Fatalf("the re-encoded snapshot does not restore: %v", err)
		}
		// Marshal compacts payloads; compare the units in that form.
		want, _ := json.Marshal(units)
		got, _ := json.Marshal(again)
		if string(got) != string(want) {
			t.Fatalf("re-encoded snapshot restores other units:\n got:  %s\n want: %s", got, want)
		}
	})
}
