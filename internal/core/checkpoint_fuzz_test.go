package core

import (
	"encoding/json"
	"errors"
	"sort"
	"testing"
)

// FuzzCheckpointRecover: resuming must cope with whatever records the
// journal's recovery scan hands back. For any two records and any
// fingerprint, recoverUnits never panics. When it restores units:
//   - the same records under any other fingerprint give
//     ErrFingerprintMismatch;
//   - each unit is filed under its own (target, shard), so no key is
//     restored twice;
//   - each unit of a decodable record is restored, unless a later unit
//     (in that record or a later one) holds the same key, and no other
//     unit is;
//   - splitting one record's units across two records folds to the same
//     units, and so does re-encoding the restored units as one record.
//
// The seeds under testdata/fuzz/FuzzCheckpointRecover hold the two
// records and the fingerprint of journals the gqs command wrote with
// `gqs -gdb falkordb -iterations 2 -workers 1 -batch 1 -max-nodes 3
// -max-rels 4 -max-steps 3 -checkpoint-every 1`: full-state records of
// an older build (campaign-journal, and its newer record torn,
// bit-flipped or under a foreign fingerprint), and records of only the
// units completed since the previous flush (delta-journal, and at
// `-iterations 3 -checkpoint-every 2` delta-journal-every2).
func FuzzCheckpointRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, older, newer []byte, fingerprint string) {
		recs := [][]byte{older, newer}
		units, err := recoverUnits(recs, fingerprint)
		if err != nil {
			return
		}
		if _, err := recoverUnits(recs, fingerprint+"'"); !errors.Is(err, ErrFingerprintMismatch) {
			t.Fatalf("a foreign fingerprint restored the units: err = %v", err)
		}
		for k, u := range units {
			if k != (unitKey{u.Target, u.Shard}) {
				t.Fatalf("unit %+v restored under the key %+v", u, k)
			}
		}

		var decoded []unitsRecord
		for _, rec := range recs {
			var r unitsRecord
			if json.Unmarshal(rec, &r) == nil && r.Version == checkpointVersion {
				decoded = append(decoded, r)
			}
		}
		keys := map[unitKey]bool{}
		for i, r := range decoded {
			for p, u := range r.Units {
				k := unitKey{u.Target, u.Shard}
				keys[k] = true
				got, ok := units[k]
				if !ok {
					t.Fatalf("unit %+v of a decodable record was not restored", k)
				}
				if !laterHolds(decoded, i, p, k) && unitJSON(t, u) != unitJSON(t, got) {
					t.Fatalf("the last write of %+v is not what was restored:\n got:  %s\n want: %s",
						k, unitJSON(t, got), unitJSON(t, u))
				}
			}
		}
		if len(keys) != len(units) {
			t.Fatalf("restored %d units from records holding %d keys", len(units), len(keys))
		}

		want := foldJSON(t, units)
		for i, r := range decoded {
			if len(r.Units) < 2 {
				continue
			}
			h := len(r.Units) / 2
			split := make([][]byte, 0, len(decoded)+1)
			for k, other := range decoded {
				if k != i {
					split = append(split, encodeRecord(t, other.Fingerprint, other.Units))
					continue
				}
				split = append(split, encodeRecord(t, r.Fingerprint, r.Units[:h]), encodeRecord(t, r.Fingerprint, r.Units[h:]))
			}
			if got := foldRecords(t, split, fingerprint); got != want {
				t.Fatalf("splitting record %d folds to other units:\n got:  %s\n want: %s", i, got, want)
			}
		}
		if got := foldRecords(t, [][]byte{encodeRecord(t, fingerprint, sortedUnits(units))}, fingerprint); got != want {
			t.Fatalf("the re-encoded units restore other units:\n got:  %s\n want: %s", got, want)
		}
	})
}

// laterHolds reports whether a unit after position p of record i holds
// the key k.
func laterHolds(recs []unitsRecord, i, p int, k unitKey) bool {
	for ; i < len(recs); i, p = i+1, -1 {
		for _, u := range recs[i].Units[p+1:] {
			if (unitKey{u.Target, u.Shard}) == k {
				return true
			}
		}
	}
	return false
}

// sortedUnits lists restored units in (target, shard) order.
func sortedUnits(units map[unitKey]UnitRecord) []UnitRecord {
	out := make([]UnitRecord, 0, len(units))
	for _, u := range units {
		out = append(out, u)
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Target != out[k].Target {
			return out[i].Target < out[k].Target
		}
		return out[i].Shard < out[k].Shard
	})
	return out
}

// unitJSON renders a unit as Marshal does, which compacts payloads.
func unitJSON(t *testing.T, u UnitRecord) string {
	t.Helper()
	b, err := json.Marshal(u)
	if err != nil {
		t.Fatalf("encoding a restored unit: %v", err)
	}
	return string(b)
}

// foldJSON renders restored units in (target, shard) order.
func foldJSON(t *testing.T, units map[unitKey]UnitRecord) string {
	t.Helper()
	b, err := json.Marshal(sortedUnits(units))
	if err != nil {
		t.Fatalf("encoding restored units: %v", err)
	}
	return string(b)
}

func encodeRecord(t *testing.T, fingerprint string, units []UnitRecord) []byte {
	t.Helper()
	b, err := json.Marshal(unitsRecord{Version: checkpointVersion, Fingerprint: fingerprint, Units: units})
	if err != nil {
		t.Fatalf("encoding a record of restored units: %v", err)
	}
	return b
}

func foldRecords(t *testing.T, recs [][]byte, fingerprint string) string {
	t.Helper()
	units, err := recoverUnits(recs, fingerprint)
	if err != nil {
		t.Fatalf("re-encoded records do not restore: %v", err)
	}
	return foldJSON(t, units)
}
