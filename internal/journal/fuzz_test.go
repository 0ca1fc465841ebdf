package journal

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzJournalScan: recovery must cope with any bytes a crash, a torn
// write or a flipped bit can leave behind. For every input, scan
// neither panics nor errs unless the input is not (a prefix of) a
// journal header; the valid prefix it reports is within the input,
// rescans to the same records and offset, and is exactly the header
// followed by the records' frames, byte for byte. The seeds under
// testdata/fuzz/FuzzJournalScan hold a three-record journal written by
// a short durable campaign (`gqs -gdb reference -iterations 3
// -checkpoint-every 1`), torn and bit-flipped copies of it, and an
// empty and a partial header.
func FuzzJournalScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		records, valid, err := scan(data)
		head := data[:min(len(data), len(magic))]
		if isHeader := string(head) == magic[:len(head)]; (err != nil) == isHeader {
			t.Fatalf("header %q: err = %v", head, err)
		}
		if err != nil {
			return
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid = %d outside [0, %d]", valid, len(data))
		}
		again, validAgain, err := scan(data[:valid])
		if err != nil || validAgain != valid || !reflect.DeepEqual(again, records) {
			t.Fatalf("rescanning the valid prefix: %d records, valid %d, err %v; want %d records, valid %d",
				len(again), validAgain, err, len(records), valid)
		}
		if valid == 0 {
			if len(records) != 0 {
				t.Fatalf("%d records recovered from an empty prefix", len(records))
			}
			return
		}
		framed := []byte(magic)
		for _, r := range records {
			framed = appendFrame(framed, r)
		}
		if !bytes.Equal(framed, data[:valid]) {
			t.Fatalf("re-framing %d records does not reproduce the %d-byte valid prefix", len(records), valid)
		}
	})
}
