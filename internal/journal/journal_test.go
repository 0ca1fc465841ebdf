package journal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tempPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "ckpt.journal")
}

func mustOpen(t *testing.T, path string, opts Options) (*Journal, [][]byte) {
	t.Helper()
	j, recs, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, recs
}

func appendAll(t *testing.T, j *Journal, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := j.Append([]byte(p)); err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
	}
}

func TestAppendAndRecover(t *testing.T) {
	path := tempPath(t)
	j, recs := mustOpen(t, path, Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh journal recovered %d records", len(recs))
	}
	appendAll(t, j, "one", "two", "three")
	if st := j.Stats(); st.Appends != 3 || st.Bytes == 0 {
		t.Fatalf("stats after 3 appends: %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, recs := mustOpen(t, path, Options{})
	defer j2.Close()
	if len(recs) != 3 || string(recs[0]) != "one" || string(recs[2]) != "three" {
		t.Fatalf("recovered %q", recs)
	}
	if st := j2.Stats(); st.RecoveredRecords != 3 || st.TornBytes != 0 {
		t.Fatalf("recovery stats: %+v", st)
	}
}

func TestTornTailTruncatedAndAppendable(t *testing.T) {
	path := tempPath(t)
	j, _ := mustOpen(t, path, Options{})
	appendAll(t, j, "alpha", "beta")
	goodSize := j.Size()
	j.Close()

	// A crash mid-append leaves a torn frame: garbage past the valid tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x00, 0x00, 0x00, 0x10, 0xde, 0xad}) //nolint:errcheck
	f.Close()

	j2, recs := mustOpen(t, path, Options{})
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
	if st := j2.Stats(); st.TornBytes != 6 {
		t.Fatalf("TornBytes = %d, want 6", st.TornBytes)
	}
	if fi, _ := os.Stat(path); fi.Size() != goodSize {
		t.Fatalf("file not truncated: %d bytes, want %d", fi.Size(), goodSize)
	}
	// Recovery self-heals: the journal keeps accepting appends.
	appendAll(t, j2, "gamma")
	j2.Close()
	_, recs = mustOpen(t, path, Options{})
	if len(recs) != 3 || string(recs[2]) != "gamma" {
		t.Fatalf("after heal recovered %q", recs)
	}
}

func TestTruncatedMidRecordDropsOnlyTail(t *testing.T) {
	path := tempPath(t)
	j, _ := mustOpen(t, path, Options{})
	appendAll(t, j, "first", "second-longer-record")
	size := j.Size()
	j.Close()
	// Cut into the last record's payload.
	if err := os.Truncate(path, size-3); err != nil {
		t.Fatal(err)
	}
	_, recs := mustOpen(t, path, Options{})
	if len(recs) != 1 || string(recs[0]) != "first" {
		t.Fatalf("recovered %q, want only the first record", recs)
	}
}

func TestCorruptRecordStopsScan(t *testing.T) {
	path := tempPath(t)
	j, _ := mustOpen(t, path, Options{})
	appendAll(t, j, "aaaa", "bbbb", "cccc")
	j.Close()
	data, _ := os.ReadFile(path)
	// Flip a payload byte of the middle record; the scan must stop there,
	// keeping the valid prefix and dropping everything after (prefix
	// durability, not per-record salvage).
	mid := len(magic) + (8 + 4) + 8 + 2
	data[mid] ^= 0xff
	os.WriteFile(path, data, 0o644) //nolint:errcheck
	_, recs := mustOpen(t, path, Options{})
	if len(recs) != 1 || string(recs[0]) != "aaaa" {
		t.Fatalf("recovered %q, want only the pre-corruption prefix", recs)
	}
}

func TestBadHeaderIsError(t *testing.T) {
	path := tempPath(t)
	os.WriteFile(path, []byte("NOTAJRNLgarbage"), 0o644) //nolint:errcheck
	if _, _, err := Open(path, Options{}); !errors.Is(err, ErrNotJournal) {
		t.Fatalf("err = %v, want ErrNotJournal", err)
	}
}

func TestPartialHeaderIsEmptyJournal(t *testing.T) {
	path := tempPath(t)
	os.WriteFile(path, []byte(magic[:3]), 0o644) //nolint:errcheck
	j, recs := mustOpen(t, path, Options{})
	defer j.Close()
	if len(recs) != 0 {
		t.Fatalf("recovered %q from a torn header", recs)
	}
	appendAll(t, j, "x")
}

// faultOpen returns an OpenFile hook injecting cfg into the opened file.
func faultOpen(cfg FaultConfig) func(string) (File, error) {
	return func(path string) (File, error) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		return NewFaultFile(f, cfg), nil
	}
}

func TestShortWriteBreaksJournalAndRecoveryHeals(t *testing.T) {
	path := tempPath(t)
	// Write 1 is the header, write 2 the first record, write 3 the second.
	j, _ := mustOpen(t, path, Options{OpenFile: faultOpen(FaultConfig{ShortWriteAt: 3})})
	appendAll(t, j, "intact")
	if err := j.Append([]byte("torn-record")); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want injected short write", err)
	}
	if err := j.Append([]byte("after")); !errors.Is(err, ErrBroken) {
		t.Fatalf("append after failure = %v, want ErrBroken", err)
	}
	if st := j.Stats(); st.AppendFailures != 1 || st.Appends != 1 {
		t.Fatalf("stats: %+v", st)
	}
	j.Close()

	j2, recs := mustOpen(t, path, Options{})
	defer j2.Close()
	if len(recs) != 1 || string(recs[0]) != "intact" {
		t.Fatalf("recovered %q, want the intact prefix", recs)
	}
	if st := j2.Stats(); st.TornBytes == 0 {
		t.Fatal("the short write's bytes were not detected as torn")
	}
}

func TestFsyncFailureBreaksJournal(t *testing.T) {
	path := tempPath(t)
	// Sync 1 covers the header, sync 2 the first record.
	j, _ := mustOpen(t, path, Options{OpenFile: faultOpen(FaultConfig{FailSyncAt: 2})})
	if err := j.Append([]byte("unsynced")); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want injected fsync failure", err)
	}
	if j.Err() == nil {
		t.Fatal("journal must record the sticky failure")
	}
	j.Close()
	// The record may or may not be durable; either way the journal must
	// reopen cleanly and keep whatever prefix validates.
	j2, recs := mustOpen(t, path, Options{})
	defer j2.Close()
	for _, r := range recs {
		if !strings.Contains("unsynced", string(r)) {
			t.Fatalf("recovered unexpected record %q", r)
		}
	}
	appendAll(t, j2, "healthy-again")
}

func TestKillAfterBytesLeavesRecoverablePrefix(t *testing.T) {
	path := tempPath(t)
	j, _ := mustOpen(t, path, Options{OpenFile: faultOpen(FaultConfig{KillAfterBytes: 64})})
	wrote := 0
	for i := 0; i < 100; i++ {
		if err := j.Append([]byte("payload-record")); err != nil {
			if !errors.Is(err, ErrKilled) && !errors.Is(err, ErrBroken) {
				t.Fatalf("append %d: %v", i, err)
			}
			break
		}
		wrote++
	}
	if wrote == 0 || wrote >= 100 {
		t.Fatalf("kill never fired usefully (wrote %d)", wrote)
	}
	j.Close()
	_, recs := mustOpen(t, path, Options{})
	if len(recs) != wrote {
		t.Fatalf("recovered %d records, want exactly the %d acknowledged", len(recs), wrote)
	}
}

func TestOversizedRecordBreaksJournal(t *testing.T) {
	path := tempPath(t)
	j, _ := mustOpen(t, path, Options{NoSync: true})
	appendAll(t, j, "intact")
	// Fresh zeroed pages: the length check refuses the record before
	// anything reads them.
	if err := j.Append(make([]byte, maxRecord+1)); err == nil || errors.Is(err, ErrBroken) {
		t.Fatalf("oversized append err = %v, want the size error", err)
	}
	if j.Err() == nil {
		t.Fatal("a refused record must leave the sticky error set")
	}
	if err := j.Append([]byte("after")); !errors.Is(err, ErrBroken) {
		t.Fatalf("append after a refused record = %v, want ErrBroken", err)
	}
	if st := j.Stats(); st.AppendFailures != 1 || st.Appends != 1 {
		t.Fatalf("stats: %+v", st)
	}
	j.Close()

	j2, recs := mustOpen(t, path, Options{})
	defer j2.Close()
	if len(recs) != 1 || string(recs[0]) != "intact" {
		t.Fatalf("recovered %q, want the intact prefix", recs)
	}
}
