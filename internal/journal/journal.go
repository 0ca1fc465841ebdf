// Package journal implements the append-only checkpoint journal behind
// durable campaigns (DESIGN.md §10): CRC32-framed records appended with
// an fsync per record and recovered with torn-tail tolerance. A journal
// is only ever appended to; it is never rewritten.
//
// The crash-consistency contract is prefix durability: after any crash —
// including one that tears the frame being written — reopening the
// journal yields exactly the records whose Append returned nil, in
// order, possibly followed by nothing. A torn or corrupt tail is
// detected by the length/CRC framing and truncated away; corruption of
// the header (the file is not a journal at all) is an error, never a
// silent empty campaign.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"
)

// magic identifies a journal file; a file that has one but doesn't start
// with it is rejected rather than treated as an empty campaign.
const magic = "GQSJRNL1"

// maxRecord bounds a single record; a frame declaring more than this is
// corruption (a torn length field), not a real record.
const maxRecord = 64 << 20

// ErrBroken is returned by Append after a write or sync failure, or after
// a record too large to write: the journal's tail state on disk is
// unknown (or a record is missing from it), so the handle refuses
// further appends and relies on the next Open's recovery scan to
// re-establish the valid prefix.
var ErrBroken = errors.New("journal: broken by a previous write failure")

// ErrNotJournal reports a file whose header is not a journal's.
var ErrNotJournal = errors.New("journal: bad magic header")

// WriteSyncer is the durable sink a journal writes frames to.
type WriteSyncer interface {
	io.Writer
	Sync() error
}

// File is an open journal backing file. The fault-injection tests swap
// in wrappers (see FaultFile) that tear writes and fail syncs.
type File interface {
	WriteSyncer
	io.Closer
}

// Options configures a journal.
type Options struct {
	// OpenFile opens the backing file for appending; nil selects
	// os.OpenFile(path, O_WRONLY|O_APPEND|O_CREATE). The hook is the
	// fault-injection seam: tests wrap the real file in a FaultFile.
	OpenFile func(path string) (File, error)
	// NoSync skips the per-append fsync (for tests and benchmarks that
	// measure framing cost without disk latency).
	NoSync bool
}

// Stats counts what the journal did, for checkpoint accounting.
type Stats struct {
	Appends          int           // records appended successfully
	AppendFailures   int           // appends that failed (journal now broken)
	Bytes            int64         // framed bytes appended successfully
	RecoveredRecords int           // valid records recovered by Open
	TornBytes        int64         // trailing bytes dropped by Open's recovery
	WriteTime        time.Duration // time spent in Write+Sync (incl. failures)
	LastAppend       time.Time     // wall time of the last successful append
}

// Journal is an open append-only record log. Methods are not
// goroutine-safe; the checkpoint layer serializes access.
type Journal struct {
	path     string
	opts     Options
	f        File
	size     int64 // bytes of valid header+frames on disk
	firstErr error
	stats    Stats
}

// Open opens (creating if absent) the journal at path and returns the
// valid records recovered from it, in append order. A torn or corrupt
// tail — a partial frame, a CRC mismatch, an absurd length — is
// truncated away before the append handle is opened, so recovery also
// self-heals the file. A valid prefix is never discarded.
func Open(path string, opts Options) (*Journal, [][]byte, error) {
	j := &Journal{path: path, opts: opts}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	}
	var records [][]byte
	if len(data) > 0 {
		var valid int64
		records, valid, err = scan(data)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		j.stats.RecoveredRecords = len(records)
		j.stats.TornBytes = int64(len(data)) - valid
		if valid < int64(len(data)) {
			if err := os.Truncate(path, valid); err != nil {
				return nil, nil, fmt.Errorf("journal: truncate torn tail: %w", err)
			}
		}
		j.size = valid
	}
	f, err := j.open()
	if err != nil {
		return nil, nil, err
	}
	j.f = f
	if j.size == 0 {
		if err := j.writeAll([]byte(magic)); err != nil {
			j.f.Close()
			return nil, nil, fmt.Errorf("journal: write header: %w", err)
		}
		j.size = int64(len(magic))
	}
	return j, records, nil
}

// scan validates data as header + frames and returns the decoded
// payloads plus the byte offset of the last valid frame end. Anything
// past that offset is a torn tail. A corrupt header is an error: the
// file is not (or no longer) a journal, and pretending it held zero
// records would silently restart the campaign.
func scan(data []byte) (records [][]byte, valid int64, err error) {
	if len(data) < len(magic) {
		// A crash during creation can leave a partial header; everything
		// is torn tail, nothing was ever durable.
		if string(data) == magic[:len(data)] {
			return nil, 0, nil
		}
		return nil, 0, ErrNotJournal
	}
	if string(data[:len(magic)]) != magic {
		return nil, 0, ErrNotJournal
	}
	off := int64(len(magic))
	for {
		rest := data[off:]
		if len(rest) < 8 {
			return records, off, nil // partial frame header: torn
		}
		n := binary.BigEndian.Uint32(rest[0:4])
		sum := binary.BigEndian.Uint32(rest[4:8])
		if n > maxRecord || int64(len(rest)) < 8+int64(n) {
			return records, off, nil // absurd length or partial payload: torn
		}
		payload := rest[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return records, off, nil // corrupt record: torn from here on
		}
		records = append(records, append([]byte(nil), payload...))
		off += 8 + int64(n)
	}
}

// appendFrame appends payload's frame to dst: its length and CRC32
// (big-endian uint32 each), then the payload — what scan reads back.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// open opens the backing file for appending through the configured hook.
func (j *Journal) open() (File, error) {
	if j.opts.OpenFile != nil {
		return j.opts.OpenFile(j.path)
	}
	return os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
}

// writeAll writes b fully and syncs (unless NoSync), timing the I/O.
func (j *Journal) writeAll(b []byte) error {
	start := time.Now()
	defer func() { j.stats.WriteTime += time.Since(start) }()
	n, err := j.f.Write(b)
	if err != nil {
		return err
	}
	if n < len(b) {
		return io.ErrShortWrite
	}
	if j.opts.NoSync {
		return nil
	}
	return j.f.Sync()
}

// Append frames payload (length, CRC32, bytes), writes it, and syncs.
// On any failure — a record over the size limit, short write, write
// error, sync error — the journal marks itself broken and refuses
// further appends; the next Open recovers the valid prefix and truncates
// whatever the failed append left behind.
func (j *Journal) Append(payload []byte) error {
	if j.firstErr != nil {
		return ErrBroken
	}
	if len(payload) > maxRecord {
		// Nothing was written, but the record is lost: break the journal
		// like a failed write, so the loss is reported, not skipped.
		j.firstErr = fmt.Errorf("journal: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecord)
		j.stats.AppendFailures++
		return j.firstErr
	}
	frame := appendFrame(make([]byte, 0, 8+len(payload)), payload)
	if err := j.writeAll(frame); err != nil {
		j.firstErr = err
		j.stats.AppendFailures++
		return fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(len(frame))
	j.stats.Appends++
	j.stats.Bytes += int64(len(frame))
	j.stats.LastAppend = time.Now()
	return nil
}

// Size is the valid on-disk size in bytes (header + appended frames).
func (j *Journal) Size() int64 { return j.size }

// Err returns the sticky first write failure, nil while healthy.
func (j *Journal) Err() error { return j.firstErr }

// Stats returns the journal's counters.
func (j *Journal) Stats() Stats { return j.stats }

// Close closes the backing file. Appended records were already synced
// individually, so Close adds no durability step.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
