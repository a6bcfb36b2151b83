// Package checkpoint is the crash-safe journal behind resumable experiment
// campaigns. A campaign is thousands of independent, seed-deterministic runs
// (see internal/experiment); the journal records each completed run's outcome
// under its deterministic identity, so a process killed at any point — panic,
// OOM, kill -9 — can be restarted and skip straight to the first run it never
// finished. Because every run is a pure function of its key, replaying
// journaled outcomes through the unchanged aggregation code reproduces the
// campaign's artifacts byte for byte.
//
// # On-disk format
//
// A journal is a single append-only file:
//
//	header:  8-byte magic "CORDCKPT" | uint32 LE format version
//	record:  uint32 LE payload length | uint32 LE CRC-32 (IEEE) of payload |
//	         payload bytes
//
// The payload is one canonical JSON object {"key": ..., "data": ...}. Appends
// write the frame with a single Write call and fsync before returning, so an
// acknowledged record survives the process. A crash mid-append leaves a torn
// tail — a partial frame, or a frame whose checksum does not match — which
// Open detects and truncates away: everything before the tear loads normally,
// and the file is again a valid journal. No record is ever rewritten in
// place, so no crash can damage an already-acknowledged record.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// SchemaVersion is the journal format version. Open rejects files written by
// a different version instead of mis-parsing them; campaign keys embed it
// too, so outcome-shape changes invalidate stale entries. Version 2 added
// the FastTrack detector configuration (new Table1Row field and detection
// outcome keys), so version-1 journals must not satisfy version-2 runs.
const SchemaVersion = 2

// magic identifies a journal file.
const magic = "CORDCKPT"

// headerSize is the byte length of the file header (magic + version).
const headerSize = len(magic) + 4

// frameOverhead is the byte length of one record's framing (length + CRC).
const frameOverhead = 8

// MaxRecordBytes bounds one record's payload; a frame claiming more is
// treated as a torn tail rather than trusted with an allocation.
const MaxRecordBytes = 16 << 20

// ErrBadFormat reports a file that is not a journal this build can read (bad
// magic or unsupported version). A torn tail is NOT this error — torn tails
// are expected crash damage and are repaired silently.
var ErrBadFormat = errors.New("checkpoint: not a journal this build can read")

// record is the JSON payload of one journal frame.
type record struct {
	Key  string          `json:"key"`
	Data json.RawMessage `json:"data"`
}

// Journal is an open checkpoint journal: an in-memory index over the loaded
// records plus the append handle. All methods are safe for concurrent use —
// campaign workers append from many goroutines.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	entries map[string]json.RawMessage
	hits    int // Lookup calls that found an entry
	// writeFault, when non-nil, is consulted before any bytes are written;
	// a non-nil return aborts the append with that error, file untouched.
	// It exists for fault-injection (chaos) testing.
	writeFault func() error
}

// Open loads (or creates) the journal at path. A torn tail — the partial
// frame a crash mid-append leaves behind — is truncated away; everything
// before it is indexed. The file stays open for appends until Close.
func Open(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: opening journal: %w", err)
	}
	j := &Journal{f: f, path: path, entries: make(map[string]json.RawMessage)}
	if err := j.load(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// load scans the file, indexes every intact record, and truncates any torn
// tail so the next append starts on a clean frame boundary.
func (j *Journal) load() error {
	info, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("checkpoint: stat journal: %w", err)
	}
	if info.Size() == 0 {
		// Fresh file: stamp the header now so a crash before the first
		// append still leaves a loadable journal.
		var hdr [12]byte
		copy(hdr[:], magic)
		binary.LittleEndian.PutUint32(hdr[len(magic):], SchemaVersion)
		if _, err := j.f.Write(hdr[:headerSize]); err != nil {
			return fmt.Errorf("checkpoint: writing journal header: %w", err)
		}
		return j.f.Sync()
	}

	buf, err := io.ReadAll(io.NewSectionReader(j.f, 0, info.Size()))
	if err != nil {
		return fmt.Errorf("checkpoint: reading journal: %w", err)
	}
	if len(buf) < headerSize || string(buf[:len(magic)]) != magic {
		return fmt.Errorf("%w: %s has no CORDCKPT header", ErrBadFormat, j.path)
	}
	if v := binary.LittleEndian.Uint32(buf[len(magic):headerSize]); v != SchemaVersion {
		return fmt.Errorf("%w: %s is format version %d, this build reads %d",
			ErrBadFormat, j.path, v, SchemaVersion)
	}

	off := headerSize
	good := off // offset just past the last intact record
	for {
		n, ok := parseFrame(buf[off:])
		if !ok {
			break // torn tail (or clean EOF): keep the good prefix
		}
		payload := buf[off+frameOverhead : off+n]
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break // checksummed but unparsable: treat as a tear, stop here
		}
		j.entries[rec.Key] = rec.Data
		off += n
		good = off
	}
	if good < len(buf) {
		if err := j.f.Truncate(int64(good)); err != nil {
			return fmt.Errorf("checkpoint: truncating torn tail: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("checkpoint: syncing truncation: %w", err)
		}
	}
	if _, err := j.f.Seek(int64(good), io.SeekStart); err != nil {
		return fmt.Errorf("checkpoint: seeking to journal tail: %w", err)
	}
	return nil
}

// parseFrame checks whether buf begins with one intact record frame and
// returns its total byte length (framing included).
func parseFrame(buf []byte) (n int, ok bool) {
	if len(buf) < frameOverhead {
		return 0, false
	}
	length := binary.LittleEndian.Uint32(buf[0:4])
	sum := binary.LittleEndian.Uint32(buf[4:8])
	if length == 0 || length > MaxRecordBytes || uint64(len(buf)) < frameOverhead+uint64(length) {
		return 0, false
	}
	payload := buf[frameOverhead : frameOverhead+int(length)]
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, false
	}
	return frameOverhead + int(length), true
}

// Append journals one completed run: v is JSON-encoded and written under key
// in a single checksummed frame, fsynced before Append returns. A later
// Append with the same key supersedes the earlier record (last one wins on
// load). On error the journal is unchanged and remains appendable.
func (j *Journal) Append(key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding record %q: %w", key, err)
	}
	payload, err := json.Marshal(record{Key: key, Data: data})
	if err != nil {
		return fmt.Errorf("checkpoint: encoding record %q: %w", key, err)
	}
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("checkpoint: record %q is %d bytes, limit %d", key, len(payload), MaxRecordBytes)
	}
	frame := make([]byte, frameOverhead+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameOverhead:], payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("checkpoint: journal %s is closed", j.path)
	}
	if j.writeFault != nil {
		if err := j.writeFault(); err != nil {
			return fmt.Errorf("checkpoint: appending %q: %w", key, err)
		}
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("checkpoint: appending %q: %w", key, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing %q: %w", key, err)
	}
	j.entries[key] = data
	return nil
}

// Lookup reports whether key is journaled and, when it is and out is non-nil,
// decodes the stored outcome into out.
func (j *Journal) Lookup(key string, out any) (bool, error) {
	j.mu.Lock()
	data, ok := j.entries[key]
	if ok {
		j.hits++
	}
	j.mu.Unlock()
	if !ok {
		return false, nil
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return false, fmt.Errorf("checkpoint: decoding record %q: %w", key, err)
		}
	}
	return true, nil
}

// Has reports whether key is journaled, without decoding the record and
// without counting a resume hit. It exists for planning passes — the fleet
// dispatcher probes every run identity to decide which shards still need
// dispatch — where Lookup's hit counter would inflate the "runs skipped"
// number the campaign reports.
func (j *Journal) Has(key string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.entries[key]
	return ok
}

// Len is the number of distinct keys currently journaled.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Hits is the number of Lookup calls that found an entry — the runs a
// resumed campaign skipped.
func (j *Journal) Hits() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.hits
}

// Path is the journal's file path.
func (j *Journal) Path() string { return j.path }

// SetWriteFault installs (or, with nil, removes) a fault hook consulted
// before every append's first byte: a non-nil return aborts that append with
// the file untouched. Tests use it: this package's to check that a refused
// append leaves the journal intact, internal/experiment's to check that a
// campaign survives unjournaled runs and to interrupt a campaign as a run
// is journaled.
func (j *Journal) SetWriteFault(f func() error) {
	j.mu.Lock()
	j.writeFault = f
	j.mu.Unlock()
}

// Close syncs and closes the journal. The Journal remains readable (Lookup
// keeps answering from the index) but further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	if err != nil {
		return fmt.Errorf("checkpoint: closing journal: %w", err)
	}
	return nil
}
