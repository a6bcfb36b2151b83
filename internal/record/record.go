// Package record implements the order-recording log of §2.7.1: when a
// thread's logical clock changes, an 8-byte entry is appended containing the
// previous clock value (16 bits), the thread ID (16 bits), and the number of
// instructions executed with that clock value (32 bits). The log, ordered by
// logical time, drives deterministic replay (internal/replay).
//
// The binary wire format (EncodeTo / DecodeFrom / StreamDecoder — what
// cordreplay -log writes, cordlog inspects, and POST /v1/replay and
// /v1/stream accept) is specified normatively in PROTOCOL.md: §2 for the
// header/entry layout, §3 for the clock-unwrap window and order invariants.
// In short: a 16-byte little-endian header (magic "CORD", version 1, entry
// count) followed by fixed-width 8-byte entries, so entry i always lives at
// byte offset 16 + 8*i.
//
// # Error taxonomy
//
// Decoding distinguishes transport failures from malformed input
// (PROTOCOL.md §5 maps these onto the service's HTTP error codes):
//
//   - Errors from the underlying reader (including a header shorter than 16
//     bytes) are returned wrapped as-is: they are I/O problems, not format
//     verdicts.
//   - Structural problems — bad magic, unsupported version, an implausible
//     entry count, or a stream that ends before the header's N entries —
//     wrap ErrBadFormat; test with errors.Is(err, ErrBadFormat).
//   - A truncated entry array additionally wraps io.ErrUnexpectedEOF (a
//     clean EOF mid-array is promoted), so callers can tell "self-declared
//     length vs actual bytes disagree" apart from other format damage.
//
// The header's count field is untrusted: decoders bound it (MaxEntries)
// and cap preallocation, so a hostile header fails on read, not on OOM.
// This is what lets the cordd service feed client-supplied bodies straight
// into the decoder behind a size limit.
package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cord/internal/clock"
)

// EntryBytes is the on-disk size of one log entry.
const EntryBytes = 8

// Entry is one order-log record: thread Thread executed Instr instructions
// while its logical clock held the value Clock.
type Entry struct {
	Clock  clock.Scalar
	Thread uint16
	Instr  uint32
}

// String renders the entry for diagnostics.
func (e Entry) String() string {
	return fmt.Sprintf("{t%d clk=%d n=%d}", e.Thread, e.Clock, e.Instr)
}

// Log is an append-only order log. The zero value is ready to use.
type Log struct {
	entries []Entry
}

// Append adds an entry.
func (l *Log) Append(e Entry) { l.entries = append(l.entries, e) }

// Entries returns the raw entries in append order.
func (l *Log) Entries() []Entry { return l.entries }

// Len returns the entry count.
func (l *Log) Len() int { return len(l.entries) }

// SizeBytes returns the encoded payload size (excluding the file header);
// this is the number the paper's "<1 MB per run" claim is about.
func (l *Log) SizeBytes() int { return len(l.entries) * EntryBytes }

// magic identifies an encoded CORD log stream.
var magic = [4]byte{'C', 'O', 'R', 'D'}

const version = 1

// EncodeTo writes the log in its binary format: a 16-byte header (magic,
// version, entry count) followed by 8-byte little-endian entries.
func (l *Log) EncodeTo(w io.Writer) error {
	var hdr [16]byte
	copy(hdr[:4], magic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], version)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(l.entries)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("record: writing header: %w", err)
	}
	var buf [EntryBytes]byte
	for _, e := range l.entries {
		binary.LittleEndian.PutUint16(buf[0:2], uint16(e.Clock))
		binary.LittleEndian.PutUint16(buf[2:4], e.Thread)
		binary.LittleEndian.PutUint32(buf[4:8], e.Instr)
		if _, err := w.Write(buf[:]); err != nil {
			return fmt.Errorf("record: writing entry: %w", err)
		}
	}
	return nil
}

// ErrBadFormat reports a malformed encoded log.
var ErrBadFormat = errors.New("record: malformed log stream")

// ErrOrderViolation reports a structurally well-formed log whose entries
// break the §3 order invariants — a thread ID outside the session, or a
// per-thread clock delta outside the unwrap window (a regressed or tampered
// clock). PROTOCOL.md §5 maps it onto the order_violation taxonomy (HTTP
// 422): the log parsed, but no valid schedule exists for it. Test with
// errors.Is(err, ErrOrderViolation).
var ErrOrderViolation = errors.New("record: order invariant violated")

// DecodeFrom reads a log previously written by EncodeTo. It is the one-shot
// entry point over the same incremental parser the streaming ingest path
// uses (StreamDecoder): the header is validated first, then entries are read
// in large chunks — never trusting the header's count for preallocation —
// and exactly 16 + 8*N bytes are consumed from r, leaving any trailing bytes
// unread.
func DecodeFrom(r io.Reader) (*Log, error) {
	var hdr [HeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("record: reading header: %w", err)
	}
	var d StreamDecoder
	if _, err := d.Decode(hdr[:], nil); err != nil {
		return nil, err
	}
	// The count is untrusted input: a malformed header must not make us
	// allocate gigabytes before a single entry has been read. Preallocate at
	// most maxPrealloc entries and let append grow the slice as real data
	// arrives — a truncated stream then fails on read, not on OOM.
	l := &Log{entries: make([]Entry, 0, min(d.Declared(), maxPrealloc))}
	buf := make([]byte, 32<<10)
	var fed uint64
	total := d.Declared() * EntryBytes
	for fed < total {
		n := uint64(len(buf))
		if rem := total - fed; rem < n {
			n = rem
		}
		m, err := io.ReadFull(r, buf[:n])
		if m > 0 {
			var derr error
			if l.entries, derr = d.Decode(buf[:m], l.entries); derr != nil {
				return nil, derr
			}
			fed += uint64(m)
		}
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("%w: truncated at entry %d of %d: %w",
				ErrBadFormat, d.Decoded(), d.Declared(), err)
		}
	}
	return l, nil
}

// Epoch is a decoded, unwrapped log entry: thread Thread runs Instr
// instructions at unwrapped logical time Time. Epochs with equal Time are
// guaranteed non-conflicting by the recorder (conflicting accesses never
// share a clock value, §2.7.1) and may replay in any order.
type Epoch struct {
	Time   uint64
	Thread int
	Instr  uint32
	// Index preserves the per-thread epoch order for stable sorting.
	Index int
}

// Schedule returns the log's epochs in replay order: each thread's 16-bit
// clock values unwrapped into monotone 64-bit logical times (entries from one
// thread are appended in nondecreasing clock order and consecutive entries
// always lie within the sliding window, so the per-thread deltas are
// unambiguous), sorted by logical time with ties broken by log position. It
// wraps EpochStream the way DecodeFrom wraps StreamDecoder: the whole log is
// appended in one call, then one Flush merges it.
func (l *Log) Schedule(numThreads int) ([]Epoch, error) {
	s := NewEpochStream(numThreads)
	s.reserve(l.entries)
	if err := s.Append(l.entries...); err != nil {
		return nil, err
	}
	return s.Flush(), nil // the stream is dropped: its buffer is the caller's
}
