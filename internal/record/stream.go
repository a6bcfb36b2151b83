package record

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"cord/internal/clock"
)

// HeaderBytes is the size of the stream header (magic, version, entry count).
const HeaderBytes = 16

// MaxEntries bounds the entry count a decoder accepts from a stream header.
// 2^30 entries is 8 GiB of log — far beyond any real run; a larger count can
// only come from a corrupt or hostile header.
const MaxEntries = 1 << 30

// maxPrealloc caps the entry-slice preallocation DecodeFrom performs from the
// untrusted header count, so a hostile header fails on read, not on OOM.
const maxPrealloc = 64 << 10

// StreamDecoder incrementally decodes the binary order-log wire format
// (PROTOCOL.md) from arbitrarily sized chunks: feed it whatever byte windows
// the transport delivers and it delivers each complete Entry exactly once,
// carrying at most one partial frame (15 bytes) between calls. It never
// materializes the log, so its memory cost is independent of stream length —
// this is what lets the cordd streaming endpoint ingest logs at line rate
// from a fixed reusable read buffer.
//
// Lifecycle: zero or more Decode (or Feed) calls, then Close when the
// transport reports end of stream. Close is where truncation is detected: a
// stream that ends mid-header or before the header's declared entry count
// wraps both ErrBadFormat and io.ErrUnexpectedEOF. Structural damage (bad
// magic, unsupported version, implausible count, bytes continuing past the
// declared count) is reported by Decode as ErrBadFormat immediately.
type StreamDecoder struct {
	carry    [HeaderBytes]byte // partial header or partial entry between chunks
	carryLen int
	header   bool // header parsed and validated
	declared uint64
	decoded  uint64
	failed   error   // sticky: a broken stream stays broken
	buf      []Entry // Feed's decode buffer; kept across Reset
}

// NewStreamDecoder returns a decoder ready for the first chunk.
func NewStreamDecoder() *StreamDecoder { return &StreamDecoder{} }

// Reset returns the decoder to its initial state so it can be reused for a
// NEW stream without reallocating: it discards the carry buffer, the header
// state, and any sticky error.
//
// Reset is the only way out of the failed state, and it is deliberately
// all-or-nothing: there is no way to "resume" a damaged stream, because after
// a format error the byte offset is unreliable and continuing could deliver
// entries from a desynchronized frame boundary. Feeding the remainder of a
// stream that previously errored — even after Reset — reinterprets those
// bytes as a fresh stream starting with a 16-byte header, which is exactly
// the safe failure mode: continuation bytes are rejected as a bad magic, not
// silently decoded as entries. Callers that want to abandon a broken stream
// must drop the remaining bytes and Reset before the next stream's first
// chunk; until Reset is called, every Decode, Feed and Close keeps returning
// the original sticky error.
func (d *StreamDecoder) Reset() { *d = StreamDecoder{buf: d.buf[:0]} }

// Declared returns the entry count the stream header promised; it is only
// meaningful once the 16-byte header has been parsed.
func (d *StreamDecoder) Declared() uint64 { return d.declared }

// Decoded returns the number of entries delivered so far.
func (d *StreamDecoder) Decoded() uint64 { return d.decoded }

// parseHeader validates a complete 16-byte header.
func (d *StreamDecoder) parseHeader(hdr []byte) error {
	if [4]byte(hdr[:4]) != magic {
		return fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != version {
		return fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	if n > MaxEntries {
		return fmt.Errorf("%w: implausible entry count %d", ErrBadFormat, n)
	}
	d.header = true
	d.declared = n
	return nil
}

// decodeEntry parses one 8-byte wire entry.
func decodeEntry(b []byte) Entry {
	v := binary.LittleEndian.Uint64(b)
	return Entry{Clock: clock.Scalar(v), Thread: uint16(v >> 16), Instr: uint32(v >> 32)}
}

// Decode consumes one chunk of the stream and appends its completed entries
// to dst, in stream order, returning the extended slice. The chunk may split
// the header or an entry at any byte; the decoder buffers the partial frame
// internally, so callers can reuse p immediately after Decode returns. A
// 32 KiB chunk yields at most 4096 entries, so a dst of that capacity is
// never reallocated. On a format error (wrapping ErrBadFormat) the returned
// slice holds the entries decoded before it, and the decoder refuses further
// input.
func (d *StreamDecoder) Decode(p []byte, dst []Entry) ([]Entry, error) {
	if d.failed != nil {
		return dst, d.failed
	}
	// Complete the header from the carry buffer first.
	if !d.header {
		n := copy(d.carry[d.carryLen:HeaderBytes], p)
		d.carryLen += n
		p = p[n:]
		if d.carryLen < HeaderBytes {
			return dst, nil
		}
		if err := d.parseHeader(d.carry[:HeaderBytes]); err != nil {
			d.failed = err
			return dst, err
		}
		d.carryLen = 0
	}
	// Complete a partial entry from the carry buffer. An entry is carried
	// only while the declared count has room for it.
	if d.carryLen > 0 {
		n := copy(d.carry[d.carryLen:EntryBytes], p)
		d.carryLen += n
		p = p[n:]
		if d.carryLen < EntryBytes {
			return dst, nil
		}
		d.carryLen = 0
		d.decoded++
		dst = append(dst, decodeEntry(d.carry[:EntryBytes]))
	}
	// Whole entries parse straight out of the caller's buffer, up to the
	// declared count.
	n := min(uint64(len(p)/EntryBytes), d.declared-d.decoded)
	dst = slices.Grow(dst, int(n))
	for body := p[:n*EntryBytes]; len(body) > 0; body = body[EntryBytes:] {
		dst = append(dst, decodeEntry(body))
	}
	d.decoded += n
	if p = p[n*EntryBytes:]; len(p) > 0 {
		if d.decoded == d.declared {
			d.failed = fmt.Errorf("%w: stream continues past the declared %d entries", ErrBadFormat, d.declared)
			return dst, d.failed
		}
		d.carryLen = copy(d.carry[:], p)
	}
	return dst, nil
}

// Feed is Decode for callers that take one entry at a time: it decodes the
// chunk into a buffer the decoder owns and calls emit once per entry, in
// stream order. A non-nil error from emit aborts the Feed and is returned
// verbatim (entries already emitted stay emitted); the decoder then refuses
// further input. emit may be nil. Otherwise Feed behaves as Decode.
func (d *StreamDecoder) Feed(p []byte, emit func(Entry) error) error {
	es, err := d.Decode(p, d.buf[:0])
	d.buf = es[:0]
	if emit != nil {
		for _, e := range es {
			if eerr := emit(e); eerr != nil {
				d.failed = eerr
				return eerr
			}
		}
	}
	return err
}

// Close declares end of stream and verifies completeness. A stream cut short
// — mid-header, mid-entry, or before the declared count — is reported as
// ErrBadFormat wrapping io.ErrUnexpectedEOF, so callers can tell
// "self-declared length vs delivered bytes disagree" apart from other format
// damage (the DecodeFrom taxonomy, applied to an explicit transport EOF).
func (d *StreamDecoder) Close() error {
	if d.failed != nil {
		return d.failed
	}
	if !d.header {
		return fmt.Errorf("%w: truncated header (%d of %d bytes): %w",
			ErrBadFormat, d.carryLen, HeaderBytes, io.ErrUnexpectedEOF)
	}
	if d.carryLen > 0 || d.decoded < d.declared {
		return fmt.Errorf("%w: truncated at entry %d of %d: %w",
			ErrBadFormat, d.decoded, d.declared, io.ErrUnexpectedEOF)
	}
	return nil
}
