package record

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"testing"

	"cord/internal/clock"
)

// feedAll pushes b through a StreamDecoder in the given chunk sizes and
// returns the emitted entries plus the first error (from Feed or Close).
func feedAll(b []byte, chunks []int, emit func(Entry) error) ([]Entry, error) {
	d := NewStreamDecoder()
	var got []Entry
	cb := func(e Entry) error {
		got = append(got, e)
		if emit != nil {
			return emit(e)
		}
		return nil
	}
	off := 0
	for _, n := range chunks {
		if off >= len(b) {
			break
		}
		end := off + n
		if end > len(b) {
			end = len(b)
		}
		if err := d.Feed(b[off:end], cb); err != nil {
			return got, err
		}
		off = end
	}
	if off < len(b) {
		if err := d.Feed(b[off:], cb); err != nil {
			return got, err
		}
	}
	return got, d.Close()
}

func encodeLog(t testing.TB, l *Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := l.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sampleLog(n int) *Log {
	var l Log
	for i := 0; i < n; i++ {
		l.Append(Entry{Clock: clock.Scalar(i * 3), Thread: uint16(i % 4), Instr: uint32(10 + i)})
	}
	return &l
}

// TestStreamDecoderMatchesDecodeFrom: for any chunking of the byte stream —
// including 1-byte chunks that split the header and every entry — the
// incremental decoder emits exactly the entries DecodeFrom parses.
func TestStreamDecoderMatchesDecodeFrom(t *testing.T) {
	l := sampleLog(257)
	b := encodeLog(t, l)
	want, err := DecodeFrom(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	chunkings := [][]int{
		{len(b)},       // one shot
		{1},            // every byte alone (the pattern repeats via feedAll)
		{7},            // misaligned with both header and entries
		{16, 8},        // frame-aligned
		{3, 5, 16, 64}, // mixed
	}
	for _, pattern := range chunkings {
		// Expand the pattern cyclically over the whole stream.
		var chunks []int
		for total := 0; total < len(b); {
			n := pattern[len(chunks)%len(pattern)]
			chunks = append(chunks, n)
			total += n
		}
		got, err := feedAll(b, chunks, nil)
		if err != nil {
			t.Fatalf("chunking %v: %v", pattern, err)
		}
		if len(got) != want.Len() {
			t.Fatalf("chunking %v: %d entries, want %d", pattern, len(got), want.Len())
		}
		for i := range got {
			if got[i] != want.Entries()[i] {
				t.Fatalf("chunking %v: entry %d = %v, want %v", pattern, i, got[i], want.Entries()[i])
			}
		}
	}
}

// TestStreamDecoderRandomChunking: random chunk splits across many seeds
// always reproduce the one-shot decode.
func TestStreamDecoderRandomChunking(t *testing.T) {
	l := sampleLog(100)
	b := encodeLog(t, l)
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed))
		var chunks []int
		for total := 0; total < len(b); {
			n := 1 + int(rng.Uint64N(37))
			chunks = append(chunks, n)
			total += n
		}
		got, err := feedAll(b, chunks, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(got) != l.Len() {
			t.Fatalf("seed %d: %d entries, want %d", seed, len(got), l.Len())
		}
	}
}

// TestStreamDecoderTruncation: a stream cut at any byte offset before the
// end fails Close with ErrBadFormat wrapping io.ErrUnexpectedEOF, and never
// emits a partial entry.
func TestStreamDecoderTruncation(t *testing.T) {
	l := sampleLog(5)
	b := encodeLog(t, l)
	for cut := 0; cut < len(b); cut++ {
		got, err := feedAll(b[:cut], []int{3}, nil)
		if err == nil {
			t.Fatalf("cut %d: truncated stream accepted", cut)
		}
		if !errors.Is(err, ErrBadFormat) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: err = %v, want ErrBadFormat wrapping io.ErrUnexpectedEOF", cut, err)
		}
		wholeEntries := 0
		if cut > HeaderBytes {
			wholeEntries = (cut - HeaderBytes) / EntryBytes
		}
		if len(got) != wholeEntries {
			t.Fatalf("cut %d: emitted %d entries, want %d", cut, len(got), wholeEntries)
		}
	}
}

// TestStreamDecoderRejectsGarbage: structural damage fails at Feed time.
func TestStreamDecoderRejectsGarbage(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
	}{
		{"bad magic", []byte("XXXX0000000000000000")},
		{"bad version", append([]byte("CORD\xff\x00\x00\x00"), make([]byte, 8)...)},
	}
	for _, tc := range cases {
		d := NewStreamDecoder()
		if err := d.Feed(tc.b, nil); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", tc.name, err)
		}
	}
	// Implausible count.
	var hdr [HeaderBytes]byte
	copy(hdr[:4], magic[:])
	hdr[4] = version
	for i := 8; i < 16; i++ {
		hdr[i] = 0xff
	}
	d := NewStreamDecoder()
	if err := d.Feed(hdr[:], nil); !errors.Is(err, ErrBadFormat) {
		t.Errorf("implausible count: err = %v, want ErrBadFormat", err)
	}
}

// TestStreamDecoderRejectsTrailingBytes: bytes past the declared entry count
// are a format error in a stream (unlike DecodeFrom, which leaves trailing
// bytes unread for the caller), because the session body is exactly one log.
func TestStreamDecoderRejectsTrailingBytes(t *testing.T) {
	b := append(encodeLog(t, sampleLog(3)), 0xAA)
	_, err := feedAll(b, []int{5}, nil)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("trailing byte: err = %v, want ErrBadFormat", err)
	}
	// Also when the excess arrives in a later chunk.
	b2 := encodeLog(t, sampleLog(3))
	d := NewStreamDecoder()
	if err := d.Feed(b2, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Feed([]byte{1}, nil); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("late trailing byte: err = %v, want ErrBadFormat", err)
	}
}

// TestStreamDecoderEmitErrorAborts: emit's error surfaces verbatim and the
// decoder refuses further input (sticky failure).
func TestStreamDecoderEmitErrorAborts(t *testing.T) {
	b := encodeLog(t, sampleLog(10))
	boom := errors.New("shard violation")
	seen := 0
	d := NewStreamDecoder()
	err := d.Feed(b, func(e Entry) error {
		seen++
		if seen == 4 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if seen != 4 {
		t.Fatalf("emit called %d times, want 4", seen)
	}
	if err := d.Feed([]byte{1, 2, 3}, nil); !errors.Is(err, boom) {
		t.Fatalf("decoder accepted input after failure: %v", err)
	}
	if err := d.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close after failure = %v, want sticky error", err)
	}
}

// TestStreamDecoderReset: a Reset decoder parses a fresh stream.
func TestStreamDecoderReset(t *testing.T) {
	b := encodeLog(t, sampleLog(4))
	d := NewStreamDecoder()
	if err := d.Feed(b[:10], nil); err != nil {
		t.Fatal(err)
	}
	d.Reset()
	n := 0
	if err := d.Feed(b, func(Entry) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("decoded %d entries after Reset, want 4", n)
	}
}

// TestStreamDecoderEmptyLog: a header-only stream declaring zero entries is
// valid and complete.
func TestStreamDecoderEmptyLog(t *testing.T) {
	b := encodeLog(t, &Log{})
	got, err := feedAll(b, []int{4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty log emitted %d entries", len(got))
	}
}
