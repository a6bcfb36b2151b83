package record

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"cord/internal/clock"
)

// FuzzDecodeFrom ensures the binary log decoder never panics or over-reads
// on arbitrary input, that anything it accepts re-encodes to an equivalent
// log, and that the three decoders agree: StreamDecoder.Decode and
// StreamDecoder.Feed, fed the same fuzzer-chosen chunks (split[k] is the k-th
// chunk's length less one, cyclically; no split is one chunk), deliver the
// same entries and fail with the same error text, entries delivered ahead of
// a format error included; DecodeFrom, which reads exactly the declared
// length, accepts the same logs with the same entries, fails with the same
// text on damage past the header, and ignores only the bytes past the
// declared count, which the streaming decoders refuse after delivering
// every declared entry.
func FuzzDecodeFrom(f *testing.F) {
	seed := encodeLog(f, &Log{entries: []Entry{{Clock: 7, Thread: 1, Instr: 42}}})
	f.Add(seed, []byte{})
	f.Add(seed, []byte{0, 6, 2})                             // cuts inside the header and the entry
	f.Add(append(bytes.Clone(seed), 1, 2, 3), []byte{20})    // bytes past the declared count
	f.Add(append(bytes.Clone(seed), seed[16:]...), []byte{}) // a whole entry past it
	f.Add(encodeLog(f, sampleLog(40)), []byte{6, 200, 30})
	f.Add(encodeLog(f, sampleLog(40))[:100], []byte{9}) // truncated mid-entry
	f.Add([]byte("CORD"), []byte{1})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, data, split []byte) {
		var chunks [][]byte
		for off, k := 0, 0; off < len(data); k++ {
			n := len(data)
			if len(split) > 0 {
				n = 1 + int(split[k%len(split)])
			}
			end := min(off+n, len(data))
			chunks = append(chunks, data[off:end])
			off = end
		}
		var viaDecode, viaFeed []Entry
		var errDecode, errFeed error
		dd, fd := NewStreamDecoder(), NewStreamDecoder()
		for _, p := range chunks {
			if errDecode == nil {
				viaDecode, errDecode = dd.Decode(p, viaDecode)
			}
			if errFeed == nil {
				errFeed = fd.Feed(p, func(e Entry) error { viaFeed = append(viaFeed, e); return nil })
			}
		}
		if errDecode == nil {
			errDecode = dd.Close()
		}
		if errFeed == nil {
			errFeed = fd.Close()
		}
		if !slices.Equal(viaDecode, viaFeed) || fmt.Sprint(errDecode) != fmt.Sprint(errFeed) {
			t.Fatalf("Decode: %d entries, %v; Feed: %d entries, %v", len(viaDecode), errDecode, len(viaFeed), errFeed)
		}

		got, err := DecodeFrom(bytes.NewReader(data))
		past := dd.header && uint64(len(data)) > HeaderBytes+dd.Declared()*EntryBytes
		switch {
		case len(data) < HeaderBytes:
			if err == nil || errDecode == nil {
				t.Fatalf("short header: DecodeFrom %v, Decode %v", err, errDecode)
			}
			return
		case past:
			if err != nil || !errors.Is(errDecode, ErrBadFormat) {
				t.Fatalf("bytes past the declared count: DecodeFrom %v, Decode %v", err, errDecode)
			}
		case fmt.Sprint(err) != fmt.Sprint(errDecode):
			t.Fatalf("DecodeFrom %v, Decode %v", err, errDecode)
		}
		if err != nil {
			return
		}
		if !slices.Equal(got.Entries(), viaDecode) {
			t.Fatalf("DecodeFrom: %d entries, Decode %d", got.Len(), len(viaDecode))
		}
		var out bytes.Buffer
		if err := got.EncodeTo(&out); err != nil {
			t.Fatalf("decoded log failed to re-encode: %v", err)
		}
		back, err := DecodeFrom(&out)
		if err != nil {
			t.Fatalf("re-encoded log failed to decode: %v", err)
		}
		if back.Len() != got.Len() {
			t.Fatalf("round trip changed length: %d -> %d", got.Len(), back.Len())
		}
	})
}

const maxFuzzEntries = 4096

// FuzzEpochStream is the differential check of EpochStream and Log.Schedule
// against scheduleOracle, and of Discard against Release on a twin stream
// (see checkStream), on fuzz-built sessions; and of chunk-granular Append,
// in chunks cut at the Flush marks, against per-entry Push (see
// checkChunked).
//
// Layout: data[0] picks the thread count, 1 + data[0]%64; data[1] is the
// high byte of every thread's generator clock (0xFF starts just below the
// 16-bit wrap). Each following 4-byte group [sel, d1, d2, instr] is one
// entry. sel's top bit calls Flush before the entry; sel&0x7f names the
// thread modulo the thread count, except 0x7f, which names the first thread
// the session does not have. instr's top bit holds the entry (Append without
// a release; see checkStream), and instr&0x7f is its instruction count. d1>>6
// picks how the thread's clock advances:
//
//	0: by d2%8 — small steps, zero deltas included
//	1: by (d1&0x3f)<<8 | d2 — up to 16383
//	2: by clock.Window-1, clock.Window or clock.Window+1 (d2%3)
//	3: by d1<<8 | d2 — at least 0xC000, a regressed clock
//
// A thread's first entry carries its generator clock plus that step. Groups
// past maxFuzzEntries are ignored, which keeps every execution fast.
func FuzzEpochStream(f *testing.F) {
	group := func(sel, mode, d2, instr byte) []byte { return []byte{sel, mode << 6, d2, instr} }
	seed := func(threads, start byte, groups ...[]byte) []byte {
		b := []byte{threads - 1, start}
		for _, g := range groups {
			b = append(b, g...)
		}
		return b
	}
	// Zero clock deltas on both threads of a pair.
	f.Add(seed(2, 0, group(0, 0, 0, 1), group(1, 0, 0, 2), group(0, 0, 0, 3), group(1, 0, 0, 4), group(0, 0, 8, 5)))
	// Steps of exactly clock.Window, then one past it.
	f.Add(seed(1, 0x10, group(0, 0, 3, 1), group(0, 2, 1, 2), group(0, 2, 1, 3), group(0, 2, 2, 4)))
	// Four threads walking across the 16-bit wrap, with Flush calls.
	f.Add(seed(4, 0xFF, group(0, 0, 1, 1), group(1, 0, 2, 2), group(2, 0, 3, 3), group(3, 0, 4, 4),
		group(0, 1, 0x80, 5), group(0x81, 1, 0x40, 6), group(2, 1, 0x90, 7), group(3, 1, 0xA0, 8),
		group(0, 1, 0xFF, 9), group(0x81, 0, 0, 10), group(2, 1, 0x10, 11), group(0x83, 1, 0x20, 12)))
	// A thread one past the session, after pending epochs.
	f.Add(seed(3, 0, group(0, 0, 1, 1), group(1, 0, 2, 2), group(0x7f, 0, 0, 3), group(2, 0, 0, 4)))
	// A thread that never speaks: everything drains in Flush.
	f.Add(seed(3, 0, group(0, 0, 1, 1), group(1, 0, 2, 2), group(0, 0, 3, 3), group(0x80, 0, 1, 4), group(1, 0, 5, 5)))
	// A regressed clock.
	f.Add(seed(2, 0, group(0, 0, 1, 1), group(1, 0, 2, 2), group(0, 3, 0, 3)))
	// 64 threads, round robin.
	var many [][]byte
	for i := 0; i < 200; i++ {
		many = append(many, group(byte(i%64), 0, byte(i*7), byte(i)))
	}
	f.Add(seed(64, 0xFF, many...))
	// Bursts: each thread speaks in runs of one to four entries, most of them
	// held, so one release merges many runs.
	for _, threads := range []byte{16, 64} {
		var bursts [][]byte
		for round := 0; round < 4; round++ {
			for th := byte(0); th < threads; th++ {
				for k := 0; k < 1+(round+int(th))%4; k++ {
					hold := byte(0)
					if (round+k+int(th))%5 != 0 {
						hold = 0x80
					}
					bursts = append(bursts, group(th, 0, byte(round+k), hold|byte(k+1)))
				}
			}
		}
		f.Add(seed(threads, 0xFF, bursts...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		threads := 1 + int(data[0])%64
		clocks := make([]uint16, threads+1) // the last slot is the absent thread's
		for i := range clocks {
			clocks[i] = uint16(data[1]) << 8
		}
		var entries []Entry
		var flushes []int
		var held []bool
		for rest := data[2:min(len(data), 2+4*maxFuzzEntries)]; len(rest) >= 4; rest = rest[4:] {
			sel, d1, d2, instr := rest[0], rest[1], rest[2], rest[3]
			if sel&0x80 != 0 {
				flushes = append(flushes, len(entries))
			}
			th := threads
			if sel&0x7f != 0x7f {
				th = int(sel&0x7f) % threads
			}
			var step uint16
			switch d1 >> 6 {
			case 0:
				step = uint16(d2 % 8)
			case 1:
				step = uint16(d1&0x3f)<<8 | uint16(d2)
			case 2:
				step = uint16(clock.Window - 1 + int(d2%3))
			case 3:
				step = uint16(d1)<<8 | uint16(d2)
			}
			clocks[th] += step
			entries = append(entries, Entry{Clock: clock.Scalar(clocks[th]), Thread: uint16(th), Instr: uint32(instr & 0x7f)})
			held = append(held, instr&0x80 != 0)
		}
		checkStream(t, entries, threads, flushes, held)
		checkChunked(t, entries, threads, flushes)
	})
}
