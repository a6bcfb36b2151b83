package record

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"cord/internal/clock"
)

// scheduleOracle is the reference the merge in EpochStream is checked
// against: the original batch Schedule, which unwraps every entry and then
// sorts the whole log by (Time, Index).
func scheduleOracle(l *Log, numThreads int) ([]Epoch, error) {
	last := make([]clock.Scalar, numThreads)
	unwrapped := make([]uint64, numThreads)
	started := make([]bool, numThreads)
	epochs := make([]Epoch, 0, len(l.entries))
	for i, e := range l.entries {
		t := int(e.Thread)
		if t >= numThreads {
			return nil, fmt.Errorf("%w: entry %d names thread %d, have %d threads", ErrOrderViolation, i, t, numThreads)
		}
		if !started[t] {
			started[t] = true
			unwrapped[t] = uint64(e.Clock)
		} else {
			delta := uint16(e.Clock - last[t])
			if int(delta) > clock.Window {
				return nil, fmt.Errorf("%w: entry %d clock regressed for thread %d", ErrOrderViolation, i, t)
			}
			unwrapped[t] += uint64(delta)
		}
		last[t] = e.Clock
		epochs = append(epochs, Epoch{Time: unwrapped[t], Thread: t, Instr: e.Instr, Index: i})
	}
	sort.SliceStable(epochs, func(a, b int) bool {
		if epochs[a].Time != epochs[b].Time {
			return epochs[a].Time < epochs[b].Time
		}
		return epochs[a].Index < epochs[b].Index
	})
	return epochs, nil
}

// checkStream checks an EpochStream and Log.Schedule against scheduleOracle
// on one entry sequence. Flush is called before each entry index in flushes
// (ascending) and once at the end. Entry i is appended without a release
// when held[i] is set (held may be nil); every other entry is released at
// once, by Push for even i and by Append then Release for odd i. The checks:
//
//   - Schedule returns the oracle's epochs, or its error text.
//   - Between two Flush calls, the stream releases that segment's epochs in
//     the oracle's (Time, Index) order, with the oracle's Index values.
//   - After every release, the segment's released epochs are exactly those
//     with Time at or below the watermark, recomputed here from the oracle's
//     times; after every entry, Pending() counts the rest.
//   - The first bad entry fails Push or Append with the oracle's error text,
//     and the error is sticky.
//
// It returns the Pending() value after each accepted entry.
func checkStream(tb testing.TB, entries []Entry, threads int, flushes []int, held []bool) (pending []int) {
	tb.Helper()
	l := &Log{entries: entries}
	want, wantErr := scheduleOracle(l, threads)
	got, err := l.Schedule(threads)
	switch {
	case (err == nil) != (wantErr == nil):
		tb.Fatalf("Schedule error %v, oracle error %v", err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		tb.Fatalf("Schedule error %q, oracle error %q", err, wantErr)
	case err == nil && !epochsEqual(got, want):
		tb.Fatalf("Schedule differs from the oracle\ngot  %v\nwant %v", got, want)
	}
	// bad is the first entry the oracle rejects; validity is prefix-closed,
	// so a binary search over prefixes finds it.
	bad := len(entries)
	if wantErr != nil {
		bad = sort.Search(len(entries), func(k int) bool {
			_, err := scheduleOracle(&Log{entries: entries[:k+1]}, threads)
			return err != nil
		})
		want, _ = scheduleOracle(&Log{entries: entries[:bad]}, threads)
	}
	timeOf := make([]uint64, bad) // entry index -> oracle Time
	posOf := make([]int, bad)     // entry index -> position in want
	for k, ep := range want {
		timeOf[ep.Index], posOf[ep.Index] = ep.Time, k
	}
	// segment returns the oracle's epochs with Index in [lo, hi), in order.
	segment := func(lo, hi int) []Epoch {
		pos := append([]int(nil), posOf[lo:hi]...)
		sort.Ints(pos)
		seg := make([]Epoch, len(pos))
		for k, p := range pos {
			seg[k] = want[p]
		}
		return seg
	}

	s := NewEpochStream(threads)
	last := make([]uint64, threads)
	started := make([]bool, threads)
	unstarted := threads
	lo, final := 0, 0 // final: how many of seg are released so far
	var seg, released []Epoch
	endSegment := func(hi int) {
		tb.Helper()
		released = append(released, s.Flush()...)
		if seg = segment(lo, hi); !epochsEqual(released, seg) {
			tb.Fatalf("segment [%d, %d) released out of oracle order\ngot  %v\nwant %v", lo, hi, released, seg)
		}
		if s.Pending() != 0 {
			tb.Fatalf("Pending() = %d after Flush", s.Pending())
		}
		lo, final, released = hi, 0, nil
	}
	next := 0 // position in flushes
	for i := 0; i <= bad && i < len(entries); i++ {
		for next < len(flushes) && flushes[next] <= i {
			if flushes[next] == i {
				endSegment(i)
			}
			next++
		}
		if lo == i {
			hi := bad
			if next < len(flushes) && flushes[next] < hi {
				hi = flushes[next]
			}
			seg = segment(lo, hi)
		}
		hold := i < len(held) && held[i]
		var rel []Epoch
		var err error
		switch {
		case hold:
			err = s.Append(entries[i])
		case i%2 == 0:
			rel, err = s.Push(entries[i])
		default:
			if err = s.Append(entries[i]); err == nil {
				rel = s.Release(nil)
			}
		}
		if i == bad {
			if err == nil || err.Error() != wantErr.Error() {
				tb.Fatalf("Push entry %d: error %v, oracle error %q", i, err, wantErr)
			}
			if _, again := s.Push(Entry{Thread: 0}); again == nil || again.Error() != err.Error() {
				tb.Fatalf("error not sticky: %v after %v", again, err)
			}
			break
		}
		if err != nil {
			tb.Fatalf("Push entry %d: %v (oracle accepts it)", i, err)
		}
		checked := len(released)
		released = append(released, rel...)

		t := int(entries[i].Thread)
		if !started[t] {
			started[t] = true
			unstarted--
		}
		last[t] = timeOf[i]
		watermark := uint64(0)
		if unstarted == 0 {
			watermark = last[0]
			for _, u := range last[1:] {
				watermark = min(watermark, u)
			}
		}
		// The final epochs form a prefix of the segment's order: anything
		// still to come is above the watermark or, on it, has a larger Index.
		// A held entry releases nothing.
		for !hold && final < len(seg) && seg[final].Index <= i && seg[final].Time <= watermark {
			final++
		}
		if len(released) != final || !epochsEqual(released[checked:], seg[checked:final]) {
			tb.Fatalf("after entry %d (watermark %d, held %v): released %v, want %v", i, watermark, hold, released, seg[:final])
		}
		if p := i + 1 - lo - len(released); s.Pending() != p {
			tb.Fatalf("after entry %d: Pending() = %d, want %d", i, s.Pending(), p)
		}
		pending = append(pending, s.Pending())
	}
	endSegment(bad)
	return pending
}

func epochsEqual(a, b []Epoch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEpochStreamMatchesSchedule: the incremental release order equals the
// batch sort for logs with interleaved threads, equal-time ties and idle
// gaps.
func TestEpochStreamMatchesSchedule(t *testing.T) {
	logs := map[string]*Log{
		"round-robin": sampleLog(257),
		"single":      {entries: []Entry{{Clock: 5, Thread: 0, Instr: 9}}},
		"empty":       {},
	}
	// Bursty interleaving: threads speak in runs, with equal clock values
	// across threads so the Index tie-break matters.
	bursty := &Log{}
	for round := 0; round < 40; round++ {
		for th := 0; th < 3; th++ {
			for k := 0; k < 1+(round+th)%3; k++ {
				bursty.Append(Entry{Clock: clock.Scalar(round * 2), Thread: uint16(th), Instr: uint32(round + k)})
			}
		}
	}
	logs["bursty"] = bursty
	// A thread that starts late: nothing releases before it speaks.
	late := &Log{}
	for i := 0; i < 50; i++ {
		late.Append(Entry{Clock: clock.Scalar(i), Thread: uint16(i % 2), Instr: 1})
	}
	late.Append(Entry{Clock: 3, Thread: 2, Instr: 7})
	for i := 50; i < 80; i++ {
		late.Append(Entry{Clock: clock.Scalar(i), Thread: uint16(i % 3), Instr: 1})
	}
	logs["late-starter"] = late

	for name, l := range logs {
		threads := 4
		if name == "bursty" || name == "late-starter" {
			threads = 3
		}
		t.Run(name, func(t *testing.T) { checkStream(t, l.Entries(), threads, nil, nil) })
	}
}

// TestEpochStreamMatchesScheduleRandom: randomized per-thread clock walks
// (including zero deltas and window-sized jumps) stay equivalent to the batch
// sort under property testing, with and without mid-stream Flush calls and
// held releases.
func TestEpochStreamMatchesScheduleRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 50; trial++ {
		threads := 1 + rng.IntN(6)
		l := &Log{}
		clocks := make([]uint16, threads)
		for i := 0; i < 200; i++ {
			th := rng.IntN(threads)
			clocks[th] += uint16(rng.IntN(clock.Window / 4))
			l.Append(Entry{Clock: clock.Scalar(clocks[th]), Thread: uint16(th), Instr: uint32(rng.IntN(100))})
		}
		var flushes []int
		if trial%2 == 1 {
			for k := 0; k < 3; k++ {
				flushes = append(flushes, rng.IntN(l.Len()))
			}
			sort.Ints(flushes)
		}
		var held []bool
		if trial%3 == 2 {
			hold := rand.New(rand.NewPCG(uint64(trial), 13))
			for range l.Len() {
				held = append(held, hold.IntN(4) != 0)
			}
		}
		checkStream(t, l.Entries(), threads, flushes, held)
	}
}

// TestEpochStreamEdgeCases pins the merge's edge cases against the oracle:
// zero clock deltas released on an unmoved watermark, the 64-thread session
// ceiling, a thread far enough ahead that its FIFO compacts many times, and
// the exact Pending() count after every Push.
func TestEpochStreamEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	cases := []struct {
		name        string
		threads     int
		entries     []Entry
		flushes     []int
		wantPending []int // nil: checked against the oracle only
	}{
		{
			// t0 repeats the watermark's clock: the watermark does not move,
			// yet the new epoch sits on it and is final at once.
			name:    "zero delta on unmoved watermark",
			threads: 2,
			entries: []Entry{
				{Clock: 5, Thread: 0, Instr: 1},
				{Clock: 9, Thread: 1, Instr: 2},
				{Clock: 5, Thread: 0, Instr: 3},
				{Clock: 5, Thread: 0, Instr: 4},
				{Clock: 9, Thread: 1, Instr: 5},
				{Clock: 9, Thread: 0, Instr: 6},
				{Clock: 9, Thread: 1, Instr: 7},
			},
			wantPending: []int{1, 1, 1, 1, 2, 0, 0},
		},
		{
			name:    "zero delta before every thread started",
			threads: 3,
			entries: []Entry{
				{Clock: 0, Thread: 0, Instr: 1},
				{Clock: 0, Thread: 0, Instr: 2},
				{Clock: 4, Thread: 1, Instr: 3},
				{Clock: 0, Thread: 2, Instr: 4},
				{Clock: 4, Thread: 1, Instr: 5},
			},
			wantPending: []int{0, 0, 1, 1, 2},
		},
		{
			// Pending() by hand: t0@1, t0@2 wait for t1; t1@1 releases both
			// time-1 epochs; t1@3 releases t0@2; t0@3 releases the rest.
			name:    "pending after every push",
			threads: 2,
			entries: []Entry{
				{Clock: 1, Thread: 0, Instr: 1},
				{Clock: 2, Thread: 0, Instr: 1},
				{Clock: 1, Thread: 1, Instr: 1},
				{Clock: 3, Thread: 1, Instr: 1},
				{Clock: 3, Thread: 0, Instr: 1},
			},
			wantPending: []int{1, 2, 1, 1, 0},
		},
		{name: "64 threads", threads: 64, entries: walk(rng, 64, 4000, 0, 4)},
		{name: "64 threads, one silent", threads: 64, entries: walk(rng, 63, 2000, 0, 4)},
		{name: "64 threads with flushes", threads: 64, entries: walk(rng, 64, 3000, 0, 4), flushes: []int{0, 1, 700, 701, 2999}},
		{name: "one thread far ahead", threads: 4, entries: walk(rng, 4, 20000, 1000, 8)},
		{name: "across the wrap", threads: 3, entries: walk(rng, 3, 3000, 0, 64)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pending := checkStream(t, tc.entries, tc.threads, tc.flushes, nil)
			if tc.wantPending != nil && fmt.Sprint(pending) != fmt.Sprint(tc.wantPending) {
				t.Fatalf("Pending() after each Push = %v, want %v", pending, tc.wantPending)
			}
		})
	}
}

// walk builds a round-robin log over the first speakers threads, each
// advancing its clock by [0, step) per entry from a start just below the
// 16-bit wrap; the last speaker starts lead logical ticks ahead of the others
// (first clocks are taken as they are, so the lead must not wrap).
func walk(rng *rand.Rand, speakers, n, lead, step int) []Entry {
	clocks := make([]uint16, speakers)
	for t := range clocks {
		clocks[t] = uint16(0xFF00 - lead)
	}
	clocks[speakers-1] = 0xFF00
	entries := make([]Entry, n)
	for i := range entries {
		t := i % speakers
		entries[i] = Entry{Clock: clock.Scalar(clocks[t]), Thread: uint16(t), Instr: uint32(i)}
		clocks[t] += uint16(rng.IntN(step))
	}
	return entries
}

// TestEpochStreamCompactsLeadingThread: a thread running far ahead of the
// others keeps a long FIFO whose front drains as they catch up. Its buffer
// must be reused in place, so capacity tracks the pending window rather than
// the thread's total entry count.
func TestEpochStreamCompactsLeadingThread(t *testing.T) {
	entries := walk(rand.New(rand.NewPCG(1, 2)), 4, 40000, 1000, 8)
	s := NewEpochStream(4)
	peak := 0
	for _, e := range entries {
		if _, err := s.Push(e); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, len(s.queues[3].buf)-s.queues[3].head)
	}
	if c := cap(s.queues[3].buf); c > 4*peak+8 || c*8 > len(entries)/4 {
		t.Fatalf("leading thread's FIFO capacity %d for a pending peak of %d and %d pushes: not compacting",
			c, peak, len(entries)/4)
	}
}

// TestEpochStreamPushDoesNotAllocate: once the FIFOs and the release buffer
// have grown to the pending window, Push runs allocation-free.
func TestEpochStreamPushDoesNotAllocate(t *testing.T) {
	// Thread t's k-th clock is 4k plus jitter in [0, 4): clocks never
	// regress and the threads never drift apart, so the window stays bounded.
	rng := rand.New(rand.NewPCG(9, 9))
	entries := make([]Entry, 1<<16)
	for i := range entries {
		entries[i] = Entry{Clock: clock.Scalar(4*(i/4) + rng.IntN(4)), Thread: uint16(i % 4), Instr: 1}
	}
	s := NewEpochStream(4)
	i := 0
	for ; i < len(entries)/2; i++ {
		if _, err := s.Push(entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(len(entries)/4, func() {
		if _, err := s.Push(entries[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("warmed-up Push allocates %.4f times per call, want 0", avg)
	}
}

// TestStreamDecoderWrapBoundaryChunked is the satellite coverage: the wrap
// fixture's wire bytes decode identically via one-shot DecodeFrom and via
// StreamDecoder.Feed at every chunk size from 1 to 17 bytes — sizes that
// split the header and every entry at each possible offset.
func TestStreamDecoderWrapBoundaryChunked(t *testing.T) {
	l := wrapLog(4)
	b := encodeLog(t, l)
	want, err := DecodeFrom(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("DecodeFrom: %v", err)
	}
	for size := 1; size <= 17; size++ {
		d := NewStreamDecoder()
		var got []Entry
		for off := 0; off < len(b); off += size {
			end := min(off+size, len(b))
			if err := d.Feed(b[off:end], func(e Entry) error { got = append(got, e); return nil }); err != nil {
				t.Fatalf("chunk size %d: Feed: %v", size, err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatalf("chunk size %d: Close: %v", size, err)
		}
		if len(got) != want.Len() {
			t.Fatalf("chunk size %d: decoded %d entries, want %d", size, len(got), want.Len())
		}
		for i, e := range want.Entries() {
			if got[i] != e {
				t.Fatalf("chunk size %d: entry %d = %v, want %v", size, i, got[i], e)
			}
		}
	}
}

// wrapLog builds a log whose per-thread clocks straddle the 16-bit wrap
// boundary: every delta stays inside the comparison window, so the unwrapped
// 64-bit times keep growing monotonically through 65535 → 0.
func wrapLog(threads int) *Log {
	l := &Log{}
	start := 1<<16 - 40*threads // close enough to the top that the walk wraps
	for i := 0; i < 120*threads; i++ {
		th := i % threads
		l.Append(Entry{
			Clock:  clock.Scalar(uint16(start + (i/threads)*97 + th)),
			Thread: uint16(th),
			Instr:  uint32(1 + i%7),
		})
	}
	return l
}

// TestEpochStreamClockWrap: the watermark release stays equivalent to the
// batch sort across the 16-bit wrap, and the unwrapped times really are
// monotone (the wrap did happen and was handled, not avoided).
func TestEpochStreamClockWrap(t *testing.T) {
	l := wrapLog(4)
	want, err := scheduleOracle(l, 4)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	wrapped := false
	for i := 1; i < len(want); i++ {
		if want[i].Time < want[i-1].Time {
			t.Fatalf("oracle times not monotone at %d", i)
		}
		if want[i].Time >= 1<<16 {
			wrapped = true
		}
	}
	if !wrapped {
		t.Fatal("fixture never crossed the 16-bit boundary; the test proves nothing")
	}
	checkStream(t, l.Entries(), 4, nil, nil)
}

// TestEpochStreamErrors: the incremental verdicts match the oracle's for the
// same broken logs, name the same entry, and are sticky.
func TestEpochStreamErrors(t *testing.T) {
	cases := map[string]*Log{
		"bad-thread": {entries: []Entry{{Clock: 1, Thread: 9, Instr: 1}}},
		"regressed": {entries: []Entry{
			{Clock: 100, Thread: 0, Instr: 1},
			{Clock: 50, Thread: 0, Instr: 1}, // delta 65486 > window
		}},
		"one past the window after pending epochs": {entries: []Entry{
			{Clock: 7, Thread: 0, Instr: 1},
			{Clock: 3, Thread: 1, Instr: 1},
			{Clock: 7 + clock.Window, Thread: 0, Instr: 1}, // exactly the window: accepted
			{Clock: 4, Thread: 1, Instr: 1},
			{Clock: 3 + 1 + clock.Window + 1, Thread: 1, Instr: 1},
		}},
		"thread one past the session": {entries: []Entry{
			{Clock: 1, Thread: 0, Instr: 1},
			{Clock: 2, Thread: 4, Instr: 1},
		}},
	}
	for name, l := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := scheduleOracle(l, 4); err == nil {
				t.Fatal("the oracle accepted the broken log")
			}
			checkStream(t, l.Entries(), 4, nil, nil)
			s := NewEpochStream(4)
			var first error
			for _, e := range l.Entries() {
				if _, err := s.Push(e); err != nil {
					first = err
					break
				}
			}
			if !errors.Is(first, ErrOrderViolation) {
				t.Fatalf("first error %v, want ErrOrderViolation", first)
			}
			if _, err := s.Push(Entry{Clock: 1, Thread: 0, Instr: 1}); !errors.Is(err, first) {
				t.Fatalf("error not sticky: %v", err)
			}
		})
	}
}

// TestStreamDecoderResetContract pins the documented Reset semantics: a
// sticky error persists across further Feed and Close calls, Reset is the
// only way out, and a post-Reset decoder demands a fresh header — feeding it
// the continuation of the previously failed stream is rejected as bad magic
// instead of silently emitting entries from a desynchronized offset.
func TestStreamDecoderResetContract(t *testing.T) {
	good := encodeLog(t, sampleLog(8))
	bad := append([]byte("XORD"), good[4:]...) // bad magic up front

	d := NewStreamDecoder()
	err := d.Feed(bad, nil)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("bad magic not rejected: %v", err)
	}
	// Sticky: later Feeds and Close keep returning the original verdict.
	if err2 := d.Feed(good, nil); !errors.Is(err2, ErrBadFormat) {
		t.Fatalf("Feed after failure = %v, want sticky ErrBadFormat", err2)
	}
	if err2 := d.Close(); !errors.Is(err2, ErrBadFormat) {
		t.Fatalf("Close after failure = %v, want sticky ErrBadFormat", err2)
	}

	// Reset starts a NEW stream: the same decoder now accepts a full log.
	d.Reset()
	var n int
	if err := d.Feed(good, func(Entry) error { n++; return nil }); err != nil {
		t.Fatalf("Feed after Reset: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close after Reset: %v", err)
	}
	if n != 8 {
		t.Fatalf("decoded %d entries after Reset, want 8", n)
	}

	// Resuming a damaged stream mid-way after Reset must NOT emit entries:
	// the continuation bytes are interpreted as a new stream's header and
	// rejected (entry bytes never match the CORD magic).
	d2 := NewStreamDecoder()
	if err := d2.Feed(bad[:20], nil); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("setup: want header rejection, got %v", err)
	}
	d2.Reset()
	emitted := 0
	err = d2.Feed(good[20:], func(Entry) error { emitted++; return nil })
	if emitted != 0 {
		t.Fatalf("continuation bytes after Reset emitted %d entries; want a header verdict instead", emitted)
	}
	if err == nil {
		// The first 16 continuation bytes buffered as a header candidate may
		// not complete in one Feed; Close must still refuse the stream.
		err = d2.Close()
	}
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("continuation stream accepted after Reset: %v", err)
	}
}

func TestEpochStreamRejectsOrderViolationTyped(t *testing.T) {
	// The streaming path must produce the same typed order_violation
	// verdicts as the one-shot Schedule, and stay sticky afterwards.
	t.Run("regressed clock near the wrap", func(t *testing.T) {
		s := NewEpochStream(1)
		if _, err := s.Push(Entry{Clock: 0x0010, Thread: 0, Instr: 1}); err != nil {
			t.Fatal(err)
		}
		_, err := s.Push(Entry{Clock: 0xFFF0, Thread: 0, Instr: 1})
		if !errors.Is(err, ErrOrderViolation) {
			t.Fatalf("err = %v, want ErrOrderViolation", err)
		}
		// Sticky: the violated stream keeps answering with the same verdict.
		if _, err := s.Push(Entry{Clock: 0x0011, Thread: 0, Instr: 1}); !errors.Is(err, ErrOrderViolation) {
			t.Fatalf("sticky err = %v, want ErrOrderViolation", err)
		}
	})
	t.Run("thread outside the session", func(t *testing.T) {
		s := NewEpochStream(2)
		if _, err := s.Push(Entry{Clock: 1, Thread: 7, Instr: 1}); !errors.Is(err, ErrOrderViolation) {
			t.Fatalf("err = %v, want ErrOrderViolation", err)
		}
	})
}
