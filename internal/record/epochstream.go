package record

import (
	"fmt"
	"math"

	"cord/internal/clock"
)

// Unwrapper is the one owner of the per-thread order invariants of
// PROTOCOL.md §3. It checks each entry's thread against the session's thread
// count and its clock against the comparison window, and unwraps each
// thread's 16-bit clock into monotone 64-bit logical time. EpochStream, and
// through it Log.Schedule, and the service's stream ingest all unwrap through
// it, so every path reports a violation in the same words.
type Unwrapper struct {
	threads   []threadClock
	unstarted int
	next      int   // stream index of the next entry
	err       error // sticky: a violated stream stays violated
}

// threadClock is one thread's unwrap state.
type threadClock struct {
	time    uint64 // the unwrapped time of the thread's latest entry
	last    clock.Scalar
	started bool
}

// NewUnwrapper builds an unwrapper for a session of numThreads threads.
func NewUnwrapper(numThreads int) *Unwrapper {
	return &Unwrapper{threads: make([]threadClock, numThreads), unstarted: numThreads}
}

// Unwrap ingests the next entry of the stream and returns its unwrapped
// logical time; a thread's first entry starts at its raw clock value.
// Errors (an entry naming a thread the session does not have, or a clock
// delta outside the comparison window) wrap ErrOrderViolation, name the
// offending entry's stream index, and are sticky.
func (u *Unwrapper) Unwrap(e Entry) (uint64, error) {
	if _, at, ok := u.advance(e); ok {
		return at, nil
	}
	switch t := int(e.Thread); {
	case u.err != nil: // keep the first violation
	case t >= len(u.threads):
		u.err = fmt.Errorf("%w: entry %d names thread %d, have %d threads", ErrOrderViolation, u.next, t, len(u.threads))
	default:
		u.err = fmt.Errorf("%w: entry %d clock regressed for thread %d", ErrOrderViolation, u.next, t)
	}
	return 0, u.err
}

// advance is Unwrap's fast path, without the error formatting. It also
// returns the thread's time before e (0 for its first entry), which
// EpochStream's watermark needs. On a violation it changes nothing and
// reports !ok, and Unwrap then names the violation.
func (u *Unwrapper) advance(e Entry) (prev, at uint64, ok bool) {
	t := int(e.Thread)
	if t >= len(u.threads) || u.err != nil {
		return
	}
	c := &u.threads[t]
	prev, at = c.time, uint64(e.Clock)
	if c.started {
		delta := uint16(e.Clock - c.last)
		if delta > clock.Window {
			return
		}
		at = prev + uint64(delta)
	} else {
		c.started = true
		u.unstarted--
	}
	c.time, c.last = at, e.Clock
	u.next++
	return prev, at, true
}

// EpochStream incrementally converts a streamed entry sequence into the
// globally ordered epoch schedule, without ever holding the whole log. It is
// the one implementation of the order rule: Log.Schedule wraps it, and the
// service's online-detection path (PROTOCOL.md §4.7) feeds it chunk by chunk.
// As entries arrive, Push unwraps each thread's clock through an Unwrapper
// and releases every epoch that can no longer be reordered by future input.
//
// The release rule is a watermark: per-thread unwrapped times are
// nondecreasing, so once every one of the session's threads has appeared, any
// buffered epoch with Time at or below the minimum of the threads' last
// unwrapped times is final — a future entry either has a strictly larger Time
// or, on an equal Time, a larger stream Index, and the schedule breaks
// equal-Time ties by Index. Until all threads have started the watermark is
// zero (an unseen thread's first clock value may be anything), so nothing past
// logical time zero is released; epochs of a thread that never speaks drain
// in Flush.
//
// Pending epochs wait in one FIFO per thread. Each FIFO is already in (Time,
// Index) order — a thread's unwrapped times are monotone and Index grows — so
// a release is a merge of the FIFO heads rather than a sort: repeatedly take
// the head that sorts first while it is at or below the watermark. That costs
// O(threads) per released run of one thread's epochs, and O(1) for a Push
// that neither moves the watermark nor lands on it. Each FIFO compacts in
// place once half of it is consumed, so memory tracks the pending window,
// not the stream length, and a warmed-up Push does not allocate.
//
// The concatenation of every slice Push returns, followed by Flush's
// remainder, is the entries' epochs sorted by (Time, Index).
type EpochStream struct {
	clocks    Unwrapper
	watermark uint64 // min of the unwrapped times once every thread has started, else 0

	queues  []epochFIFO // per thread: the not-yet-releasable epochs
	pending int
	out     []Epoch // reused release buffer handed out by Push
}

// epochFIFO is one thread's pending epochs: buf[head:] in (Time, Index) order.
type epochFIFO struct {
	buf  []Epoch
	head int
}

// NewEpochStream builds a stream for a session of numThreads threads.
func NewEpochStream(numThreads int) *EpochStream {
	return &EpochStream{
		clocks: *NewUnwrapper(numThreads),
		queues: make([]epochFIFO, numThreads),
	}
}

// Time returns thread t's unwrapped logical time as of the last entry pushed
// (0 before its first entry).
func (s *EpochStream) Time(t int) uint64 { return s.clocks.threads[t].time }

// Pending returns the number of buffered epochs not yet released — what Flush
// would currently return.
func (s *EpochStream) Pending() int { return s.pending }

// Push ingests the next entry and returns the epochs that became final, in
// global schedule order. The returned slice is valid only until the next Push
// or Flush call; callers that retain epochs must copy them. Errors (an entry
// naming a thread the session does not have, or a clock delta outside the
// comparison window) are Unwrapper's: sticky, and naming the offending
// entry's stream index.
func (s *EpochStream) Push(e Entry) ([]Epoch, error) {
	out, err := s.push(s.out[:0], e)
	if err != nil {
		return nil, err
	}
	s.out = out
	return out, nil
}

// Flush releases every still-buffered epoch in schedule order; call it at end
// of stream. The returned slice is valid until the next Push or Flush.
func (s *EpochStream) Flush() []Epoch {
	s.out = s.release(s.out[:0], math.MaxUint64)
	return s.out
}

// push ingests e and appends the epochs it makes final to dst.
func (s *EpochStream) push(dst []Epoch, e Entry) ([]Epoch, error) {
	prev, at, ok := s.clocks.advance(e)
	if !ok {
		_, err := s.clocks.Unwrap(e) // refused again, with the reason
		return dst, err
	}
	t := int(e.Thread)
	s.queues[t].push(Epoch{Time: at, Thread: t, Instr: e.Instr, Index: s.clocks.next - 1})
	s.pending++

	// Only the thread that held the minimum can move the watermark; any other
	// Push leaves it where it was. That includes the last thread to start:
	// until then the watermark is 0, and so is every unstarted thread's time.
	moved := false
	if s.clocks.unstarted == 0 && prev == s.watermark {
		wm := s.clocks.threads[0].time
		for _, c := range s.clocks.threads[1:] {
			wm = min(wm, c.time)
		}
		moved = wm != s.watermark
		s.watermark = wm
	}
	// Everything buffered earlier lies above an unmoved watermark, so only
	// the new epoch can be releasable — and only if it sits on the watermark.
	if !moved && at > s.watermark {
		return dst, nil
	}
	return s.release(dst, s.watermark), nil
}

// release appends every pending epoch with Time <= watermark to dst in (Time,
// Index) order. Each round finds the releasable FIFO head that sorts first
// and the runner-up, then drains the first FIFO while it stays ahead of the
// runner-up and at or below the watermark.
func (s *EpochStream) release(dst []Epoch, watermark uint64) []Epoch {
	for {
		var first, second *Epoch
		var q *epochFIFO
		for t := range s.queues {
			c := &s.queues[t]
			if c.head == len(c.buf) {
				continue
			}
			h := &c.buf[c.head]
			switch {
			case h.Time > watermark:
				// Not releasable, and it bounds nothing: the drain stops at
				// the watermark anyway.
			case first == nil || epochLess(h, first):
				first, second, q = h, first, c
			case second == nil || epochLess(h, second):
				second = h
			}
		}
		if first == nil {
			return dst
		}
		start := q.head
		for q.head < len(q.buf) {
			e := &q.buf[q.head]
			if e.Time > watermark || (second != nil && epochLess(second, e)) {
				break
			}
			dst = append(dst, *e)
			q.head++
		}
		s.pending -= q.head - start
		if q.head == len(q.buf) {
			q.buf, q.head = q.buf[:0], 0
		}
	}
}

// epochLess is the schedule's sort key, (Time, Index). Index is unique per
// entry, so the order is total and the merge output is the exact sorted
// sequence.
func epochLess(a, b *Epoch) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Index < b.Index
}

// push appends e, first sliding the live epochs down to the front when the
// buffer is full and at least half of it is consumed. Each compaction copies
// at most as many epochs as it frees, so the cost stays O(1) amortised, and
// the buffer never grows while half of it is dead.
func (q *epochFIFO) push(e Epoch) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, e)
}
