package record

import (
	"fmt"
	"math"

	"cord/internal/clock"
)

// EpochStream incrementally converts a streamed entry sequence into the
// globally ordered epoch schedule, without ever holding the whole log. It is
// the one implementation of the order rule: Log.Schedule wraps it, and the
// service's online-detection path (PROTOCOL.md §4.7) feeds it chunk by chunk.
// As entries arrive, Push unwraps each thread's 16-bit clock into monotone
// 64-bit logical time and releases every epoch that can no longer be
// reordered by future input.
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
	last      []clock.Scalar
	unwrapped []uint64
	started   []bool
	unstarted int
	watermark uint64 // min of unwrapped once every thread has started, else 0

	queues  []epochFIFO // per thread: the not-yet-releasable epochs
	pending int
	next    int     // stream index of the next entry
	out     []Epoch // reused release buffer handed out by Push
	err     error   // sticky: a violated stream stays violated
}

// epochFIFO is one thread's pending epochs: buf[head:] in (Time, Index) order.
type epochFIFO struct {
	buf  []Epoch
	head int
}

// NewEpochStream builds a stream for a session of numThreads threads.
func NewEpochStream(numThreads int) *EpochStream {
	return &EpochStream{
		last:      make([]clock.Scalar, numThreads),
		unwrapped: make([]uint64, numThreads),
		started:   make([]bool, numThreads),
		unstarted: numThreads,
		queues:    make([]epochFIFO, numThreads),
	}
}

// Pending returns the number of buffered epochs not yet released — what Flush
// would currently return.
func (s *EpochStream) Pending() int { return s.pending }

// Push ingests the next entry and returns the epochs that became final, in
// global schedule order. The returned slice is valid only until the next Push
// or Flush call; callers that retain epochs must copy them. Errors (an entry
// naming a thread the session does not have, or a clock delta outside the
// comparison window) are sticky and name the offending entry's stream index.
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
	if s.err != nil {
		return dst, s.err
	}
	t := int(e.Thread)
	if t >= len(s.last) {
		s.err = fmt.Errorf("%w: entry %d names thread %d, have %d threads", ErrOrderViolation, s.next, t, len(s.last))
		return dst, s.err
	}
	prev, wasStarted := s.unwrapped[t], s.started[t]
	if !wasStarted {
		s.started[t] = true
		s.unstarted--
		s.unwrapped[t] = uint64(e.Clock)
	} else {
		delta := uint16(e.Clock - s.last[t])
		if int(delta) > clock.Window {
			s.err = fmt.Errorf("%w: entry %d clock regressed for thread %d", ErrOrderViolation, s.next, t)
			return dst, s.err
		}
		s.unwrapped[t] += uint64(delta)
	}
	s.last[t] = e.Clock
	at := s.unwrapped[t]
	s.queues[t].push(Epoch{Time: at, Thread: t, Instr: e.Instr, Index: s.next})
	s.pending++
	s.next++

	// Only the thread that held the minimum (or the last thread to start) can
	// move the watermark; any other Push leaves it where it was.
	moved := false
	if s.unstarted == 0 && (!wasStarted || prev == s.watermark) {
		wm := s.unwrapped[0]
		for _, u := range s.unwrapped[1:] {
			wm = min(wm, u)
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
