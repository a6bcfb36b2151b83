package record

import (
	"fmt"
	"math"
	"math/bits"

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
//
// Append unwraps each entry's clock through an Unwrapper, queues its epoch
// and maintains the watermark; Release hands out every queued epoch at or
// below the watermark. Push is Append followed by Release, for callers that
// want each entry's releases at once; Flush releases the remainder at end of
// stream. Whatever the cadence, the concatenation of every release followed
// by Flush's remainder is the entries' epochs sorted by (Time, Index).
//
// The release rule is a watermark: per-thread unwrapped times are
// nondecreasing, so once every one of the session's threads has appeared, any
// buffered epoch with Time at or below the minimum of the threads' last
// unwrapped times is final — a future entry either has a strictly larger Time
// or, on an equal Time, a larger stream Index, and the schedule breaks
// equal-Time ties by Index. Until all threads have started the watermark is
// zero (an unseen thread's first clock value may be anything), so nothing past
// logical time zero is released; epochs of a thread that never speaks drain
// in Flush. After a Release nothing at or below the watermark is pending.
//
// Cost model. Pending epochs wait in one FIFO per thread, 24 bytes each (the
// thread is the FIFO; Epoch values are built only on release). Each FIFO is
// already in (Time, Index) order — a thread's unwrapped times are monotone
// and Index grows — so a release merges the FIFO heads rather than sorting:
// it keeps one (Time, Index) key per thread, the head's or none when the head
// lies above the watermark, takes the smallest with a branch-free 128-bit
// compare, and refreshes only the popped thread's key. Append is O(1), plus
// O(threads) when its thread held the watermark. The first Release after the
// watermark moved recomputes every key, O(threads); each released epoch then
// costs O(threads), and a Release with nothing to release is O(1). Releasing
// once per chunk rather than once per entry recomputes the keys once per
// chunk. Each FIFO compacts in place once half of it is consumed, so memory
// tracks the pending window, not the stream length, and a warmed-up stream
// (Push, or Append and Release) does not allocate.
type EpochStream struct {
	clocks    Unwrapper
	watermark uint64 // min of the unwrapped times once every thread has started, else 0

	queues  []epochFIFO // per thread: the not-yet-released epochs
	keys    []headKey   // per thread: release's merge keys
	ready   int         // keys that are not none
	stale   bool        // the watermark moved since the keys were computed
	pending int
	out     []Epoch // reused release buffer handed out by Push and Flush
}

// pendingEpoch is a queued epoch; its thread is the FIFO it waits in.
type pendingEpoch struct {
	time, index uint64
	instr       uint32
}

// epochFIFO is one thread's pending epochs: buf[head:] in (Time, Index) order.
type epochFIFO struct {
	buf  []pendingEpoch
	head int
}

// headKey is a FIFO head's schedule sort key, (Time, Index). Index is unique
// per entry, so the order is total and the merge output is the exact sorted
// sequence.
type headKey struct{ time, index uint64 }

// noKey sorts after every real key: no entry's Index reaches MaxUint64.
var noKey = headKey{math.MaxUint64, math.MaxUint64}

// NewEpochStream builds a stream for a session of numThreads threads.
func NewEpochStream(numThreads int) *EpochStream {
	s := &EpochStream{
		clocks: *NewUnwrapper(numThreads),
		queues: make([]epochFIFO, numThreads),
		keys:   make([]headKey, numThreads),
	}
	s.refresh(0) // every FIFO is empty: every key is none
	return s
}

// reserve sizes each thread's FIFO for its entries in one allocation, and the
// release buffer for all of them, for a caller that appends every entry and
// then calls Flush.
func (s *EpochStream) reserve(entries []Entry) {
	counts := make([]int, len(s.queues))
	for _, e := range entries {
		if int(e.Thread) < len(counts) {
			counts[e.Thread]++
		}
	}
	slab := make([]pendingEpoch, len(entries))
	for t, n := range counts {
		s.queues[t].buf, slab = slab[:0:n], slab[n:]
	}
	s.out = make([]Epoch, 0, len(entries))
}

// Time returns thread t's unwrapped logical time as of the last entry
// appended (0 before its first entry).
func (s *EpochStream) Time(t int) uint64 { return s.clocks.threads[t].time }

// Pending returns the number of buffered epochs not yet released — what Flush
// would currently return.
func (s *EpochStream) Pending() int { return s.pending }

// Append ingests the next entry: it unwraps the entry's clock, queues its
// epoch and moves the watermark, releasing nothing. Errors (an entry naming a
// thread the session does not have, or a clock delta outside the comparison
// window) are Unwrapper's: sticky, and naming the offending entry's stream
// index.
func (s *EpochStream) Append(e Entry) error {
	prev, at, ok := s.clocks.advance(e)
	if !ok {
		_, err := s.clocks.Unwrap(e) // refused again, with the reason
		return err
	}
	q := &s.queues[e.Thread]
	q.push(pendingEpoch{time: at, index: uint64(s.clocks.next - 1), instr: e.Instr})
	s.pending++
	// Only the thread that held the minimum can move the watermark. That
	// includes the last thread to start: until then the watermark is 0, and
	// so is every unstarted thread's time.
	if s.clocks.unstarted == 0 && prev == s.watermark {
		wm := s.clocks.threads[0].time
		for _, c := range s.clocks.threads[1:] {
			wm = min(wm, c.time)
		}
		s.stale = s.stale || wm != s.watermark
		s.watermark = wm
	}
	// A moved watermark leaves the keys for Release to recompute; beyond
	// that, only the new epoch can gain a key, if it became its FIFO's head
	// at or below the watermark.
	if len(q.buf)-q.head == 1 && at <= s.watermark {
		s.keys[e.Thread] = headKey{at, uint64(s.clocks.next - 1)}
		s.ready++
	}
	return nil
}

// Release appends every pending epoch at or below the watermark to dst in
// (Time, Index) order and returns the extended slice.
func (s *EpochStream) Release(dst []Epoch) []Epoch {
	if s.stale {
		s.refresh(s.watermark)
	}
	return s.release(dst, s.watermark)
}

// Push ingests the next entry and returns the epochs that became final, in
// global schedule order: Append, then Release into a reused buffer. The
// returned slice is valid only until the next Push or Flush call; callers
// that retain epochs must copy them. Errors are Append's.
func (s *EpochStream) Push(e Entry) ([]Epoch, error) {
	if err := s.Append(e); err != nil {
		return nil, err
	}
	s.out = s.Release(s.out[:0])
	return s.out, nil
}

// Flush releases every still-buffered epoch in schedule order; call it at end
// of stream. The returned slice is valid until the next Push or Flush.
func (s *EpochStream) Flush() []Epoch {
	s.refresh(math.MaxUint64)
	s.out = s.release(s.out[:0], math.MaxUint64) // empties every FIFO: no key is left
	return s.out
}

// refresh recomputes every thread's key against watermark.
func (s *EpochStream) refresh(watermark uint64) {
	s.ready, s.stale = 0, false
	for t := range s.keys {
		if s.keys[t] = s.queues[t].key(watermark); s.keys[t] != noKey {
			s.ready++
		}
	}
}

// release appends every pending epoch with Time <= watermark to dst in (Time,
// Index) order: each step pops the head with the smallest key, and only the
// popped thread's key changes. The keys must be current for watermark.
func (s *EpochStream) release(dst []Epoch, watermark uint64) []Epoch {
	keys := s.keys
	for s.ready > 0 {
		bt, best := argmin(keys)
		q := &s.queues[bt]
		dst = append(dst, Epoch{Time: best.time, Thread: bt, Instr: q.buf[q.head].instr, Index: int(best.index)})
		if q.head++; q.head == len(q.buf) {
			q.buf, q.head = q.buf[:0], 0
		}
		s.pending--
		if keys[bt] = q.key(watermark); keys[bt] == noKey {
			s.ready--
		}
	}
	return dst
}

// argmin returns the smallest key and its thread. The borrow out of the
// 128-bit subtraction k - best is 1 exactly when k sorts first; negated, it
// masks the selection, so the scan does not branch on the keys.
func argmin(keys []headKey) (bt int, best headKey) {
	best = keys[0]
	for t, k := range keys[1:] {
		_, b := bits.Sub64(k.index, best.index, 0)
		_, b = bits.Sub64(k.time, best.time, b)
		m := -b
		best.time ^= (best.time ^ k.time) & m
		best.index ^= (best.index ^ k.index) & m
		bt ^= (bt ^ (t + 1)) & int(m)
	}
	return bt, best
}

// key returns the head's sort key, or noKey when the FIFO is empty or its head
// lies above the watermark.
func (q *epochFIFO) key(watermark uint64) headKey {
	if q.head < len(q.buf) && q.buf[q.head].time <= watermark {
		return headKey{q.buf[q.head].time, q.buf[q.head].index}
	}
	return noKey
}

// push appends p, first sliding the live epochs down to the front when the
// buffer is full and at least half of it is consumed. Each compaction copies
// at most as many epochs as it frees, so the cost stays O(1) amortised, and
// the buffer never grows while half of it is dead.
func (q *epochFIFO) push(p pendingEpoch) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, p)
}
