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
// it, so every path reports a violation in the same words. Along the way it
// keeps each thread's Tally, the per-thread summary a stream session reports.
type Unwrapper struct {
	threads []threadClock
	next    int   // stream index of the next entry
	err     error // sticky: a violated stream stays violated
}

// Tally is one thread's fold over its accepted entries: how many there are,
// their instruction total, and the unwrapped times of the first and the
// latest. A thread with no entries has the zero Tally.
type Tally struct {
	Entries      uint64
	Instructions uint64
	First, Last  uint64
}

// threadClock is one thread's unwrap state: its Tally, whose Last is the
// unwrapped time of its latest entry, and that entry's raw clock. A thread has
// started once its Entries is non-zero.
type threadClock struct {
	Tally
	last clock.Scalar
}

// NewUnwrapper builds an unwrapper for a session of numThreads threads.
func NewUnwrapper(numThreads int) *Unwrapper {
	return &Unwrapper{threads: make([]threadClock, numThreads)}
}

// Append ingests the next entries of the stream in order, unwrapping each
// clock; one call per decoded chunk is the intended cadence, and Append(e)
// is the one-entry case. A thread's first entry starts at its raw clock value.
// It stops at the first violation (an entry naming a thread the session does
// not have, or a clock delta outside the comparison window), keeping the
// entries before it, and returns an error that wraps ErrOrderViolation and
// names the offending entry's stream index. Errors are sticky.
func (u *Unwrapper) Append(es ...Entry) error {
	if u.err != nil {
		return u.err
	}
	n := len(es) // the entries accepted: all of them, or those before a violation
	for i, e := range es {
		if _, _, ok := u.advance(e); !ok {
			n = i
			break
		}
	}
	if u.next += n; n < len(es) {
		return u.refuse(es[n])
	}
	return nil
}

// Len returns the number of entries accepted so far.
func (u *Unwrapper) Len() int { return u.next }

// Tally returns thread t's fold over the entries accepted so far.
func (u *Unwrapper) Tally(t int) Tally { return u.threads[t].Tally }

// advance applies the §3 unwrap rule to one entry and folds it into its
// thread's Tally. It returns the thread's time before e (0 for its first
// entry), which EpochStream's watermark needs, and e's unwrapped time. On a
// violation it changes nothing and reports !ok; the caller then names the
// violation with refuse. It does not count e in next: the chunk loops that
// call it advance next once per chunk. It stays within the inliner's budget
// (cost 80 of 80), so both chunk loops inline the one copy of the rule.
func (u *Unwrapper) advance(e Entry) (prev, at uint64, ok bool) {
	if int(e.Thread) >= len(u.threads) {
		return
	}
	// An unstarted thread's Last and last are 0, so its first entry lands
	// at its raw clock; only the window check must skip it.
	c := &u.threads[e.Thread]
	delta := uint64(uint16(e.Clock - c.last))
	if c.Entries == 0 {
		c.First = delta
	} else if delta > clock.Window {
		return
	}
	prev = c.Last
	at = prev + delta
	c.Last, c.last = at, e.Clock
	c.Entries++
	c.Instructions += uint64(e.Instr)
	return prev, at, true
}

// refuse records the violation advance found in e, the entry at stream index
// next, as the sticky error and returns it.
func (u *Unwrapper) refuse(e Entry) error {
	if t := int(e.Thread); t >= len(u.threads) {
		u.err = fmt.Errorf("%w: entry %d names thread %d, have %d threads", ErrOrderViolation, u.next, t, len(u.threads))
	} else {
		u.err = fmt.Errorf("%w: entry %d clock regressed for thread %d", ErrOrderViolation, u.next, t)
	}
	return u.err
}

// EpochStream incrementally converts a streamed entry sequence into the
// globally ordered epoch schedule, without ever holding the whole log. It is
// the one implementation of the order rule: Log.Schedule wraps it, and the
// service's online-detection path (PROTOCOL.md §4.7) feeds it chunk by chunk.
//
// Append unwraps a chunk of entries through an Unwrapper, queues each
// entry's epoch and settles the watermark once at the chunk's end; Append(e)
// is the one-entry case. Release hands out every queued epoch at or below the
// watermark, and Discard drops them, returning their count. Push is Append
// of one entry followed by Release, for callers that want each entry's
// releases at once; Flush releases the remainder at end of stream. Whatever
// the cadence, the concatenation of every release followed by Flush's
// remainder is the entries' epochs sorted by (Time, Index).
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
// compare, and refreshes only the popped thread's key. Append costs O(1) per
// entry in one loop over the chunk, plus one O(threads) watermark recompute
// at the chunk's end when a thread that held the watermark advanced or the
// last thread started; the watermark only rises, so holding it at its old
// value through the chunk releases nothing early. The first Release after the
// watermark moved recomputes every key, O(threads); each released epoch then
// costs O(threads), and a Release with nothing to release is O(1). Appending
// and releasing once per chunk rather than once per entry recomputes the
// watermark and the keys once per chunk. Each FIFO compacts in place once
// half of it is consumed, so memory tracks the pending window, not the
// stream length, and a warmed-up stream (Push, or Append and Release or
// Discard) does not allocate.
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
		clocks: Unwrapper{threads: make([]threadClock, numThreads)},
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

// Len returns the number of entries appended so far.
func (s *EpochStream) Len() int { return s.clocks.Len() }

// Tally returns thread t's fold over the entries appended so far.
func (s *EpochStream) Tally(t int) Tally { return s.clocks.Tally(t) }

// Pending returns the number of buffered epochs not yet released — what Flush
// would currently return.
func (s *EpochStream) Pending() int { return s.pending }

// Append ingests the next entries of the stream, one decoded chunk per call:
// it unwraps each entry's clock, queues its epoch and settles the watermark
// once at the end, releasing nothing. It stops at the first violation (an
// entry naming a thread the session does not have, or a clock delta outside
// the comparison window), keeping the entries before it queued and the
// watermark settled over them, exactly as if they had been appended alone.
// Errors are Unwrapper's: sticky, and naming the offending entry's stream
// index.
func (s *EpochStream) Append(es ...Entry) error {
	u := &s.clocks
	if u.err != nil {
		return u.err
	}
	// held: an entry's thread sat at the watermark before it. Only such a
	// thread can move the watermark, and that includes the last thread to
	// start: until then the watermark is 0, and so is every unstarted
	// thread's time.
	held := false
	n := len(es) // the entries queued: all of them, or those before a violation
	for i, e := range es {
		prev, at, ok := u.advance(e)
		if !ok {
			n = i
			break
		}
		if prev == s.watermark {
			held = true
		}
		index := uint64(u.next + i)
		q := &s.queues[e.Thread]
		q.push(pendingEpoch{time: at, index: index, instr: e.Instr})
		// The watermark holds its old value through the chunk; a moved
		// watermark leaves the keys for Release to recompute. Beyond that,
		// only a new epoch that became its FIFO's head at or below the
		// watermark gains a key.
		if len(q.buf)-q.head == 1 && at <= s.watermark {
			s.keys[e.Thread] = headKey{at, index}
			s.ready++
		}
	}
	s.settle(n, held)
	if n < len(es) {
		return u.refuse(es[n])
	}
	return nil
}

// settle counts the chunk's first n entries, all queued, and recomputes the
// watermark when held says it may have moved: to the minimum of the threads'
// times once every thread has started, else it stays 0.
func (s *EpochStream) settle(n int, held bool) {
	u := &s.clocks
	u.next += n
	s.pending += n
	if !held {
		return
	}
	wm := uint64(math.MaxUint64)
	for t := range u.threads {
		if u.threads[t].Entries == 0 {
			return
		}
		wm = min(wm, u.threads[t].Last)
	}
	s.stale = s.stale || wm != s.watermark
	s.watermark = wm
}

// Release appends every pending epoch at or below the watermark to dst in
// (Time, Index) order and returns the extended slice.
func (s *EpochStream) Release(dst []Epoch) []Epoch {
	if s.stale {
		s.refresh(s.watermark)
	}
	return s.release(dst, s.watermark)
}

// Discard drops every pending epoch at or below the watermark and returns
// how many it dropped: exactly the count Release would hand out, without
// merging or building the epochs. It serves callers that only count what
// becomes final.
func (s *EpochStream) Discard() int {
	n := 0
	for t := range s.queues {
		q := &s.queues[t]
		k := q.head
		for k < len(q.buf) && q.buf[k].time <= s.watermark {
			k++
		}
		n += k - q.head
		if q.head = k; k == len(q.buf) {
			q.buf, q.head = q.buf[:0], 0
		}
		s.keys[t] = noKey // every remaining head lies above the watermark
	}
	s.ready, s.stale = 0, false
	s.pending -= n
	return n
}

// Push ingests the next entry and returns the epochs that became final, in
// global schedule order: Append of the one entry, then Release into a reused
// buffer. The
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
