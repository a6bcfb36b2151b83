package baseline

import (
	"cord/internal/clock"
	"cord/internal/memsys"
)

// This file is the shadow memory behind the FastTrack baseline detector
// (fasttrack.go): per-word shadow state plus per-sync-variable vector
// clocks.

// epochNone marks an empty epoch slot in a shadow word.
const epochNone = int32(-1)

// ftEpoch is FastTrack's compressed timestamp: one clock component and the
// thread it belongs to — the paper's c@t. A single epoch replaces a full
// vector clock wherever the last access is totally ordered with everything
// that matters (last writes always; reads until they become concurrent).
type ftEpoch struct {
	clock  uint64
	thread int32
}

// ftWord is the shadow state of one data word: the last-write epoch and the
// adaptive read representation — a single epoch in the common
// (exclusive/same-epoch) case, inflated to a full vector only while reads
// are concurrent. A write to a read-shared word deflates it back to epochs.
type ftWord struct {
	write ftEpoch
	read  ftEpoch
	// readVec is non-nil iff the read state is inflated: readVec[t] is the
	// clock component of thread t's last read (0 = never read).
	readVec clock.Vector
}

// shadowMem holds the shadow words and sync variables, each in a paged
// table keyed by word index (nil = never touched). Deflated read vectors
// are recycled through a free list so the inflate/deflate cycle settles
// into zero steady-state allocation.
type shadowMem struct {
	words memsys.Table[*ftWord]
	syncs memsys.Table[clock.Vector]

	freeVecs []clock.Vector
	// metaWords counts the live shadow-state footprint in words, the
	// FastTrack paper's metadata metric: 1 word per epoch, threads words per
	// (sync or inflated read) vector.
	metaWords int
}

// word returns addr's shadow word, creating an empty one on first touch.
func (s *shadowMem) word(a memsys.Addr) *ftWord {
	slot := s.words.Ref(memsys.WordKey(a))
	w := *slot
	if w == nil {
		w = &ftWord{write: ftEpoch{thread: epochNone}, read: ftEpoch{thread: epochNone}}
		*slot = w
		s.metaWords += 2
	}
	return w
}

// sync returns addr's sync-variable vector (the last release's clock),
// creating a zero vector on first touch.
func (s *shadowMem) sync(a memsys.Addr, threads int) clock.Vector {
	slot := s.syncs.Ref(memsys.WordKey(a))
	v := *slot
	if v == nil {
		v = clock.NewVector(threads)
		*slot = v
		s.metaWords += threads
	}
	return v
}

// inflate switches w's read state to the vector representation, reusing a
// previously deflated vector when one is free.
func (s *shadowMem) inflate(w *ftWord, threads int) clock.Vector {
	var v clock.Vector
	if n := len(s.freeVecs); n > 0 {
		v = s.freeVecs[n-1]
		s.freeVecs = s.freeVecs[:n-1]
		clear(v)
	} else {
		v = clock.NewVector(threads)
	}
	w.readVec = v
	s.metaWords += threads
	return v
}

// deflate drops w's read vector back onto the free list (a write to a
// read-shared word returns the word to the epoch representation).
func (s *shadowMem) deflate(w *ftWord) {
	s.metaWords -= len(w.readVec)
	s.freeVecs = append(s.freeVecs, w.readVec)
	w.readVec = nil
}
