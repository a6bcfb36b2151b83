// Package baseline implements the detector configurations the paper compares
// CORD against: the Ideal oracle (vector clocks, unlimited storage, unlimited
// per-word access histories — detects every dynamic data race exposed by the
// execution's causality) and the cache-bounded vector-clock schemes used in
// Figs. 12–15 (InfCache, L2Cache, L1Cache).
package baseline

import (
	"slices"

	"cord/internal/clock"
	"cord/internal/memsys"
	"cord/internal/trace"
)

// maxStoredRaces caps the race descriptors each baseline detector (Ideal,
// VecCache, FastTrack) retains for inspection. Their race counters are
// complete regardless.
const maxStoredRaces = 1 << 16

// pairKey identifies one side of a race for the false-positive oracle: a
// reported race matches ground truth when the reporting (second) access is
// known by Ideal to race with a conflicting access of the same kind from the
// same thread.
type pairKey struct {
	addr   memsys.Addr
	second uint64
	thread int
	kind   trace.Kind
}

// idealEntry is one remembered data access. It carries no vector clock:
// every race check against an entry of thread u compares the checking
// thread's component u with u's own component at the entry's access (its
// epoch), so the epoch is the only part of u's vector ever read. Entries
// hold no pointers, so the history slab is invisible to the garbage
// collector's mark phase.
type idealEntry struct {
	seq    uint64
	epoch  uint64 // the accessing thread's own vector component at the access
	word   int32  // the entry's word, an index into Ideal.heads
	prev   int32  // the same thread's next older entry on the word; -1 ends the chain
	thread int32
	kind   trace.Kind
}

// idealWord is the bookkeeping of one word index: the address it stands for
// and how many retained entries it has. Prune releases the index when the
// count drops to zero, so storage follows the live history, not the
// footprint.
type idealWord struct {
	addr    memsys.Addr
	entries int32
}

// syncWord is the synchronization state of one sync variable: the vector
// clock of its last write. Synchronization induces ordering with
// acquire/release semantics — a sync read (acquire) is ordered after the
// sync write (release) whose value it observes. This matches both what
// synchronization primitives guarantee to programs and what CORD's
// sync-read D rule treats as "synchronized" (§2.6: orderings established
// by mere +1 clock updates are *not* through synchronization and remain
// reportable races).
type syncWord struct {
	lastWrite clock.Vector
}

// Ideal is the ground-truth detector (§4.2's Ideal configuration): full
// vector clocks, one history entry per data access, entries recycled only
// once they can no longer participate in a race.
//
// The history is one slab of entries in global access order. Each word
// keeps one chain per thread through the slab, linking that thread's
// entries on the word from newest to oldest. A thread's epochs never
// decrease, so a race check walks each other thread's chain only until the
// first entry ordered before the checking thread: O(threads) per access
// plus one step per racing (or read-read skipped) entry, instead of a walk
// over the word's whole history.
type Ideal struct {
	threads int
	vcs     []clock.Vector
	syncs   memsys.Table[*syncWord] // keyed by memsys.WordKey

	hist      []idealEntry        // retained data accesses, in global access order
	words     memsys.Table[int32] // keyed by memsys.WordKey: 1 + the word index of an address with retained entries, 0 if none
	slots     []idealWord         // indexed by word
	heads     []int32             // heads[w*threads+t]: thread t's newest entry on word w, or -1
	freeWords []int32             // word indices prune released, for reuse
	hits      []int32             // scratch: slab indices of the current access's races
	min       clock.Vector        // scratch: prune's component-wise minimum clock

	races     []trace.Race
	raceCount int // racy accesses (>=1 conflicting unordered predecessor)
	pairs     map[pairKey]bool
	maxPairs  int

	accesses      uint64
	pruneInterval uint64
}

// NewIdeal builds the oracle for the given thread count.
func NewIdeal(threads int) *Ideal {
	return &Ideal{
		threads:       threads,
		vcs:           makeVCs(threads),
		min:           clock.NewVector(threads),
		pairs:         make(map[pairKey]bool),
		maxPairs:      1 << 20,
		pruneInterval: 8192,
	}
}

func makeVCs(threads int) []clock.Vector {
	vcs := make([]clock.Vector, threads)
	for i := range vcs {
		vcs[i] = clock.NewVector(threads)
		vcs[i].Tick(i) // distinguish "has started" from the zero vector
	}
	return vcs
}

// Name implements trace.Observer.
func (d *Ideal) Name() string { return "Ideal" }

// OnAccess implements trace.Observer.
func (d *Ideal) OnAccess(a trace.Access) trace.Report {
	d.accesses++
	if d.accesses%d.pruneInterval == 0 {
		d.prune()
	}
	my := d.vcs[a.Thread]
	var rep trace.Report
	if a.Class == trace.Sync {
		d.onSync(a, my)
	} else {
		d.onData(a, my, &rep)
	}
	my.Tick(a.Thread)
	return rep
}

// onSync applies the acquire/release happens-before edges.
func (d *Ideal) onSync(a trace.Access, my clock.Vector) {
	slot := d.syncs.Ref(memsys.WordKey(a.Addr))
	s := *slot
	if s == nil {
		s = &syncWord{lastWrite: clock.NewVector(d.threads)}
		*slot = s
	}
	if a.Kind == trace.Read {
		my.Join(s.lastWrite) // acquire: ordered after the observed release
		return
	}
	copy(s.lastWrite, my) // release: publish the writer's history
}

// onData checks the access against the word's history: every conflicting
// earlier access not ordered before the current thread's vector clock is a
// data race. Races are reported in global access order.
func (d *Ideal) onData(a trace.Access, my clock.Vector, rep *trace.Report) {
	slot := d.words.Ref(memsys.WordKey(a.Addr))
	if *slot == 0 {
		*slot = d.newWord(a.Addr) + 1
	}
	w := *slot - 1
	heads := d.heads[int(w)*d.threads : int(w+1)*d.threads]
	hits := d.hits[:0]
	for u, i := range heads {
		if u == a.Thread {
			continue
		}
		for i >= 0 {
			e := &d.hist[i]
			// e happened before the current access iff the current thread
			// has seen e's epoch; u's older entries have smaller epochs.
			if my[u] >= e.epoch {
				break
			}
			if a.Kind == trace.Write || e.kind == trace.Write {
				hits = append(hits, i)
			}
			i = e.prev
		}
	}
	if len(hits) > 0 {
		d.raceCount++
		slices.Sort(hits) // slab order is global access order
	}
	for _, i := range hits {
		e := &d.hist[i]
		r := trace.Race{
			Addr:   a.Addr,
			First:  trace.Ref{Thread: int(e.thread), Kind: e.kind, Seq: e.seq},
			Second: trace.Ref{Thread: a.Thread, Kind: a.Kind, Seq: a.Seq},
		}
		if len(d.races) < maxStoredRaces {
			d.races = append(d.races, r)
			rep.Races = append(rep.Races, r)
		}
		if len(d.pairs) < d.maxPairs {
			d.pairs[pairKey{a.Addr, a.Seq, int(e.thread), e.kind}] = true
		}
	}
	d.hits = hits
	d.hist = append(d.hist, idealEntry{
		seq: a.Seq, epoch: my[a.Thread], word: w, prev: heads[a.Thread],
		thread: int32(a.Thread), kind: a.Kind,
	})
	heads[a.Thread] = int32(len(d.hist) - 1)
	d.slots[w].entries++
}

// newWord gives addr a word index with every thread's chain empty, reusing
// one prune released when it can (a released word's chains are all empty).
func (d *Ideal) newWord(addr memsys.Addr) int32 {
	var w int32
	if n := len(d.freeWords); n > 0 {
		w = d.freeWords[n-1]
		d.freeWords = d.freeWords[:n-1]
		d.slots[w].addr = addr
	} else {
		w = int32(len(d.slots))
		d.slots = append(d.slots, idealWord{addr: addr})
		for t := 0; t < d.threads; t++ {
			d.heads = append(d.heads, -1)
		}
	}
	return w
}

// prune drops history entries that are ordered before every thread's
// current clock — they can never race again (§3.2's Ideal bookkeeping). It
// compacts the slab in place, which keeps global access order, relinks the
// chains, and releases the words left without entries.
func (d *Ideal) prune() {
	min := d.min
	copy(min, d.vcs[0])
	for _, vc := range d.vcs[1:] {
		for i, v := range vc {
			if v < min[i] {
				min[i] = v
			}
		}
	}
	for _, e := range d.hist {
		d.heads[int(e.word)*d.threads+int(e.thread)] = -1
	}
	out := d.hist[:0]
	for _, e := range d.hist {
		if e.epoch <= min[e.thread] {
			s := &d.slots[e.word]
			if s.entries--; s.entries == 0 {
				*d.words.Ref(memsys.WordKey(s.addr)) = 0
				d.freeWords = append(d.freeWords, e.word)
			}
			continue
		}
		h := &d.heads[int(e.word)*d.threads+int(e.thread)]
		e.prev = *h
		*h = int32(len(out))
		out = append(out, e)
	}
	d.hist = out
}

// Migrate implements trace.Observer; vector clocks are per-thread, so
// migration needs no action for the oracle.
func (d *Ideal) Migrate(thread, proc int, instr uint64) {}

// ThreadDone implements trace.Observer.
func (d *Ideal) ThreadDone(thread int, totalInstr uint64) {}

// Finish implements trace.Observer.
func (d *Ideal) Finish() {}

// Races returns the retained detected races.
func (d *Ideal) Races() []trace.Race { return d.races }

// RaceCount returns the number of racy accesses — accesses with at least one
// conflicting, unordered predecessor. This is the raw-race metric used across
// detectors so that cached (per-word-bit) and ideal (per-access-history)
// schemes are counted on the same basis.
func (d *Ideal) RaceCount() int { return d.raceCount }

// ProblemDetected reports whether the run exposed at least one data race.
func (d *Ideal) ProblemDetected() bool { return d.raceCount > 0 }

// Confirms reports whether a race reported by another detector is consistent
// with ground truth: the same second access racing against a conflicting
// access of the same kind from the same thread. Used by the no-false-positive
// invariant tests.
func (d *Ideal) Confirms(r trace.Race) bool {
	return d.pairs[pairKey{r.Addr, r.Second.Seq, r.First.Thread, r.First.Kind}]
}
