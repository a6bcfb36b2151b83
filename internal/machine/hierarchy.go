package machine

import (
	"cord/internal/cache"
	"cord/internal/memsys"
)

// hitLevel classifies where an access was satisfied in a private hierarchy.
type hitLevel int

// Possible outcomes of a hierarchy access.
const (
	l1Hit hitLevel = iota
	l2Hit
	missLevel // not present anywhere in this hierarchy
)

// l2Line is the payload of an L2 line: its dirty bit, and its exclusive
// bit (the E and M states), which promises that no other hierarchy holds
// the line. The machine sets the exclusive bit after a probe that found no
// remote holder, or after a write that invalidated every remote copy, and a
// remote probe that finds the line clears it.
type l2Line struct {
	dirty, excl bool
}

// hierarchy is one processor's private, inclusive two-level cache
// (cache.L1 over cache.L2). It tracks presence plus the dirty and exclusive
// bits of each L2 line; the detectors keep their own payload-bearing caches,
// and the machine uses hierarchy to price each access.
type hierarchy struct {
	l1 cache.Cache[struct{}]
	l2 cache.Cache[l2Line]
}

func newHierarchy() hierarchy {
	return hierarchy{
		l1: cache.New[struct{}](cache.L1),
		l2: cache.New[l2Line](cache.L2),
	}
}

// access touches line l, returning where it hit and its L2 payload, and
// installs it in both levels (inclusive); a write marks the line dirty. The
// payload pointer follows cache.Lookup's contract. dirtyVictim reports that
// the L2 displaced a dirty line to make room.
//
// Inclusion needs no back-invalidation of the L1: every access refreshes the
// line's L2 recency, so an L2 victim has cache.L2.Ways-1 lines of its set
// used since. They all map to its L1 set, because the L1's set count divides
// the L2's, and they outnumber the L1's ways, so the L1 has already dropped
// the victim.
func (h *hierarchy) access(l memsys.Line, write bool) (level hitLevel, ln *l2Line, dirtyVictim bool) {
	level = l1Hit
	if _, ok := h.l1.Lookup(l); !ok {
		level = l2Hit
	}
	// An L1 hit implies L2 residency (inclusion). Lookup refreshes the L2
	// copy's recency; Insert would also clear its bits.
	ln, ok := h.l2.Lookup(l)
	if ok {
		ln.dirty = ln.dirty || write
	} else {
		level = missLevel
		var victim *l2Line
		ln, victim = h.l2.Insert(l)
		ln.dirty = write
		dirtyVictim = victim != nil && victim.dirty
	}
	if level != l1Hit {
		h.l1.Insert(l) // L1 victims stay in L2
	}
	return level, ln, dirtyVictim
}

// invalidate removes l from both levels (snooped remote write), reporting
// whether the dropped copy was dirty and whether l was resident at all.
func (h *hierarchy) invalidate(l memsys.Line) (dirty, ok bool) {
	h.l1.Remove(l)
	ln := h.l2.Remove(l)
	return ln != nil && ln.dirty, ln != nil
}
