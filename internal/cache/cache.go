// Package cache models on-chip caches at line granularity: a generic
// set-associative LRU cache with a per-line payload (the CORD detector
// attaches timestamps and access bits as the payload), an unbounded variant
// for the InfCache/Ideal configurations, and a two-level inclusive private
// hierarchy used by the timing model.
//
// Values are not stored here — the simulator keeps word values in
// memsys.Memory; caches track only presence, recency and payload, which is
// what drives every CORD-relevant event (displacement, invalidation,
// history loss).
package cache

import (
	"fmt"

	"cord/internal/memsys"
)

type entry[P any] struct {
	line    memsys.Line
	payload P
}

// ubEntry is one line of the unbounded variant. Entries are allocated in
// arena chunks so payload pointers stay valid for the lifetime of the line
// (the unbounded half of the Lookup contract) without one heap allocation
// per insert.
type ubEntry[P any] struct {
	line    memsys.Line
	payload P
	live    bool
}

// ubChunkLines is the arena chunk size of the unbounded cache.
const ubChunkLines = 256

// unboundedStore is an insertion-ordered line store: a paged lookup index
// (memsys.Table keyed by line, nil = absent) over arena-allocated entries,
// plus the insertion-order slice that ForEach and RemoveIf walk. Iteration
// order is therefore a pure function of the access stream — reproducible
// across runs and processes — and never the index's key order.
type unboundedStore[P any] struct {
	index memsys.Table[*ubEntry[P]]
	order []*ubEntry[P] // insertion order; removed entries stay as tombstones
	arena []ubEntry[P]  // current allocation chunk
	dead  int           // tombstones in order
}

// remove unlinks a live entry from the index and turns it into a tombstone,
// returning its payload and releasing the entry's references for the GC.
// The caller compacts.
func (u *unboundedStore[P]) remove(e *ubEntry[P]) P {
	*u.index.Ref(uint64(e.line)) = nil
	e.live = false
	u.dead++
	p := e.payload
	var zero P
	e.payload = zero
	return p
}

func (u *unboundedStore[P]) alloc() *ubEntry[P] {
	if len(u.arena) == 0 {
		u.arena = make([]ubEntry[P], ubChunkLines)
	}
	e := &u.arena[0]
	u.arena = u.arena[1:]
	return e
}

// compact drops tombstones once they outnumber live entries, preserving the
// relative order of the survivors. Entry pointers are unaffected (only the
// pointer slice is rebuilt), so amortized cost per removal is O(1).
func (u *unboundedStore[P]) compact() {
	if u.dead <= len(u.order)/2 || u.dead < ubChunkLines {
		return
	}
	out := u.order[:0]
	for _, e := range u.order {
		if e.live {
			out = append(out, e)
		}
	}
	u.order = out
	u.dead = 0
}

// Cache is a set-associative cache with LRU replacement over lines, carrying
// a payload P per resident line. A Cache with Ways == 0 is unbounded (fully
// associative, infinite capacity) — used by the Ideal and InfCache detector
// configurations.
type Cache[P any] struct {
	sets      [][]entry[P] // each set is MRU-first
	ways      int
	setMask   uint64 // sets-1: Validate guarantees a power-of-two set count
	unbounded *unboundedStore[P]

	// stats
	hits, misses, evictions uint64
}

// Config describes a bounded cache geometry.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
}

// Lines returns the number of lines the configured cache holds.
func (c Config) Lines() int { return c.SizeBytes / memsys.LineBytes }

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Lines() / c.Ways }

// Validate checks the geometry is consistent (power-of-two sets, divisible).
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.SizeBytes%memsys.LineBytes != 0 {
		return fmt.Errorf("cache: size %d not a multiple of line size", c.SizeBytes)
	}
	if c.Lines()%c.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", c.Lines(), c.Ways)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: %d sets is not a power of two", sets)
	}
	return nil
}

// New returns a bounded cache with the given geometry. It panics on an
// invalid geometry: configurations are static experiment parameters, and an
// invalid one is a programming error.
func New[P any](cfg Config) *Cache[P] {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache[P]{
		sets:    make([][]entry[P], cfg.Sets()),
		ways:    cfg.Ways,
		setMask: uint64(cfg.Sets() - 1),
	}
}

// NewUnbounded returns a cache that never evicts. Its ForEach/RemoveIf
// iteration order is insertion order (re-inserting a removed line moves it
// to the end), which keeps every traversal deterministic.
func NewUnbounded[P any]() *Cache[P] {
	return &Cache[P]{unbounded: &unboundedStore[P]{}}
}

// Unbounded reports whether the cache has infinite capacity.
func (c *Cache[P]) Unbounded() bool { return c.unbounded != nil }

func (c *Cache[P]) setOf(l memsys.Line) int { return int(uint64(l) & c.setMask) }

// Lookup returns a pointer to the payload of line l if resident, promoting it
// to most-recently-used.
//
// In a bounded cache the pointer is valid only until the next Lookup,
// Insert, Remove or RemoveIf on this cache: promotion and removal shift the
// entries of a set, so a kept pointer may then address another line's
// payload. In an unbounded cache it stays valid until the line is removed.
func (c *Cache[P]) Lookup(l memsys.Line) (*P, bool) {
	if c.unbounded != nil {
		if e := c.unbounded.index.Get(uint64(l)); e != nil {
			c.hits++
			return &e.payload, true
		}
		c.misses++
		return nil, false
	}
	set := c.sets[c.setOf(l)]
	for i := range set {
		if set[i].line == l {
			// Promote to MRU.
			e := set[i]
			copy(set[1:i+1], set[:i])
			set[0] = e
			c.hits++
			return &set[0].payload, true
		}
	}
	c.misses++
	return nil, false
}

// Peek returns the payload of line l without touching recency or stats;
// remote snoops use it so that coherence traffic does not perturb local LRU
// state. The pointer follows Lookup's contract.
func (c *Cache[P]) Peek(l memsys.Line) (*P, bool) {
	if c.unbounded != nil {
		if e := c.unbounded.index.Get(uint64(l)); e != nil {
			return &e.payload, true
		}
		return nil, false
	}
	set := c.sets[c.setOf(l)]
	for i := range set {
		if set[i].line == l {
			return &set[i].payload, true
		}
	}
	return nil, false
}

// Contains reports residency without touching recency or stats.
func (c *Cache[P]) Contains(l memsys.Line) bool {
	if c.unbounded != nil {
		return c.unbounded.index.Get(uint64(l)) != nil
	}
	for _, e := range c.sets[c.setOf(l)] {
		if e.line == l {
			return true
		}
	}
	return false
}

// Victim describes a line displaced by Insert.
type Victim[P any] struct {
	Line    memsys.Line
	Payload P
}

// Insert installs line l with the given payload as MRU and returns the
// displaced victim, if any. Inserting a line that is already resident
// replaces its payload and promotes it (no victim).
func (c *Cache[P]) Insert(l memsys.Line, payload P) (Victim[P], bool) {
	if c.unbounded != nil {
		u := c.unbounded
		slot := u.index.Ref(uint64(l))
		if e := *slot; e != nil {
			e.payload = payload
			return Victim[P]{}, false
		}
		e := u.alloc()
		*e = ubEntry[P]{line: l, payload: payload, live: true}
		u.order = append(u.order, e)
		*slot = e
		return Victim[P]{}, false
	}
	si := c.setOf(l)
	set := c.sets[si]
	for i := range set {
		if set[i].line == l {
			e := entry[P]{line: l, payload: payload}
			copy(set[1:i+1], set[:i])
			set[0] = e
			return Victim[P]{}, false
		}
	}
	if len(set) < c.ways {
		set = append(set, entry[P]{})
		copy(set[1:], set[:len(set)-1])
		set[0] = entry[P]{line: l, payload: payload}
		c.sets[si] = set
		return Victim[P]{}, false
	}
	// Evict LRU (last element).
	v := Victim[P]{Line: set[len(set)-1].line, Payload: set[len(set)-1].payload}
	copy(set[1:], set[:len(set)-1])
	set[0] = entry[P]{line: l, payload: payload}
	c.evictions++
	return v, true
}

// Remove deletes line l (invalidation), returning its payload if resident.
func (c *Cache[P]) Remove(l memsys.Line) (P, bool) {
	var zero P
	if c.unbounded != nil {
		u := c.unbounded
		e := u.index.Get(uint64(l))
		if e == nil {
			return zero, false
		}
		p := u.remove(e)
		u.compact()
		return p, true
	}
	si := c.setOf(l)
	set := c.sets[si]
	for i := range set {
		if set[i].line == l {
			p := set[i].payload
			c.sets[si] = append(set[:i], set[i+1:]...)
			return p, true
		}
	}
	return zero, false
}

// Len returns the number of resident lines.
func (c *Cache[P]) Len() int {
	if u := c.unbounded; u != nil {
		return len(u.order) - u.dead
	}
	n := 0
	for _, s := range c.sets {
		n += len(s)
	}
	return n
}

// ForEach visits every resident line in a deterministic order — insertion
// order for the unbounded variant, set-then-recency order for bounded
// geometries. The visit function may mutate the payload through the pointer
// but must not insert or remove lines.
func (c *Cache[P]) ForEach(fn func(l memsys.Line, p *P)) {
	if c.unbounded != nil {
		for _, e := range c.unbounded.order {
			if e.live {
				fn(e.line, &e.payload)
			}
		}
		return
	}
	for _, set := range c.sets {
		for i := range set {
			fn(set[i].line, &set[i].payload)
		}
	}
}

// RemoveIf deletes every resident line for which pred returns true, invoking
// onRemove for each removed line. Lines are visited in the same deterministic
// order as ForEach, so retirement callbacks fire in a reproducible sequence.
// The cache walker (§2.7.5) uses this to retire stale timestamps.
func (c *Cache[P]) RemoveIf(pred func(l memsys.Line, p *P) bool, onRemove func(l memsys.Line, p P)) int {
	removed := 0
	if c.unbounded != nil {
		u := c.unbounded
		for _, e := range u.order {
			if !e.live || !pred(e.line, &e.payload) {
				continue
			}
			l, p := e.line, u.remove(e)
			if onRemove != nil {
				onRemove(l, p)
			}
			removed++
		}
		u.compact()
		return removed
	}
	for si, set := range c.sets {
		out := set[:0]
		for i := range set {
			if pred(set[i].line, &set[i].payload) {
				if onRemove != nil {
					onRemove(set[i].line, set[i].payload)
				}
				removed++
				continue
			}
			out = append(out, set[i])
		}
		c.sets[si] = out
	}
	return removed
}

// Stats returns cumulative hit/miss/eviction counts.
func (c *Cache[P]) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}
