// Package cache models on-chip caches at line granularity: a generic
// set-associative LRU cache with a per-line payload (the CORD detector
// attaches timestamps and access bits as the payload), an unbounded variant
// for the InfCache configuration, and the paper's two per-processor
// geometries.
//
// Values are not stored here — the simulator keeps word values in
// memsys.Memory; caches track only presence, recency and payload, which is
// what drives every CORD-relevant event (displacement, invalidation,
// history loss).
//
// A bounded cache keeps all its lines in one flat, set-major array with a
// resident-line count per set, each set in MRU-first order. Every walk is a
// scan of one short run of that array: a Lookup that finds its line already
// MRU moves nothing, and Insert hands back the new line's zeroed payload to
// be filled in place, with a pointer to a cache-owned copy of the payload it
// displaced (DESIGN.md, implementation note 14).
package cache

import (
	"fmt"

	"cord/internal/memsys"
)

type entry[P any] struct {
	line    memsys.Line
	payload P
}

// ubChunkLines is the arena chunk size of the unbounded cache.
const ubChunkLines = 256

// unboundedStore is a paged lookup index (memsys.Table keyed by line, nil =
// absent) over payloads allocated in arena chunks, so a payload pointer stays
// valid for the lifetime of its line (the unbounded half of the Lookup
// contract) without one heap allocation per insert. The slots Remove vacates
// wait, zeroed, on a free list that alloc takes from first, so an
// invalidate-then-refetch reuses its slot instead of growing the arena.
// ForEach walks the index, so its order is ascending line order: a pure
// function of the lines resident, reproducible across runs and processes.
type unboundedStore[P any] struct {
	index memsys.Table[*P]
	arena []P  // current allocation chunk
	free  []*P // zeroed slots vacated by Remove
}

func (u *unboundedStore[P]) alloc() *P {
	if n := len(u.free); n > 0 {
		p := u.free[n-1]
		u.free = u.free[:n-1]
		return p
	}
	if len(u.arena) == 0 {
		u.arena = make([]P, ubChunkLines)
	}
	p := &u.arena[0]
	u.arena = u.arena[1:]
	return p
}

// Cache is a set-associative cache with LRU replacement over lines, carrying
// a payload P per resident line. A Cache from NewUnbounded is fully
// associative with infinite capacity — the vector-clock InfCache
// configuration's storage.
//
// A Cache is a small header over storage it shares with its copies, so it
// can be held by value; the methods take a pointer to the header, whose
// only field that changes is the victim copy.
type Cache[P any] struct {
	// lines holds the sets one after another, each in ways consecutive
	// entries: set s is lines[s*ways : s*ways+count[s]], MRU first, and
	// the ways past its count are zero.
	lines     []entry[P]
	count     []int32 // resident lines per set
	ways      int
	setMask   uint64 // sets-1: Validate guarantees a power-of-two set count
	victim    P      // the payload Insert displaced or Remove removed last
	unbounded *unboundedStore[P]
}

// Config describes a bounded cache geometry.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
}

// The paper's per-processor cache geometries (§3.1), with 64-byte lines.
// Every bounded cache in the simulator has one of these two shapes.
var (
	L1 = Config{SizeBytes: 8 << 10, Ways: 4}  // 8 KB, 4-way
	L2 = Config{SizeBytes: 32 << 10, Ways: 8} // 32 KB, 8-way
)

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
func New[P any](cfg Config) Cache[P] {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return Cache[P]{
		lines:   make([]entry[P], cfg.Lines()),
		count:   make([]int32, cfg.Sets()),
		ways:    cfg.Ways,
		setMask: uint64(cfg.Sets() - 1),
	}
}

// NewUnbounded returns a cache that never evicts.
func NewUnbounded[P any]() Cache[P] {
	return Cache[P]{unbounded: &unboundedStore[P]{}}
}

// set returns the resident entries of line l's set, MRU first, and the
// set's index.
func (c *Cache[P]) set(l memsys.Line) ([]entry[P], int) {
	si := int(uint64(l) & c.setMask)
	base := si * c.ways
	return c.lines[base : base+int(c.count[si])], si
}

// Lookup returns a pointer to the payload of line l if resident, promoting it
// to most-recently-used. A line that is already MRU stays where it is.
//
// In a bounded cache the pointer is valid only until the next Lookup,
// Insert or Remove on this cache: promotion and removal shift the
// entries of a set, so a kept pointer may then address another line's
// payload. In an unbounded cache it stays valid until the line is removed.
func (c *Cache[P]) Lookup(l memsys.Line) (*P, bool) {
	if c.unbounded != nil {
		if p := c.unbounded.index.Get(uint64(l)); p != nil {
			return p, true
		}
		return nil, false
	}
	set, _ := c.set(l)
	if len(set) == 0 {
		return nil, false
	}
	if set[0].line == l {
		return &set[0].payload, true
	}
	for i := 1; i < len(set); i++ {
		if set[i].line == l {
			// Promote to MRU.
			e := set[i]
			copy(set[1:i+1], set[:i])
			set[0] = e
			return &set[0].payload, true
		}
	}
	return nil, false
}

// Peek returns the payload of line l without touching recency;
// remote snoops use it so that coherence traffic does not perturb local LRU
// state. The pointer follows Lookup's contract.
func (c *Cache[P]) Peek(l memsys.Line) (*P, bool) {
	if c.unbounded != nil {
		if p := c.unbounded.index.Get(uint64(l)); p != nil {
			return p, true
		}
		return nil, false
	}
	set, _ := c.set(l)
	for i := range set {
		if set[i].line == l {
			return &set[i].payload, true
		}
	}
	return nil, false
}

// Insert installs line l as MRU with a zero payload and returns a pointer
// to that payload for the caller to fill; slot follows Lookup's contract.
// If a line was displaced, victim points to a copy of its payload that the
// cache owns, valid until the next Insert or Remove on this cache; it is
// nil otherwise. Inserting a line that is already resident zeroes its
// payload and promotes it (no victim).
func (c *Cache[P]) Insert(l memsys.Line) (slot, victim *P) {
	if c.unbounded != nil {
		u := c.unbounded
		ref := u.index.Ref(uint64(l))
		if *ref == nil {
			*ref = u.alloc()
		} else {
			var zero P
			**ref = zero
		}
		return *ref, nil
	}
	set, si := c.set(l)
	n := len(set)
	for i := range set {
		if set[i].line == l {
			copy(set[1:i+1], set[:i])
			set[0] = entry[P]{line: l}
			return &set[0].payload, nil
		}
	}
	if n < c.ways {
		set = set[:n+1]
		c.count[si]++
	} else {
		// Evict LRU (last element).
		c.victim = set[n-1].payload
		victim = &c.victim
		n--
	}
	copy(set[1:], set[:n])
	set[0] = entry[P]{line: l}
	return &set[0].payload, victim
}

// Remove deletes line l (invalidation). If l was resident, it returns a
// pointer to a copy of its payload that the cache owns, valid until the
// next Insert or Remove on this cache; otherwise nil.
func (c *Cache[P]) Remove(l memsys.Line) *P {
	var zero P
	if c.unbounded != nil {
		u := c.unbounded
		p := u.index.Get(uint64(l))
		if p == nil {
			return nil
		}
		*u.index.Ref(uint64(l)) = nil
		c.victim = *p
		*p = zero // release the payload's references for the GC
		u.free = append(u.free, p)
		return &c.victim
	}
	set, si := c.set(l)
	for i := range set {
		if set[i].line == l {
			c.victim = set[i].payload
			copy(set[i:], set[i+1:])
			// Zero the vacated way, so no stale payload outlives its line.
			set[len(set)-1] = entry[P]{}
			c.count[si]--
			return &c.victim
		}
	}
	return nil
}

// ForEach visits every resident line in a deterministic order — ascending
// line order for the unbounded variant, set-then-recency order for bounded
// geometries. The visit function may mutate the payload through the pointer
// but must not insert or remove lines.
func (c *Cache[P]) ForEach(fn func(l memsys.Line, p *P)) {
	if c.unbounded != nil {
		c.unbounded.index.ForEach(func(i uint64, p **P) {
			if *p != nil {
				fn(memsys.Line(i), *p)
			}
		})
		return
	}
	for si, n := range c.count {
		set := c.lines[si*c.ways : si*c.ways+int(n)]
		for i := range set {
			fn(set[i].line, &set[i].payload)
		}
	}
}
