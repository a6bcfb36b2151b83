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
// contract) without one heap allocation per insert. ForEach walks the index,
// so its order is ascending line order: a pure function of the lines
// resident, reproducible across runs and processes.
type unboundedStore[P any] struct {
	index memsys.Table[*P]
	arena []P // current allocation chunk
	n     int // resident lines
}

func (u *unboundedStore[P]) alloc() *P {
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
type Cache[P any] struct {
	sets      [][]entry[P] // each set is MRU-first
	ways      int
	setMask   uint64 // sets-1: Validate guarantees a power-of-two set count
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
func New[P any](cfg Config) *Cache[P] {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// Every set is carved from one backing array with its capacity capped
	// at the associativity, so neither Insert nor Remove ever reallocates.
	backing := make([]entry[P], cfg.Lines())
	sets := make([][]entry[P], cfg.Sets())
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &Cache[P]{
		sets:    sets,
		ways:    cfg.Ways,
		setMask: uint64(cfg.Sets() - 1),
	}
}

// NewUnbounded returns a cache that never evicts.
func NewUnbounded[P any]() *Cache[P] {
	return &Cache[P]{unbounded: &unboundedStore[P]{}}
}

func (c *Cache[P]) setOf(l memsys.Line) int { return int(uint64(l) & c.setMask) }

// Lookup returns a pointer to the payload of line l if resident, promoting it
// to most-recently-used.
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
	set := c.sets[c.setOf(l)]
	for i := range set {
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
	set := c.sets[c.setOf(l)]
	for i := range set {
		if set[i].line == l {
			return &set[i].payload, true
		}
	}
	return nil, false
}

// Contains reports residency without touching recency.
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
		if *slot == nil {
			*slot = u.alloc()
			u.n++
		}
		**slot = payload
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
	return v, true
}

// Remove deletes line l (invalidation), returning its payload if resident.
func (c *Cache[P]) Remove(l memsys.Line) (P, bool) {
	var zero P
	if c.unbounded != nil {
		u := c.unbounded
		p := u.index.Get(uint64(l))
		if p == nil {
			return zero, false
		}
		*u.index.Ref(uint64(l)) = nil
		u.n--
		v := *p
		*p = zero // release the payload's references for the GC
		return v, true
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
		return u.n
	}
	n := 0
	for _, s := range c.sets {
		n += len(s)
	}
	return n
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
	for _, set := range c.sets {
		for i := range set {
			fn(set[i].line, &set[i].payload)
		}
	}
}
