package cache

import "cord/internal/memsys"

// HitLevel classifies where an access was satisfied in a private hierarchy.
type HitLevel int

// Possible outcomes of a hierarchy access.
const (
	L1Hit HitLevel = iota
	L2Hit
	MissLevel // not present anywhere in this hierarchy
)

// String names the level for diagnostics.
func (h HitLevel) String() string {
	switch h {
	case L1Hit:
		return "L1"
	case L2Hit:
		return "L2"
	default:
		return "miss"
	}
}

// Hierarchy is one processor's private, inclusive two-level cache (8 KB L1,
// 32 KB L2 in the paper's reduced configuration). It tracks presence plus a
// dirty bit in each L2 line; the detectors keep their own payload-bearing
// caches, and the timing model uses Hierarchy to price each access.
type Hierarchy struct {
	l1 *Cache[struct{}]
	l2 *Cache[bool] // payload: the line is dirty
}

// HierarchyConfig sizes both levels.
type HierarchyConfig struct {
	L1 Config
	L2 Config
}

// DefaultHierarchy is the paper's reduced-size per-processor configuration
// (§3.1): 8 KB L1, 32 KB L2, 64-byte lines.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1: Config{SizeBytes: 8 << 10, Ways: 4},
		L2: Config{SizeBytes: 32 << 10, Ways: 8},
	}
}

// NewHierarchy builds an empty hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		l1: New[struct{}](cfg.L1),
		l2: New[bool](cfg.L2),
	}
}

// Access touches line l, returning where it hit, and installs it in both
// levels (inclusive); a write marks the line dirty. Evictions from L2
// back-invalidate L1 to preserve inclusion. The returned victim, when
// evicted is true, is the line the L2 displaced, with its dirty bit.
func (h *Hierarchy) Access(l memsys.Line, write bool) (level HitLevel, victim Victim[bool], evicted bool) {
	level = L1Hit
	if _, ok := h.l1.Lookup(l); !ok {
		level = L2Hit
	}
	// An L1 hit implies L2 residency (inclusion). Lookup refreshes the L2
	// copy's recency; Insert would also clear its dirty bit.
	if dirty, ok := h.l2.Lookup(l); ok {
		*dirty = *dirty || write
	} else {
		level = MissLevel
		if victim, evicted = h.l2.Insert(l, write); evicted {
			h.l1.Remove(victim.Line) // back-invalidate for inclusion
		}
	}
	if level != L1Hit {
		h.l1.Insert(l, struct{}{}) // L1 victims stay in L2
	}
	return level, victim, evicted
}

// Invalidate removes l from both levels (snooped remote write), reporting
// whether the dropped copy was dirty and whether l was resident at all.
func (h *Hierarchy) Invalidate(l memsys.Line) (dirty, ok bool) {
	h.l1.Remove(l)
	return h.l2.Remove(l)
}

// Contains reports whether l is resident in the L2 (and hence the hierarchy).
func (h *Hierarchy) Contains(l memsys.Line) bool { return h.l2.Contains(l) }

// L1Contains reports L1 residency.
func (h *Hierarchy) L1Contains(l memsys.Line) bool { return h.l1.Contains(l) }

// Stats returns (l1Hits, l1Misses, l2Hits, l2Misses).
func (h *Hierarchy) Stats() (uint64, uint64, uint64, uint64) {
	h1, m1, _ := h.l1.Stats()
	h2, m2, _ := h.l2.Stats()
	return h1, m1, h2, m2
}
