package machine

import (
	"testing"
	"testing/quick"

	"cord/internal/cache"
	"cord/internal/memsys"
)

// sameSet returns n distinct lines that share one L2 set, and so one L1 set.
func sameSet(n int) []memsys.Line {
	ls := make([]memsys.Line, n)
	for i := range ls {
		ls[i] = memsys.Line(5 + i*cache.L2.Sets())
	}
	return ls
}

// TestHierarchyInclusion: after any sequence of reads, writes and snooped
// invalidations over lines that collide in one L1 set, every L1-resident
// line is L2-resident, and every L2 victim has left the L1, without any
// back-invalidation.
func TestHierarchyInclusion(t *testing.T) {
	// The geometry hierarchy.access relies on.
	if cache.L2.Sets()%cache.L1.Sets() != 0 || cache.L2.Ways <= cache.L1.Ways {
		t.Fatalf("L1 %+v does not nest in L2 %+v", cache.L1, cache.L2)
	}
	// 24 lines, one L1 set, split over two L2 sets: both levels overflow.
	lines := make([]memsys.Line, 24)
	for i := range lines {
		lines[i] = memsys.Line(3 + i*cache.L1.Sets())
	}
	f := func(ops [200]uint8) bool {
		h := newHierarchy()
		for _, op := range ops {
			l := lines[int(op>>2)%len(lines)]
			switch op & 3 {
			case 0:
				h.invalidate(l)
			default:
				if _, v, evicted := h.access(l, op&3 == 1); evicted && h.l1.Contains(v.Line) {
					return false
				}
			}
			for _, x := range lines {
				if h.l1.Contains(x) && !h.contains(x) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := newHierarchy()
	ls := sameSet(cache.L1.Ways + 1)
	if lvl, _, _ := h.access(ls[0], false); lvl != missLevel {
		t.Fatalf("first access level = %v", lvl)
	}
	if lvl, _, _ := h.access(ls[0], false); lvl != l1Hit {
		t.Fatalf("second access level = %v", lvl)
	}
	// Push ls[0] out of its L1 set but keep it in the wider L2 set.
	for _, l := range ls[1:] {
		h.access(l, false)
	}
	if h.l1.Contains(ls[0]) {
		t.Fatal("line survived a full L1 set of newer lines")
	}
	if lvl, _, _ := h.access(ls[0], false); lvl != l2Hit {
		t.Fatalf("expected L2 hit, got %v", lvl)
	}
}

func TestHierarchyInvalidate(t *testing.T) {
	h := newHierarchy()
	h.access(5, false)
	if dirty, ok := h.invalidate(5); !ok || dirty {
		t.Fatalf("invalidate of a clean resident line = (dirty %v, ok %v)", dirty, ok)
	}
	if h.contains(5) || h.l1.Contains(5) {
		t.Fatal("line survived invalidation")
	}
	if _, ok := h.invalidate(5); ok {
		t.Fatal("invalidate hit absent line")
	}
	h.access(6, true)
	if dirty, ok := h.invalidate(6); !ok || !dirty {
		t.Fatalf("invalidate of a written line = (dirty %v, ok %v)", dirty, ok)
	}
}

// TestHierarchyDirtyBit: a write marks the L2 line dirty on every path — miss,
// L2 hit and L1 hit — later reads keep the bit, and the L2 victim carries it.
func TestHierarchyDirtyBit(t *testing.T) {
	h := newHierarchy()
	x := sameSet(cache.L2.Ways + 6)
	steps := []struct {
		line  int
		write bool
		want  hitLevel
	}{
		{0, true, missLevel}, // written on a miss
		{1, false, missLevel},
		{2, false, missLevel},
		{3, false, missLevel},
		{4, false, missLevel}, // x0 leaves the L1
		{0, false, l2Hit},     // a read must not clear x0's bit
		{1, true, l2Hit},      // written on an L2 hit
		{4, true, l1Hit},      // written on an L1 hit
	}
	for i, s := range steps {
		if lvl, _, evicted := h.access(x[s.line], s.write); lvl != s.want || evicted {
			t.Fatalf("step %d: level %v (evicted %v), want %v", i, lvl, evicted, s.want)
		}
	}
	// Fill the L2 set with clean lines; LRU first, it now holds x2, x3
	// (clean), x0, x1, x4 (dirty), then x5..x7 (clean).
	for _, l := range x[5:cache.L2.Ways] {
		if _, _, evicted := h.access(l, false); evicted {
			t.Fatalf("line %d evicted from a set with a free way", l)
		}
	}
	next := cache.L2.Ways
	for _, want := range []struct {
		line  int
		dirty bool
	}{{2, false}, {3, false}, {0, true}, {1, true}, {4, true}, {5, false}} {
		_, v, evicted := h.access(x[next], false)
		next++
		if !evicted || v.Line != x[want.line] || v.Payload != want.dirty {
			t.Fatalf("victim = %+v (evicted %v), want line %d dirty %v", v, evicted, x[want.line], want.dirty)
		}
	}
}
