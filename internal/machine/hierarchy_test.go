package machine

import (
	"fmt"
	"testing"
	"testing/quick"

	"cord/internal/cache"
	"cord/internal/memsys"
	"cord/internal/trace"
)

// sameSet returns n distinct lines that share one L2 set, and so one L1 set.
func sameSet(n int) []memsys.Line {
	ls := make([]memsys.Line, n)
	for i := range ls {
		ls[i] = memsys.Line(5 + i*cache.L2.Sets())
	}
	return ls
}

// resident reports whether c holds l, without touching its recency.
func resident[P any](c *cache.Cache[P], l memsys.Line) bool {
	_, ok := c.Peek(l)
	return ok
}

// TestHierarchyInclusion: after any sequence of reads, writes and snooped
// invalidations over lines that collide in one L1 set, every L1-resident
// line is L2-resident, so every L2 victim has left the L1, without any
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
				h.access(l, op&3 == 1)
			}
			for _, x := range lines {
				if resident(&h.l1, x) && !resident(&h.l2, x) {
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
	if resident(&h.l1, ls[0]) {
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
	if resident(&h.l2, 5) || resident(&h.l1, 5) {
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
		if lvl, _, dirtyVictim := h.access(x[s.line], s.write); lvl != s.want || dirtyVictim {
			t.Fatalf("step %d: level %v (dirty victim %v), want %v", i, lvl, dirtyVictim, s.want)
		}
	}
	// Fill the L2 set with clean lines; LRU first, it now holds x2, x3
	// (clean), x0, x1, x4 (dirty), then x5..x7 (clean).
	for _, l := range x[5:cache.L2.Ways] {
		h.access(l, false)
	}
	for _, l := range x[:cache.L2.Ways] {
		if !resident(&h.l2, l) {
			t.Fatalf("line %d evicted from a set with a free way", l)
		}
	}
	next := cache.L2.Ways
	for _, want := range []struct {
		line  int
		dirty bool
	}{{2, false}, {3, false}, {0, true}, {1, true}, {4, true}, {5, false}} {
		_, _, dirtyVictim := h.access(x[next], false)
		next++
		if resident(&h.l2, x[want.line]) || dirtyVictim != want.dirty {
			t.Fatalf("victim line %d: resident %v, dirty %v, want evicted, dirty %v",
				x[want.line], resident(&h.l2, x[want.line]), dirtyVictim, want.dirty)
		}
	}
}

// exclusiveViolation describes a line some hierarchy of m marks exclusive
// while another hierarchy holds it, or returns "".
func exclusiveViolation(m *Machine) string {
	for p := range m.procs {
		msg := ""
		m.procs[p].l2.ForEach(func(l memsys.Line, ln *l2Line) {
			for q := range m.procs {
				if ln.excl && q != p && resident(&m.procs[q].l2, l) && msg == "" {
					msg = fmt.Sprintf("line %#x is exclusive at proc %d but also resident at proc %d", l, p, q)
				}
			}
		})
		if msg != "" {
			return msg
		}
	}
	return ""
}

// TestMachineExclusiveInvariant: after every access of any sequence of
// reads and writes from four processors to lines that collide in one L1 set
// (and so overflow both levels), a line marked exclusive is resident in no
// other hierarchy.
func TestMachineExclusiveInvariant(t *testing.T) {
	lines := make([]memsys.Line, 24)
	for i := range lines {
		lines[i] = memsys.Line(3 + i*cache.L1.Sets())
	}
	f := func(ops [300]uint8) bool {
		m := New(DefaultConfig())
		var now uint64
		for i, op := range ops {
			kind := trace.Read
			if op&1 != 0 {
				kind = trace.Write
			}
			proc := int(op>>1) & 3
			a := trace.Access{Proc: proc, Thread: proc, Addr: memsys.LineBase(lines[int(op>>3)%len(lines)]), Kind: kind}
			now += m.AccessCost(now, proc, a, trace.Report{})
			if msg := exclusiveViolation(m); msg != "" {
				t.Logf("after access %d: %s", i, msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestReadHitDoesNotClaimExclusive: a read hit makes no probe, so it must
// not mark a shared line exclusive; otherwise the write that follows would
// skip the probe, leave proc 1's copy resident and bill no upgrade.
func TestReadHitDoesNotClaimExclusive(t *testing.T) {
	m := New(DefaultConfig())
	m.AccessCost(0, 0, acc(0, 0x1000, trace.Read), trace.Report{})     // miss, no holder
	m.AccessCost(10000, 1, acc(1, 0x1000, trace.Read), trace.Report{}) // miss, shared
	m.AccessCost(20000, 0, acc(0, 0x1000, trace.Read), trace.Report{}) // L1 hit
	if msg := exclusiveViolation(m); msg != "" {
		t.Fatal(msg)
	}
	m.AccessCost(30000, 0, acc(0, 0x1000, trace.Write), trace.Report{})
	if resident(&m.procs[1].l2, memsys.LineOf(0x1000)) {
		t.Fatal("proc 0's write left proc 1's copy resident")
	}
	if st := m.Stats(); st.Upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1", st.Upgrades)
	}
}
