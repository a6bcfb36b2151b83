package cache

import (
	"slices"
	"testing"
	"testing/quick"

	"cord/internal/memsys"
)

func TestConfigValidate(t *testing.T) {
	good := Config{SizeBytes: 32 << 10, Ways: 8}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Lines() != 512 || good.Sets() != 64 {
		t.Fatalf("geometry: lines=%d sets=%d", good.Lines(), good.Sets())
	}
	bad := []Config{
		{SizeBytes: 0, Ways: 4},
		{SizeBytes: 100, Ways: 4},     // not line multiple
		{SizeBytes: 64 * 12, Ways: 4}, // 3 sets, not a power of two
		{SizeBytes: 64 * 10, Ways: 3}, // lines not divisible by ways
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
}

func TestLRUWithinSet(t *testing.T) {
	// 1 set, 2 ways: direct observation of LRU order.
	c := New[int](Config{SizeBytes: 2 * 64, Ways: 2})
	c.Insert(1, 10)
	c.Insert(2, 20)
	c.Lookup(1) // 1 becomes MRU
	v, evicted := c.Insert(3, 30)
	if !evicted || v.Line != 2 || v.Payload != 20 {
		t.Fatalf("victim = %+v (evicted=%v), want line 2", v, evicted)
	}
	if !c.Contains(1) || !c.Contains(3) || c.Contains(2) {
		t.Fatal("wrong contents after eviction")
	}
}

func TestInsertExistingReplacesPayload(t *testing.T) {
	c := New[int](Config{SizeBytes: 2 * 64, Ways: 2})
	c.Insert(1, 10)
	if _, ev := c.Insert(1, 11); ev {
		t.Fatal("re-insert evicted")
	}
	p, ok := c.Lookup(1)
	if !ok || *p != 11 {
		t.Fatal("payload not replaced")
	}
	if c.Len() != 1 {
		t.Fatal("duplicate entries")
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	c := New[int](Config{SizeBytes: 2 * 64, Ways: 2})
	c.Insert(1, 10)
	c.Insert(2, 20)
	c.Peek(1) // must NOT promote line 1
	v, evicted := c.Insert(3, 30)
	if !evicted || v.Line != 1 {
		t.Fatalf("victim = %v, want line 1 (peek promoted)", v.Line)
	}
}

func TestRemove(t *testing.T) {
	c := New[int](Config{SizeBytes: 4 * 64, Ways: 4})
	c.Insert(7, 70)
	p, ok := c.Remove(7)
	if !ok || p != 70 {
		t.Fatal("remove payload wrong")
	}
	if _, ok := c.Remove(7); ok {
		t.Fatal("double remove succeeded")
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	c := NewUnbounded[int]()
	for i := 0; i < 10000; i++ {
		if _, ev := c.Insert(memsys.Line(i), i); ev {
			t.Fatal("unbounded cache evicted")
		}
	}
	if c.Len() != 10000 {
		t.Fatalf("Len = %d", c.Len())
	}
}

// TestForEachAndRemove: ForEach visits every resident line of a bounded
// cache once, in set-then-recency order, and stops visiting removed lines.
func TestForEachAndRemove(t *testing.T) {
	c := New[int](Config{SizeBytes: 8 * 64, Ways: 2}) // 4 sets x 2 ways
	for i := 0; i < 8; i++ {
		c.Insert(memsys.Line(i), i)
	}
	sum := 0
	c.ForEach(func(l memsys.Line, p *int) { sum += *p })
	if sum != 28 {
		t.Fatalf("ForEach sum = %d", sum)
	}
	removedPayload := 0
	for i := 0; i < 8; i += 2 {
		p, ok := c.Remove(memsys.Line(i))
		if !ok {
			t.Fatalf("Remove(%d) missed a resident line", i)
		}
		removedPayload += p
	}
	if removedPayload != 12 || c.Len() != 4 {
		t.Fatalf("removed payload sum %d, Len %d", removedPayload, c.Len())
	}
	var got []memsys.Line
	c.ForEach(func(l memsys.Line, _ *int) { got = append(got, l) })
	if want := []memsys.Line{5, 1, 7, 3}; !slices.Equal(got, want) {
		t.Fatalf("ForEach after Remove visited %v, want %v", got, want)
	}
}

// referenceLRU is a trivially correct model: per set, a slice in MRU order.
type referenceLRU struct {
	sets map[int][]memsys.Line
	ways int
	nset int
}

func (r *referenceLRU) access(l memsys.Line) (victim memsys.Line, evicted bool) {
	si := int(uint64(l) % uint64(r.nset))
	set := r.sets[si]
	for i, x := range set {
		if x == l {
			set = append(append([]memsys.Line{l}, set[:i]...), set[i+1:]...)
			r.sets[si] = set
			return 0, false
		}
	}
	set = append([]memsys.Line{l}, set...)
	if len(set) > r.ways {
		victim = set[len(set)-1]
		set = set[:len(set)-1]
		evicted = true
	}
	r.sets[si] = set
	return victim, evicted
}

// Property: the cache matches the reference model over random access
// sequences (lookup-then-insert, the detector's usage pattern).
func TestMatchesReferenceModel(t *testing.T) {
	cfg := Config{SizeBytes: 8 * 64, Ways: 2} // 4 sets x 2 ways
	f := func(seq [64]uint8) bool {
		c := New[struct{}](cfg)
		ref := &referenceLRU{sets: map[int][]memsys.Line{}, ways: 2, nset: 4}
		for _, b := range seq {
			l := memsys.Line(b % 32)
			_, hit := c.Lookup(l)
			var victim Victim[struct{}]
			var ev bool
			if !hit {
				victim, ev = c.Insert(l, struct{}{})
			}
			rv, rev := ref.access(l)
			if hit == rev {
				// A hit in one model must not evict in the other; a miss
				// may or may not evict depending on occupancy, checked
				// below.
			}
			if ev != (rev && !hit) {
				return false
			}
			if ev && victim.Line != rv {
				return false
			}
		}
		// Final contents must agree.
		total := 0
		for _, set := range ref.sets {
			total += len(set)
			for _, l := range set {
				if !c.Contains(l) {
					return false
				}
			}
		}
		return c.Len() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	cfg := Config{SizeBytes: 16 * 64, Ways: 4}
	f := func(seq [128]uint16) bool {
		c := New[int](cfg)
		for i, b := range seq {
			c.Insert(memsys.Line(b), i)
			if c.Len() > cfg.Lines() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
