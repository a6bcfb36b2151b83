package cache

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"cord/internal/memsys"
)

// put inserts line l with payload v.
func put[P any](c *Cache[P], l memsys.Line, v P) {
	slot, _ := c.Insert(l)
	*slot = v
}

// resident reports whether c holds l, without touching its recency.
func resident[P any](c *Cache[P], l memsys.Line) bool {
	_, ok := c.Peek(l)
	return ok
}

// size returns the number of resident lines.
func size[P any](c *Cache[P]) int {
	n := 0
	c.ForEach(func(memsys.Line, *P) { n++ })
	return n
}

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
	put(&c, 1, 10)
	put(&c, 2, 20)
	c.Lookup(1) // 1 becomes MRU
	slot, v := c.Insert(3)
	if v == nil || *v != 20 {
		t.Fatalf("victim = %v, want line 2's payload 20", v)
	}
	*slot = 30
	if !resident(&c, 1) || !resident(&c, 3) || resident(&c, 2) {
		t.Fatal("wrong contents after eviction")
	}
}

func TestInsertExistingReplacesPayload(t *testing.T) {
	c := New[int](Config{SizeBytes: 2 * 64, Ways: 2})
	put(&c, 1, 10)
	slot, v := c.Insert(1)
	if v != nil {
		t.Fatal("re-insert evicted")
	}
	if *slot != 0 {
		t.Fatalf("re-inserted slot holds %d, want it zeroed", *slot)
	}
	*slot = 11
	p, ok := c.Lookup(1)
	if !ok || *p != 11 {
		t.Fatal("payload not replaced")
	}
	if size(&c) != 1 {
		t.Fatal("duplicate entries")
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	c := New[int](Config{SizeBytes: 2 * 64, Ways: 2})
	put(&c, 1, 10)
	put(&c, 2, 20)
	c.Peek(1) // must NOT promote line 1
	if _, v := c.Insert(3); v == nil || *v != 10 {
		t.Fatalf("victim = %v, want line 1's payload 10 (peek promoted)", v)
	}
}

func TestRemove(t *testing.T) {
	c := New[int](Config{SizeBytes: 4 * 64, Ways: 4})
	put(&c, 7, 70)
	if p := c.Remove(7); p == nil || *p != 70 {
		t.Fatal("remove payload wrong")
	}
	if c.Remove(7) != nil {
		t.Fatal("double remove succeeded")
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	c := NewUnbounded[int]()
	for i := 0; i < 10000; i++ {
		slot, v := c.Insert(memsys.Line(i))
		if v != nil {
			t.Fatal("unbounded cache evicted")
		}
		*slot = i
	}
	if n := size(&c); n != 10000 {
		t.Fatalf("%d lines resident", n)
	}
}

// TestForEachAndRemove: ForEach visits every resident line of a bounded
// cache once, in set-then-recency order, and stops visiting removed lines.
func TestForEachAndRemove(t *testing.T) {
	c := New[int](Config{SizeBytes: 8 * 64, Ways: 2}) // 4 sets x 2 ways
	for i := 0; i < 8; i++ {
		put(&c, memsys.Line(i), i)
	}
	sum := 0
	c.ForEach(func(l memsys.Line, p *int) { sum += *p })
	if sum != 28 {
		t.Fatalf("ForEach sum = %d", sum)
	}
	removedPayload := 0
	for i := 0; i < 8; i += 2 {
		p := c.Remove(memsys.Line(i))
		if p == nil {
			t.Fatalf("Remove(%d) missed a resident line", i)
		}
		removedPayload += *p
	}
	if removedPayload != 12 || size(&c) != 4 {
		t.Fatalf("removed payload sum %d, %d lines resident", removedPayload, size(&c))
	}
	var got []memsys.Line
	c.ForEach(func(l memsys.Line, _ *int) { got = append(got, l) })
	if want := []memsys.Line{5, 1, 7, 3}; !slices.Equal(got, want) {
		t.Fatalf("ForEach after Remove visited %v, want %v", got, want)
	}
}

// refEntry is one resident line of the reference model.
type refEntry struct {
	line    memsys.Line
	payload uint64
}

// refCache is a trivially correct model of a Cache[uint64]: per set, a
// slice in MRU order. ways 0 models the unbounded cache: one set that never
// evicts, traversed in ascending line order.
type refCache struct {
	sets map[int][]refEntry
	ways int
	nset int
}

func newRefCache(cfg Config) *refCache {
	return &refCache{sets: map[int][]refEntry{}, ways: cfg.Ways, nset: cfg.Sets()}
}

func newRefUnbounded() *refCache {
	return &refCache{sets: map[int][]refEntry{}, nset: 1}
}

func (r *refCache) find(l memsys.Line) (si, i int) {
	si = int(uint64(l) % uint64(r.nset))
	for i, e := range r.sets[si] {
		if e.line == l {
			return si, i
		}
	}
	return si, -1
}

func (r *refCache) get(l memsys.Line) (uint64, bool) {
	si, i := r.find(l)
	if i < 0 {
		return 0, false
	}
	return r.sets[si][i].payload, true
}

// insert makes l the MRU line of its set with the given payload, and
// returns the line it displaced, if any.
func (r *refCache) insert(l memsys.Line, payload uint64) (victim refEntry, evicted bool) {
	si, i := r.find(l)
	set := r.sets[si]
	if i >= 0 {
		set = slices.Delete(set, i, i+1)
	}
	set = slices.Insert(set, 0, refEntry{l, payload})
	if r.ways > 0 && len(set) > r.ways {
		victim, evicted = set[len(set)-1], true
		set = set[:len(set)-1]
	}
	r.sets[si] = set
	return victim, evicted
}

func (r *refCache) remove(l memsys.Line) {
	if si, i := r.find(l); i >= 0 {
		r.sets[si] = slices.Delete(r.sets[si], i, i+1)
	}
}

// order lists the resident lines in the order ForEach must visit them:
// set by set, MRU first, or ascending line order when unbounded.
func (r *refCache) order() []refEntry {
	var all []refEntry
	for si := 0; si < r.nset; si++ {
		all = append(all, r.sets[si]...)
	}
	if r.ways == 0 {
		slices.SortFunc(all, func(a, b refEntry) int { return cmp.Compare(a.line, b.line) })
	}
	return all
}

// runModel drives c and the model r through ops and reports the first
// disagreement. Each op's top three bits pick the operation and its low
// thirteen bits, through lineOf, the line:
//   - 0-2: Lookup, and Insert on a miss (the detectors' pattern); a hit
//     must find the model's payload, and is then written through;
//   - 3: Insert, of a resident line or not;
//   - 4, 5: Remove, which must hand back the model's payload;
//   - 6: ForEach, which must visit the model's lines in its order;
//   - 7: Peek, which must find the model's payload and promote nothing.
//
// Every Insert must hand back a zeroed slot, which is then filled with
// the op's number, and a victim exactly when the model evicts, holding the
// evicted line's last payload. A victim or removed copy must keep that
// payload until the next Insert or Remove. In a bounded cache every way
// past a set's resident lines must be zero, so no stale payload survives
// its line; in an unbounded cache a pointer from Lookup must stay the
// line's own until the line is removed.
func runModel(c *Cache[uint64], r *refCache, lineOf func(uint16) memsys.Line, ops []uint16) error {
	var copied *uint64 // Insert's victim or Remove's copy, until the next Insert or Remove
	var copiedWant uint64
	var held *uint64 // unbounded only: the last Lookup hit's pointer, while its line is resident
	var heldLine memsys.Line
	insert := func(n int, l memsys.Line) error {
		slot, v := c.Insert(l)
		if *slot != 0 {
			return fmt.Errorf("op %d: Insert(%d) slot holds %d, want zero", n, l, *slot)
		}
		rv, evicted := r.insert(l, uint64(n+1))
		if (v != nil) != evicted || evicted && *v != rv.payload {
			return fmt.Errorf("op %d: Insert(%d) victim %v, model evicted %v (line %d payload %d)",
				n, l, v, evicted, rv.line, rv.payload)
		}
		*slot = uint64(n + 1)
		copied, copiedWant = v, rv.payload
		return nil
	}
	for n, b := range ops {
		l := lineOf(b & 0x1fff)
		want, res := r.get(l)
		switch b >> 13 {
		case 0, 1, 2:
			p, hit := c.Lookup(l)
			if hit != res {
				return fmt.Errorf("op %d: Lookup(%d) hit %v, model %v", n, l, hit, res)
			}
			if !hit {
				if err := insert(n, l); err != nil {
					return err
				}
				break
			}
			if *p != want {
				return fmt.Errorf("op %d: Lookup(%d) payload %d, model %d", n, l, *p, want)
			}
			*p = uint64(n + 1)
			r.insert(l, uint64(n+1))
			if c.unbounded != nil {
				held, heldLine = p, l
			}
		case 3:
			if err := insert(n, l); err != nil {
				return err
			}
		case 4, 5:
			p := c.Remove(l)
			if (p != nil) != res || res && *p != want {
				return fmt.Errorf("op %d: Remove(%d) = %v, model resident %v payload %d", n, l, p, res, want)
			}
			r.remove(l)
			copied, copiedWant = p, want
			if l == heldLine {
				held = nil
			}
		case 6:
			var got []refEntry
			c.ForEach(func(l memsys.Line, p *uint64) { got = append(got, refEntry{l, *p}) })
			if want := r.order(); !slices.Equal(got, want) {
				return fmt.Errorf("op %d: ForEach visited %v, model %v", n, got, want)
			}
		case 7:
			p, ok := c.Peek(l)
			if ok != res || ok && *p != want {
				return fmt.Errorf("op %d: Peek(%d) found %v, model resident %v payload %d", n, l, ok, res, want)
			}
		}
		if copied != nil && *copied != copiedWant {
			return fmt.Errorf("op %d: victim copy changed to %d before the next Insert or Remove, want %d", n, *copied, copiedWant)
		}
		if held != nil {
			if v, _ := r.get(heldLine); *held != v {
				return fmt.Errorf("op %d: held pointer of line %d went stale", n, heldLine)
			}
		}
		for si, cnt := range c.count {
			for w := int(cnt); w < c.ways; w++ {
				if e := c.lines[si*c.ways+w]; e != (entry[uint64]{}) {
					return fmt.Errorf("op %d: set %d way %d past its %d lines holds %+v", n, si, w, cnt, e)
				}
			}
		}
	}
	var got []refEntry
	c.ForEach(func(l memsys.Line, p *uint64) { got = append(got, refEntry{l, *p}) })
	if want := r.order(); !slices.Equal(got, want) {
		return fmt.Errorf("end: ForEach visited %v, model %v", got, want)
	}
	return nil
}

// modelGeometry is one cache shape the model tests run, with a line
// mapping that makes its sets overflow.
type modelGeometry struct {
	name   string
	newc   func() (Cache[uint64], *refCache)
	lineOf func(uint16) memsys.Line
}

// collide maps an op's line bits to 20 lines in each of three sets of a
// bounded geometry, so every set it touches overflows.
func collide(cfg Config) func(uint16) memsys.Line {
	return func(b uint16) memsys.Line {
		k := int(b) % 60
		return memsys.Line(k%3 + k/3*cfg.Sets())
	}
}

func bounded(cfg Config) func() (Cache[uint64], *refCache) {
	return func() (Cache[uint64], *refCache) { return New[uint64](cfg), newRefCache(cfg) }
}

var modelGeometries = []modelGeometry{
	{"4x2", bounded(Config{SizeBytes: 8 * 64, Ways: 2}), func(b uint16) memsys.Line { return memsys.Line(b % 32) }},
	{"L1", bounded(L1), collide(L1)},
	{"L2", bounded(L2), collide(L2)},
	// 48 lines over three index pages.
	{"unbounded", func() (Cache[uint64], *refCache) { return NewUnbounded[uint64](), newRefUnbounded() },
		func(b uint16) memsys.Line { return memsys.Line(int(b) % 48 * 61) }},
}

// TestMatchesReferenceModel: over random operation streams, every geometry
// the simulator uses (and a tiny one) agrees with the reference model in
// residency, LRU order, payloads, victims and ForEach order, and keeps the
// slot, victim and removed-copy contracts of runModel.
func TestMatchesReferenceModel(t *testing.T) {
	for _, g := range modelGeometries {
		t.Run(g.name, func(t *testing.T) {
			f := func(ops [256]uint16) bool {
				c, r := g.newc()
				if err := runModel(&c, r, g.lineOf, ops[:]); err != nil {
					t.Log(err)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

// FuzzCacheModel runs runModel over fuzzed operation streams: the first
// byte picks the geometry, and each following pair of bytes is one op.
func FuzzCacheModel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 1, 0, 0, 0xc0, 5, 0})
	f.Add([]byte{1, 0, 0x60, 3, 0x60, 6, 0x60, 9, 0x60, 12, 0x60, 0, 0xe0, 0, 0xa0, 0, 0xc0})
	f.Add([]byte{2, 7, 0, 7, 0x80, 7, 0xe0, 7, 0x60, 7, 0xc0})
	f.Add([]byte{3, 5, 0, 5, 0x60, 5, 0x80, 5, 0xe0, 5, 0xc0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := modelGeometries[int(data[0])%len(modelGeometries)]
		data = data[1:]
		ops := make([]uint16, min(len(data)/2, 4096))
		for i := range ops {
			ops[i] = binary.LittleEndian.Uint16(data[2*i:])
		}
		c, r := g.newc()
		if err := runModel(&c, r, g.lineOf, ops); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
	})
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	cfg := Config{SizeBytes: 16 * 64, Ways: 4}
	f := func(seq [128]uint16) bool {
		c := New[int](cfg)
		for i, b := range seq {
			put(&c, memsys.Line(b), i)
			if size(&c) > cfg.Lines() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestBoundedNeverReallocates: a bounded cache's lines live in one array
// that New allocates, so filling a new cache, evicting, removing and
// reinserting lines allocates nothing beyond New's own allocations.
func TestBoundedNeverReallocates(t *testing.T) {
	var c Cache[[4]uint64]
	build := func() { c = New[[4]uint64](L2) }
	churn := func() {
		build()
		for i := 0; i < 3*L2.Lines(); i++ {
			l := memsys.Line(i * 7)
			put(&c, l, [4]uint64{uint64(i)})
			if i%5 == 0 {
				c.Remove(l)
			}
		}
	}
	if n, base := testing.AllocsPerRun(5, churn), testing.AllocsPerRun(5, build); n != base {
		t.Fatalf("filling and churning a new cache: %v allocations, New alone %v", n, base)
	}
}
