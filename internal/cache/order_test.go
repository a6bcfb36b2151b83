package cache

import (
	"slices"
	"testing"
	"testing/quick"

	"cord/internal/memsys"
)

// unboundedOrder records one ForEach traversal.
func unboundedOrder(c *Cache[int]) []memsys.Line {
	var got []memsys.Line
	c.ForEach(func(l memsys.Line, _ *int) { got = append(got, l) })
	return got
}

// TestUnboundedForEachDeterministicOrder is the regression test for the
// map-iteration-order bug: ForEach over an unbounded cache must visit lines
// in one fixed order, identically on every traversal — ascending line
// order, whatever order they were inserted in. The map-backed
// implementation followed Go's randomized range order, so repeated walks
// over the same 64-line cache disagreed with near certainty.
func TestUnboundedForEachDeterministicOrder(t *testing.T) {
	c := NewUnbounded[int]()
	// Insert in a scrambled, non-monotonic line order, over three index
	// pages.
	var want []memsys.Line
	for i := 0; i < 64; i++ {
		l := memsys.Line((i*37 + 11) % 97 * 31)
		put(&c, l, i)
		want = append(want, l)
	}
	slices.Sort(want)
	for rep := 0; rep < 10; rep++ {
		if got := unboundedOrder(&c); !slices.Equal(got, want) {
			t.Fatalf("rep %d: visited %v, want %v (ascending line order)", rep, got, want)
		}
	}
}

// TestUnboundedInsertOverwritesInPlace: inserting an already-resident line
// replaces its payload without adding a line or moving it in the order.
func TestUnboundedInsertOverwritesInPlace(t *testing.T) {
	c := NewUnbounded[int]()
	put(&c, 2, 20)
	put(&c, 1, 10)
	put(&c, 2, 21)
	got := unboundedOrder(&c)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("order after overwrite: %v, want [1 2]", got)
	}
	if p, _ := c.Lookup(2); *p != 21 {
		t.Fatalf("payload = %d, want 21", *p)
	}
}

// TestUnboundedMatchesReferenceModel runs the unbounded cache through
// runModel over long operation streams on lines spread over several index
// pages, where a payload pointer from Lookup must stay the line's own until
// the line is removed.
func TestUnboundedMatchesReferenceModel(t *testing.T) {
	g := modelGeometries[len(modelGeometries)-1]
	f := func(ops [1024]uint16) bool {
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
}
