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
		c.Insert(l, i)
		want = append(want, l)
	}
	slices.Sort(want)
	for rep := 0; rep < 10; rep++ {
		if got := unboundedOrder(c); !slices.Equal(got, want) {
			t.Fatalf("rep %d: visited %v, want %v (ascending line order)", rep, got, want)
		}
	}
}

// TestUnboundedInsertOverwritesInPlace: inserting an already-resident line
// replaces its payload without adding a line or moving it in the order.
func TestUnboundedInsertOverwritesInPlace(t *testing.T) {
	c := NewUnbounded[int]()
	c.Insert(2, 20)
	c.Insert(1, 10)
	c.Insert(2, 21)
	got := unboundedOrder(c)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 || c.Len() != 2 {
		t.Fatalf("order after overwrite: %v (Len %d), want [1 2]", got, c.Len())
	}
	if p, _ := c.Lookup(2); *p != 21 {
		t.Fatalf("payload = %d, want 21", *p)
	}
}

// TestUnboundedMatchesReferenceModel is the unbounded counterpart of
// TestMatchesReferenceModel. Over random sequences of lookup-then-insert,
// plain inserts, removals, peeks and full traversals, on lines spread over
// several index pages, the cache must agree with a map of resident lines to
// payloads: Lookup, Peek and Contains see exactly the resident lines, Len
// follows Insert and Remove, ForEach visits every resident line once in
// ascending order with its payload, and a payload pointer from Lookup stays
// the line's own until the line is removed.
func TestUnboundedMatchesReferenceModel(t *testing.T) {
	f := func(seq [1024]uint16) bool {
		c := NewUnbounded[int]()
		ref := map[memsys.Line]int{}
		var held *int // pointer from the last Lookup hit, while its line is resident
		var heldLine memsys.Line
		for n, b := range seq {
			l := memsys.Line(int(b&0x1fff) % 48 * 61) // 48 lines over three index pages
			want, resident := ref[l]
			switch b >> 13 {
			case 0, 1, 2:
				p, hit := c.Lookup(l)
				if hit != resident {
					t.Logf("op %d: Lookup(%d) hit=%v, model %v", n, l, hit, resident)
					return false
				}
				if hit {
					if *p != want {
						return false
					}
					*p = n // write through the pointer
					ref[l] = n
					held, heldLine = p, l
				} else {
					c.Insert(l, n)
					ref[l] = n
				}
			case 3:
				c.Insert(l, n)
				ref[l] = n
			case 4, 5:
				p, ok := c.Remove(l)
				if ok != resident || ok && p != want {
					return false
				}
				delete(ref, l)
				if l == heldLine {
					held = nil
				}
			case 6:
				var lines []memsys.Line
				ok := true
				c.ForEach(func(l memsys.Line, p *int) {
					lines = append(lines, l)
					ok = ok && *p == ref[l]
				})
				keys := make([]memsys.Line, 0, len(ref))
				for l := range ref {
					keys = append(keys, l)
				}
				slices.Sort(keys)
				if !ok || !slices.Equal(lines, keys) {
					t.Logf("op %d: ForEach visited %v, model %v", n, lines, keys)
					return false
				}
			case 7:
				p, ok := c.Peek(l)
				if ok != resident || c.Contains(l) != ok || ok && *p != want {
					return false
				}
			}
			if c.Len() != len(ref) {
				t.Logf("op %d: Len %d, model %d", n, c.Len(), len(ref))
				return false
			}
			if held != nil && *held != ref[heldLine] {
				t.Logf("op %d: held pointer of line %d went stale", n, heldLine)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
