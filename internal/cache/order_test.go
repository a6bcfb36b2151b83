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
// in insertion order, identically on every traversal. The map-backed
// implementation followed Go's randomized range order, so repeated walks
// over the same 64-line cache disagreed with near certainty.
func TestUnboundedForEachDeterministicOrder(t *testing.T) {
	c := NewUnbounded[int]()
	// Insert in a scrambled, non-monotonic line order.
	var want []memsys.Line
	for i := 0; i < 64; i++ {
		l := memsys.Line((i*37 + 11) % 97)
		c.Insert(l, i)
		want = append(want, l)
	}
	for rep := 0; rep < 10; rep++ {
		got := unboundedOrder(c)
		if len(got) != len(want) {
			t.Fatalf("rep %d: visited %d lines, want %d", rep, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rep %d: position %d = %v, want %v (insertion order)", rep, i, got[i], want[i])
			}
		}
	}
}

// TestUnboundedRemoveIfDeterministicOrder: retirement callbacks (the §2.7.5
// walker path) must fire in insertion order too.
func TestUnboundedRemoveIfDeterministicOrder(t *testing.T) {
	build := func() *Cache[int] {
		c := NewUnbounded[int]()
		for i := 0; i < 50; i++ {
			c.Insert(memsys.Line((i*13+7)%61), i)
		}
		return c
	}
	var first []memsys.Line
	for rep := 0; rep < 10; rep++ {
		c := build()
		var removedOrder []memsys.Line
		removed := c.RemoveIf(
			func(_ memsys.Line, p *int) bool { return *p%2 == 0 },
			func(l memsys.Line, _ int) { removedOrder = append(removedOrder, l) },
		)
		if removed != 25 || len(removedOrder) != 25 {
			t.Fatalf("rep %d: removed %d (%d callbacks), want 25", rep, removed, len(removedOrder))
		}
		if first == nil {
			first = removedOrder
			continue
		}
		for i := range first {
			if removedOrder[i] != first[i] {
				t.Fatalf("rep %d: removal order diverged at %d: %v vs %v", rep, i, removedOrder[i], first[i])
			}
		}
	}
}

// TestUnboundedReinsertMovesToEnd: removing a line and inserting it again
// places it at the end of the iteration order (a fresh insertion), and the
// store survives heavy churn with tombstone compaction.
func TestUnboundedReinsertMovesToEnd(t *testing.T) {
	c := NewUnbounded[int]()
	for i := 0; i < 8; i++ {
		c.Insert(memsys.Line(i), i)
	}
	if _, ok := c.Remove(2); !ok {
		t.Fatal("remove missed resident line")
	}
	c.Insert(2, 99)
	got := unboundedOrder(c)
	want := []memsys.Line{0, 1, 3, 4, 5, 6, 7, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order after re-insert: %v, want %v", got, want)
		}
	}
	if p, ok := c.Lookup(2); !ok || *p != 99 {
		t.Fatal("re-inserted payload lost")
	}

	// Churn far past the compaction threshold; residency must stay exact.
	for i := 0; i < 10_000; i++ {
		l := memsys.Line(i % 64)
		c.Remove(l)
		c.Insert(l, i)
	}
	if c.Len() != 64 {
		t.Fatalf("after churn Len = %d, want 64", c.Len())
	}
	if got := unboundedOrder(c); len(got) != 64 {
		t.Fatalf("ForEach visited %d lines after churn, want 64", len(got))
	}
}

// TestUnboundedInsertOverwritesInPlace: inserting an already-resident line
// replaces its payload without disturbing its iteration position.
func TestUnboundedInsertOverwritesInPlace(t *testing.T) {
	c := NewUnbounded[int]()
	c.Insert(1, 10)
	c.Insert(2, 20)
	c.Insert(1, 11)
	got := unboundedOrder(c)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("order after overwrite: %v, want [1 2]", got)
	}
	if p, _ := c.Lookup(1); *p != 11 {
		t.Fatalf("payload = %d, want 11", *p)
	}
}

// ubRef is the reference model of the unbounded cache: resident lines with
// their payloads, in insertion order.
type ubRef struct {
	lines    []memsys.Line
	payloads []int
}

func (r *ubRef) find(l memsys.Line) int { return slices.Index(r.lines, l) }

func (r *ubRef) remove(i int) {
	r.lines = slices.Delete(r.lines, i, i+1)
	r.payloads = slices.Delete(r.payloads, i, i+1)
}

// TestUnboundedMatchesReferenceModel is the unbounded counterpart of
// TestMatchesReferenceModel. Over random sequences of lookup-then-insert,
// plain inserts, removals, predicate removals and peeks, on lines spread
// over several index pages, the cache must agree with an insertion-ordered
// list: ForEach and RemoveIf visit lines in insertion order, Len follows
// Remove and RemoveIf, a re-inserted line moves to the end, an insert over
// a resident line keeps its place, and a payload pointer from Lookup stays
// the line's own until the line is removed.
func TestUnboundedMatchesReferenceModel(t *testing.T) {
	f := func(seq [1024]uint16) bool {
		c := NewUnbounded[int]()
		ref := &ubRef{}
		var held *int // pointer from the last Lookup hit, while its line is resident
		var heldLine memsys.Line
		for n, b := range seq {
			l := memsys.Line(int(b&0x1fff) % 48 * 61) // 48 lines over three index pages
			i := ref.find(l)
			switch b >> 13 {
			case 0, 1, 2:
				p, hit := c.Lookup(l)
				if hit != (i >= 0) {
					t.Logf("op %d: Lookup(%d) hit=%v, model %v", n, l, hit, i >= 0)
					return false
				}
				if hit {
					if *p != ref.payloads[i] {
						return false
					}
					*p = n // write through the pointer
					ref.payloads[i] = n
					held, heldLine = p, l
				} else {
					c.Insert(l, n)
					ref.lines, ref.payloads = append(ref.lines, l), append(ref.payloads, n)
				}
			case 3:
				c.Insert(l, n)
				if i >= 0 {
					ref.payloads[i] = n
				} else {
					ref.lines, ref.payloads = append(ref.lines, l), append(ref.payloads, n)
				}
			case 4, 5:
				p, ok := c.Remove(l)
				if ok != (i >= 0) || ok && p != ref.payloads[i] {
					return false
				}
				if ok {
					ref.remove(i)
					if l == heldLine {
						held = nil
					}
				}
			case 6:
				var got []memsys.Line
				removed := c.RemoveIf(
					func(_ memsys.Line, p *int) bool { return *p%3 == 0 },
					func(l memsys.Line, _ int) { got = append(got, l) })
				var want []memsys.Line
				for j := 0; j < len(ref.lines); {
					if ref.payloads[j]%3 == 0 {
						want = append(want, ref.lines[j])
						if ref.lines[j] == heldLine {
							held = nil
						}
						ref.remove(j)
						continue
					}
					j++
				}
				if removed != len(want) || !slices.Equal(got, want) {
					t.Logf("op %d: RemoveIf removed %v, model %v", n, got, want)
					return false
				}
			case 7:
				p, ok := c.Peek(l)
				if ok != (i >= 0) || c.Contains(l) != ok || ok && *p != ref.payloads[i] {
					return false
				}
			}
			if c.Len() != len(ref.lines) {
				t.Logf("op %d: Len %d, model %d", n, c.Len(), len(ref.lines))
				return false
			}
			if held != nil && *held != ref.payloads[ref.find(heldLine)] {
				t.Logf("op %d: held pointer of line %d went stale", n, heldLine)
				return false
			}
		}
		if got := unboundedOrder(c); !slices.Equal(got, ref.lines) {
			t.Logf("ForEach order %v, model %v", got, ref.lines)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
