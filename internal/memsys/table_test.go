package memsys

import (
	"slices"
	"testing"
)

func TestTable(t *testing.T) {
	var tb Table[uint64]
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink += tb.Get(1 << 40) }); n != 0 {
		t.Fatalf("Get on an empty table: %v allocs, want 0", n)
	}
	*tb.Ref(3 * tablePageLen) = 7 // directory of four pages, only the last present
	if len(tb.pages) != 4 || tb.pages[1] != nil {
		t.Fatalf("Ref(3 pages in) built %d directory slots", len(tb.pages))
	}
	if n := testing.AllocsPerRun(100, func() {
		sink += tb.Get(tablePageLen + 5) // absent page inside the directory
		sink += tb.Get(1 << 40)          // past the directory
	}); n != 0 {
		t.Fatalf("Get on absent pages: %v allocs, want 0", n)
	}
	if len(tb.pages) != 4 || tb.pages[1] != nil || sink != 0 {
		t.Fatal("Get changed the table")
	}

	// ForEach visits every slot of the allocated pages in ascending key
	// order, whatever order the keys were referenced in.
	keys := []uint64{9*tablePageLen + 3, 17, 3 * tablePageLen, 16, 9*tablePageLen - 1, 5}
	for _, k := range keys {
		*tb.Ref(k) = k + 1
	}
	var visited, present []uint64
	tb.ForEach(func(i uint64, v *uint64) {
		visited = append(visited, i)
		if *v != 0 {
			if *v != i+1 {
				t.Fatalf("slot %d holds %d", i, *v)
			}
			present = append(present, i)
		}
	})
	if !slices.IsSorted(visited) || len(slices.Compact(slices.Clone(visited))) != len(visited) {
		t.Fatal("ForEach keys not strictly ascending")
	}
	if len(visited) != 4*tablePageLen { // pages 0, 3, 8 and 9
		t.Fatalf("ForEach visited %d slots, want %d", len(visited), 4*tablePageLen)
	}
	want := slices.Clone(keys)
	slices.Sort(want)
	if !slices.Equal(present, want) {
		t.Fatalf("ForEach present keys %v, want %v", present, want)
	}
}

// TestMemoryZeroStoreAllocatesNothing: storing zero over a word that already
// reads zero — in an absent page or past the directory — allocates nothing,
// and the footprint counts only non-zero words.
func TestMemoryZeroStoreAllocatesNothing(t *testing.T) {
	var m Memory
	if n := testing.AllocsPerRun(100, func() { m.Store(1<<30, 0) }); n != 0 {
		t.Fatalf("zero store: %v allocs, want 0", n)
	}
	if len(m.words.pages) != 0 || m.Footprint() != 0 {
		t.Fatal("zero store grew the memory")
	}
	m.Store(8, 5)
	m.Store(8, 0)
	if m.Footprint() != 0 || m.Load(8) != 0 {
		t.Fatal("clearing a word left it counted")
	}
}

// FuzzTable: a Table behaves like a map from key to value, with zero meaning
// absent, under any sequence of Get, Ref-store and clear operations on keys
// bounded to a few pages; ForEach yields the map's entries in ascending key
// order.
func FuzzTable(f *testing.F) {
	f.Add([]byte{1, 0, 3, 0, 0, 3, 2, 0, 3, 0, 0, 3})
	f.Add([]byte{1, 7, 255, 1, 0, 1, 1, 7, 255, 2, 7, 255, 0, 7, 255})
	f.Add([]byte{1, 15, 0, 2, 0, 0, 1, 0, 0, 0, 15, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tb Table[uint64]
		model := map[uint64]uint64{}
		for n := 0; len(ops) >= 3; n++ {
			op, k := ops[0]%3, (uint64(ops[1])<<8|uint64(ops[2]))%(16*tablePageLen)
			ops = ops[3:]
			switch op {
			case 0:
				if got := tb.Get(k); got != model[k] {
					t.Fatalf("op %d: Get(%d) = %d, want %d", n, k, got, model[k])
				}
			case 1:
				v := uint64(n) + 1
				*tb.Ref(k) = v
				model[k] = v
			case 2:
				*tb.Ref(k) = 0
				delete(model, k)
			}
		}
		var got []uint64
		last := -1
		tb.ForEach(func(i uint64, v *uint64) {
			if int(i) <= last {
				t.Fatalf("ForEach visited %d after %d", i, last)
			}
			last = int(i)
			if *v != 0 {
				if *v != model[i] {
					t.Fatalf("ForEach: key %d holds %d, want %d", i, *v, model[i])
				}
				got = append(got, i)
			}
		})
		if len(got) != len(model) {
			t.Fatalf("ForEach found %d entries, the model holds %d", len(got), len(model))
		}
	})
}
