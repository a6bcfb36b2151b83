package memsys

import (
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	if WordsPerLine != 16 {
		t.Fatalf("WordsPerLine = %d, want 16 (64-byte lines, 4-byte words)", WordsPerLine)
	}
	if LineOf(0) != 0 || LineOf(63) != 0 || LineOf(64) != 1 {
		t.Fatal("LineOf wrong at boundaries")
	}
	if WordIndex(0) != 0 || WordIndex(4) != 1 || WordIndex(63) != 15 || WordIndex(64) != 0 {
		t.Fatal("WordIndex wrong")
	}
	if WordAlign(7) != 4 || WordAlign(4) != 4 {
		t.Fatal("WordAlign wrong")
	}
	if LineBase(3) != 192 || WordAddr(3, 2) != 200 {
		t.Fatal("LineBase/WordAddr wrong")
	}
}

// Property: word/line decomposition round-trips.
func TestAddrDecompositionRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		a := WordAlign(Addr(raw))
		return WordAddr(LineOf(a), WordIndex(a)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryLoadStore(t *testing.T) {
	m := NewMemory()
	if m.Load(0x100) != 0 {
		t.Fatal("fresh memory not zero")
	}
	m.Store(0x100, 42)
	if m.Load(0x100) != 42 {
		t.Fatal("store/load mismatch")
	}
	if m.Load(0x104) != 0 {
		t.Fatal("adjacent word affected")
	}
	// Unaligned access maps to its word.
	if m.Load(0x102) != 42 {
		t.Fatal("unaligned load not word-mapped")
	}
	m.Store(0x100, 0)
	if m.Footprint() != 0 {
		t.Fatal("zero store should keep the map sparse")
	}
}

func TestMemoryEqual(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	a.Store(8, 1)
	if a.Equal(b) {
		t.Fatal("unequal memories compare equal")
	}
	b.Store(8, 1)
	if !a.Equal(b) {
		t.Fatal("equal memories compare unequal")
	}
}

func TestZeroValueMemoryUsable(t *testing.T) {
	var m Memory
	if m.Load(4) != 0 {
		t.Fatal("zero-value load")
	}
	m.Store(4, 9)
	if m.Load(4) != 9 {
		t.Fatal("zero-value store")
	}
}

// end returns the first byte address past r.
func end(r Region) Addr { return r.Base + Addr(r.Words*WordBytes) }

func TestAllocatorLineAlignment(t *testing.T) {
	al := NewAllocator()
	r1 := al.Alloc(5)
	r2 := al.Alloc(20)
	if r1.Base%LineBytes != 0 || r2.Base%LineBytes != 0 {
		t.Fatal("regions not line aligned")
	}
	if r2.Base < end(r1) {
		t.Fatal("regions overlap")
	}
	if r1.Base == 0 {
		t.Fatal("allocator handed out address zero")
	}
}

func TestRegionWordAndLines(t *testing.T) {
	al := NewAllocator()
	r := al.Alloc(20) // 80 bytes -> 2 lines
	if lines := LineOf(end(r)-1) - LineOf(r.Base) + 1; lines != 2 {
		t.Fatalf("region spans %d lines, want 2", lines)
	}
	if r.Word(0) != r.Base || r.Word(19) != r.Base+76 {
		t.Fatal("Word addressing wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Word did not panic")
		}
	}()
	r.Word(20)
}

func TestPaddedRegionNoSharedLines(t *testing.T) {
	al := NewAllocator()
	p := al.AllocPadded(4)
	seen := map[Line]bool{}
	for i := 0; i < 4; i++ {
		l := LineOf(p.Word(i))
		if seen[l] {
			t.Fatal("padded words share a line")
		}
		seen[l] = true
	}
}

// Property: distinct allocations never share a cache line.
func TestAllocationsDisjoint(t *testing.T) {
	f := func(sizes [6]uint8) bool {
		al := NewAllocator()
		used := map[Line]bool{}
		for _, sz := range sizes {
			r := al.Alloc(int(sz)%50 + 1)
			first, last := LineOf(r.Base), LineOf(end(r)-1)
			for l := first; l <= last; l++ {
				if used[l] {
					return false
				}
				used[l] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
