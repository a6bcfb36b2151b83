package clock

import (
	"testing"
	"testing/quick"
)

func TestScalarBasicOrder(t *testing.T) {
	cases := []struct {
		a, b   Scalar
		before bool
	}{
		{1, 2, true},
		{2, 1, false},
		{5, 5, false},
		{0xFFFF, 0, true},          // wraparound: 65535 just before 0
		{0, 0xFFFF, false},         //
		{100, 100 + Window, true},  // edge of the window
		{100 + Window, 100, false}, //
		{0x8000, 0x0000, true},     // half-space wrap
	}
	for _, c := range cases {
		if got := c.a.Before(c.b); got != c.before {
			t.Errorf("Before(%d,%d) = %v, want %v", c.a, c.b, got, c.before)
		}
	}
}

func TestDistSigns(t *testing.T) {
	if Dist(10, 15) != 5 || Dist(15, 10) != -5 {
		t.Fatal("simple distances wrong")
	}
	if Dist(0xFFF0, 0x0010) != 0x20 {
		t.Fatalf("wrapped distance = %d, want 32", Dist(0xFFF0, 0x0010))
	}
}

func TestSyncedBy(t *testing.T) {
	// Second access clock must lead the first's timestamp by at least D.
	if !SyncedBy(20, 4, 16) {
		t.Error("dist 16 should satisfy D=16")
	}
	if SyncedBy(19, 4, 16) {
		t.Error("dist 15 should not satisfy D=16")
	}
	if !SyncedBy(5, 4, 1) || SyncedBy(4, 4, 1) {
		t.Error("D=1 boundary wrong")
	}
}

// Property: within the window, Before is antisymmetric and total for
// distinct values.
func TestScalarAntisymmetry(t *testing.T) {
	f := func(a uint16, delta uint16) bool {
		d := delta % Window
		if d == 0 {
			d = 1
		}
		x, y := Scalar(a), Scalar(a).Add(int(d))
		return x.Before(y) && !y.Before(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: transitivity for values within a common window.
func TestScalarTransitivity(t *testing.T) {
	f := func(a uint16, d1, d2 uint16) bool {
		x := Scalar(a)
		// Keep the total span inside the window.
		s1 := 1 + int(d1)%(Window/2-1)
		s2 := 1 + int(d2)%(Window/2-1)
		y := x.Add(s1)
		z := y.Add(s2)
		return x.Before(y) && y.Before(z) && x.Before(z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MaxScalar returns the later value.
func TestMaxScalar(t *testing.T) {
	f := func(a uint16, d uint16) bool {
		x := Scalar(a)
		y := x.Add(int(d % Window))
		m := MaxScalar(x, y)
		return m == y || (x == y && m == x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorCompare(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{1, 2, 3}
	if a.Compare(b) != Equal {
		t.Error("equal vectors not Equal")
	}
	c := Vector{2, 2, 3}
	if a.Compare(c) != Before || c.Compare(a) != After {
		t.Error("dominance misdetected")
	}
	d := Vector{2, 1, 3}
	if a.Compare(d) != Concurrent || d.Compare(a) != Concurrent {
		t.Error("concurrency misdetected")
	}
}

func TestVectorJoinIsLUB(t *testing.T) {
	f := func(a, b [4]uint8) bool {
		va, vb := NewVector(4), NewVector(4)
		for i := 0; i < 4; i++ {
			va[i], vb[i] = uint64(a[i]), uint64(b[i])
		}
		j := va.Clone()
		j.Join(vb)
		// j dominates both inputs.
		if !j.DominatesOrEqual(va) || !j.DominatesOrEqual(vb) {
			return false
		}
		// j is the least such: each component comes from an input.
		for i := range j {
			if j[i] != va[i] && j[i] != vb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorJoinCommutesAndIdempotent(t *testing.T) {
	f := func(a, b [3]uint16) bool {
		va, vb := NewVector(3), NewVector(3)
		for i := 0; i < 3; i++ {
			va[i], vb[i] = uint64(a[i]), uint64(b[i])
		}
		ab := va.Clone()
		ab.Join(vb)
		ba := vb.Clone()
		ba.Join(va)
		if ab.Compare(ba) != Equal {
			return false
		}
		again := ab.Clone()
		again.Join(vb)
		return again.Compare(ab) == Equal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorHappensBeforeAfterJoinTick(t *testing.T) {
	// A classic acquire: joining a release's vector and ticking makes the
	// acquirer strictly after the releaser's snapshot.
	rel := Vector{3, 0, 0}
	acq := Vector{0, 1, 0}
	acq.Join(rel)
	acq.Tick(1)
	if rel.Compare(acq) != Before {
		t.Fatalf("release %v should happen before acquire %v", rel, acq)
	}
}

func TestOrderString(t *testing.T) {
	for o, want := range map[Order]string{Equal: "equal", Before: "before", After: "after", Concurrent: "concurrent"} {
		if o.String() != want {
			t.Errorf("Order(%d).String() = %q", o, o.String())
		}
	}
}
