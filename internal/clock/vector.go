package clock

import (
	"fmt"
	"strings"
)

// Vector is a classical logical vector clock (Fidge/Mattern) with one
// component per thread. The Ideal and vector-clock baseline detectors use
// full-width (uint64) components; the hardware-cost arithmetic in the public
// API models the 16-bit truncated variant the paper prices out (§2.3).
//
// A Vector's length is fixed at creation. Vectors are value-ish: methods that
// mutate do so in place on the receiver; Clone copies.
type Vector []uint64

// NewVector returns an all-zero vector clock for n threads.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Tick increments thread t's own component.
func (v Vector) Tick(t int) { v[t]++ }

// Join folds o into v componentwise (v = max(v, o)).
func (v Vector) Join(o Vector) {
	for i, x := range o {
		if x > v[i] {
			v[i] = x
		}
	}
}

// Order is the result of comparing two vector timestamps.
type Order int

// The four possible outcomes of a vector comparison.
const (
	Equal Order = iota
	Before
	After
	Concurrent
)

// String names the order for diagnostics.
func (o Order) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	default:
		return "concurrent"
	}
}

// Compare returns the happens-before relation of v versus o: Before means
// v → o, After means o → v.
func (v Vector) Compare(o Vector) Order {
	less, greater := false, false
	for i := range v {
		switch {
		case v[i] < o[i]:
			less = true
		case v[i] > o[i]:
			greater = true
		}
		if less && greater {
			return Concurrent
		}
	}
	switch {
	case less:
		return Before
	case greater:
		return After
	default:
		return Equal
	}
}

// DominatesOrEqual reports o <= v componentwise, i.e. everything o has seen,
// v has seen too.
func (v Vector) DominatesOrEqual(o Vector) bool {
	c := v.Compare(o)
	return c == After || c == Equal
}

// String renders the vector compactly.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", x)
	}
	b.WriteByte(']')
	return b.String()
}
