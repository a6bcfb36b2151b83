// Package clock implements the logical-time machinery of the paper: 16-bit
// scalar Lamport-style clocks with the sliding-window comparison of §2.7.5,
// the D-window "synchronized?" predicate of §2.6, and fixed-size vector
// clocks used by the Ideal and vector-clock baseline detectors.
package clock

// Scalar is a 16-bit logical clock or timestamp value. Arithmetic wraps at
// 2^16; comparisons use a sliding window of half the clock space (2^15 - 1),
// exactly as the hardware comparator described in §2.7.5: two values are
// compared by the sign of their 16-bit difference, which is correct as long
// as all live values fit within the window. The cache walker (internal/cache)
// is responsible for retiring timestamps before they exit the window.
type Scalar uint16

// Window is the sliding-window size: values whose distance exceeds Window
// cannot be ordered reliably and must never coexist.
const Window = 1<<15 - 1

// Before reports whether s happens before t in sliding-window order
// (strictly less within the window).
func (s Scalar) Before(t Scalar) bool { return int16(s-t) < 0 }

// Dist returns the signed window distance t - s. Positive means t is ahead
// of s.
func Dist(s, t Scalar) int { return int(int16(t - s)) }

// SyncedBy reports whether a second access with clock `clk` is considered
// synchronized with a first access timestamped `ts` under window parameter d
// (§2.6): synchronized iff clk >= ts + d, i.e. the clock leads the timestamp
// by at least d. d = 1 is the naive scalar scheme.
func SyncedBy(clk, ts Scalar, d int) bool { return Dist(ts, clk) >= d }

// Add returns s advanced by n (wrapping).
func (s Scalar) Add(n int) Scalar { return s + Scalar(n) }

// MaxScalar returns the later of a and b in window order.
func MaxScalar(a, b Scalar) Scalar {
	if a.Before(b) {
		return b
	}
	return a
}
