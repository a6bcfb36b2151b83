package sim

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
)

// samePCG fails unless the two generators are in the same state, which
// shows that both draws consumed the same number of outputs.
func samePCG(t *testing.T, got, want *rand.PCG, what string) {
	t.Helper()
	g, _ := got.MarshalBinary()
	w, _ := want.MarshalBinary()
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: the generators' states differ after the draw", what)
	}
}

// TestDrawMatchesUint64N: the engine's jitter draw gives exactly the draws of
// rand.Rand.Uint64N on an identically seeded PCG, so every interleaving a
// seed selects is unchanged, and it consumes the same outputs, rejection
// loop included. Bounds near 2^64 reject about half the time.
func TestDrawMatchesUint64N(t *testing.T) {
	fixed := []uint64{1, 2, 3, 8, 9, 1<<32 + 1, 1 << 63, 1<<63 + 1, math.MaxUint64}
	var got, want rand.PCG
	got.Seed(7, 11)
	want.Seed(7, 11)
	ref := rand.New(&want)
	bounds := rand.New(rand.NewPCG(3, 5))
	for i := 0; i < 20000; i++ {
		n := fixed[i%len(fixed)]
		if i%2 == 1 {
			n = max(bounds.Uint64()>>bounds.UintN(64), 1) // every width, from 1 to 2^64-1
		}
		if g, w := drawN(&got, n), ref.Uint64N(n); g != w {
			t.Fatalf("draw %d, n = %d: got %d, Uint64N gives %d", i, n, g, w)
		}
		samePCG(t, &got, &want, "draw")
	}
	if got.Uint64() != want.Uint64() {
		t.Fatal("the generators diverge after the draws")
	}
}
