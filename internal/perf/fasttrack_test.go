package perf

import (
	"math"
	"runtime"
	"testing"
	"time"

	"cord/internal/baseline"
)

// kernelCycle is one full pass over the shared synthetic access stream.
const kernelCycle = 1 << 14

// runCycles drives a kernel body through n full stream cycles starting at
// iteration i, returning the next iteration index.
func runCycles(body func(i int), i, n int) int {
	for k := 0; k < n*kernelCycle; k++ {
		body(i)
		i++
	}
	return i
}

// TestFastTrackKernelZeroAllocSteadyState: past the stored-race cap the
// FastTrack OnAccess path must be allocation-free — epochs live inline in
// the shadow words, read vectors are recycled through the shadow free list,
// and a full detector only bumps counters. The warm-up runs the kernel's
// stream until the baselines' 65536-race cap is full.
func TestFastTrackKernelZeroAllocSteadyState(t *testing.T) {
	const storedRaceCap = 1 << 16
	det := baseline.NewFastTrack(baseline.FastTrackConfig{Threads: 4})
	body := observerKernel(det)
	i := 0
	for cycles := 0; len(det.Races()) < storedRaceCap; cycles++ {
		if cycles == 4096 {
			t.Fatalf("warmup stored only %d races in %d cycles", len(det.Races()), cycles)
		}
		i = runCycles(body, i, 1)
	}
	i = runCycles(body, i, 1)
	if len(det.Races()) != storedRaceCap {
		t.Fatalf("stored %d races past the cap %d", len(det.Races()), storedRaceCap)
	}
	if allocs, _ := allocsPerOp(body, i, 1); allocs != 0 {
		t.Fatalf("steady-state fasttrack kernel allocates %.4f allocs/op, want 0", allocs)
	}
}

// allocsPerOp runs body for n kernel cycles from iteration i and returns the
// mean heap allocations and bytes allocated per op. It counts as floats
// because testing.AllocsPerRun integer-divides, which reports any rate
// below one allocation per op as zero.
func allocsPerOp(body func(i int), i, n int) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runCycles(body, i, n)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n*kernelCycle),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n*kernelCycle)
}

// TestBaselineKernelAllocBudget pins the default kernels' allocation profile:
// with race storage still below its cap, the only allocations left on
// baseline/vec-infcache, baseline/ideal and baseline/fasttrack are the rare
// racy-access report appends (~1% of ops on this stream) and the growth of
// the retained race list. The vec-infcache bound is the regression test for
// the free-list recycling gap: before invalidation-dropped vectors joined
// freeVCs, every cross-proc write invalidation allocated a fresh vector and
// the average sat far above this budget. The ideal bounds hold its history
// entries to pointer-free slab records: a vector clone per access costs
// about one allocation and 64 bytes per op. The record/epoch-stream bound
// pins EpochStream's "a warmed-up stream does not allocate": what is left is
// the Flush and the fresh stream the kernel starts at the end of each log,
// so it is measured over one whole log of four cycles, as -bench amortises it.
// The record/stream-decode bound is zero: Decode fills the kernel's reused
// entry buffer, and Reset keeps the decoder.
func TestBaselineKernelAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name     string
		setup    func() func(i int)
		cycles   int // measured
		maxBytes float64
	}{
		{"baseline/vec-infcache", setupVecInf, 1, math.Inf(1)},
		{"baseline/ideal", setupIdeal, 1, 16},
		{"baseline/fasttrack", setupFastTrack, 1, math.Inf(1)},
		{"record/epoch-stream", setupEpochStream, 4, 8},
		{"record/stream-decode", setupStreamDecode, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := tc.setup()
			i := runCycles(body, 0, 4)
			allocs, bytes := allocsPerOp(body, i, tc.cycles)
			if allocs >= 0.1 {
				t.Fatalf("%s allocates %.4f allocs/op, want < 0.1 (race reports only)", tc.name, allocs)
			}
			if bytes > tc.maxBytes {
				t.Fatalf("%s allocates %.1f B/op, want <= %.0f", tc.name, bytes, tc.maxBytes)
			}
			t.Logf("%.4f allocs/op, %.1f B/op", allocs, bytes)
		})
	}
}

// TestFastTrackKernelNotSlowerThanIdeal: both detectors compare epochs, but
// FastTrack keeps O(1) shadow state per word and updates it in place, while
// Ideal appends a history record for every data access, walks each other
// thread's chain on the word, and periodically compacts its history and
// releases emptied words. So the fasttrack kernel must not run slower than
// baseline/ideal on the same stream. Measured coarsely (whole cycles, after
// warmup) so scheduler noise cannot flake the comparison on a loaded
// machine; the real numbers live in BENCH_perf.json.
func TestFastTrackKernelNotSlowerThanIdeal(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector on: its instrumentation makes the fasttrack kernel slower than ideal, so the timing comparison only holds in uninstrumented builds")
	}
	timeKernel := func(setup func() func(i int)) time.Duration {
		body := setup()
		i := runCycles(body, 0, 2)
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			i = runCycles(body, i, 2)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	ideal := timeKernel(setupIdeal)
	ft := timeKernel(setupFastTrack)
	// Allow 10% slack over Ideal: the acceptance bound is <=, the slack only
	// absorbs timer jitter on the fast side.
	if ft > ideal+ideal/10 {
		t.Fatalf("baseline/fasttrack %v per 2 cycles vs baseline/ideal %v: per-word shadow state slower than per-access history", ft, ideal)
	}
}
