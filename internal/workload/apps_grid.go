package workload

import (
	"cord/internal/memsys"
	"cord/internal/sim"
)

// FFT mimics the six-step FFT: local transforms on thread-owned rows,
// then an all-to-all transpose, separated by barriers. Removing one
// thread's barrier primitive lets its transpose reads race with the other
// threads' first-phase writes.
func FFT(scale, threads int) sim.Program {
	if scale < 1 {
		scale = 1
	}
	al := memsys.NewAllocator()
	rows := 8 * scale // rows per thread
	width := 384      // words per row: each thread's 8 rows span 192 lines,
	// so by the end of a phase its early rows have left its 128-line L1
	// but still sit in its 512-line L2 — the §4.3 gradient
	src := al.Alloc(threads * rows * width)
	dst := al.Alloc(threads * rows * width)
	bar := sim.NewBarrier(al, threads)
	phases := 2

	rowBase := func(t, r int) int { return (t*rows + r) * width }

	return sim.Program{
		Name:    "fft",
		Threads: threads,
		Body: func(t int, env *sim.Env) {
			for p := 0; p < phases; p++ {
				// Local transform: write own rows of src.
				for r := 0; r < rows; r++ {
					touch(env, src, rowBase(t, r), width/2)
					env.Compute(16)
				}
				bar.Wait(env)
				// Transpose: read a strided column slice from every
				// thread's rows, write into own dst rows.
				for r := 0; r < rows; r++ {
					for q := 0; q < threads; q++ {
						fold(env, 2*q, src.Word(rowBase(q, r)+t*threads%width))
						fold(env, 2*q+1, src.Word(rowBase(q, r)+(t*threads+1)%width))
					}
					env.Store(dst.Word(rowBase(t, r)), 0)
					env.Compute(8)
				}
				bar.Wait(env)
				// Second local transform on own dst rows.
				for r := 0; r < rows; r++ {
					touch(env, dst, rowBase(t, r), width/2)
				}
				bar.Wait(env)
			}
			// Checksum pass: thread 0 reads the whole output matrix. The
			// final barrier orders it; when injection removes one of the
			// barrier's internal primitives the checksum races against
			// writes from the entire last phase.
			if t == 0 {
				for w := 0; w < dst.Words; w += 3 {
					fold(env, w, dst.Word(w))
				}
				env.Store(src.Word(0), 0)
			}
		},
	}
}

// LU mimes the blocked LU decomposition: for each step the pivot-block
// owner factorizes it, a barrier publishes it, and everyone folds the pivot
// into their own blocks. Broken barriers create short-distance
// write-then-read races on the pivot block, which cache-bounded detectors
// catch easily.
func LU(scale, threads int) sim.Program {
	if scale < 1 {
		scale = 1
	}
	al := memsys.NewAllocator()
	steps := 6 * scale
	blockWords := 32
	blocksPer := 16
	pivots := al.Alloc(steps * blockWords)
	mine := al.Alloc(threads * blocksPer * blockWords)
	bar := sim.NewBarrier(al, threads)

	return sim.Program{
		Name:    "lu",
		Threads: threads,
		Body: func(t int, env *sim.Env) {
			for k := 0; k < steps; k++ {
				owner := k % threads
				if t == owner {
					touch(env, pivots, k*blockWords, blockWords-2)
					env.Compute(24)
				}
				bar.Wait(env)
				// Fold the pivot into own blocks.
				for b := 0; b < blocksPer; b++ {
					scan(env, pivots, k*blockWords, 6)
					base := (t*blocksPer + b) * blockWords
					env.Store(mine.Word(base+k%blockWords), 0)
					touch(env, mine, base, 8)
					env.Compute(12)
				}
				bar.Wait(env)
			}
		},
	}
}

// Ocean mimes the red-black grid solver with the usual two-buffer
// discipline: each sweep reads the previous sweep's grid (including the
// neighbouring threads' edge rows) and writes the next one, with a barrier
// between sweeps. Removing one thread's barrier primitive races its edge
// reads against the neighbour's still-in-progress writes of the same
// buffer generation.
func Ocean(scale, threads int) sim.Program {
	if scale < 1 {
		scale = 1
	}
	al := memsys.NewAllocator()
	rowsPer := 4
	width := 1152 * scale // one sweep touches ~36 KB/thread: races spanning a
	// sweep lose their timestamps even in the L2, shorter ones only in the L1
	grids := [2]memsys.Region{
		al.Alloc(threads * rowsPer * width),
		al.Alloc(threads * rowsPer * width),
	}
	bar := sim.NewBarrier(al, threads)
	sweeps := 4

	row := func(t, r int) int { return (t*rowsPer + r) * width }

	return sim.Program{
		Name:    "ocean",
		Threads: threads,
		Body: func(t int, env *sim.Env) {
			for s := 0; s < sweeps; s++ {
				cur, next := grids[s%2], grids[(s+1)%2]
				for r := 0; r < rowsPer; r++ {
					// Stencil inputs: edge words of the rows above and
					// below (crossing into the neighbour bands). The upper
					// neighbour contributes both its last row (written at
					// the end of its sweep: short race distance) and its
					// second-to-last row (written ~2 rows of traffic ago:
					// a distance that fits the L2 but not the L1).
					var up, down uint64
					if r > 0 {
						up = env.Read(cur.Word(row(t, r-1) + s%width))
					} else if t > 0 {
						up = env.Read(cur.Word(row(t-1, rowsPer-1) + s%width))
						up += env.Read(cur.Word(row(t-1, rowsPer-2) + (s+3)%width))
					}
					if r < rowsPer-1 {
						down = env.Read(cur.Word(row(t, r+1) + s%width))
					} else if t < threads-1 {
						down = env.Read(cur.Word(row(t+1, 0) + s%width))
					}
					for c := 0; c < width; c += 3 {
						env.AddTo(next.Word(row(t, r)+c), cur.Word(row(t, r)+c), up+down+1)
					}
					env.Compute(10)
				}
				bar.Wait(env)
			}
		},
	}
}

// Radix mimes the radix sort: private histograms, a serial prefix-sum by
// thread 0, and a permutation into disjoint output slots, with barriers
// between the three phases.
func Radix(scale, threads int) sim.Program {
	if scale < 1 {
		scale = 1
	}
	al := memsys.NewAllocator()
	buckets := 32
	keysPer := 256 * scale
	hists := al.Alloc(threads * buckets)
	offsets := al.Alloc(threads * buckets)
	out := al.Alloc(threads * keysPer)
	bar := sim.NewBarrier(al, threads)
	rounds := 2

	return sim.Program{
		Name:    "radix",
		Threads: threads,
		Body: func(t int, env *sim.Env) {
			rng := newLCG(uint64(t)*17 + 11)
			for round := 0; round < rounds; round++ {
				// Phase 1: histogram own keys (own slots only).
				for b := 0; b < buckets; b++ {
					env.Write(hists.Word(t*buckets+b), 0)
				}
				for i := 0; i < keysPer; i++ {
					b := rng.n(buckets)
					env.Add(hists.Word(t*buckets+b), 1)
				}
				bar.Wait(env)
				// Phase 2: thread 0 computes global offsets from every
				// histogram.
				if t == 0 {
					running := uint64(0)
					for b := 0; b < buckets; b++ {
						for q := 0; q < threads; q++ {
							env.Write(offsets.Word(q*buckets+b), running)
							running += env.Read(hists.Word(q*buckets + b))
						}
					}
				}
				bar.Wait(env)
				// Phase 3: permute into disjoint output positions.
				for b := 0; b < buckets; b++ {
					off := env.Read(offsets.Word(t*buckets + b))
					n := env.Read(hists.Word(t*buckets + b))
					for k := uint64(0); k < n; k++ {
						env.Write(out.Word(int(off+k)%out.Words), uint64(b))
					}
				}
				bar.Wait(env)
			}
		},
	}
}
