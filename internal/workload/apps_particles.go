package workload

import (
	"cord/internal/memsys"
	"cord/internal/sim"
)

// Raytrace mimes the ray tracer: a lock-protected tile counter hands out
// work, the scene is read-only, and each tile's framebuffer words are
// disjoint. Removing the counter lock makes two threads render the same
// tile — write-write races on the framebuffer plus the counter itself.
func Raytrace(scale, threads int) sim.Program {
	if scale < 1 {
		scale = 1
	}
	al := memsys.NewAllocator()
	tiles := 60 * scale
	tileWords := 8
	scene := al.Alloc(4096) // 16 KB read-only scene: exceeds the 8 KB L1
	frame := al.Alloc(tiles * tileWords)
	qlock := al.AllocPadded(1).Word(0)
	next := al.AllocPadded(1).Word(0)
	done := al.AllocPadded(threads)
	stats := al.AllocPadded(1).Word(0)

	return sim.Program{
		Name:    "raytrace",
		Threads: threads,
		Init: func(mem *memsys.Memory) {
			for i := 0; i < scene.Words; i++ {
				mem.Store(scene.Word(i), uint64(i)*2654435761)
			}
		},
		Body: func(t int, env *sim.Env) {
			rng := newLCG(uint64(t)*41 + 1)
			for {
				env.Lock(qlock)
				j := env.Read(next)
				env.Write(next, j+1)
				env.Unlock(qlock)
				if int(j) >= tiles {
					break
				}
				// Trace the tile: read scene, write the tile's pixels.
				for k := 0; k < 24; k++ {
					fold(env, k, scene.Word(rng.n(scene.Words)))
				}
				for w := 0; w < tileWords; w++ {
					env.Store(frame.Word(int(j)*tileWords+w), uint64(w))
				}
				env.Compute(20)
			}
			// Completion: every thread publishes, waits for all peers, and
			// inspects a strided slice of the framebuffer. The inspected
			// tiles were written far back in the execution, and the scene
			// churn since has pushed their timestamps out of the writer's
			// L1 (but not its L2) — removing one of the waits creates the
			// long-distance races behind the §4.3 buffering-limit effect.
			env.FlagSet(done.Word(t), 1)
			for q := 0; q < threads; q++ {
				if q != t {
					env.FlagWaitAtLeast(done.Word(q), 1)
				}
			}
			for w := t; w < frame.Words; w += 2 * threads {
				fold(env, w-t, frame.Word(w))
			}
			if t == 0 {
				env.Store(stats, 0)
			}
		},
	}
}

// Volrend mimes the volume renderer: a tile queue like raytrace, plus a
// small shared brightness histogram updated under its own lock after each
// tile — the shared accumulator injections race on.
func Volrend(scale, threads int) sim.Program {
	if scale < 1 {
		scale = 1
	}
	al := memsys.NewAllocator()
	tiles := 48 * scale
	volume := al.Alloc(6144) // 24 KB read-only volume
	image := al.Alloc(tiles * 4)
	hist := al.Alloc(8)
	qlock := al.AllocPadded(1).Word(0)
	hlock := al.AllocPadded(1).Word(0)
	next := al.AllocPadded(1).Word(0)
	done := al.AllocPadded(threads)
	stats := al.AllocPadded(1).Word(0)

	return sim.Program{
		Name:    "volrend",
		Threads: threads,
		Init: func(mem *memsys.Memory) {
			for i := 0; i < volume.Words; i++ {
				mem.Store(volume.Word(i), uint64(i%97))
			}
		},
		Body: func(t int, env *sim.Env) {
			rng := newLCG(uint64(t)*53 + 9)
			for {
				env.Lock(qlock)
				j := env.Read(next)
				env.Write(next, j+1)
				env.Unlock(qlock)
				if int(j) >= tiles {
					break
				}
				var acc uint64
				for k := 0; k < 20; k++ {
					acc += env.Read(volume.Word(rng.n(volume.Words)))
				}
				for w := 0; w < 4; w++ {
					env.Write(image.Word(int(j)*4+w), acc>>uint(w))
				}
				// Shared histogram update.
				env.Lock(hlock)
				touch(env, hist, int(acc)%8, 2)
				env.Unlock(hlock)
				env.Compute(14)
			}
			// Completion and final image inspection (same long-distance
			// race structure as raytrace: all threads wait on all peers).
			env.FlagSet(done.Word(t), 1)
			for q := 0; q < threads; q++ {
				if q != t {
					env.FlagWaitAtLeast(done.Word(q), 1)
				}
			}
			for w := t; w < image.Words; w += threads {
				fold(env, w-t, image.Word(w))
			}
			if t == 0 {
				env.Store(stats, 0)
			}
		},
	}
}

// WaterN2 mimes the O(n²) water code: every thread walks its strip of
// molecule pairs, updating both molecules' force accumulators under
// per-molecule locks, with a global-energy reduction each iteration. All
// threads churn through the same locks at the same rate, so by the time a
// second thread conflicts on an accumulator, the clocks have advanced far
// past any usable D window — the application where scalar CORD finds
// nothing (Figs. 12 and 16) while vector clocks still do.
func WaterN2(scale, threads int) sim.Program {
	if scale < 1 {
		scale = 1
	}
	al := memsys.NewAllocator()
	mols := 128
	// One cache line per molecule record, as in the real code's padded
	// molecule structs: accumulator ping-pong stays per-molecule instead
	// of false-sharing four molecules per line.
	acc := al.Alloc(mols * memsys.WordsPerLine)
	locks := al.AllocPadded(mols)
	glock := al.AllocPadded(1).Word(0)
	global := al.Alloc(4)
	bar := sim.NewBarrier(al, threads)
	iters := 1 * scale

	// Pre-compute each thread's pair list; threads traverse their lists
	// from different starting offsets, so two threads touch the same
	// molecule at widely different times — hundreds of lock operations
	// apart. That distance is what makes every injected race invisible to
	// scalar clocks at any practical D (Figs. 12 and 16) while the
	// cache-resident vector histories still catch it.
	pairs := make([][][2]int, threads)
	for i := 0; i < mols; i++ {
		for j := i + 1; j < mols; j++ {
			t := (i + j) % threads
			pairs[t] = append(pairs[t], [2]int{i, j})
		}
	}
	return sim.Program{
		Name:    "water-n2",
		Threads: threads,
		Body: func(t int, env *sim.Env) {
			mine := pairs[t]
			start := t * len(mine) / threads
			for it := 0; it < iters; it++ {
				for k := range mine {
					p := mine[(start+k)%len(mine)]
					env.Lock(locks.Word(p[0]))
					touch(env, acc, p[0]*memsys.WordsPerLine, 2)
					env.Unlock(locks.Word(p[0]))
					env.Lock(locks.Word(p[1]))
					touch(env, acc, p[1]*memsys.WordsPerLine, 2)
					env.Unlock(locks.Word(p[1]))
					env.Compute(220) // the O(n^2) force math dominates each pair
				}
				// Global potential-energy reduction.
				env.Lock(glock)
				touch(env, global, 0, 3)
				env.Unlock(glock)
				bar.Wait(env)
			}
		},
	}
}

// WaterSP mimes the spatial water code: molecules live in cells and
// threads update only their own cells plus the boundary cells they share
// with neighbouring threads, so conflicting updates happen within a few
// lock operations of each other — short-distance races scalar clocks can
// still catch.
func WaterSP(scale, threads int) sim.Program {
	if scale < 1 {
		scale = 1
	}
	al := memsys.NewAllocator()
	cellsPer := 8
	cells := al.Alloc(threads * cellsPer * 4)
	locks := al.AllocPadded(threads * cellsPer)
	bar := sim.NewBarrier(al, threads)
	iters := 3 * scale

	return sim.Program{
		Name:    "water-sp",
		Threads: threads,
		Body: func(t int, env *sim.Env) {
			rng := newLCG(uint64(t)*61 + 29)
			for it := 0; it < iters; it++ {
				for i := 0; i < cellsPer; i++ {
					own := t*cellsPer + i
					env.Lock(locks.Word(own))
					touch(env, cells, own*4, 3)
					env.Unlock(locks.Word(own))
					env.Compute(8)
					// Boundary interaction with the next thread's first
					// cell, immediately after updating our own.
					if i == cellsPer-1 && t < threads-1 {
						nb := (t + 1) * cellsPer
						env.Lock(locks.Word(nb))
						touch(env, cells, nb*4, 2)
						env.Unlock(locks.Word(nb))
					}
					if i == 0 && t > 0 && rng.n(2) == 0 {
						nb := (t-1)*cellsPer + cellsPer - 1
						env.Lock(locks.Word(nb))
						touch(env, cells, nb*4, 2)
						env.Unlock(locks.Word(nb))
					}
				}
				bar.Wait(env)
			}
		},
	}
}
