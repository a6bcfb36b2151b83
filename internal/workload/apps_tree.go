package workload

import (
	"cord/internal/memsys"
	"cord/internal/sim"
)

// Barnes mimics the Barnes-Hut tree code: threads insert bodies into a
// shared tree under fine-grain per-node locks, then compute forces by
// read-only traversals separated from the build by barriers. Conflicting
// node updates from different threads are separated by tens to a couple
// hundred unrelated lock operations, which is why barnes is the application
// whose detection keeps improving from D=16 to D=256 (Fig. 16).
func Barnes(scale, threads int) sim.Program {
	if scale < 1 {
		scale = 1
	}
	al := memsys.NewAllocator()
	nodes := 4096 * scale // 64 KB tree: random walks stress even the L2 bound
	nlocks := 96
	tree := al.Alloc(nodes * 4)
	locks := al.AllocPadded(nlocks)
	accel := al.Alloc(threads * 16) // per-thread, disjoint
	bar := sim.NewBarrier(al, threads)
	perThread := 96 * scale
	steps := 2

	return sim.Program{
		Name:    "barnes",
		Threads: threads,
		Body: func(t int, env *sim.Env) {
			rng := newLCG(uint64(t) + 7)
			for s := 0; s < steps; s++ {
				// Build: insert bodies under per-node locks.
				for i := 0; i < perThread; i++ {
					n := rng.n(nodes)
					env.Lock(locks.Word(n % nlocks))
					touch(env, tree, n*4, 3)
					env.Unlock(locks.Word(n % nlocks))
					env.Compute(8)
				}
				bar.Wait(env)
				// Force: read-only tree walks, private accumulation.
				for i := 0; i < perThread; i++ {
					for w := 0; w < 8; w++ {
						fold(env, w, tree.Word(rng.n(nodes*4)))
					}
					env.Store(accel.Word(t*16+i%16), 0)
					env.Compute(12)
				}
				bar.Wait(env)
			}
		},
	}
}

// Cholesky mimics sparse factorization driven by a central task queue:
// very frequent, very short critical sections (the queue lock plus a
// per-column lock per task). The constant timestamp churn makes it the
// worst case for address/timestamp-bus contention — the paper's 3%
// overhead outlier (Fig. 11).
func Cholesky(scale, threads int) sim.Program {
	if scale < 1 {
		scale = 1
	}
	al := memsys.NewAllocator()
	tasks := 220 * scale
	colLocks := 16
	cols := al.Alloc(tasks * 8)
	locks := al.AllocPadded(colLocks)
	qlock := al.AllocPadded(1).Word(0)
	next := al.AllocPadded(1).Word(0)
	done := al.AllocPadded(1).Word(0)

	return sim.Program{
		Name:    "cholesky",
		Threads: threads,
		Body: func(t int, env *sim.Env) {
			for {
				env.Lock(qlock)
				j := env.Read(next)
				env.Write(next, j+1)
				env.Unlock(qlock)
				if int(j) >= tasks {
					break
				}
				// Read a predecessor column under its own lock, then
				// update column j under j's lock.
				if j > 0 {
					pl := locks.Word((int(j) - 1) % colLocks)
					env.Lock(pl)
					scan(env, cols, (int(j)-1)*8, 2)
					env.Unlock(pl)
				}
				l := locks.Word(int(j) % colLocks)
				env.Lock(l)
				touch(env, cols, int(j)*8, 5)
				env.Unlock(l)
				env.Compute(4)
			}
			// Completion count, then everyone spins on the flag.
			env.Lock(qlock)
			env.Add(done, 1)
			env.Unlock(qlock)
		},
	}
}

// FMM mimics the fast multipole method's cell interactions: almost every
// lock acquisition protects a cell owned by the acquiring thread that no
// other thread is touching, so removing an instance of synchronization
// usually introduces no new cross-thread ordering — the reason most fmm
// injections produce no data race at all (Fig. 10).
func FMM(scale, threads int) sim.Program {
	if scale < 1 {
		scale = 1
	}
	al := memsys.NewAllocator()
	cellsPer := 16
	cells := al.Alloc(threads * cellsPer * 4)
	locks := al.AllocPadded(threads * cellsPer)
	bar := sim.NewBarrier(al, threads)
	rounds := 3
	updates := 40 * scale

	return sim.Program{
		Name:    "fmm",
		Threads: threads,
		Body: func(t int, env *sim.Env) {
			rng := newLCG(uint64(t)*13 + 5)
			for r := 0; r < rounds; r++ {
				for i := 0; i < updates; i++ {
					var cell int
					if rng.n(100) < 92 {
						cell = t*cellsPer + rng.n(cellsPer) // own cell
					} else {
						cell = rng.n(threads * cellsPer) // occasional remote
					}
					env.Lock(locks.Word(cell))
					touch(env, cells, cell*4, 3)
					env.Unlock(locks.Word(cell))
					env.Compute(10)
				}
				bar.Wait(env)
			}
		},
	}
}

// Radiosity mimics the hierarchical radiosity solver: per-thread task
// deques with work stealing, plus per-patch locks around small updates.
func Radiosity(scale, threads int) sim.Program {
	if scale < 1 {
		scale = 1
	}
	al := memsys.NewAllocator()
	patches := 32
	patchData := al.Alloc(patches * 4)
	patchLocks := al.AllocPadded(patches)
	deqLocks := al.AllocPadded(threads)
	deqCount := al.AllocPadded(threads)
	perThread := 50 * scale

	return sim.Program{
		Name:    "radiosity",
		Threads: threads,
		Body: func(t int, env *sim.Env) {
			rng := newLCG(uint64(t)*31 + 3)
			// Seed own deque.
			env.Lock(deqLocks.Word(t))
			env.Write(deqCount.Word(t), uint64(perThread))
			env.Unlock(deqLocks.Word(t))
			victim := t
			for {
				// Pop from the current victim's deque (own first).
				env.Lock(deqLocks.Word(victim))
				n := env.Read(deqCount.Word(victim))
				if n > 0 {
					env.Write(deqCount.Word(victim), n-1)
				}
				env.Unlock(deqLocks.Word(victim))
				if n == 0 {
					// Steal elsewhere; give up after a full cycle.
					victim = (victim + 1) % threads
					if victim == t {
						break
					}
					continue
				}
				// Run the task: refine a patch pair.
				p := rng.n(patches)
				env.Lock(patchLocks.Word(p))
				touch(env, patchData, p*4, 3)
				env.Unlock(patchLocks.Word(p))
				q := rng.n(patches)
				env.Lock(patchLocks.Word(q))
				scan(env, patchData, q*4, 2)
				touch(env, patchData, q*4, 1)
				env.Unlock(patchLocks.Word(q))
				env.Compute(120) // form-factor math dominates each refinement
			}
		},
	}
}
