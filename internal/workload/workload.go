// Package workload provides the twelve synthetic parallel applications the
// experiments run — one per Splash-2 program in the paper's Table 1. Each
// mimics its namesake's sharing structure and synchronization idiom (the
// properties detection rates depend on) at a scale the simulator sweeps
// quickly:
//
//	barnes     tree building under fine-grain node locks, moderately
//	           separated conflicts (the app that keeps improving past D=16)
//	cholesky   task queue with very frequent tiny critical sections (the
//	           worst-case address/timestamp-bus contention of Fig. 11)
//	fft        barrier-phased all-to-all transpose
//	fmm        mostly-redundant per-cell locking (injections rarely manifest)
//	lu         pivot-block producer/consumer over barriers
//	ocean      red-black grid sweeps, neighbor-edge sharing over barriers
//	radiosity  work-stealing task deques plus per-patch locks
//	radix      private histograms, prefix-sum, permute over barriers
//	raytrace   tile queue, read-only scene, disjoint framebuffer writes
//	volrend    tile queue plus a lock-protected shared histogram
//	water-n2   O(n²) cross-thread accumulator updates under per-molecule
//	           locks with constant lock churn (scalar clocks miss everything)
//	water-sp   the spatial variant: neighbor-only updates, shorter distances
//
// Build constructs a fresh, self-contained sim.Program on every call — its
// own allocator, memory layout, and closure state — and programs behave
// deterministically for a given engine seed. A campaign can therefore build
// and run the same application many times concurrently (one instance per
// injection run); which host worker executes an instance is irrelevant,
// because the engine seed alone decides the interleaving each run observes.
package workload

import (
	"cmp"
	"fmt"
	"slices"

	"cord/internal/memsys"
	"cord/internal/sim"
)

// App is one benchmark application.
type App struct {
	// Name matches the Splash-2 program (Table 1).
	Name string
	// Input is the Table 1 input-set label the synthetic scale mimics.
	Input string
	// Build constructs a runnable program. scale >= 1 grows the problem
	// size; tests use scale 1, the experiment harness a few steps more.
	Build func(scale, threads int) sim.Program
	// Accesses is the app's Table 1 shared-memory access count at scale 1
	// with 4 threads, an a-priori cost estimate: the fleet coordinator
	// dispatches the heaviest apps first. It is data only and never reaches
	// a run or an artifact.
	Accesses uint64
}

// All returns the twelve applications in Table 1 order.
func All() []App {
	return []App{
		{Name: "barnes", Input: "n2048", Build: Barnes, Accesses: 13982},
		{Name: "cholesky", Input: "tk23.0", Build: Cholesky, Accesses: 5329},
		{Name: "fft", Input: "m16", Build: FFT, Accesses: 54038},
		{Name: "fmm", Input: "2048", Build: FMM, Accesses: 4430},
		{Name: "lu", Input: "512x512", Build: LU, Accesses: 9623},
		{Name: "ocean", Input: "130x130", Build: Ocean, Accesses: 49419},
		{Name: "radiosity", Input: "-test", Build: Radiosity, Accesses: 4297},
		{Name: "radix", Input: "256K keys", Build: Radix, Accesses: 7639},
		{Name: "raytrace", Input: "teapot", Build: Raytrace, Accesses: 2514},
		{Name: "volrend", Input: "head-sd2", Build: Volrend, Accesses: 1977},
		{Name: "water-n2", Input: "216", Build: WaterN2, Accesses: 113908},
		{Name: "water-sp", Input: "216", Build: WaterSP, Accesses: 1070},
	}
}

// ByName returns the named application.
func ByName(name string) (App, error) {
	for _, a := range All() {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("workload: unknown application %q", name)
}

// HeaviestFirst returns the indices 0..n-1 in descending order of the Table
// 1 access count of the application name(i) names: Graham's LPT rule, under
// which the longest jobs start while every worker is busy, so none is left
// running alone at the end. The sort is stable, so equal costs keep index
// order; an unknown name costs nothing. The fleet coordinator orders its
// shard queue, and a campaign its runs, by this one rule.
func HeaviestFirst(n int, name func(i int) string) []int {
	cost := make(map[string]uint64)
	for _, a := range All() {
		cost[a.Name] = a.Accesses
	}
	order := make([]int, n)
	w := make([]uint64, n)
	for i := range order {
		order[i], w[i] = i, cost[name(i)]
	}
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(w[y], w[x]) })
	return order
}

// ByNames resolves a campaign's application list in order. It refuses an
// unknown name and a repeated one: a campaign's cells and a fleet's shards
// name their application, so a second copy of a name would alias the first.
func ByNames(names []string) ([]App, error) {
	apps := make([]App, 0, len(names))
	for i, name := range names {
		if slices.Contains(names[:i], name) {
			return nil, fmt.Errorf("workload: application %q named twice", name)
		}
		app, err := ByName(name)
		if err != nil {
			return nil, err
		}
		apps = append(apps, app)
	}
	return apps, nil
}

// lcg is a tiny deterministic generator for per-thread access patterns.
// Workload bodies must be deterministic given the values they read from
// simulated memory, so they never use math/rand.
type lcg struct{ s uint64 }

func newLCG(seed uint64) *lcg { return &lcg{s: seed*2654435761 + 1} }

func (r *lcg) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 11
}

// n returns a value in [0, m).
func (r *lcg) n(m int) int {
	if m <= 0 {
		return 0
	}
	return int(r.next() % uint64(m))
}

// touch performs a read-modify-write of count consecutive words starting at
// region word i — the inner loop of most critical sections.
func touch(env *sim.Env, reg memsys.Region, i, count int) {
	for k := 0; k < count; k++ {
		env.Add(reg.Word((i+k)%reg.Words), 1)
	}
}

// scan reads count consecutive words and folds them into the thread's
// accumulator (see fold), modeling read-mostly traversals.
func scan(env *sim.Env, reg memsys.Region, i, count int) {
	for k := 0; k < count; k++ {
		fold(env, k, reg.Word((i+k)%reg.Words))
	}
}

// fold posts the k-th read of a sum into the thread's accumulator: the first
// (k == 0) loads it, the later ones add to it. A sum that only feeds writes
// is folded this way and written with env.Store, so its reads never park.
func fold(env *sim.Env, k int, a memsys.Addr) {
	if k == 0 {
		env.Load(a)
	} else {
		env.LoadAdd(a)
	}
}
