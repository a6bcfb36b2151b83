// Package progen generates random, properly-synchronized parallel programs
// for property-based testing. Every generated program is data-race-free by
// construction: shared regions are only touched under their region lock or
// inside barrier-separated owner phases, and all cross-thread hand-offs go
// through flags. The generators are deterministic in their seed, so failures
// reproduce.
//
// The property suites drive three invariants with these programs:
//   - every detector stays silent on the unmodified program;
//   - with one synchronization instance removed, every CORD report is
//     confirmed by the happens-before oracle (no false positives);
//   - record-then-replay reproduces every execution exactly.
package progen

import (
	"fmt"

	"cord/internal/memsys"
	"cord/internal/sim"
)

// Config bounds the generated program's shape.
type Config struct {
	Threads int
	// Regions is the number of lock-protected shared regions.
	Regions int
	// RegionWords is each region's size.
	RegionWords int
	// OpsPerThread is the number of top-level actions per thread.
	OpsPerThread int
	// Phases > 0 adds barrier-separated phases with per-phase owners.
	Phases int
	// PrivateWords gives each thread a private scratch region (cache
	// pressure without conflicts).
	PrivateWords int
}

// DefaultConfig returns a moderate program shape.
func DefaultConfig() Config {
	return Config{
		Threads:      4,
		Regions:      6,
		RegionWords:  24,
		OpsPerThread: 60,
		Phases:       2,
		PrivateWords: 64,
	}
}

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 11
}

func (r *rng) n(m int) int {
	if m <= 0 {
		return 0
	}
	return int(r.next() % uint64(m))
}

// action is one generated top-level operation of a thread.
type action struct {
	kind    int // 0 locked-rmw, 1 locked-scan, 2 private, 3 compute, 4 flag-pub, 5 flag-sub
	region  int
	offset  int
	span    int
	amount  int
	flagIdx int
	// posted spells a read-modify-write or a fold with the posted Env calls
	// (Add, Load, LoadAdd, Store) instead of a Read that parks. The engine
	// orders both spellings the same, so the choice moves no access.
	posted bool
}

// Program is a generated program plus the metadata tests need.
type Program struct {
	Prog sim.Program
	// FirstPhaseSync counts, per thread, the countable sync instances
	// (lock acquires and flag waits) of the first phase. These precede any
	// barrier, so their per-thread indices are schedule-independent and an
	// injection aimed at the Nth one (N <= FirstPhaseSync[t]) removes a
	// known action's synchronization in every run.
	FirstPhaseSync []int
	Cfg            Config
}

// New generates a program from a seed. Identical seeds and configs generate
// identical programs.
func New(seed uint64, cfg Config) Program {
	if cfg.Threads <= 0 {
		cfg.Threads = 4
	}
	if cfg.Regions <= 0 {
		cfg.Regions = 4
	}
	if cfg.RegionWords <= 0 {
		cfg.RegionWords = 16
	}
	if cfg.OpsPerThread <= 0 {
		cfg.OpsPerThread = 40
	}

	al := memsys.NewAllocator()
	regions := make([]memsys.Region, cfg.Regions)
	locks := al.AllocPadded(cfg.Regions)
	for i := range regions {
		regions[i] = al.Alloc(cfg.RegionWords)
	}
	nflags := cfg.Threads
	flags := al.AllocPadded(nflags)
	privs := make([]memsys.Region, cfg.Threads)
	for t := range privs {
		privs[t] = al.Alloc(max(cfg.PrivateWords, 1))
	}
	var bar *sim.Barrier
	if cfg.Phases > 1 {
		bar = sim.NewBarrier(al, cfg.Threads)
	}

	// Pre-generate every thread's action script. Flag publications
	// increment a per-flag epoch; a subscriber waits only for epochs whose
	// publication was generated earlier (threads are generated in order,
	// so the wait-reference graph is a DAG and the program cannot
	// deadlock). Sync instances from actions in the first phase are
	// counted exactly — they precede any barrier, so their per-thread
	// indices are schedule-independent and injections can be aimed at
	// them precisely.
	r := &rng{s: seed*2654435761 + 977}
	// spell draws each action's spelling from its own stream, so the actions
	// a seed generates do not depend on how they are spelled.
	spell := &rng{s: seed*0x9e3779b97f4a7c15 + 31}
	scripts := make([][][]action, cfg.Threads) // [thread][phase][]action
	firstPhase := make([]int, cfg.Threads)
	phases := max(cfg.Phases, 1)
	opsPerPhase := cfg.OpsPerThread / phases

	for ph := 0; ph < phases; ph++ {
		published := make([]int, nflags) // epochs published so far (generation order)
		for t := 0; t < cfg.Threads; t++ {
			var script []action
			for i := 0; i < opsPerPhase; i++ {
				a := action{kind: r.n(6), posted: spell.n(2) == 1}
				countable := false
				switch a.kind {
				case 0, 1: // locked access to a shared region
					a.region = r.n(cfg.Regions)
					a.span = 1 + r.n(4)
					a.offset = r.n(cfg.RegionWords)
					a.amount = 1 + r.n(9)
					countable = true // the lock acquire
				case 2: // private work
					a.offset = r.n(max(cfg.PrivateWords, 1))
					a.span = 1 + r.n(6)
				case 3:
					a.amount = 1 + r.n(30)
				case 4: // publish own flag
					a.flagIdx = t
					published[t]++
					a.amount = published[t]
				case 5: // subscribe to an already-published epoch
					a.flagIdx = r.n(nflags)
					if published[a.flagIdx] == 0 {
						a.kind = 3 // nothing published yet: degrade to compute
						a.amount = 5
						break
					}
					a.amount = 1 + r.n(published[a.flagIdx])
					countable = true // the flag wait
				}
				if countable && ph == 0 {
					firstPhase[t]++
				}
				script = append(script, a)
			}
			scripts[t] = append(scripts[t], script)
		}
	}

	body := func(t int, env *sim.Env) {
		for ph := 0; ph < phases; ph++ {
			for _, a := range scripts[t][ph] {
				switch a.kind {
				case 0:
					env.Lock(locks.Word(a.region))
					for k := 0; k < a.span; k++ {
						w := regions[a.region].Word((a.offset + k) % regions[a.region].Words)
						add(env, a.posted, w, uint64(a.amount))
					}
					env.Unlock(locks.Word(a.region))
				case 1:
					env.Lock(locks.Word(a.region))
					var acc uint64
					for k := 0; k < a.span; k++ {
						w := regions[a.region].Word((a.offset + k) % regions[a.region].Words)
						switch {
						case !a.posted:
							acc += env.Read(w)
						case k == 0:
							env.Load(w)
						default:
							env.LoadAdd(w)
						}
					}
					env.Unlock(locks.Word(a.region))
					if a.posted {
						env.Store(privs[t].Word(0), 0)
					} else {
						env.Write(privs[t].Word(0), acc)
					}
				case 2:
					for k := 0; k < a.span; k++ {
						add(env, a.posted, privs[t].Word((a.offset+k)%privs[t].Words), 1)
					}
				case 3:
					env.Compute(a.amount)
				case 4:
					env.FlagSet(flags.Word(a.flagIdx), uint64(a.amount))
				case 5:
					env.FlagWaitAtLeast(flags.Word(a.flagIdx), uint64(a.amount))
				}
			}
			if bar != nil && ph < phases-1 {
				bar.Wait(env)
			}
		}
	}

	return Program{
		Prog: sim.Program{
			Name:    fmt.Sprintf("progen-%d", seed),
			Threads: cfg.Threads,
			Body:    body,
		},
		FirstPhaseSync: firstPhase,
		Cfg:            cfg,
	}
}

// add adds d to the word at w, posted or as a Read that parks.
func add(env *sim.Env, posted bool, w memsys.Addr, d uint64) {
	if posted {
		env.Add(w, d)
	} else {
		env.Write(w, env.Read(w)+d)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
