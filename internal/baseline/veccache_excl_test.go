package baseline

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"cord/internal/cache"
	"cord/internal/memsys"
	"cord/internal/progen"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

var bounds = []Bound{BoundInf, BoundL2, BoundL1}

// exclusiveViolation describes a line some cache of v marks exclusive while
// another cache holds it, or returns "".
func exclusiveViolation(v *VecCache) string {
	for p := range v.caches {
		msg := ""
		v.caches[p].ForEach(func(l memsys.Line, ls *vecLine) {
			for q := range v.caches {
				if _, held := v.caches[q].Peek(l); ls.excl && q != p && held && msg == "" {
					msg = fmt.Sprintf("%s: line %#x is exclusive at proc %d but also resident at proc %d",
						v.Name(), l, p, q)
				}
			}
		})
		if msg != "" {
			return msg
		}
	}
	return ""
}

// TestVecCacheExclusiveInvariant: after every access of any sequence of
// reads and writes, sync or data, from four processors to lines that
// collide in one L1 and L2 set, a line marked exclusive is resident in no
// other cache, in every storage bound.
func TestVecCacheExclusiveInvariant(t *testing.T) {
	// 24 lines over two L2 sets and one L1 set: both bounded geometries
	// overflow and evict.
	lines := make([]memsys.Line, 24)
	for i := range lines {
		lines[i] = memsys.Line(3 + i*cache.L1.Sets())
	}
	for _, b := range bounds {
		f := func(ops [300]uint16) bool {
			v := NewVecCache(VecConfig{Threads: 4, Procs: 4, Bound: b})
			d := drive(v)
			for i, op := range ops {
				kind, class := trace.Read, trace.Data
				if op&1 != 0 {
					kind = trace.Write
				}
				if op&6 == 0 {
					class = trace.Sync
				}
				l := lines[int(op>>5)%len(lines)]
				d.acc(int(op>>3)&3, memsys.WordAddr(l, int(op>>10)%memsys.WordsPerLine), kind, class)
				if msg := exclusiveViolation(v); msg != "" {
					t.Logf("after access %d: %s", i, msg)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", b, err)
		}
	}
}

// TestVecCacheReadHitStaysShared: a read hit on a shared line makes no
// probe, so it must not mark the line exclusive. If it did, proc 0's next
// write would skip the probe that invalidates proc 1's copy and checks its
// read bit, and the race below would go unreported.
func TestVecCacheReadHitStaysShared(t *testing.T) {
	for _, b := range bounds {
		v := NewVecCache(VecConfig{Threads: 2, Procs: 2, Bound: b})
		d := drive(v)
		d.acc(0, x, trace.Read, trace.Data) // miss, no holder: exclusive
		d.acc(1, x, trace.Read, trace.Data) // miss: both shared
		d.acc(0, x, trace.Read, trace.Data) // fast-path hit, no probe
		if msg := exclusiveViolation(v); msg != "" {
			t.Fatalf("after the read hit: %s", msg)
		}
		rep := d.acc(0, x+memsys.WordBytes, trace.Write, trace.Data)
		if len(rep.Races) != 0 {
			t.Fatalf("%s: write to another word raced: %+v", b, rep.Races)
		}
		if _, held := v.caches[1].Peek(memsys.LineOf(x)); held {
			t.Fatalf("%s: proc 0's write left proc 1's copy resident", b)
		}
		if msg := exclusiveViolation(v); msg != "" {
			t.Fatalf("after the write: %s", msg)
		}
		// Proc 1 reads again after the invalidation: a miss that finds
		// proc 0's write stamp.
		if rep := d.acc(1, x+memsys.WordBytes, trace.Read, trace.Data); len(rep.Races) != 1 {
			t.Fatalf("%s: read after unsynchronized write reported %d races", b, len(rep.Races))
		}
	}
}

// runVecSkipDiff runs prog once with every bound observed by a VecCache that
// skips the probe on exclusive hits and by one that always probes, and fails
// unless each pair agrees on Races() and RaceCount(). vecProcs is the
// detectors' processor count, which may be below the engine's.
func runVecSkipDiff(t *testing.T, prog sim.Program, threads, vecProcs int, cfg sim.Config) {
	t.Helper()
	var skip, probe []*VecCache
	for _, b := range bounds {
		vc := VecConfig{Threads: threads, Procs: vecProcs, Bound: b}
		skip = append(skip, NewVecCache(vc))
		probe = append(probe, newProbingVecCache(vc))
	}
	for i := range bounds {
		cfg.Observers = append(cfg.Observers, skip[i], probe[i])
	}
	if _, err := sim.New(cfg, prog).Run(); err != nil {
		t.Fatalf("%s: %v", prog.Name, err)
	}
	for i, b := range bounds {
		if skip[i].RaceCount() != probe[i].RaceCount() {
			t.Fatalf("%s %s: %d racy accesses with the skip, %d without",
				prog.Name, b, skip[i].RaceCount(), probe[i].RaceCount())
		}
		if !reflect.DeepEqual(skip[i].Races(), probe[i].Races()) {
			t.Fatalf("%s %s: races differ with the skip:\n%v\nwithout:\n%v",
				prog.Name, b, skip[i].Races(), probe[i].Races())
		}
	}
}

// TestVecCacheExclusiveSkipExact: skipping the probe on an exclusive hit
// changes no reported race, on the twelve applications and on generated
// programs, with injected removals and migrations.
func TestVecCacheExclusiveSkipExact(t *testing.T) {
	t.Run("apps", func(t *testing.T) {
		for ai, app := range workload.All() {
			runVecSkipDiff(t, app.Build(1, 4), 4, 4, sim.Config{
				Seed: uint64(ai)*97 + 3, Jitter: 7, InjectSkip: uint64(1 + ai*5), MigrateEvery: uint64(ai % 4),
			})
		}
	})
	t.Run("progen", func(t *testing.T) {
		for seed := uint64(0); seed < 12; seed++ {
			th := 2 + int(seed)%4
			runVecSkipDiff(t, progen.New(seed, contendedProgen(th)).Prog, th, max(th-1, 1), sim.Config{
				Seed: seed*13 + 5, Jitter: 7, Procs: th, InjectSkip: seed % 5, MigrateEvery: 1 + seed%3,
			})
		}
	})
}

// FuzzVecCacheExclusive is TestVecCacheExclusiveSkipExact over fuzzed
// inputs: app picks one of the twelve applications, or a generated program
// from seed when it is 12 or more; threads is the generated program's
// thread count (1–8); inject the dynamic sync instance removed (0 removes
// none); migrate the migration cadence (0 migrates never). The detectors
// get one processor fewer than the engine whenever the program has more
// than one thread, so migrations also exercise the processor wrap.
func FuzzVecCacheExclusive(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(3), uint16(0), uint8(0))
	f.Add(uint64(7), uint8(10), uint8(3), uint16(9), uint8(2))
	f.Add(uint64(42), uint8(12), uint8(3), uint16(5), uint8(1))
	f.Add(uint64(5), uint8(20), uint8(7), uint16(3), uint8(3))
	f.Add(uint64(3), uint8(13), uint8(0), uint16(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, app, threads uint8, inject uint16, migrate uint8) {
		cfg := sim.Config{Seed: seed, Jitter: 7, InjectSkip: uint64(inject), MigrateEvery: uint64(migrate % 8)}
		if apps := workload.All(); int(app) < len(apps) {
			runVecSkipDiff(t, apps[app].Build(1, 4), 4, 3, cfg)
			return
		}
		th := 1 + int(threads)%8
		cfg.Procs = th
		runVecSkipDiff(t, progen.New(seed, contendedProgen(th)).Prog, th, max(th-1, 1), cfg)
	})
}
